//! Workspace-level solver quality gate: on a small fixed-seed instance,
//! every placement solver must do at least as well as the affinity-blind
//! round-robin baseline, and `solve` must be deterministic per seed.

use exflow::affinity::{AffinityMatrix, RoutingTrace};
use exflow::model::routing::AffinityModelSpec;
use exflow::model::{CorpusSpec, TokenBatch};
use exflow::placement::annealing::AnnealParams;
use exflow::placement::exact::solve_exact;
use exflow::placement::{solve, Objective, SolverKind};

/// An 8-expert, 6-layer instance small enough for the exact DP
/// (`8!/(4!)^2 = 70` labeled states) with clear affinity structure.
fn fixed_instance() -> Objective {
    let model = AffinityModelSpec::new(6, 8)
        .with_affinity(0.85)
        .with_seed(7)
        .build();
    let batch = TokenBatch::sample(&model, &CorpusSpec::pile_proxy(4), 3000, 1, 7);
    let trace = RoutingTrace::from_batch(&batch, 8);
    Objective::from_affinities(&AffinityMatrix::consecutive(&trace))
}

fn all_solvers() -> [SolverKind; 4] {
    [
        SolverKind::Greedy,
        SolverKind::LocalSearch { restarts: 2 },
        SolverKind::Annealing(AnnealParams::default()),
        SolverKind::portfolio(50),
    ]
}

/// The DP optimum of [`fixed_instance`] on 2 units.
fn optimum(obj: &Objective) -> f64 {
    let (p, _) = solve_exact(obj, 2, 1000).expect("70 states fit the DP");
    obj.cross_mass(&p)
}

#[test]
fn every_solver_at_least_matches_round_robin() {
    let obj = fixed_instance();
    let rr = obj.cross_mass(&solve(&obj, 2, SolverKind::RoundRobin, 11));
    for kind in all_solvers() {
        let cost = obj.cross_mass(&solve(&obj, 2, kind.clone(), 11));
        assert!(
            cost <= rr + 1e-9,
            "{kind:?} cost {cost} worse than round-robin {rr}"
        );
    }
    let opt = optimum(&obj);
    assert!(
        opt <= rr + 1e-9,
        "optimum {opt} worse than round-robin {rr}"
    );
}

#[test]
fn exact_lower_bounds_the_heuristics() {
    let obj = fixed_instance();
    let opt = optimum(&obj);
    for kind in all_solvers() {
        let cost = obj.cross_mass(&solve(&obj, 2, kind.clone(), 11));
        assert!(
            opt <= cost + 1e-9,
            "{kind:?} cost {cost} below optimum {opt}"
        );
    }
}

#[test]
fn solve_is_deterministic_per_seed() {
    let obj = fixed_instance();
    let kinds = [SolverKind::RoundRobin].into_iter().chain(all_solvers());
    for kind in kinds {
        let a = solve(&obj, 2, kind.clone(), 5);
        let b = solve(&obj, 2, kind.clone(), 5);
        assert_eq!(a, b, "{kind:?} is not deterministic for a fixed seed");
    }
}
