//! Workspace gate: the dense and CSR objective backends are perfectly
//! interchangeable. On a large-expert (E = 256) sparse instance, every
//! `SolverKind` must produce the *identical placement* with *bit-identical*
//! cross mass on both backends — the sparse backend is a speed/memory
//! choice, never a quality choice.

use exflow::affinity::{AffinitySnapshot, RoutingTrace, StreamingAffinity};
use exflow::model::routing::AffinityModelSpec;
use exflow::model::{CorpusSpec, TokenBatch};
use exflow::placement::annealing::AnnealParams;
use exflow::placement::exact::solve_exact;
use exflow::placement::{
    solve_with, GapBackend, Objective, Parallelism, SolverKind, SPARSE_DENSITY_THRESHOLD,
};

const E: usize = 256;
const UNITS: usize = 8;

/// A profiled E=256 instance (1 gap keeps the dense side of the gate
/// affordable in debug builds; the backends' contract is per-gap, so one
/// gap exercises everything).
fn estimates() -> AffinitySnapshot {
    let model = AffinityModelSpec::new(2, E)
        .with_affinity(0.9)
        .with_seed(33)
        .build();
    let batch = TokenBatch::sample(&model, &CorpusSpec::pile_proxy(4), 2500, 1, 33);
    let mut estimate = StreamingAffinity::new(2, E, 1.0);
    estimate.observe(&RoutingTrace::from_batch(&batch, E));
    estimate.snapshot()
}

/// Every solver family, parameterized lean — the gate is about backend
/// equivalence, not solver effort. The exact DP is far past its limit at
/// E=256; `exact_is_backend_invariant_within_the_dp_limit` covers it.
fn all_kinds() -> Vec<SolverKind> {
    vec![
        SolverKind::RoundRobin,
        SolverKind::Greedy,
        SolverKind::LocalSearch { restarts: 0 },
        SolverKind::Annealing(AnnealParams {
            t_start: 0.01,
            t_end: 0.004,
            moves_per_temp: 50,
            cooling: 0.5,
            n_starts: 1,
        }),
        SolverKind::portfolio(0),
    ]
}

#[test]
fn every_solver_is_backend_invariant_at_e256() {
    let mats = estimates();
    let dense = Objective::from_snapshot_with(&mats, GapBackend::Dense);
    let sparse = Objective::from_snapshot_with(&mats, GapBackend::Sparse);
    assert!(!dense.gap_is_sparse(0));
    assert!(sparse.gap_is_sparse(0));
    // The instance must actually be in the sparse regime for the gate to
    // mean anything.
    assert!(
        sparse.density() < SPARSE_DENSITY_THRESHOLD,
        "instance density {} is not sparse",
        sparse.density()
    );

    for kind in all_kinds() {
        let pd = solve_with(&dense, UNITS, &kind, 97, Parallelism::single());
        let ps = solve_with(&sparse, UNITS, &kind, 97, Parallelism::single());
        assert_eq!(pd, ps, "{kind:?} placements diverged across backends");
        let cd = dense.cross_mass(&pd);
        let cs = sparse.cross_mass(&ps);
        assert_eq!(
            cd.to_bits(),
            cs.to_bits(),
            "{kind:?} cross mass diverged: dense {cd} vs sparse {cs}"
        );
        // Cross-evaluation: each backend scores the other's placement to
        // the same bits too.
        assert_eq!(
            dense.cross_mass(&ps).to_bits(),
            sparse.cross_mass(&pd).to_bits()
        );
    }
}

#[test]
fn auto_backend_matches_both_forced_backends_at_e256() {
    let mats = estimates();
    let auto = Objective::from_snapshot(&mats);
    // At this density Auto must have picked CSR.
    assert!(auto.gap_is_sparse(0));
    let dense = Objective::from_snapshot_with(&mats, GapBackend::Dense);
    let kind = SolverKind::LocalSearch { restarts: 0 };
    let pa = solve_with(&auto, UNITS, &kind, 5, Parallelism::single());
    let pd = solve_with(&dense, UNITS, &kind, 5, Parallelism::single());
    assert_eq!(pa, pd);
    assert_eq!(
        auto.cross_mass(&pa).to_bits(),
        dense.cross_mass(&pd).to_bits()
    );
}

#[test]
fn exact_is_backend_invariant_within_the_dp_limit() {
    // 8 experts on 2 units: 8!/(4!)^2 = 70 labeled states.
    let model = AffinityModelSpec::new(4, 8)
        .with_affinity(0.9)
        .with_seed(33)
        .build();
    let batch = TokenBatch::sample(&model, &CorpusSpec::pile_proxy(4), 2000, 1, 33);
    let mut estimate = StreamingAffinity::new(4, 8, 1.0);
    estimate.observe(&RoutingTrace::from_batch(&batch, 8));
    let mats = estimate.snapshot();
    let dense = Objective::from_snapshot_with(&mats, GapBackend::Dense);
    let sparse = Objective::from_snapshot_with(&mats, GapBackend::Sparse);
    assert!(sparse.gap_is_sparse(0));
    let (pd, cd) = solve_exact(&dense, 2, 1000).expect("70 states fit the DP");
    let (ps, cs) = solve_exact(&sparse, 2, 1000).expect("70 states fit the DP");
    assert_eq!(pd, ps);
    assert_eq!(cd.to_bits(), cs.to_bits());
}
