//! Workspace-level parallel-determinism gate: the contract behind every
//! `--jobs`/`Parallelism` knob in this repo is that thread count changes
//! wall time and *nothing else*. Same seed ⇒ identical `Placement` and
//! bit-identical `cross_mass` at 1, 2, and 8 threads, for every
//! stochastic solver and for the staged pipeline.

use exflow::affinity::{AffinityMatrix, RoutingTrace};
use exflow::model::routing::AffinityModelSpec;
use exflow::model::{CorpusSpec, TokenBatch};
use exflow::placement::annealing::AnnealParams;
use exflow::placement::greedy::solve_greedy;
use exflow::placement::local_search::{improve, random_placement};
use exflow::placement::staged::solve_staged_with;
use exflow::placement::{solve_with, split_seed, Objective, Parallelism, Placement, SolverKind};
use exflow::topology::ClusterSpec;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A profiled 16-expert, 8-layer instance with enough restart-sensitive
/// structure that a wrong RNG-stream split would actually show up: its
/// affinity is weak enough that local-search restarts beat the greedy
/// chain.
fn fixed_instance() -> Objective {
    let model = AffinityModelSpec::new(8, 16)
        .with_affinity(0.3)
        .with_seed(3)
        .build();
    let batch = TokenBatch::sample(&model, &CorpusSpec::pile_proxy(4), 4000, 1, 3);
    let trace = RoutingTrace::from_batch(&batch, 16);
    Objective::from_affinities(&AffinityMatrix::consecutive(&trace))
}

fn stochastic_solvers() -> Vec<SolverKind> {
    vec![
        SolverKind::LocalSearch { restarts: 6 },
        SolverKind::Annealing(AnnealParams::default().with_starts(3)),
        SolverKind::portfolio(100),
    ]
}

#[test]
fn placements_are_bit_identical_at_1_2_and_8_threads() {
    let obj = fixed_instance();
    // Local search's six restarts of seed 21 end at different placements
    // and one beats the polished greedy start, so its winner is whichever
    // restart the seed's streams draw: a stream that moved with the width
    // would show.
    let ends: Vec<Placement> = (1..=6)
        .map(|task| {
            let mut rng = StdRng::seed_from_u64(split_seed(21, task));
            let mut p = random_placement(8, 16, 4, &mut rng);
            improve(&obj, &mut p, 50);
            p
        })
        .collect();
    assert!(
        ends.iter().any(|p| *p != ends[0]),
        "one end from every start"
    );
    let greedy_cost = improve(&obj, &mut solve_greedy(&obj, 4), 50);
    assert!(ends.iter().any(|p| obj.cross_mass(p) < greedy_cost));
    for kind in stochastic_solvers() {
        let seq = solve_with(&obj, 4, &kind, 21, Parallelism::single());
        let seq_cost = obj.cross_mass(&seq);
        for threads in [2, 8] {
            let par = solve_with(&obj, 4, &kind, 21, Parallelism::new(threads));
            assert_eq!(par, seq, "{kind:?} diverged at {threads} threads");
            assert_eq!(
                obj.cross_mass(&par).to_bits(),
                seq_cost.to_bits(),
                "{kind:?} cross_mass diverged at {threads} threads"
            );
        }
    }
}

#[test]
fn different_seeds_still_differ_at_any_width() {
    // Sanity check that the invariance above is not a constant function:
    // the seed must matter even when the width does not.
    let obj = fixed_instance();
    let kind = SolverKind::Annealing(AnnealParams::default().with_starts(3));
    let a = solve_with(&obj, 4, &kind, 1, Parallelism::new(8));
    let b = solve_with(&obj, 4, &kind, 2, Parallelism::new(8));
    assert_ne!(a, b, "seeds must actually matter");
}

#[test]
fn staged_pipeline_is_bit_identical_across_widths() {
    let obj = fixed_instance();
    let cluster = ClusterSpec::new(2, 2).unwrap();
    let seq = solve_staged_with(&obj, &cluster, 4, 9, Parallelism::single());
    for threads in [2, 8] {
        let par = solve_staged_with(&obj, &cluster, 4, 9, Parallelism::new(threads));
        assert_eq!(par.gpu_level, seq.gpu_level, "{threads} threads diverged");
        assert_eq!(par.node_level, seq.node_level, "{threads} threads diverged");
        assert_eq!(
            obj.cross_mass(&par.gpu_level).to_bits(),
            obj.cross_mass(&seq.gpu_level).to_bits()
        );
    }
}
