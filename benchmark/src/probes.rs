//! The per-layer probe phase of a traced run: workload-shaped inputs
//! replayed through each substrate crate's public functions, one span per
//! call or per loop of calls. Nothing here is part of a timed repetition.

use std::hint::black_box;

use rand::rngs::StdRng;
use rand::SeedableRng;

use exflow::collectives::CommWorld;
use exflow::core::{InferenceEngine, ParallelismMode};
use exflow::model::{ArrivalProcess, Expert, Matrix};
use exflow::topology::{ClusterSpec, CollectiveCostModel, CostModel};

use crate::calibration::MAX_BATCH;
use crate::harness::LayerValues;
use crate::trace::Recorder;
use crate::workloads::{stream_seed, Stream};

/// What the topology, collectives and model probes are sized by.
pub struct SubstrateShape {
    /// The workload's fleet: collective rounds run in a world this size.
    pub cluster: ClusterSpec,
    pub cost: CostModel,
    /// Mean Alltoall payload per (source, destination) pair.
    pub pair_bytes: usize,
    pub sim_dim: usize,
    /// Rows of one expert FFN call.
    pub tokens_per_expert: usize,
    pub arrival: ArrivalProcess,
    pub n_arrivals: usize,
}

const COST_MODEL_CALLS: u64 = 20_000;
const WORLD_SPAWNS: usize = 100;
const COLLECTIVE_ROUNDS: u64 = 400;
const EXPERT_INITS: u64 = 2_000;
const EXPERT_FORWARDS: u64 = 2_000;
const ARRIVAL_SAMPLES: usize = 5;

pub fn substrate(shape: &SubstrateShape, seed: u64, rec: &Recorder) {
    let seed = stream_seed(seed, Stream::Probe);
    let w8 = ClusterSpec::new(2, 4).expect("2x4 is a valid cluster");
    let w4 = ClusterSpec::new(2, 2).expect("2x2 is a valid cluster");

    // topology: the closed-form collective prices, always at W = 8.
    let model = CollectiveCostModel::new(w8, shape.cost);
    let send = vec![vec![shape.pair_bytes as u64; 8]; 8];
    let contrib = vec![shape.pair_bytes as u64 * 8; 8];
    {
        let _s = rec.span_ops("topology.alltoallv_time", COST_MODEL_CALLS);
        for _ in 0..COST_MODEL_CALLS {
            black_box(model.alltoallv_time(black_box(&send)));
        }
    }
    {
        let _s = rec.span_ops("topology.allgatherv_time", COST_MODEL_CALLS);
        for _ in 0..COST_MODEL_CALLS {
            black_box(model.allgatherv_time(black_box(&contrib)));
        }
    }

    // collectives: what one decode step pays before any work — a world
    // and its rank threads — at both serving fleet sizes.
    for (name, cluster) in [
        ("collectives.world_spawn_w4", w4),
        ("collectives.world_spawn_w8", w8),
    ] {
        for _ in 0..WORLD_SPAWNS {
            let _s = rec.span(name);
            CommWorld::new(cluster, shape.cost).run(|_| ());
        }
    }
    // ... and one round of each collective inside a single long-lived
    // world (its one spawn is amortised over the rounds).
    let world = CommWorld::new(shape.cluster, shape.cost);
    let w = shape.cluster.world_size();
    {
        let _s = rec.span_ops("collectives.alltoall", COLLECTIVE_ROUNDS);
        world.run(|comm| {
            for _ in 0..COLLECTIVE_ROUNDS {
                black_box(comm.all_to_all_v(vec![vec![0u8; shape.pair_bytes]; w]));
            }
        });
    }
    {
        let _s = rec.span_ops("collectives.allgather", COLLECTIVE_ROUNDS);
        world.run(|comm| {
            for _ in 0..COLLECTIVE_ROUNDS {
                black_box(comm.all_gather_v(vec![0u8; shape.pair_bytes]));
            }
        });
    }
    {
        let _s = rec.span_ops("collectives.barrier", COLLECTIVE_ROUNDS);
        world.run(|comm| {
            for _ in 0..COLLECTIVE_ROUNDS {
                comm.barrier();
            }
        });
    }

    // model: the weights every rank regenerates per step, one FFN call,
    // and the arrival sampler.
    let mut rng = StdRng::seed_from_u64(seed);
    {
        let _s = rec.span_ops("model.expert_init", EXPERT_INITS);
        for _ in 0..EXPERT_INITS {
            black_box(Expert::random(shape.sim_dim, shape.sim_dim * 4, &mut rng));
        }
    }
    let expert = Expert::random(shape.sim_dim, shape.sim_dim * 4, &mut rng);
    let x = Matrix::random(shape.tokens_per_expert, shape.sim_dim, &mut rng);
    {
        let _s = rec.span_ops("model.expert_forward", EXPERT_FORWARDS);
        for _ in 0..EXPERT_FORWARDS {
            black_box(expert.forward(black_box(&x)));
        }
    }
    for i in 0..ARRIVAL_SAMPLES {
        let _s = rec.span("model.arrival_sample");
        black_box(shape.arrival.sample(shape.n_arrivals, seed ^ i as u64));
    }
}

const PROBE_STEPS: usize = 200;

/// `probe_step_time(mode, 32)` is exactly one `run_with_batches`: the
/// host cost of a single full-batch decode step, with no serving loop
/// around it. Also re-probes the *simulated* step the frozen calibration
/// was derived from.
pub fn engine_steps(engine: &InferenceEngine, rec: &Recorder) -> LayerValues {
    let mode = ParallelismMode::ContextCoherentAffinity;
    let mut sim_step_s = 0.0;
    for _ in 0..PROBE_STEPS {
        let _s = rec.span("core.engine.probe_step");
        sim_step_s = engine.probe_step_time(mode, MAX_BATCH);
    }
    vec![("core.engine.probe_sim_step_s", sim_step_s)]
}
