//! `offline-fig10`: the paper's Fig. 10 batch-generation benchmark —
//! MoE-GPT-M/32e on 2x4 GPUs, every parallelism mode. One `CommWorld`
//! lives for a whole mode run, so host time goes to collectives traffic
//! and expert FFN matmuls; placement and affinity appear only in set-up
//! (the engine build) and the serving layer not at all.

use exflow::core::{
    InferenceEngine, InferenceReport, OpBreakdown, Parallelism, ParallelismMode, Scenario,
};
use exflow::model::presets::moe_gpt_m;
use exflow::model::AffinityModelSpec;
use exflow::topology::ClusterSpec;
use exflow::ArrivalProcess;

use crate::calibration::OFFLINE_ITERATIONS;
use crate::harness::{LayerValues, Outcome, Workload};
use crate::probes;
use crate::trace::Recorder;
use crate::workloads::replan::Replan;
use crate::workloads::{stream_seed, Stream};

const EXPERTS: usize = 32;
const REQUESTS_PER_GPU: usize = 32;
const PROMPT_LEN: usize = 32;
const PROFILE_TOKENS: usize = 8000;

/// Span of each mode's run, in `ParallelismMode::ALL` order.
const MODE_SPANS: [&str; 3] = [
    "core.engine.offline_run.vanilla",
    "core.engine.offline_run.cc",
    "core.engine.offline_run.cca",
];

pub struct OfflineFig10;

fn cluster() -> ClusterSpec {
    ClusterSpec::new(2, 4).expect("2x4 is a valid cluster")
}

fn breakdown(layer: &mut LayerValues, b: &OpBreakdown, names: [&'static str; 6]) {
    let ops = [
        b.gating,
        b.attention,
        b.expert_ffn,
        b.alltoall,
        b.allgather,
        b.imbalance,
    ];
    layer.extend(names.into_iter().zip(ops));
}

impl Workload for OfflineFig10 {
    type Inputs = InferenceEngine;
    /// One report per mode, in `ParallelismMode::ALL` order.
    type Report = Vec<InferenceReport>;

    fn prepare(&self, seed: u64, rec: &Recorder) -> InferenceEngine {
        let _s = rec.span("core.engine.build");
        let model = moe_gpt_m(EXPERTS);
        let spec = AffinityModelSpec::new(model.n_layers, EXPERTS)
            .with_seed(stream_seed(seed, Stream::Routing));
        InferenceEngine::builder(model, cluster())
            .routing_spec(spec)
            .requests_per_gpu(REQUESTS_PER_GPU)
            .prompt_len(PROMPT_LEN)
            .profile_tokens(PROFILE_TOKENS)
            .n_iterations(OFFLINE_ITERATIONS)
            .parallelism(Parallelism::new(1))
            .seed(seed)
            .build()
    }

    fn run(&self, engine: &mut InferenceEngine, rec: &Recorder) -> Vec<InferenceReport> {
        ParallelismMode::ALL
            .into_iter()
            .zip(MODE_SPANS)
            .map(|(mode, span)| {
                let _s = rec.span(span);
                engine
                    .run_scenario(&Scenario::offline(mode))
                    .expect_offline()
            })
            .collect()
    }

    fn digest(&self, engine: &InferenceEngine, reports: &Vec<InferenceReport>) -> Outcome {
        let [vanilla, _cc, cca] = &reports[..] else {
            panic!("one report per parallelism mode");
        };
        let mut violations = Vec::new();
        let tokens_per_mode =
            (OFFLINE_ITERATIONS * REQUESTS_PER_GPU * engine.config().cluster.world_size()) as u64;
        for r in reports {
            if r.tokens_processed != tokens_per_mode {
                violations.push(format!(
                    "{}: generated {} of {tokens_per_mode} tokens",
                    r.mode.label(),
                    r.tokens_processed
                ));
            }
        }
        if cca.throughput() <= vanilla.throughput() {
            violations.push(format!(
                "ExFlow ({} tokens/s) does not beat Vanilla ({} tokens/s)",
                cca.throughput(),
                vanilla.throughput()
            ));
        }

        let mut layer = vec![
            ("sim.tokens_per_s", cca.throughput()),
            (
                "sim.speedup_vs_vanilla",
                cca.throughput() / vanilla.throughput(),
            ),
            (
                "collectives.alltoall_bytes_local",
                cca.alltoall_bytes.local as f64,
            ),
            (
                "collectives.alltoall_bytes_intra_node",
                cca.alltoall_bytes.intra_node as f64,
            ),
            (
                "collectives.alltoall_bytes_inter_node",
                cca.alltoall_bytes.inter_node as f64,
            ),
            (
                "collectives.allgather_bytes_inter_node",
                cca.allgather_bytes.inter_node as f64,
            ),
        ];
        breakdown(
            &mut layer,
            &vanilla.breakdown,
            [
                "core.engine.sim_gating_s_vanilla",
                "core.engine.sim_attention_s_vanilla",
                "core.engine.sim_expert_ffn_s_vanilla",
                "core.engine.sim_alltoall_s_vanilla",
                "core.engine.sim_allgather_s_vanilla",
                "core.engine.sim_imbalance_s_vanilla",
            ],
        );
        breakdown(
            &mut layer,
            &cca.breakdown,
            [
                "core.engine.sim_gating_s_cca",
                "core.engine.sim_attention_s_cca",
                "core.engine.sim_expert_ffn_s_cca",
                "core.engine.sim_alltoall_s_cca",
                "core.engine.sim_allgather_s_cca",
                "core.engine.sim_imbalance_s_cca",
            ],
        );

        let steps = (reports.len() * OFFLINE_ITERATIONS) as u64;
        Outcome {
            steps,
            attempted: steps,
            failed: 0,
            // The sim-clock headline follows the paper: ExFlow mode only.
            sim_steps_per_s: OFFLINE_ITERATIONS as f64 / cca.total_time,
            sim_gpu_cross_share: 1.0 - cca.dispatch.gpu_local_fraction(),
            violations,
            layer,
        }
    }

    fn probe(&self, engine: &InferenceEngine, seed: u64, rec: &Recorder) -> LayerValues {
        let cfg = engine.config();
        let w = cfg.cluster.world_size();
        let tokens_per_step = REQUESTS_PER_GPU * w;
        probes::substrate(
            &probes::SubstrateShape {
                cluster: cfg.cluster,
                cost: cfg.link_cost,
                pair_bytes: tokens_per_step / (w * w) * cfg.model.token_bytes() as usize,
                sim_dim: cfg.model.sim_dim,
                tokens_per_expert: tokens_per_step / EXPERTS,
                arrival: ArrivalProcess::poisson(1.0),
                n_arrivals: tokens_per_step,
            },
            seed,
            rec,
        );
        let mut layer = probes::engine_steps(engine, rec);
        layer.extend(Replan::shaped_like(engine, PROFILE_TOKENS).probe_sequence(seed, rec));
        layer
    }

    fn engine_shape(&self) -> Option<(usize, usize)> {
        let model = moe_gpt_m(EXPERTS);
        Some((cluster().world_size(), model.n_experts * model.n_layers))
    }
}
