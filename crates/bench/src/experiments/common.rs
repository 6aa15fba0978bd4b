//! What two or more experiment modules share: the [`Workload`] every
//! sweep runs at and the paper's engine and cluster shapes, then the
//! beyond-paper tables' profiling and drift traces, incumbents, serving
//! cells, per-window budget checks and bar helpers, and the helpers of the
//! tests that re-run a sweep's cells at other solver widths and gap
//! backends.

use exflow_affinity::{AffinitySnapshot, RoutingTrace, StreamingAffinity};
use exflow_core::json::Json;
use exflow_core::{
    BatchPolicy, EngineBuilder, InferenceEngine, InferenceReport, OnlineConfig, ParallelismMode,
    Scenario, ServingConfig,
};
use exflow_model::presets::moe_gpt_m;
use exflow_model::routing::AffinityModelSpec;
use exflow_model::{ArrivalProcess, CorpusSpec, DriftSchedule, ModelConfig, TokenBatch};
use exflow_placement::greedy::solve_greedy;
use exflow_placement::local_search::improve;
use exflow_placement::online::MigrationPlan;
use exflow_placement::{split_seed, Objective, Placement, ReplicationPlan};
#[cfg(test)]
use exflow_placement::{GapBackend, Parallelism};
use exflow_topology::{ClusterSpec, CostModel, LinkCost};

use crate::table::num;

/// What a sweep runs at: for a paper sweep that builds engines, how large
/// a cluster and how deep a model it visits and the offline batch
/// [`engine_for`] runs; for a beyond-paper sweep, the master seed. Non-test
/// code holds exactly one value, [`PAPER`]; a sweep's grids, model presets
/// and sizes are its own, written once in its module.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Largest cluster a sweep visits; grid points above it are skipped.
    pub max_gpus: usize,
    /// Deepest model a sweep builds; deeper presets are cut to this many
    /// MoE layers.
    pub max_layers: usize,
    /// Requests per GPU. Moderately large so the dispatch Alltoall is
    /// bandwidth- rather than straggler-dominated, matching the paper's
    /// batched serving scenario.
    pub requests_per_gpu: usize,
    /// Prompt tokens per request.
    pub prompt_len: usize,
    /// Generation iterations per run.
    pub n_iterations: usize,
    /// Tokens of the profiling trace placements are solved from.
    pub profile_tokens: usize,
    /// Local-search restarts of the placement solve.
    pub placement_restarts: usize,
    /// Master seed of the beyond-paper `table_*` sweeps, and the `seed`
    /// line of the document (the paper artifacts keep their own seeds).
    pub seed: u64,
}

/// The paper's evaluation: up to 64 GPUs, every preset at its own depth,
/// and the committed baseline's master seed. What every `repro` artifact
/// and every gated row runs at.
pub const PAPER: Workload = Workload {
    max_gpus: 64,
    max_layers: usize::MAX,
    requests_per_gpu: 48,
    prompt_len: 32,
    n_iterations: 6,
    profile_tokens: 3000,
    placement_restarts: 1,
    seed: 20_240_522,
};

impl Workload {
    /// `model`, no deeper than this workload builds (the expert count that
    /// drives the experiments is kept).
    pub fn cut(&self, mut model: ModelConfig) -> ModelConfig {
        model.n_layers = model.n_layers.min(self.max_layers);
        model
    }

    /// The cluster sizes of `grid` this workload visits.
    pub fn gpus(&self, grid: &[usize]) -> Vec<usize> {
        let visited = grid.iter().filter(|&&gpus| gpus <= self.max_gpus);
        visited.copied().collect()
    }

    /// The `(model, GPU count)` cells of a model x cluster-size sweep:
    /// each scenario's model [`cut`](Self::cut), on each size of its grid
    /// this workload visits.
    pub fn cells(&self, scenarios: &[(ModelConfig, &[usize])]) -> Vec<(ModelConfig, usize)> {
        let cells = scenarios.iter().flat_map(|(model, grid)| {
            let model = self.cut(model.clone());
            let visited = self.gpus(grid).into_iter();
            visited.map(move |gpus| (model.clone(), gpus))
        });
        cells.collect()
    }
}

/// Run the bare offline benchmark in `mode` through the [`Scenario`]
/// front door — the one-liner every figure/table experiment uses.
pub fn run_offline(engine: &InferenceEngine, mode: ParallelismMode) -> InferenceReport {
    engine
        .run_scenario(&Scenario::offline(mode))
        .expect_offline()
}

/// The cluster shape the paper evaluates on: 4 GPUs per node, so `gpus`
/// GPUs means `gpus / 4` nodes (or a partial single node below 4).
pub fn cluster_for(gpus: usize) -> ClusterSpec {
    if gpus < 4 {
        ClusterSpec::single_node(gpus).expect("gpus >= 1")
    } else {
        assert!(
            gpus.is_multiple_of(4),
            "multi-node shapes must fill 4-GPU nodes"
        );
        ClusterSpec::wilkes3(gpus / 4).expect("nodes >= 1")
    }
}

/// The relative cut in cross traffic a placement buys over the baseline's
/// local fraction: `1 - (1 - local) / (1 - base_local)`, or 0 when the
/// baseline already kept everything local.
pub fn reduction(base_local: f64, local: f64) -> f64 {
    let base_cross = 1.0 - base_local;
    if base_cross == 0.0 {
        return 0.0;
    }
    1.0 - (1.0 - local) / base_cross
}

/// Build an engine for `model` on `gpus` GPUs running `w`'s batch.
pub fn engine_for(model: ModelConfig, gpus: usize, w: &Workload) -> InferenceEngine {
    InferenceEngine::builder(model, cluster_for(gpus))
        .requests_per_gpu(w.requests_per_gpu)
        .prompt_len(w.prompt_len)
        .n_iterations(w.n_iterations)
        .profile_tokens(w.profile_tokens)
        .placement_restarts(w.placement_restarts)
        .seed(20_240_401)
        .build()
}

/// GPUs each large-expert (`E = 256/512`) instance is placed across.
pub(crate) const N_UNITS_LARGE: usize = 8;

/// Experts per layer of the `E = 16` drift scenarios.
pub(crate) const ONLINE_EXPERTS: usize = 16;

/// Windows between re-plans in the `E = 16` drift scenarios.
pub(crate) const ONLINE_REPLAN_EVERY: usize = 1;

/// Decay of the streaming estimator in the window-by-window sweeps.
pub(crate) const ONLINE_DECAY: f64 = 0.5;

/// Experts per layer of every serving cell (small enough that each decode
/// step's engine pass stays cheap: a sweep runs hundreds of them).
pub(crate) const SERVING_EXPERTS: usize = 16;

/// Batch-size cap of the serving cells (also the occupancy the arrival
/// rates are calibrated against).
pub(crate) const SERVING_MAX_BATCH: usize = 32;

/// FFN inner dimension of the serving model's experts. Much narrower
/// than the GPT convention (`4 * d_model`): serving cells live in the
/// paper's communication-bounded regime (Fig. 9d), where dispatch
/// Alltoalls — the thing placement quality controls — are a large
/// share of step time, and expert payloads (hence migration stalls)
/// are small.
pub(crate) const SERVING_D_FF: usize = 128;

/// Decode steps (generated tokens) per request.
pub(crate) const SERVING_DECODE_STEPS: usize = 4;

/// Serving windows the virtual horizon divides into (drift checks fire
/// at window boundaries).
pub(crate) const SERVING_WINDOWS: usize = 6;

/// Offered load as a fraction of full-batch service capacity, measured
/// against the *profiled* placement on *profiled* traffic. Live drifted
/// traffic serves slower than that calibration, so the static incumbent
/// runs saturated and its queue backs up into the latency tail, while a
/// re-placed server recovers enough service rate to stay stable.
pub(crate) const SERVING_UTILIZATION: f64 = 0.96;

/// Inter-node line rate of the serving cells' cluster, bytes/s. A
/// quarter of the wilkes3 preset's 50 GB/s: the serving story plays out
/// in the paper's communication-bounded regime (Fig. 9d), where the
/// dispatch locality a placement buys — or loses, as traffic drifts —
/// moves the effective service rate, and queueing near saturation
/// amplifies that into the latency tail.
const SERVING_INTER_NODE_BW: f64 = 12.5e9;

/// Streaming-estimator decay of the serving cells.
pub(crate) const SERVING_DECAY: f64 = 0.3;

/// `num / den`, or 0 when the denominator is not positive: a degenerate
/// cell reports no ratio rather than an infinite one.
pub(crate) fn ratio(num: f64, den: f64) -> f64 {
    if den <= 0.0 {
        return 0.0;
    }
    num / den
}

/// Sample `tokens` top-`k` tokens from the fixed-seed routing model of an
/// `(layers, e)` instance and run the one profiling trace through the
/// streaming estimator: the CSR snapshot objectives are built from.
pub(crate) fn profile(
    layers: usize,
    e: usize,
    tokens: usize,
    k: usize,
    seed: u64,
) -> AffinitySnapshot {
    let spec = AffinityModelSpec::new(layers, e).with_seed(seed);
    let corpus = CorpusSpec::pile_proxy(spec.n_domains);
    let batch = TokenBatch::sample(&spec.build(), &corpus, tokens, k, seed);
    snapshot_of(&RoutingTrace::from_batch(&batch, e))
}

/// Run one trace through the streaming estimator (no decay) and freeze
/// it: the snapshot every objective a sweep profiles is built from.
pub(crate) fn snapshot_of(trace: &RoutingTrace) -> AffinitySnapshot {
    let mut estimate = StreamingAffinity::new(trace.n_layers(), trace.n_experts(), 1.0);
    estimate.observe(trace);
    estimate.snapshot()
}

/// Sample one serving window's routing trace from a drift schedule, at
/// gating fan-out `k` (top-2 cells route every token through two experts
/// per layer).
pub(crate) fn window_trace(
    drift: &DriftSchedule,
    window: usize,
    tokens: usize,
    k: usize,
    seed: u64,
) -> RoutingTrace {
    let model = drift.model_at(window);
    let batch = TokenBatch::sample(
        model,
        &CorpusSpec::pile_proxy(model.n_domains()),
        tokens,
        k,
        split_seed(seed, window as u64),
    );
    RoutingTrace::from_batch(&batch, model.n_experts())
}

/// The placement the window-by-window sweeps start from: greedy plus a
/// bounded polish — deterministic, and cheap enough for `E = 512`.
pub(crate) fn greedy_incumbent(objective: &Objective, units: usize) -> Placement {
    let mut placement = solve_greedy(objective, units);
    improve(objective, &mut placement, 10);
    placement
}

/// The per-window half of the byte-budget bars, which no row can express:
/// `Err` if `who`'s re-plan at `window` migrated more than its budget.
pub(crate) fn within_byte_budget(
    who: &str,
    window: usize,
    plan: &MigrationPlan,
    budget_bytes: u64,
) -> Result<(), String> {
    if plan.total_bytes() > budget_bytes {
        return Err(format!(
            "{who} re-plan at window {window} migrated {} bytes over the {budget_bytes} budget",
            plan.total_bytes()
        ));
    }
    Ok(())
}

/// The per-window half of the replica-memory bars: `Err` if `who`'s
/// re-plan at `window` leaves some GPU more than `slots` extra copies.
pub(crate) fn within_slot_budget(
    who: &str,
    window: usize,
    plan: &ReplicationPlan,
    slots: u64,
) -> Result<(), String> {
    if plan.extra_copies_per_gpu() as u64 > slots {
        return Err(format!(
            "{who} re-plan at window {window} holds {} extra copies over the {slots}-slot \
             memory budget",
            plan.extra_copies_per_gpu()
        ));
    }
    Ok(())
}

/// The model every serving cell runs: `SERVING_EXPERTS` narrow experts.
pub(crate) fn serving_model(layers: usize) -> ModelConfig {
    let mut model = moe_gpt_m(SERVING_EXPERTS);
    model.n_layers = layers;
    model.d_ff = SERVING_D_FF;
    model
}

/// The builder of one serving engine. All policies share the model,
/// cluster, and master seed, so the profiled incumbent placement — and,
/// downstream, the arrival sample and per-request routing draws of the
/// serving run — are identical across policies; only the re-placement
/// behavior differs.
pub(crate) fn serving_builder(layers: usize, online: OnlineConfig, seed: u64) -> EngineBuilder {
    let cost = CostModel::new(
        LinkCost::from_latency_bandwidth(0.3e-6, 1.5e12),
        LinkCost::from_latency_bandwidth(1.0e-6, 300.0e9),
        LinkCost::from_latency_bandwidth(3.5e-6, SERVING_INTER_NODE_BW),
    )
    .with_alltoall_efficiency([1.0, 0.5, 0.16]);
    InferenceEngine::builder(serving_model(layers), ClusterSpec::new(2, 2).unwrap())
        .link_cost(cost)
        .requests_per_gpu(SERVING_MAX_BATCH / 4)
        .prompt_len(4)
        .profile_tokens(800)
        .online(online)
        .seed(seed ^ 0x5e_4b_1e)
}

/// One serving cell's arrival calibration, against a probed full-batch
/// step time (`InferenceEngine::probe_step_time`): `(rate, horizon,
/// config)`, where `rate` fills `utilization` of the cell's token-serving
/// capacity whatever the model shape, `horizon` is how long that rate
/// takes to deliver every request, and `config(arrival)` is the cell's
/// serving front-end under one arrival process.
pub(crate) fn calibrate_serving(
    eng: &InferenceEngine,
    mode: ParallelismMode,
    utilization: f64,
    n_requests: usize,
) -> Result<(f64, f64, impl Fn(ArrivalProcess) -> ServingConfig), String> {
    let step = eng.probe_step_time(mode, SERVING_MAX_BATCH);
    if step <= 0.0 {
        return Err(format!("probed step time {step} must be positive"));
    }
    let rate = utilization * SERVING_MAX_BATCH as f64 / (SERVING_DECODE_STEPS as f64 * step);
    let horizon = n_requests as f64 / rate;
    let config = move |arrival| ServingConfig {
        arrival,
        n_requests,
        decode_steps: SERVING_DECODE_STEPS,
        batch: BatchPolicy::SizeOrWait {
            max_size: SERVING_MAX_BATCH,
            max_wait: 2.0 * step,
        },
        window_duration: horizon / SERVING_WINDOWS as f64,
    };
    Ok((rate, horizon, config))
}

/// `" moved M bytes across R re-plans, over the B-byte per-re-plan
/// budget"` when the policy whose fields start with `prefix` migrated more
/// than the per-re-plan budget in field `budget` allows: the whole-run
/// half of the byte-budget bars.
pub(crate) fn over_byte_budget(f: &Json, prefix: &str, budget: &str) -> Option<String> {
    let migrated = num(f, &format!("{prefix}migrated_bytes"));
    let (budget, replans) = (num(f, budget), num(f, &format!("{prefix}replans")));
    (migrated > budget * replans).then(|| {
        format!(
            " moved {migrated} bytes across {replans} re-plans, over the {budget}-byte \
             per-re-plan budget"
        )
    })
}

/// The solver widths and gap backends the invariance tests re-run a
/// sweep's cells at: 1, 2 and 8 threads on the dense backend and one
/// thread on CSR. The sweeps themselves run at one thread on
/// `GapBackend::Auto`, the default of `Objective::from_snapshot` and of
/// the engine builder.
#[cfg(test)]
pub(crate) const VARIANTS: [(usize, GapBackend); 4] = [
    (1, GapBackend::Dense),
    (2, GapBackend::Dense),
    (8, GapBackend::Dense),
    (1, GapBackend::Sparse),
];

/// What the invariance tests hold a sweep's cells to: `run(threads,
/// backend)` is `reference` — the cell as the sweep computes it — at every
/// one of the [`VARIANTS`].
#[cfg(test)]
pub(crate) fn assert_invariant<T: PartialEq>(
    what: &str,
    reference: &T,
    run: impl Fn(usize, GapBackend) -> T,
) {
    for (threads, backend) in VARIANTS {
        assert!(
            run(threads, backend) == *reference,
            "{what} diverged at {threads} threads on the {backend:?} backend"
        );
    }
}

/// `builder`'s engine at `threads` solver threads on `backend`.
#[cfg(test)]
pub(crate) fn build_at(
    builder: &EngineBuilder,
    threads: usize,
    backend: GapBackend,
) -> InferenceEngine {
    let builder = builder.clone().parallelism(Parallelism::new(threads));
    builder.gap_backend(backend).build()
}

/// What tier-1's debug-profile tests sweep instead: the paper-sized
/// `fig10` alone takes minutes unoptimised, this takes about a second.
#[cfg(test)]
pub const FIXTURE: Workload = Workload {
    max_gpus: 8,
    max_layers: 6,
    requests_per_gpu: 16,
    prompt_len: 8,
    n_iterations: 2,
    profile_tokens: 1200,
    placement_restarts: 0,
    seed: 7,
};

#[cfg(test)]
mod tests {
    use super::*;
    use exflow_model::presets::moe_gpt_m;

    #[test]
    fn cluster_shapes_follow_wilkes3() {
        assert_eq!(cluster_for(2).n_nodes(), 1);
        assert_eq!(cluster_for(4).n_nodes(), 1);
        assert_eq!(cluster_for(16).n_nodes(), 4);
        assert_eq!(cluster_for(16).gpus_per_node(), 4);
    }

    #[test]
    #[should_panic(expected = "4-GPU nodes")]
    fn partial_nodes_rejected() {
        let _ = cluster_for(6);
    }

    #[test]
    fn the_fixture_only_cuts_and_the_paper_cuts_nothing() {
        let engine = engine_for(FIXTURE.cut(moe_gpt_m(8)), 4, &FIXTURE);
        assert_eq!(engine.config().cluster.world_size(), 4);
        assert_eq!(engine.config().model.n_layers, FIXTURE.max_layers);
        assert_eq!(FIXTURE.gpus(&[1, 4, 8, 16, 64]), [1, 4, 8]);
        assert_eq!(PAPER.cut(moe_gpt_m(8)).n_layers, moe_gpt_m(8).n_layers);
        assert_eq!(PAPER.gpus(&[1, 4, 8, 16, 64]), [1, 4, 8, 16, 64]);
    }
}
