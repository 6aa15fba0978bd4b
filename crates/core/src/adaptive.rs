//! The adaptive control loop of the request-level serving run: ingest
//! realized expert paths, close a serving window (drift signal, cadence +
//! threshold check, budgeted re-plan, re-anchor), and keep the ledgers the
//! serving report exposes. The serving loop decides *when* a window ends
//! and what a landed re-plan means for its clock. The re-plan itself is
//! [`replan`], public so the drift tables race the step serving runs.

use std::sync::Arc;

use exflow_affinity::{AffinitySnapshot, RoutingTrace, StreamingAffinity};
use exflow_model::DriftSchedule;
use exflow_placement::online::MigrationPlan;
use exflow_placement::{
    solve_budgeted_metered, solve_budgeted_replicated_metered, Objective, ReplanCost,
    ReplicaPolicy, ReplicationBudget, ReplicationPlan, SwapGainCache,
};
use exflow_topology::ClusterSpec;

use crate::engine::{EngineConfig, InferenceEngine, OnlineConfig};
use crate::modes::ParallelismMode;
use crate::report::{MigrationStats, ReplanEvent};

/// Everything an adaptive run carries across serving windows.
pub(crate) struct AdaptiveState<'e> {
    cfg: &'e EngineConfig,
    /// Whether the mode re-places at all (`ParallelismMode::uses_affinity`).
    adapts: bool,
    /// Windows of the drift schedule; no re-plan fires after the last.
    pub(crate) n_windows: usize,
    streaming: StreamingAffinity,
    /// The estimate the live placement was last (re-)optimized for; drift
    /// is measured against it.
    reference: AffinitySnapshot,
    /// Cloned from the engine's profiled objective and kept current by
    /// per-window delta splices — bit-identical to a rebuild from the live
    /// snapshot at O(changed rows) instead of O(E^2) — with the swap-gain
    /// cache the metered solvers reuse riding along across re-plans.
    objective: Objective,
    cache: SwapGainCache,
    /// The placement and replica subsets re-plans have committed to. An
    /// `Arc` because the serving loop keeps the plan a re-plan replaced
    /// alive as its stale plan until the weight copy lands.
    pub(crate) live: Arc<ReplicationPlan>,
    /// Drift signal at each closed window.
    pub(crate) drift: Vec<f64>,
    pub(crate) replans: Vec<ReplanEvent>,
    pub(crate) migrations: MigrationStats,
}

impl<'e> AdaptiveState<'e> {
    /// Start from `live`, with the engine's own profiled estimator,
    /// snapshot and objective: the incumbent placement was solved against
    /// that estimate, so the first reference snapshot is exactly what the
    /// incumbent knows.
    pub(crate) fn new(
        engine: &'e InferenceEngine,
        mode: ParallelismMode,
        drift: &DriftSchedule,
        live: ReplicationPlan,
    ) -> Self {
        let cfg = engine.config();
        let shape = drift.model_at(0);
        assert_eq!(shape.n_layers(), cfg.model.n_layers, "drift layer mismatch");
        assert_eq!(
            shape.n_experts(),
            cfg.model.n_experts,
            "drift expert mismatch"
        );
        assert_eq!(
            shape.n_domains(),
            cfg.corpus.domain_weights.len(),
            "drift domain mismatch"
        );
        let (streaming, reference) = engine.profile_estimate();
        let objective = engine.objective().clone();
        AdaptiveState {
            cfg,
            adapts: mode.uses_affinity(),
            n_windows: drift.n_windows(),
            streaming: streaming.clone(),
            reference: reference.clone(),
            cache: SwapGainCache::for_objective(&objective),
            objective,
            live: Arc::new(live),
            drift: Vec::new(),
            replans: Vec::new(),
            migrations: MigrationStats::default(),
        }
    }

    /// Wire size of one expert's weights (fp16).
    pub(crate) fn bytes_per_expert(&self) -> u64 {
        self.cfg.model.expert_params() * 2
    }

    /// Fold realized top-1 expert paths into the estimate: token-major,
    /// `n_layers` experts per token, laid end to end. Online profiling is
    /// free: the engine already knows every serving token's path.
    pub(crate) fn ingest(&mut self, paths: Vec<u16>) {
        let model = &self.cfg.model;
        let trace = RoutingTrace::from_flat(paths, model.n_layers, model.n_experts);
        let delta = self.streaming.observe_delta(&trace);
        self.objective.apply_snapshot_delta(&delta);
    }

    /// Close serving window `ended`: record its drift and, on cadence and
    /// over threshold, re-plan against the live estimate. Returns the
    /// migration's completion time and the plan it replaces when a re-plan
    /// changed anything; `self.live` already holds the new plan.
    pub(crate) fn close_window(&mut self, ended: usize) -> Option<(f64, Arc<ReplicationPlan>)> {
        let oc = self.cfg.online;
        let drift_now = self.streaming.divergence(&self.reference);
        self.drift.push(drift_now);
        // A re-plan after the final window would charge migration time
        // and bytes that no subsequent traffic benefits from.
        let due = (ended + 1).is_multiple_of(oc.replan_every) && ended + 1 < self.n_windows;
        if !(due && drift_now > oc.drift_threshold && self.adapts) {
            return None;
        }
        let replaced = self.replan(ended, drift_now);
        // Whether or not anything moved, the live estimate is now what
        // the incumbent has been (re-)optimized for; re-anchor to it.
        self.reference = self.streaming.snapshot();
        replaced
    }

    /// One budgeted re-plan: run the re-plan step against the live
    /// estimate (metered by `OnlineConfig::replan_time_budget`, its
    /// attraction table built in the held buffer), commit the winner into
    /// `self.live`, and price the migration. `None` when the plan is empty
    /// (no event, no time charged).
    fn replan(&mut self, window: usize, drift_now: f64) -> Option<(f64, Arc<ReplicationPlan>)> {
        let cfg = self.cfg;
        let (next, plan, cost) = replan(
            &self.objective,
            &self.live,
            &cfg.online,
            cfg.cluster,
            self.bytes_per_expert(),
            Some(&mut self.cache),
        );
        let replaced = std::mem::replace(&mut self.live, Arc::new(next));
        if plan.is_empty() {
            return None;
        }
        let priced = plan.priced(&cfg.cluster, &cfg.link_cost);
        let event = ReplanEvent {
            window,
            drift: drift_now,
            experts_moved: plan.n_relocations() as u64,
            replicas_added: plan.n_replica_adds() as u64,
            replicas_dropped: plan.n_replica_drops() as u64,
            bytes_moved: plan.total_bytes(),
            budget_bytes: cfg.online.migration_budget_bytes,
            migration_time: priced.time,
            bytes_by_class: priced.bytes,
            solver_cost: cost,
        };
        self.migrations.absorb(&event);
        self.replans.push(event);
        Some((priced.time, replaced))
    }
}

/// The re-plan step serving runs on every due window, and the drift tables
/// run as their adaptive policies: re-place `live` against `objective`
/// under `oc`'s byte budget and return the next plan, the migration from
/// `live` to it, and the solver work. Owner moves only when
/// `oc.replica_memory_bytes` is 0 (over the copies the fleet already
/// holds); otherwise the replicated solve, one copy per node of `cluster`.
/// Solver work is capped by `oc.replan_time_budget` considered
/// candidates; `cache` is the attraction table's buffer and changes no
/// result. When to re-plan, and what a migration costs, is the caller's.
/// A `bytes_per_expert` of 0 counts as 1, so no budget divides by zero.
pub fn replan(
    objective: &Objective,
    live: &ReplicationPlan,
    oc: &OnlineConfig,
    cluster: ClusterSpec,
    bytes_per_expert: u64,
    cache: Option<&mut SwapGainCache>,
) -> (ReplicationPlan, MigrationPlan, ReplanCost) {
    let bpe = bytes_per_expert.max(1);
    let budget = oc.migration_budget_bytes;
    let (next, cost) = if oc.replica_memory_bytes > 0 {
        solve_budgeted_replicated_metered(
            objective,
            live,
            bpe,
            &ReplicationBudget {
                replica_memory_bytes: oc.replica_memory_bytes,
                migration_budget_bytes: budget,
            },
            &ReplicaPolicy::OnePerNode(cluster),
            oc.replan_time_budget,
            cache,
        )
    } else {
        let (base, cost) = solve_budgeted_metered(
            objective,
            &live.base,
            budget / bpe,
            oc.replan_time_budget,
            cache,
        );
        (live.reowned(base), cost)
    };
    let plan = MigrationPlan::between_replicated(live, &next, bpe);
    debug_assert!(plan.total_bytes() <= budget);
    (next, plan, cost)
}

impl MigrationStats {
    /// Fold one executed re-plan into the running totals.
    fn absorb(&mut self, event: &ReplanEvent) {
        self.replans += 1;
        self.experts_moved += event.experts_moved;
        self.replicas_added += event.replicas_added;
        self.replicas_dropped += event.replicas_dropped;
        self.bytes.merge(&event.bytes_by_class);
        self.time += event.migration_time;
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use exflow_model::presets::moe_gpt_m;
    use exflow_model::{GateKind, RoutingModel, TokenBatch};
    use exflow_placement::Parallelism;

    /// Window `window`'s traffic: one batch per generation iteration of
    /// the engine's fleet, seeded by the window's global iteration index.
    fn window_batches(
        cfg: &EngineConfig,
        routing: &RoutingModel,
        window: usize,
    ) -> Vec<TokenBatch> {
        let w = cfg.cluster.world_size();
        (0..cfg.n_iterations)
            .map(|iter| {
                let global_iter = (window * cfg.n_iterations + iter) as u64;
                TokenBatch::sample(
                    routing,
                    &cfg.corpus,
                    w * cfg.requests_per_gpu,
                    cfg.model.gate.k(),
                    cfg.seed
                        .wrapping_mul(0x9e37_79b9)
                        .wrapping_add(global_iter + 1),
                )
            })
            .collect()
    }

    /// Drive `AdaptiveState` over every window of `drift` with nothing but
    /// sampled traffic: `each` sees the plan live during the window and
    /// the window's batches, then their top-1 paths are ingested and the
    /// window closed. No engine pass runs.
    pub(crate) fn drive<'e>(
        engine: &'e InferenceEngine,
        mode: ParallelismMode,
        drift: &DriftSchedule,
        mut each: impl FnMut(&ReplicationPlan, &[TokenBatch]),
    ) -> AdaptiveState<'e> {
        let start = ReplicationPlan::bare(engine.placement_for(mode).clone());
        let mut state = AdaptiveState::new(engine, mode, drift, start);
        for window in 0..drift.n_windows() {
            let batches = window_batches(engine.config(), drift.model_at(window), window);
            each(&state.live, &batches);
            state.ingest(batches.iter().flat_map(TokenBatch::primaries).collect());
            state.close_window(window);
        }
        state
    }

    /// What a driven run leaves behind: the ledgers and the final plan.
    #[derive(Debug, PartialEq)]
    pub(crate) struct Trajectory {
        pub(crate) drift: Vec<f64>,
        pub(crate) replans: Vec<ReplanEvent>,
        pub(crate) migrations: MigrationStats,
        pub(crate) live: ReplicationPlan,
    }

    /// Drive `engine` in `mode` over a two-phase piecewise drift of
    /// `windows` windows.
    pub(crate) fn trajectory(
        engine: &InferenceEngine,
        mode: ParallelismMode,
        windows: usize,
    ) -> Trajectory {
        let drift = DriftSchedule::piecewise(&engine.config().routing_spec, 2, windows);
        let s = drive(engine, mode, &drift, |_, _| {});
        Trajectory {
            drift: s.drift,
            replans: s.replans,
            migrations: s.migrations,
            live: Arc::unwrap_or_clone(s.live),
        }
    }

    /// The adaptive engine the re-plan contracts run on: five layers of
    /// eight experts on 2 x 2 GPUs.
    pub(crate) fn adaptive_engine(
        gate: GateKind,
        threads: usize,
        online: OnlineConfig,
    ) -> InferenceEngine {
        let mut model = moe_gpt_m(8).with_gate(gate);
        model.n_layers = 5;
        InferenceEngine::builder(model, ClusterSpec::new(2, 2).unwrap())
            .requests_per_gpu(if gate.k() == 1 { 32 } else { 16 })
            .n_iterations(2)
            .prompt_len(8)
            .profile_tokens(800)
            .parallelism(Parallelism::new(threads))
            .online(online)
            .seed(11)
            .build()
    }

    /// The re-plan knobs of the adaptive engine: every window checked, a
    /// 0.08 drift threshold, an unlimited byte budget.
    pub(crate) fn adaptive_online() -> OnlineConfig {
        OnlineConfig {
            replan_every: 1,
            drift_threshold: 0.08,
            migration_budget_bytes: u64::MAX,
            decay: 0.3,
            ..OnlineConfig::default()
        }
    }

    /// One expert's fp16 payload in the adaptive engine's model.
    pub(crate) fn bytes_per_expert() -> u64 {
        let mut model = moe_gpt_m(8);
        model.n_layers = 5;
        model.expert_params() * 2
    }

    /// Every engine config the re-plan contracts drive, with its mode and
    /// drift windows.
    fn configs() -> Vec<(&'static str, InferenceEngine, ParallelismMode, usize)> {
        let bpe = bytes_per_expert();
        let cca = ParallelismMode::ContextCoherentAffinity;
        let top1 = |online| adaptive_engine(GateKind::Top1, 1, online);
        let base = adaptive_online();
        vec![
            ("adaptive", top1(base), cca, 6),
            (
                "8 threads",
                adaptive_engine(GateKind::Top1, 8, base),
                cca,
                4,
            ),
            (
                "no affinity",
                top1(base),
                ParallelismMode::ContextCoherent,
                4,
            ),
            (
                "4-move budget",
                top1(OnlineConfig {
                    migration_budget_bytes: 4 * bpe,
                    ..base
                }),
                cca,
                6,
            ),
            (
                "6 replica slots",
                top1(OnlineConfig {
                    migration_budget_bytes: 24 * bpe,
                    replica_memory_bytes: 6 * bpe,
                    ..base
                }),
                cca,
                6,
            ),
            (
                "400-candidate scan",
                top1(OnlineConfig {
                    replan_time_budget: 400,
                    ..base
                }),
                cca,
                6,
            ),
            (
                "top-2 replicas",
                adaptive_engine(
                    GateKind::Top2,
                    1,
                    OnlineConfig {
                        replica_memory_bytes: 1 << 30,
                        ..base
                    },
                ),
                cca,
                4,
            ),
        ]
    }

    #[test]
    fn a_zero_byte_step_keeps_the_live_plan() {
        // Zero-byte experts and a zero budget: no division by zero, and
        // nothing to move, whether or not replica memory is on.
        let engine = adaptive_engine(GateKind::Top1, 1, adaptive_online());
        let mode = ParallelismMode::ContextCoherentAffinity;
        let live = ReplicationPlan::bare(engine.placement_for(mode).clone());
        for replica_memory_bytes in [0, 1 << 20] {
            let oc = OnlineConfig {
                migration_budget_bytes: 0,
                replica_memory_bytes,
                ..adaptive_online()
            };
            let cluster = engine.config().cluster;
            let (next, plan, _) = replan(engine.objective(), &live, &oc, cluster, 0, None);
            assert_eq!(next, live, "replica memory {replica_memory_bytes}");
            assert!(plan.is_empty(), "replica memory {replica_memory_bytes}");
        }
    }

    #[test]
    fn direct_drive_trajectories_are_reproducible() {
        for (what, engine, mode, windows) in configs() {
            let a = trajectory(&engine, mode, windows);
            let b = trajectory(&engine, mode, windows);
            assert_eq!(a.drift.len(), windows, "{what}");
            let bits = |t: &Trajectory| t.drift.iter().map(|d| d.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&a), bits(&b), "{what}: drift bits");
            assert_eq!(a, b, "{what}");
            assert_eq!(a.replans.is_empty(), !mode.uses_affinity(), "{what}");
        }
    }
}
