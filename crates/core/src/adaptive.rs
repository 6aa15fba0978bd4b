//! The adaptive control loop the windowed online run and the
//! request-level serving run share: ingest realized expert paths, close a
//! serving window (drift signal, cadence + threshold check, budgeted
//! re-plan, re-anchor), and keep the ledgers both reports expose. Each
//! surface decides only *when* a window ends and what a landed re-plan
//! means for its own clock.

use std::sync::Arc;

use exflow_affinity::{AffinitySnapshot, RoutingTrace, StreamingAffinity};
use exflow_model::DriftSchedule;
use exflow_placement::online::MigrationPlan;
use exflow_placement::{
    solve_budgeted_metered, solve_budgeted_replicated_metered, Objective, ReplicaPolicy,
    ReplicationBudget, ReplicationPlan, SwapGainCache,
};

use crate::engine::{EngineConfig, InferenceEngine};
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
        (self.cfg.model.expert_params() * 2).max(1)
    }

    /// Fold realized top-1 expert paths into the estimate. Online
    /// profiling is free: the engine already knows every serving token's
    /// path.
    pub(crate) fn ingest(&mut self, paths: Vec<Vec<u16>>) {
        let trace = RoutingTrace::new(paths, self.cfg.model.n_experts);
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

    /// One budgeted re-plan: solve replica-aware or owner-moves only
    /// under `OnlineConfig::migration_budget_bytes` (metered by
    /// `OnlineConfig::replan_time_budget`, its attraction table built in
    /// the held buffer), commit the winner into `self.live`, and price the
    /// migration. `None` when the plan is empty (no event, no time
    /// charged).
    fn replan(&mut self, window: usize, drift_now: f64) -> Option<(f64, Arc<ReplicationPlan>)> {
        let cfg = self.cfg;
        let oc = cfg.online;
        let bytes_per_expert = self.bytes_per_expert();
        let budget = oc.migration_budget_bytes;
        let (plan, cost, next) = if oc.replica_memory_bytes > 0 {
            let (next, cost) = solve_budgeted_replicated_metered(
                &self.objective,
                &self.live,
                bytes_per_expert,
                &ReplicationBudget {
                    replica_memory_bytes: oc.replica_memory_bytes,
                    migration_budget_bytes: budget,
                },
                &ReplicaPolicy::OnePerNode(cfg.cluster),
                oc.replan_time_budget,
                Some(&mut self.cache),
            );
            let plan = MigrationPlan::between_replicated(&self.live, &next, bytes_per_expert);
            (plan, cost, next)
        } else {
            let (next, cost) = solve_budgeted_metered(
                &self.objective,
                &self.live.base,
                budget / bytes_per_expert,
                oc.replan_time_budget,
                Some(&mut self.cache),
            );
            let plan = MigrationPlan::between(&self.live.base, &next, bytes_per_expert);
            let next = ReplicationPlan {
                base: next,
                replicas: self.live.replicas.clone(),
            };
            (plan, cost, next)
        };
        let replaced = std::mem::replace(&mut self.live, Arc::new(next));
        debug_assert!(plan.total_bytes() <= budget);
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
            budget_bytes: budget,
            migration_time: priced.time,
            bytes_by_class: priced.bytes,
            solver_cost: cost,
        };
        self.migrations.absorb(&event);
        self.replans.push(event);
        Some((priced.time, replaced))
    }
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
