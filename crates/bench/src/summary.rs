//! Machine-readable solver benchmark: the `BENCH_*.json` emitter that
//! drives the repo's performance trajectory.
//!
//! Two sweeps feed the summary:
//!
//! * **Table II sweep** — the model zoo × the solver portfolio on
//!   fixed-seed profiled instances, recording wall milliseconds and the
//!   achieved objective (cross mass) per `SolverKind`. The whole sweep
//!   runs twice — once at `--jobs 1` and once at the requested width —
//!   and the emitter *verifies* that every objective is bit-identical
//!   across the two runs before reporting the parallel speedup.
//! * **`table_sparse` sweep** — the large-expert zoo (`E = 256/512`,
//!   top-1 and top-2) solved once per objective backend (dense `E x E`
//!   vs CSR), verifying the two produce identical placements and
//!   bit-identical cross mass, and recording nnz/density plus the
//!   dense-vs-sparse wall time of one exact `swap_delta` pass over every
//!   swap candidate per cell.
//! * **`table_online` sweep** — the non-stationary drift presets served
//!   under three re-placement policies (static incumbent, oracle
//!   re-solve, byte-budgeted incremental), recording realized cross-unit
//!   transition counts, migrated bytes, and the recovery fraction —
//!   verified bit-identical across thread counts and gap backends.
//! * **`table_replication_online` sweep** — the same drift presets (at
//!   `E = 16` and one `E = 256` sparse instance) under static /
//!   owner-moves-only / joint replication-aware re-placement: at equal
//!   migration bytes, the joint policy may additionally spend a per-GPU
//!   replica memory budget, and the sweep records cross counts, replica
//!   churn, and budget compliance — verified invariant across gap
//!   backends.
//!
//! * **`table_serving` sweep** — the request-level serving front-end:
//!   Poisson / diurnal / flash-crowd arrival processes served under
//!   static, budgeted-online, and replication-aware placements, recording
//!   p50/p95/p99 request latency, goodput, re-plan counts, and migrated
//!   bytes per cell — verified bit-identical across thread counts and
//!   gap backends.
//!
//! * **`table_elasticity` sweep** — the fault-tolerance front-end: the
//!   same Poisson arrival sample served through a mid-run GPU loss (and
//!   a loss-and-rejoin cycle) by an unreplicated fleet and a fully
//!   replicated one, recording disrupted requests, degraded steps,
//!   emergency migration bytes, and tail-recovery time per cell —
//!   verified bit-identical across thread counts and gap backends, with
//!   the replicated fleet required to recover strictly faster.
//!
//! * **`table_partial_replication` sweep** — partial vs full replica
//!   fan-out at `E ∈ {16, 256} × top-1/top-2`: every re-plan solves the
//!   same incumbent under the one-replica-per-node subset policy and the
//!   Lina-style everywhere policy at *equal* migration and per-GPU
//!   memory budgets, verifying bit-identical solves across gap backends
//!   and that the partial solve never scores worse; each row also runs
//!   the context-coherent engine under the subset policy at 1/2/8 solver
//!   threads (and dense/CSR backends), recording the replica adds and
//!   dispatch locality the meeting-point rule realizes — top-2 rows must
//!   actually buy replicas, not fall back to owner moves.
//!
//! * **`table_replan_latency` sweep** — re-plan latency at `E = 256/512`:
//!   the same drifting instance re-planned window by window along two
//!   lockstep paths — a cold rebuild (`Objective::from_snapshot` plus a
//!   budgeted solve on a local table) and incremental maintenance
//!   (`Objective::apply_snapshot_delta` plus the same solve in a held
//!   [`SwapGainCache`] buffer) — verified to pick bit-identical placements
//!   at bit-identical objectives for identical solver work, while
//!   recording how many considered candidates needed an exact gain
//!   evaluation and the wall time of each path.
//!
//! Quality numbers in `BENCH_*.json` are deterministic facts (the CI
//! perf-gate compares them bit for bit against the committed baseline);
//! timing numbers are machine-dependent measurements. The schema
//! ([`SCHEMA`]) keeps them apart.

use std::time::Instant;

use exflow_affinity::{AffinitySnapshot, RoutingTrace, StreamingAffinity};
use exflow_core::json::Json;
use exflow_core::{
    BatchPolicy, InferenceEngine, OnlineConfig, ParallelismMode, Scenario, ServingConfig,
    ServingReport,
};
use exflow_model::presets::{large_zoo, moe_gpt_m, table2};
use exflow_model::routing::AffinityModelSpec;
use exflow_model::ArrivalProcess;
use exflow_model::{
    CorpusSpec, DriftSchedule, FaultKind, FaultSchedule, GateKind, ModelConfig, TokenBatch,
};
use exflow_placement::annealing::AnnealParams;
use exflow_placement::greedy::solve_greedy;
use exflow_placement::local_search::{improve, solve_local_search_with};
use exflow_placement::objective::measure_trace_locality;
use exflow_placement::online::MigrationPlan;
use exflow_placement::{
    replicated_cross_mass, solve_budgeted_metered, solve_budgeted_replicated_metered,
    solve_budgeted_toward_metered, solve_with, split_seed, CostMeter, GapBackend, Objective,
    Parallelism, Placement, ReplicaPolicy, ReplicationBudget, ReplicationPlan, SolverKind,
    SwapGainCache,
};
use exflow_topology::{ClusterSpec, CostModel, LinkCost};

use crate::sweep::{par_map, SweepPool};
use crate::Scale;

/// GPUs each Table II instance is solved for (divides every Table II
/// expert count).
const N_UNITS: usize = 4;

/// GPUs each `table_sparse` instance is solved for (divides 256 and 512).
const N_UNITS_LARGE: usize = 8;

/// Experts per layer of every `table_online` scenario.
const ONLINE_EXPERTS: usize = 16;

/// GPUs each `table_online` scenario is placed across.
const ONLINE_UNITS: usize = 4;

/// Windows between re-plans in the `table_online` scenarios.
const ONLINE_REPLAN_EVERY: usize = 1;

/// Expert moves one `table_online` re-plan may migrate (the byte budget
/// is this many expert weight payloads). An oracle re-solve after a full
/// structure flip relocates most of the `E x L` expert slots; this budget
/// is well under half of that.
const ONLINE_BUDGET_MOVES: u64 = 40;

/// Local-search restarts of the oracle re-solve.
const ONLINE_ORACLE_RESTARTS: usize = 2;

/// Decay of the streaming estimator in the online scenarios.
const ONLINE_DECAY: f64 = 0.5;

/// Expert moves one `table_replication_online` re-plan may migrate (joint
/// and owner-moves-only policies get exactly this many payloads of
/// migration traffic, so the comparison is at equal bytes). Deliberately
/// tighter than `ONLINE_BUDGET_MOVES`: the joint mode's edge is what it
/// buys when migration traffic is scarce.
const REPLICATION_BUDGET_MOVES: u64 = 16;

/// Extra replica payloads each GPU may hold in the joint policy (the
/// `replica_memory_bytes` axis of the joint budget, in expert payloads).
const REPLICATION_SLOTS: u64 = 8;

/// Experts per layer of every `table_serving` scenario (small enough
/// that each decode step's engine pass stays cheap: the sweep runs
/// hundreds of them).
const SERVING_EXPERTS: usize = 16;

/// Batch-size cap of the serving scenarios (also the occupancy the
/// arrival rates are calibrated against).
const SERVING_MAX_BATCH: usize = 32;

/// FFN inner dimension of the serving model's experts. Much narrower
/// than the GPT convention (`4 * d_model`): serving cells live in the
/// paper's communication-bounded regime (Fig. 9d), where dispatch
/// Alltoalls — the thing placement quality controls — are a large
/// share of step time, and expert payloads (hence migration stalls)
/// are small.
const SERVING_D_FF: usize = 128;

/// Decode steps (generated tokens) per request.
const SERVING_DECODE_STEPS: usize = 4;

/// Serving windows the virtual horizon divides into (drift checks fire
/// at window boundaries).
const SERVING_WINDOWS: usize = 6;

/// Offered load as a fraction of full-batch service capacity, measured
/// against the *profiled* placement on *profiled* traffic. Live drifted
/// traffic serves slower than that calibration, so the static incumbent
/// runs saturated and its queue backs up into the latency tail, while a
/// re-placed server recovers enough service rate to stay stable.
const SERVING_UTILIZATION: f64 = 0.96;

/// Inter-node line rate of the serving cells' cluster, bytes/s. A
/// quarter of the wilkes3 preset's 50 GB/s: the serving story plays out
/// in the paper's communication-bounded regime (Fig. 9d), where the
/// dispatch locality a placement buys — or loses, as traffic drifts —
/// moves the effective service rate, and queueing near saturation
/// amplifies that into the latency tail.
const SERVING_INTER_NODE_BW: f64 = 12.5e9;

/// Expert moves one serving re-plan may migrate, in expert payloads.
/// Migration stalls the server, so the budget trades re-placement
/// quality against tail-latency spikes; the serving model's narrow
/// experts ([`SERVING_D_FF`]) keep one full-budget stall small.
const SERVING_BUDGET_MOVES: u64 = 16;

/// Extra replica payloads per GPU in the replication-aware serving
/// policy.
const SERVING_REPLICA_SLOTS: u64 = 4;

/// Drift threshold of the serving re-placement policies.
const SERVING_DRIFT_THRESHOLD: f64 = 0.08;

/// Streaming-estimator decay of the serving scenarios.
const SERVING_DECAY: f64 = 0.3;

/// Offered load of the `table_elasticity` cells as a fraction of
/// full-*fleet* capacity. Deliberately below [`SERVING_UTILIZATION`]:
/// after one of the four GPUs dies the surviving fleet runs at 4/3 of
/// this figure, which must stay under saturation or the latency tail
/// never returns to its pre-fault level and "recovery time" stops
/// existing for either fleet.
const ELASTICITY_UTILIZATION: f64 = 0.6;

/// Requests per `table_elasticity` cell — enough completions on both
/// sides of the fault for the pre-fault p99 and the rolling recovery
/// window (`exflow_core::RECOVERY_WINDOW`) to be meaningful.
const ELASTICITY_REQUESTS: (usize, usize) = (500, 800);

/// When the GPU loss strikes, as a fraction of the arrival horizon.
const ELASTICITY_FAULT_AT: f64 = 0.4;

/// When the lost GPU rejoins (in the loss+rejoin scenario), as a
/// fraction of the arrival horizon.
const ELASTICITY_REJOIN_AT: f64 = 0.6;

/// Expert moves one `table_partial_replication` re-plan may migrate —
/// identical for the partial and everywhere policies, so the race is at
/// equal traffic.
const PARTIAL_BUDGET_MOVES: u64 = 12;

/// Extra replica payloads each GPU may hold in every
/// `table_partial_replication` cell — identical for both policies, so the
/// race is at equal memory. Partial fan-out ships fewer copies per
/// replicated expert, which is exactly the edge the sweep measures.
const PARTIAL_REPLICA_SLOTS: u64 = 4;

/// Expert moves one `table_replan_latency` re-plan may relocate. Each
/// accepted move costs the budgeted descent one full candidate rescan,
/// so this also sets how many rescans the rebuild path pays per re-plan
/// — the cost the incremental path's cache collapses to `O(dirty)`.
const REPLAN_LATENCY_MOVES: u64 = 40;

/// Tokens per `table_replan_latency` window (quick scale). Deliberately
/// lean: the sweep studies solver latency on *sparse* instances, where a
/// swap's dirty set (the swapped experts plus their structural
/// neighbors) is a small fraction of the `E(E-1)` candidate space — the
/// regime the cache's `O(dirty)` rescan contract targets.
const REPLAN_LATENCY_TOKENS: (usize, usize) = (800, 2400);

/// Layers of every `table_replan_latency` instance. Two layers (one gap)
/// keep the `E = 512` cells affordable while still exercising both the
/// successor (CSR-row) and predecessor (CSC-column) invalidation paths.
const REPLAN_LATENCY_LAYERS: usize = 2;

/// Schema tag of the summary document; bump on any field change. The
/// perf-gate rejects a baseline carrying any other tag.
pub const SCHEMA: &str = "exflow-bench-summary/v8";

/// A row type of the summary: its JSON fields, declared once, in emission
/// order. The perf-gate's section table names the same keys.
pub trait JsonRow {
    /// `(key, value)` pairs of this row's JSON object.
    fn fields(&self) -> Vec<(&'static str, Json)>;
}

/// One (model, solver) measurement.
#[derive(Debug, Clone)]
pub struct BenchRow {
    /// Table II model name.
    pub model: String,
    /// Stable solver label (`SolverKind::label`).
    pub solver: String,
    /// Wall time of the solve, in milliseconds (measured in the
    /// uncontended `--jobs 1` pass).
    pub wall_ms: f64,
    /// Achieved objective: expected cross-unit transition mass (lower is
    /// better; bit-identical across thread counts).
    pub cross_mass: f64,
}

impl JsonRow for BenchRow {
    fn fields(&self) -> Vec<(&'static str, Json)> {
        vec![
            ("model", self.model.as_str().into()),
            ("solver", self.solver.as_str().into()),
            ("wall_ms", Json::Fixed(self.wall_ms, 3)),
            ("cross_mass", self.cross_mass.into()),
        ]
    }
}

/// One `table_sparse` cell: a large-expert instance solved on both
/// objective backends.
#[derive(Debug, Clone)]
pub struct SparseBenchRow {
    /// Large-zoo preset name.
    pub preset: String,
    /// Experts per layer.
    pub n_experts: usize,
    /// Gating fan-out the instance was sampled with.
    pub k: usize,
    /// Layers of the profiled instance (scaled down from the preset).
    pub layers: usize,
    /// Structural nonzeros across the instance's gap matrices
    /// (backend-independent, deterministic).
    pub nnz: usize,
    /// `nnz` over the dense cell count.
    pub density: f64,
    /// Wall milliseconds of one exact `swap_delta` evaluation of every
    /// `(layer, e1 < e2)` candidate on the dense backend.
    pub wall_ms_dense: f64,
    /// Wall milliseconds of the same pass on the CSR backend.
    pub wall_ms_sparse: f64,
    /// Final cross mass (bit-identical across backends — verified).
    pub cross_mass: f64,
}

impl SparseBenchRow {
    /// Dense wall over sparse wall: the sparse backend's algorithmic
    /// speedup on this cell.
    pub fn speedup(&self) -> f64 {
        if self.wall_ms_sparse <= 0.0 {
            return 0.0;
        }
        self.wall_ms_dense / self.wall_ms_sparse
    }
}

impl JsonRow for SparseBenchRow {
    fn fields(&self) -> Vec<(&'static str, Json)> {
        vec![
            ("preset", self.preset.as_str().into()),
            ("experts", self.n_experts.into()),
            ("k", self.k.into()),
            ("layers", self.layers.into()),
            ("nnz", self.nnz.into()),
            ("density", Json::Fixed(self.density, 6)),
            ("wall_ms_dense", Json::Fixed(self.wall_ms_dense, 3)),
            ("wall_ms_sparse", Json::Fixed(self.wall_ms_sparse, 3)),
            ("speedup", Json::Fixed(self.speedup(), 3)),
            ("cross_mass", self.cross_mass.into()),
        ]
    }
}

/// One `table_online` cell: a drift scenario served under the three
/// re-placement policies. Cross counts are realized cross-unit layer
/// transitions summed over every serving window — integers, so any drift
/// across thread counts or backends is unambiguous.
#[derive(Debug, Clone)]
pub struct OnlineBenchRow {
    /// Drift preset name (`piecewise-2phase`, `smooth`, ...).
    pub scenario: String,
    /// Experts per layer.
    pub n_experts: usize,
    /// MoE layers.
    pub layers: usize,
    /// Serving windows.
    pub windows: usize,
    /// Windows between re-plans.
    pub replan_every: usize,
    /// Byte budget of one budgeted re-plan.
    pub budget_bytes: u64,
    /// Bytes the budgeted policy actually migrated, whole run.
    pub migrated_bytes: u64,
    /// Budgeted re-plans that moved at least one expert.
    pub replans: usize,
    /// Cross-unit transitions under the never-re-placed incumbent.
    pub static_cross: u64,
    /// Cross-unit transitions under from-scratch oracle re-solves.
    pub oracle_cross: u64,
    /// Cross-unit transitions under budgeted incremental re-placement.
    pub budgeted_cross: u64,
    /// Final cross mass of the budgeted placement on the live estimate
    /// (bit-identical across backends — verified).
    pub cross_mass: f64,
}

impl OnlineBenchRow {
    /// Fraction of the oracle's cross-traffic reduction the budgeted
    /// policy recovers: `(static - budgeted) / (static - oracle)`. 1.0
    /// when the scenario gives the oracle nothing to improve.
    pub fn recovery(&self) -> f64 {
        if self.static_cross <= self.oracle_cross {
            return 1.0;
        }
        (self.static_cross as f64 - self.budgeted_cross as f64)
            / (self.static_cross as f64 - self.oracle_cross as f64)
    }
}

impl JsonRow for OnlineBenchRow {
    fn fields(&self) -> Vec<(&'static str, Json)> {
        vec![
            ("scenario", self.scenario.as_str().into()),
            ("experts", self.n_experts.into()),
            ("layers", self.layers.into()),
            ("windows", self.windows.into()),
            ("replan_every", self.replan_every.into()),
            ("budget_bytes", self.budget_bytes.into()),
            ("migrated_bytes", self.migrated_bytes.into()),
            ("replans", self.replans.into()),
            ("static_cross", self.static_cross.into()),
            ("oracle_cross", self.oracle_cross.into()),
            ("budgeted_cross", self.budgeted_cross.into()),
            ("recovery", Json::Fixed(self.recovery(), 4)),
            ("cross_mass", self.cross_mass.into()),
        ]
    }
}

/// One `table_replication_online` cell: a drift scenario served under
/// three re-placement policies — static incumbent, owner-moves-only
/// (migration budget spent exclusively on relocations), and the joint
/// replica + owner-move policy (same migration budget, plus a per-GPU
/// replica memory budget). Cross counts are realized cross-unit layer
/// transitions on the window traces — the joint policy's counts honor
/// replica availability (`ReplicationPlan::trace_locality`).
#[derive(Debug, Clone)]
pub struct ReplicationOnlineRow {
    /// Scenario label: drift preset plus the instance size
    /// (`piecewise-2phase/E16`, ...).
    pub scenario: String,
    /// Experts per layer.
    pub n_experts: usize,
    /// MoE layers.
    pub layers: usize,
    /// GPUs the instance is placed across.
    pub units: usize,
    /// Serving windows.
    pub windows: usize,
    /// Windows between re-plans.
    pub replan_every: usize,
    /// Migration byte budget of one re-plan (identical for both adaptive
    /// policies).
    pub budget_bytes: u64,
    /// Per-GPU replica memory budget of the joint policy, in expert
    /// payloads.
    pub replica_slots: u64,
    /// Bytes the owner-moves-only policy migrated, whole run.
    pub owner_migrated_bytes: u64,
    /// Bytes the joint policy migrated (owner moves + replica fan-out).
    pub joint_migrated_bytes: u64,
    /// Owner-policy re-plans that moved at least one expert.
    pub owner_replans: usize,
    /// Joint-policy re-plans that changed anything.
    pub joint_replans: usize,
    /// Replica copies the joint policy created, whole run.
    pub replicas_added: u64,
    /// Replica copies the joint policy retired, whole run.
    pub replicas_dropped: u64,
    /// Worst-case extra replica copies any GPU holds at the end of the
    /// joint run (must stay within `replica_slots`).
    pub extra_copies: u64,
    /// Cross-unit transitions under the never-re-placed incumbent.
    pub static_cross: u64,
    /// Cross-unit transitions under owner-moves-only re-placement.
    pub owner_cross: u64,
    /// Cross-unit transitions under the joint policy.
    pub joint_cross: u64,
    /// Final replication-aware cross mass of the joint plan on the live
    /// estimate (bit-identical across backends — verified).
    pub cross_mass: f64,
}

impl ReplicationOnlineRow {
    /// Fraction of the static incumbent's cross traffic a policy
    /// eliminated: `(static - cross) / static` (0 when the static run had
    /// none).
    fn locality_recovery(&self, cross: u64) -> f64 {
        if self.static_cross == 0 {
            return 0.0;
        }
        (self.static_cross as f64 - cross as f64) / self.static_cross as f64
    }

    /// Locality recovery of the owner-moves-only policy.
    pub fn owner_recovery(&self) -> f64 {
        self.locality_recovery(self.owner_cross)
    }

    /// Locality recovery of the joint policy.
    pub fn joint_recovery(&self) -> f64 {
        self.locality_recovery(self.joint_cross)
    }
}

impl JsonRow for ReplicationOnlineRow {
    fn fields(&self) -> Vec<(&'static str, Json)> {
        vec![
            ("scenario", self.scenario.as_str().into()),
            ("experts", self.n_experts.into()),
            ("layers", self.layers.into()),
            ("units", self.units.into()),
            ("windows", self.windows.into()),
            ("replan_every", self.replan_every.into()),
            ("budget_bytes", self.budget_bytes.into()),
            ("replica_slots", self.replica_slots.into()),
            ("owner_migrated_bytes", self.owner_migrated_bytes.into()),
            ("joint_migrated_bytes", self.joint_migrated_bytes.into()),
            ("owner_replans", self.owner_replans.into()),
            ("joint_replans", self.joint_replans.into()),
            ("replicas_added", self.replicas_added.into()),
            ("replicas_dropped", self.replicas_dropped.into()),
            ("extra_copies", self.extra_copies.into()),
            ("static_cross", self.static_cross.into()),
            ("owner_cross", self.owner_cross.into()),
            ("joint_cross", self.joint_cross.into()),
            ("owner_recovery", Json::Fixed(self.owner_recovery(), 4)),
            ("joint_recovery", Json::Fixed(self.joint_recovery(), 4)),
            ("cross_mass", self.cross_mass.into()),
        ]
    }
}

/// One `table_serving` cell: one arrival process (Poisson / diurnal /
/// flash-crowd) served end-to-end through the request-level front-end
/// (`Scenario::with_serving`) under three placement policies —
/// static incumbent, budgeted-online re-placement, and replication-aware
/// re-placement. Latencies, goodput, and offered load are virtual-time
/// facts (bit-identical across thread counts and gap backends — verified
/// in-sweep); all three policies see the *same* arrival sample and
/// routing draws, so the tails differ only through placement quality and
/// migration stalls.
#[derive(Debug, Clone)]
pub struct ServingBenchRow {
    /// Arrival-process label (`poisson`, `diurnal`, `flash-crowd`).
    pub arrival: String,
    /// Requests served per cell.
    pub requests: usize,
    /// Decode steps (generated tokens) per request.
    pub decode_steps: usize,
    /// Serving windows of the drift schedule.
    pub windows: usize,
    /// Batch-size cap of the continuous-batching policy.
    pub max_batch: usize,
    /// Requests per unit virtual time the arrival process offered.
    pub offered_load: f64,
    /// p50 request latency under the static incumbent.
    pub static_p50: f64,
    /// p95 request latency under the static incumbent.
    pub static_p95: f64,
    /// p99 request latency under the static incumbent.
    pub static_p99: f64,
    /// Completed requests per unit virtual time, static incumbent.
    pub static_goodput: f64,
    /// p50 request latency under budgeted-online re-placement.
    pub online_p50: f64,
    /// p95 request latency under budgeted-online re-placement.
    pub online_p95: f64,
    /// p99 request latency under budgeted-online re-placement.
    pub online_p99: f64,
    /// Completed requests per unit virtual time, budgeted-online.
    pub online_goodput: f64,
    /// Re-plans the budgeted-online policy executed.
    pub online_replans: u64,
    /// Bytes the budgeted-online policy migrated, whole run.
    pub online_migrated_bytes: u64,
    /// p50 request latency under replication-aware re-placement.
    pub repl_p50: f64,
    /// p95 request latency under replication-aware re-placement.
    pub repl_p95: f64,
    /// p99 request latency under replication-aware re-placement.
    pub repl_p99: f64,
    /// Completed requests per unit virtual time, replication-aware.
    pub repl_goodput: f64,
    /// Replica copies the replication-aware policy created, whole run.
    pub repl_replicas_added: u64,
}

impl ServingBenchRow {
    /// Static p99 over a policy's p99: > 1 exactly when the adaptive
    /// policy improves the latency tail over never re-placing.
    pub fn p99_speedup(&self, p99: f64) -> f64 {
        if p99 <= 0.0 {
            return 0.0;
        }
        self.static_p99 / p99
    }
}

impl JsonRow for ServingBenchRow {
    fn fields(&self) -> Vec<(&'static str, Json)> {
        vec![
            ("arrival", self.arrival.as_str().into()),
            ("requests", self.requests.into()),
            ("decode_steps", self.decode_steps.into()),
            ("windows", self.windows.into()),
            ("max_batch", self.max_batch.into()),
            ("offered_load", self.offered_load.into()),
            ("static_p50", self.static_p50.into()),
            ("static_p95", self.static_p95.into()),
            ("static_p99", self.static_p99.into()),
            ("static_goodput", self.static_goodput.into()),
            ("online_p50", self.online_p50.into()),
            ("online_p95", self.online_p95.into()),
            ("online_p99", self.online_p99.into()),
            ("online_goodput", self.online_goodput.into()),
            ("online_replans", self.online_replans.into()),
            ("online_migrated_bytes", self.online_migrated_bytes.into()),
            ("repl_p50", self.repl_p50.into()),
            ("repl_p95", self.repl_p95.into()),
            ("repl_p99", self.repl_p99.into()),
            ("repl_goodput", self.repl_goodput.into()),
            ("repl_replicas_added", self.repl_replicas_added.into()),
        ]
    }
}

/// One `table_elasticity` cell: the same arrival sample served through
/// the same mid-run GPU fault by two fleets — one with no replicas
/// (every expert lost with its GPU must be emergency-restored over the
/// wire) and one fully replicated (failover is a free ownership flip).
/// All figures are deterministic virtual-time facts, bit-identical
/// across thread counts and gap backends (verified in-sweep). Recovery
/// times are `-1` when the fleet's rolling tail never returned to its
/// pre-fault p99 within the run.
#[derive(Debug, Clone)]
pub struct ElasticityRow {
    /// Fault-schedule label (`gpu-loss`, `gpu-loss+rejoin`).
    pub fault: String,
    /// Requests served per cell.
    pub requests: usize,
    /// Virtual time of the GPU loss.
    pub fault_time: f64,
    /// p99 request latency of the no-replica fleet, whole run.
    pub plain_p99: f64,
    /// In-flight requests the loss re-queued, no-replica fleet.
    pub plain_disrupted: u64,
    /// Decode steps served under emergency-migration contention,
    /// no-replica fleet.
    pub plain_steps_degraded: u64,
    /// Bytes the emergency re-placements copied, no-replica fleet.
    pub plain_emergency_bytes: u64,
    /// Virtual time from the loss until the rolling p99 recovered, or
    /// `-1` if it never did.
    pub plain_recovery: f64,
    /// p99 request latency of the fully replicated fleet, whole run.
    pub repl_p99: f64,
    /// In-flight requests the loss re-queued, replicated fleet.
    pub repl_disrupted: u64,
    /// Decode steps served under emergency-migration contention,
    /// replicated fleet.
    pub repl_steps_degraded: u64,
    /// Bytes the emergency re-placements copied, replicated fleet
    /// (zero: every lost expert has a live replica).
    pub repl_emergency_bytes: u64,
    /// Virtual time from the loss until the rolling p99 recovered, or
    /// `-1` if it never did.
    pub repl_recovery: f64,
    /// Worst-case extra replica copies any GPU holds in the replicated
    /// fleet's starting plan — counted from the materialized subsets
    /// (`ReplicationPlan::extra_copies_per_gpu`), not a world-size
    /// fan-out assumption.
    pub repl_extra_copies: u64,
}

impl ElasticityRow {
    /// Whether the replicated fleet recovered strictly faster than the
    /// no-replica fleet (the acceptance bar): it must recover at all,
    /// and beat a no-replica fleet that either recovered later or never
    /// did.
    pub fn replication_recovers_faster(&self) -> bool {
        self.repl_recovery >= 0.0
            && (self.plain_recovery < 0.0 || self.repl_recovery < self.plain_recovery)
    }
}

impl JsonRow for ElasticityRow {
    fn fields(&self) -> Vec<(&'static str, Json)> {
        vec![
            ("fault", self.fault.as_str().into()),
            ("requests", self.requests.into()),
            ("fault_time", self.fault_time.into()),
            ("plain_p99", self.plain_p99.into()),
            ("plain_disrupted", self.plain_disrupted.into()),
            ("plain_steps_degraded", self.plain_steps_degraded.into()),
            ("plain_emergency_bytes", self.plain_emergency_bytes.into()),
            ("plain_recovery", self.plain_recovery.into()),
            ("repl_p99", self.repl_p99.into()),
            ("repl_disrupted", self.repl_disrupted.into()),
            ("repl_steps_degraded", self.repl_steps_degraded.into()),
            ("repl_emergency_bytes", self.repl_emergency_bytes.into()),
            ("repl_recovery", self.repl_recovery.into()),
            ("repl_extra_copies", self.repl_extra_copies.into()),
        ]
    }
}

/// One `table_partial_replication` cell: a drifting instance re-planned
/// window by window under the partial (one-replica-per-node) and full
/// (everywhere) fan-out policies at equal migration-byte and per-GPU
/// memory budgets, always from the same shared incumbent — so the
/// per-cell cross-mass comparison is exact, not a trajectory artifact.
/// The `cc_*` figures come from a context-coherent engine run under the
/// subset policy (the meeting-point dispatch rule), verified bit-identical
/// at 1/2/8 solver threads and across gap backends.
#[derive(Debug, Clone)]
pub struct PartialReplicationRow {
    /// Cell label (`E16/top1`, `E256/top2`, ...).
    pub scenario: String,
    /// Experts per layer.
    pub n_experts: usize,
    /// Gating fan-out the window traces are sampled with.
    pub k: usize,
    /// MoE layers of the placement instance.
    pub layers: usize,
    /// GPUs the instance is placed across.
    pub units: usize,
    /// Serving windows.
    pub windows: usize,
    /// Extra replica payloads each GPU may hold (both policies).
    pub replica_slots: u64,
    /// Migration byte budget of one re-plan (both policies).
    pub budget_bytes: u64,
    /// Re-plans where the partial policy changed the plan.
    pub partial_replans: usize,
    /// Replica copies the partial policy created, summed over re-plans
    /// (each ships only to its chosen subset).
    pub replicas_added: u64,
    /// Bytes the partial-policy re-plans actually migrated.
    pub partial_migrated_bytes: u64,
    /// Bytes the everywhere-policy solves would have migrated from the
    /// same incumbents.
    pub full_migrated_bytes: u64,
    /// Final worst-case extra copies per GPU under the partial policy.
    pub partial_extra_copies: u64,
    /// Worst-case extra copies per GPU of the last everywhere solve.
    pub full_extra_copies: u64,
    /// Replicated cross mass of the partial solves, summed over re-plans
    /// (bit-identical across gap backends — verified).
    pub partial_cross_mass: f64,
    /// Replicated cross mass of the everywhere solves from the same
    /// incumbents, summed over re-plans.
    pub full_cross_mass: f64,
    /// Realized cross-unit transitions of the partial trajectory on the
    /// window traces (set-semantics replica locality).
    pub realized_cross: u64,
    /// Replica copies the context-coherent engine run created under the
    /// one-per-node policy (top-2 rows must not fall back to zero).
    pub cc_replicas_added: u64,
    /// GPU-local dispatch fraction of that engine run.
    pub cc_local_fraction: f64,
}

impl PartialReplicationRow {
    /// The equal-memory acceptance bar: the partial fan-out solve never
    /// scores worse than the everywhere solve from the same incumbent
    /// (structural — the partial candidate set is a superset).
    pub fn partial_never_loses(&self) -> bool {
        self.partial_cross_mass <= self.full_cross_mass
    }
}

impl JsonRow for PartialReplicationRow {
    fn fields(&self) -> Vec<(&'static str, Json)> {
        vec![
            ("scenario", self.scenario.as_str().into()),
            ("experts", self.n_experts.into()),
            ("k", self.k.into()),
            ("layers", self.layers.into()),
            ("units", self.units.into()),
            ("windows", self.windows.into()),
            ("replica_slots", self.replica_slots.into()),
            ("budget_bytes", self.budget_bytes.into()),
            ("partial_replans", self.partial_replans.into()),
            ("replicas_added", self.replicas_added.into()),
            ("partial_migrated_bytes", self.partial_migrated_bytes.into()),
            ("full_migrated_bytes", self.full_migrated_bytes.into()),
            ("partial_extra_copies", self.partial_extra_copies.into()),
            ("full_extra_copies", self.full_extra_copies.into()),
            ("partial_cross_mass", self.partial_cross_mass.into()),
            ("full_cross_mass", self.full_cross_mass.into()),
            ("realized_cross", self.realized_cross.into()),
            ("cc_replicas_added", self.cc_replicas_added.into()),
            ("cc_local_fraction", Json::Fixed(self.cc_local_fraction, 6)),
        ]
    }
}

/// One `table_replan_latency` cell: a large-expert drift scenario
/// re-planned window by window along two lockstep paths — a cold rebuild
/// (fresh `Objective::from_snapshot` plus a budgeted solve on a local
/// attraction table) and incremental maintenance
/// (`Objective::apply_snapshot_delta` plus the same solve in a persistent
/// `SwapGainCache` buffer). Both paths are verified in-sweep to hold
/// bit-identical objectives, pick identical placements for an identical
/// `ReplanCost`, and land on bit-identical cross mass; the counters record
/// how many considered candidates the attraction table could not decide
/// without an exact gain evaluation.
#[derive(Debug, Clone)]
pub struct ReplanLatencyRow {
    /// Large-zoo preset name.
    pub preset: String,
    /// Experts per layer.
    pub n_experts: usize,
    /// Gating fan-out the instance was sampled with.
    pub k: usize,
    /// Layers of the drifting instance.
    pub layers: usize,
    /// Serving windows (window 0 profiles; every later window re-plans).
    pub windows: usize,
    /// Re-plans that actually moved at least one expert.
    pub replans: usize,
    /// Expert-move budget of each re-plan.
    pub max_moves: u64,
    /// Swap candidates the scan loops looked at, summed over every
    /// re-plan — identical on both paths (verified; the meter charges
    /// every candidate alike).
    pub considered: u64,
    /// Candidates the rebuild path decided by an exact `swap_delta` call
    /// (both paths run the same table-driven solver: equals
    /// `evaluated_incremental`, verified).
    pub evaluated_rebuild: u64,
    /// Candidates the incremental path decided by an exact `swap_delta`
    /// call.
    pub evaluated_incremental: u64,
    /// Candidates the incremental path's attraction table decided alone
    /// (`considered - evaluated_incremental`).
    pub reused: u64,
    /// Wall milliseconds of the rebuild path (objective rebuild + solve),
    /// summed over every re-plan.
    pub wall_ms_rebuild: f64,
    /// Wall milliseconds of the incremental path (delta apply + cached
    /// solve), summed over every re-plan.
    pub wall_ms_incremental: f64,
    /// Final cross mass of the rebuild path's placement on its objective
    /// (bit-identical to the incremental path's — verified).
    pub cross_mass_rebuild: f64,
    /// Final cross mass of the incremental path's placement on its
    /// delta-maintained objective.
    pub cross_mass_incremental: f64,
}

impl ReplanLatencyRow {
    /// Candidates considered per exact gain evaluation paid — how much
    /// of the scan the attraction table answers, which the acceptance bar
    /// gates at `E = 512`.
    pub fn scan_reduction(&self) -> f64 {
        if self.evaluated_incremental == 0 {
            return 0.0;
        }
        self.considered as f64 / self.evaluated_incremental as f64
    }
}

impl JsonRow for ReplanLatencyRow {
    fn fields(&self) -> Vec<(&'static str, Json)> {
        vec![
            ("preset", self.preset.as_str().into()),
            ("experts", self.n_experts.into()),
            ("k", self.k.into()),
            ("layers", self.layers.into()),
            ("windows", self.windows.into()),
            ("replans", self.replans.into()),
            ("max_moves", self.max_moves.into()),
            ("considered", self.considered.into()),
            ("evaluated_rebuild", self.evaluated_rebuild.into()),
            ("evaluated_incremental", self.evaluated_incremental.into()),
            ("reused", self.reused.into()),
            ("scan_reduction", Json::Fixed(self.scan_reduction(), 3)),
            ("wall_ms_rebuild", Json::Fixed(self.wall_ms_rebuild, 3)),
            (
                "wall_ms_incremental",
                Json::Fixed(self.wall_ms_incremental, 3),
            ),
            ("cross_mass_rebuild", self.cross_mass_rebuild.into()),
            ("cross_mass_incremental", self.cross_mass_incremental.into()),
        ]
    }
}

/// The full benchmark result.
#[derive(Debug, Clone)]
pub struct BenchSummary {
    /// Master seed driving every instance and solver.
    pub seed: u64,
    /// Sweep scale label (`quick` / `full`).
    pub scale: String,
    /// Parallel width of the timed parallel pass.
    pub jobs: usize,
    /// Wall time of the whole Table II sweep at `--jobs 1`, in
    /// milliseconds.
    pub wall_ms_jobs1: f64,
    /// Wall time of the whole Table II sweep at `--jobs N`, in
    /// milliseconds.
    pub wall_ms_jobs_n: f64,
    /// Per-point measurements, in (model-major, solver-minor) grid order.
    pub rows: Vec<BenchRow>,
    /// The `table_sparse` cells, in `large_zoo()` order.
    pub sparse_rows: Vec<SparseBenchRow>,
    /// The `table_online` cells, in `DriftSchedule::presets` order.
    pub online_rows: Vec<OnlineBenchRow>,
    /// The `table_replication_online` cells: the 3 drift presets at
    /// `E = 16`, then one `large_zoo()` sparse instance.
    pub replication_online_rows: Vec<ReplicationOnlineRow>,
    /// The `table_serving` cells, one per arrival process.
    pub serving_rows: Vec<ServingBenchRow>,
    /// The `table_elasticity` cells, one per fault schedule.
    pub elasticity_rows: Vec<ElasticityRow>,
    /// The `table_replan_latency` cells, in `large_zoo()` order.
    pub replan_latency_rows: Vec<ReplanLatencyRow>,
    /// The `table_partial_replication` cells, in
    /// `E ∈ {16, 256} × top-1/top-2` grid order.
    pub partial_replication_rows: Vec<PartialReplicationRow>,
}

impl BenchSummary {
    /// Parallel speedup of the Table II sweep (jobs=1 wall over jobs=N
    /// wall).
    pub fn speedup(&self) -> f64 {
        if self.wall_ms_jobs_n <= 0.0 {
            return 0.0;
        }
        self.wall_ms_jobs1 / self.wall_ms_jobs_n
    }

    /// Serialize as the [`SCHEMA`] document (see README). Objectives and
    /// serving latencies print with shortest round-trip float formatting,
    /// so string equality in the JSON is bit equality of the f64 — what
    /// the CI perf-gate compares; wall times and derived ratios are
    /// display-rounded.
    pub fn to_json(&self) -> String {
        fn section<R: JsonRow>(rows: &[R]) -> Json {
            Json::Arr(rows.iter().map(|r| Json::obj(r.fields())).collect())
        }
        Json::obj(vec![
            ("schema", SCHEMA.into()),
            ("seed", self.seed.into()),
            ("scale", self.scale.as_str().into()),
            ("jobs", self.jobs.into()),
            ("wall_ms_jobs1", Json::Fixed(self.wall_ms_jobs1, 3)),
            ("wall_ms_jobsN", Json::Fixed(self.wall_ms_jobs_n, 3)),
            ("speedup", Json::Fixed(self.speedup(), 3)),
            ("objectives_bit_identical_across_jobs", Json::Bool(true)),
            ("rows", section(&self.rows)),
            ("sparse_rows", section(&self.sparse_rows)),
            ("online_rows", section(&self.online_rows)),
            (
                "replication_online_rows",
                section(&self.replication_online_rows),
            ),
            ("serving_rows", section(&self.serving_rows)),
            ("elasticity_rows", section(&self.elasticity_rows)),
            ("replan_latency_rows", section(&self.replan_latency_rows)),
            (
                "partial_replication_rows",
                section(&self.partial_replication_rows),
            ),
        ])
        .write_pretty()
        .expect("bench summaries hold only finite numbers")
    }
}

/// The solver roster the Table II benchmark times, sized by scale.
pub fn roster(scale: Scale) -> Vec<SolverKind> {
    vec![
        SolverKind::RoundRobin,
        SolverKind::Greedy,
        SolverKind::LocalSearch {
            restarts: scale.pick(2, 4),
        },
        SolverKind::Annealing(AnnealParams::default().with_starts(scale.pick(1, 2))),
        SolverKind::portfolio(scale.pick(50, 200)),
    ]
}

/// Build the fixed-seed profiled instance for one Table II model. The
/// instance keeps the model's layer count (scaled down proportionally so
/// the sweep stays time-boxed), so the 24L/32L/40L variants of the zoo
/// stay distinct instances. Placement only sees routing structure — model
/// width never enters the objective — so models that share an
/// (experts, layers) shape (M/16e vs XL/16e) are distinguished by a
/// model-specific seed stream instead.
fn instance(n_experts: usize, n_layers: usize, scale: Scale, seed: u64) -> Objective {
    let layers = (n_layers / scale.pick(6, 3)).max(2);
    let spec = AffinityModelSpec::new(layers, n_experts).with_seed(seed);
    let routing = spec.build();
    let batch = TokenBatch::sample(
        &routing,
        &CorpusSpec::pile_proxy(spec.n_domains),
        scale.pick(1500, 6000),
        1,
        seed,
    );
    Objective::from_snapshot(&profile(&RoutingTrace::from_batch(&batch, n_experts)))
}

/// One profiling trace through the streaming estimator: the CSR snapshot
/// objectives are built from.
fn profile(trace: &RoutingTrace) -> AffinitySnapshot {
    let mut estimate = StreamingAffinity::new(trace.n_layers(), trace.n_experts(), 1.0);
    estimate.observe(trace);
    estimate.snapshot()
}

/// One full sweep over models × solvers at the installed pool width.
/// Each grid point is timed individually; `(rows, total_wall_ms)`.
fn sweep_once(
    instances: &[(String, Objective)],
    kinds: &[SolverKind],
    seed: u64,
) -> (Vec<BenchRow>, f64) {
    let grid: Vec<(usize, usize)> = (0..instances.len())
        .flat_map(|m| (0..kinds.len()).map(move |s| (m, s)))
        .collect();
    let t0 = Instant::now();
    let rows = par_map(grid, |(m, s)| {
        let (name, objective) = &instances[m];
        let kind = &kinds[s];
        let t = Instant::now();
        // Grid points are the parallel grain; each solve runs
        // sequentially inside so `--jobs` is the only width that matters.
        let placement = solve_with(objective, N_UNITS, kind, seed, Parallelism::single());
        let wall_ms = t.elapsed().as_secs_f64() * 1e3;
        BenchRow {
            model: name.clone(),
            solver: kind.label(),
            wall_ms,
            cross_mass: objective.cross_mass(&placement),
        }
    });
    (rows, t0.elapsed().as_secs_f64() * 1e3)
}

/// Measure one `table_sparse` cell: profile a large-expert instance,
/// build the objective once per backend from the same CSR estimates, time
/// one exact `swap_delta` pass over every swap candidate on each, run the
/// same bounded polish on each, verify the results are identical, and
/// report the two wall times.
fn sparse_cell(cfg: &ModelConfig, scale: Scale, seed: u64) -> Result<SparseBenchRow, String> {
    let e = cfg.n_experts;
    let k = cfg.gate.k();
    let layers = scale.pick(2, 3);
    let tokens = scale.pick(3000, 10_000);
    let spec = AffinityModelSpec::new(layers, e).with_seed(seed);
    let routing = spec.build();
    let batch = TokenBatch::sample(
        &routing,
        &CorpusSpec::pile_proxy(spec.n_domains),
        tokens,
        k,
        seed,
    );
    let snapshot = profile(&RoutingTrace::from_batch(&batch, e));

    let run = |backend: GapBackend| {
        let objective = Objective::from_snapshot_with(&snapshot, backend);
        let mut placement = Placement::round_robin(layers, e, N_UNITS_LARGE);
        let t = Instant::now();
        // The exact gain of every swap candidate once: `swap_delta` is
        // where the backends differ (`O(E)` flat vs `O(nnz)` indexed per
        // call), and what annealing and the walks' exact decisions pay.
        // The polish below prices candidates from the attraction table
        // and costs the same on either backend, so it is not timed.
        let mut scan = 0.0f64;
        for layer in 0..layers {
            for e1 in 0..e {
                for e2 in (e1 + 1)..e {
                    scan += objective.swap_delta(&placement, layer, e1, e2);
                }
            }
        }
        let wall_ms = t.elapsed().as_secs_f64() * 1e3;
        let cost = improve(&objective, &mut placement, scale.pick(1, 2));
        (objective, placement, (cost, scan), wall_ms)
    };
    let (obj_dense, place_dense, (cost_dense, scan_dense), wall_dense) = run(GapBackend::Dense);
    let (obj_sparse, place_sparse, (cost_sparse, scan_sparse), wall_sparse) =
        run(GapBackend::Sparse);

    if place_dense != place_sparse
        || cost_dense.to_bits() != cost_sparse.to_bits()
        || scan_dense.to_bits() != scan_sparse.to_bits()
    {
        return Err(format!(
            "backend divergence on {}: dense {} vs sparse {}",
            cfg.name, cost_dense, cost_sparse
        ));
    }
    debug_assert_eq!(obj_dense.nnz(), obj_sparse.nnz());

    Ok(SparseBenchRow {
        preset: cfg.name.clone(),
        n_experts: e,
        k,
        layers,
        nnz: obj_sparse.nnz(),
        density: obj_sparse.density(),
        wall_ms_dense: wall_dense,
        wall_ms_sparse: wall_sparse,
        cross_mass: cost_sparse,
    })
}

/// The `table_sparse` sweep over the large-expert zoo. Cells run
/// sequentially — they are timed, and contention would corrupt the
/// dense-vs-sparse comparison. Errors if any cell's backends diverge.
pub fn sparse_table(scale: Scale, seed: u64) -> Result<Vec<SparseBenchRow>, String> {
    large_zoo()
        .iter()
        .map(|cfg| {
            let stream = seed ^ ((cfg.n_experts as u64) << 20) ^ cfg.gate.k() as u64;
            sparse_cell(cfg, scale, stream)
        })
        .collect()
}

/// Sample one serving window's routing trace from a drift schedule.
fn online_window_trace(
    drift: &DriftSchedule,
    window: usize,
    tokens: usize,
    seed: u64,
) -> RoutingTrace {
    let model = drift.model_at(window);
    let batch = TokenBatch::sample(
        model,
        &CorpusSpec::pile_proxy(model.n_domains()),
        tokens,
        1,
        split_seed(seed, window as u64),
    );
    RoutingTrace::from_batch(&batch, model.n_experts())
}

/// Serve one drift scenario under the three policies. Every solve is
/// verified invariant: the oracle re-solve across thread counts
/// (1 vs `jobs`), the budgeted re-solve and the final cross mass across
/// gap backends. Cross counts are measured on the realized window traces.
fn online_scenario(
    drift: &DriftSchedule,
    layers: usize,
    window_tokens: usize,
    jobs: usize,
    seed: u64,
) -> Result<OnlineBenchRow, String> {
    let e = ONLINE_EXPERTS;
    let bytes_per_expert = moe_gpt_m(e).expert_params() * 2;
    let budget_bytes = ONLINE_BUDGET_MOVES * bytes_per_expert;
    let windows = drift.n_windows();

    // Profile window 0's routing and solve the shared initial placement —
    // exactly what all three policies start from.
    let mut streaming = StreamingAffinity::new(layers, e, ONLINE_DECAY);
    streaming.observe(&online_window_trace(drift, 0, window_tokens, seed ^ 0x0ff1));
    let initial = solve_local_search_with(
        &Objective::from_snapshot(&streaming.snapshot()),
        ONLINE_UNITS,
        ONLINE_ORACLE_RESTARTS,
        seed,
        Parallelism::single(),
    );
    let static_placement = initial.clone();
    let mut oracle_placement = initial.clone();
    let mut budgeted_placement = initial;

    let (mut static_cross, mut oracle_cross, mut budgeted_cross) = (0u64, 0u64, 0u64);
    let mut migrated_bytes = 0u64;
    let mut replans = 0usize;

    for window in 0..windows {
        let trace = online_window_trace(drift, window, window_tokens, seed);
        for (placement, acc) in [
            (&static_placement, &mut static_cross),
            (&oracle_placement, &mut oracle_cross),
            (&budgeted_placement, &mut budgeted_cross),
        ] {
            let loc = measure_trace_locality(&trace, placement);
            *acc += loc.transitions - loc.local;
        }
        streaming.observe(&trace);

        if (window + 1).is_multiple_of(ONLINE_REPLAN_EVERY) && window + 1 < windows {
            let snapshot = streaming.snapshot();
            // Oracle: from-scratch re-solve on the live estimate,
            // thread-count invariance verified.
            let live = Objective::from_snapshot(&snapshot);
            let sequential = solve_local_search_with(
                &live,
                ONLINE_UNITS,
                ONLINE_ORACLE_RESTARTS,
                split_seed(seed, 0x0c0de ^ window as u64),
                Parallelism::single(),
            );
            let parallel = solve_local_search_with(
                &live,
                ONLINE_UNITS,
                ONLINE_ORACLE_RESTARTS,
                split_seed(seed, 0x0c0de ^ window as u64),
                Parallelism::new(jobs),
            );
            if sequential != parallel {
                return Err(format!(
                    "{}: oracle re-solve diverged across thread counts at window {window}",
                    drift.name()
                ));
            }
            oracle_placement = sequential;

            // Budgeted incremental: walk toward the same oracle-quality
            // solution under the byte budget (the budget caps migration
            // traffic, not solver compute). Gap-backend invariance is
            // verified on the walk.
            let max_moves = budget_bytes / bytes_per_expert;
            let toward = |backend: GapBackend| {
                solve_budgeted_toward_metered(
                    &Objective::from_snapshot_with(&snapshot, backend),
                    &budgeted_placement,
                    &oracle_placement,
                    max_moves,
                    &mut CostMeter::unlimited(),
                    None,
                )
            };
            let dense = toward(GapBackend::Dense);
            if dense != toward(GapBackend::Sparse) {
                return Err(format!(
                    "{}: budgeted re-solve diverged across gap backends at window {window}",
                    drift.name()
                ));
            }
            let plan = MigrationPlan::between(&budgeted_placement, &dense, bytes_per_expert);
            if plan.total_bytes() > budget_bytes {
                return Err(format!(
                    "{}: re-plan at window {window} migrated {} bytes over the {} budget",
                    drift.name(),
                    plan.total_bytes(),
                    budget_bytes
                ));
            }
            if !plan.is_empty() {
                migrated_bytes += plan.total_bytes();
                replans += 1;
            }
            budgeted_placement = dense;
        }
    }

    // The reported objective: the budgeted placement scored on the final
    // live estimate, bit-compared across backends.
    let snapshot = streaming.snapshot();
    let cm_dense =
        Objective::from_snapshot_with(&snapshot, GapBackend::Dense).cross_mass(&budgeted_placement);
    let cm_sparse = Objective::from_snapshot_with(&snapshot, GapBackend::Sparse)
        .cross_mass(&budgeted_placement);
    if cm_dense.to_bits() != cm_sparse.to_bits() {
        return Err(format!(
            "{}: final cross mass diverged across gap backends: dense {cm_dense} vs sparse {cm_sparse}",
            drift.name()
        ));
    }

    Ok(OnlineBenchRow {
        scenario: drift.name().to_string(),
        n_experts: e,
        layers,
        windows,
        replan_every: ONLINE_REPLAN_EVERY,
        budget_bytes,
        migrated_bytes,
        replans,
        static_cross,
        oracle_cross,
        budgeted_cross,
        cross_mass: cm_dense,
    })
}

/// The `table_online` sweep over the drift presets: static incumbent vs
/// oracle re-solve vs byte-budgeted incremental re-placement. Errors
/// (instead of panicking) if any invariance check fails.
pub fn online_table(scale: Scale, jobs: usize, seed: u64) -> Result<Vec<OnlineBenchRow>, String> {
    let layers = scale.pick(5, 7);
    let windows = scale.pick(12, 16);
    let window_tokens = scale.pick(1500, 4000);
    let spec = AffinityModelSpec::new(layers, ONLINE_EXPERTS).with_seed(seed ^ 0x07_11_13);
    DriftSchedule::presets(&spec, windows)
        .iter()
        .enumerate()
        .map(|(i, drift)| {
            online_scenario(
                drift,
                layers,
                window_tokens,
                jobs,
                split_seed(seed, 0xd1f7 ^ i as u64),
            )
        })
        .collect()
}

/// Serve one drift scenario under static / owner-moves-only / joint
/// replication-aware re-placement. Both adaptive policies get the same
/// per-re-plan migration byte budget; the joint policy additionally gets
/// `replica_slots` expert payloads of per-GPU replica memory. Every joint
/// re-solve and the final cross mass are verified invariant across gap
/// backends, and both policies are verified budget-compliant. Cross
/// counts are measured on the realized window traces.
// One scenario axis per knob the bench sweeps; a config struct would
// obscure which cells vary which knob.
#[allow(clippy::too_many_arguments)]
fn replication_scenario(
    drift: &DriftSchedule,
    e: usize,
    units: usize,
    layers: usize,
    replan_every: usize,
    window_tokens: usize,
    seed: u64,
) -> Result<ReplicationOnlineRow, String> {
    let bytes_per_expert = moe_gpt_m(e).expert_params() * 2;
    let budget_bytes = REPLICATION_BUDGET_MOVES * bytes_per_expert;
    let joint_budget = ReplicationBudget {
        replica_memory_bytes: REPLICATION_SLOTS * bytes_per_expert,
        migration_budget_bytes: budget_bytes,
    };
    let windows = drift.n_windows();
    let scenario = format!("{}/E{e}", drift.name());

    // Profile window 0 and solve the shared initial placement (greedy +
    // bounded polish: deterministic and cheap enough for E = 256).
    let mut streaming = StreamingAffinity::new(layers, e, ONLINE_DECAY);
    streaming.observe(&online_window_trace(drift, 0, window_tokens, seed ^ 0x0ff1));
    let initial = {
        let objective = Objective::from_snapshot(&streaming.snapshot());
        let mut p = solve_greedy(&objective, units);
        improve(&objective, &mut p, 10);
        p
    };
    let static_placement = initial.clone();
    let mut owner_placement = initial.clone();
    let mut joint_plan = ReplicationPlan::bare(initial);

    let (mut static_cross, mut owner_cross, mut joint_cross) = (0u64, 0u64, 0u64);
    let (mut owner_migrated, mut joint_migrated) = (0u64, 0u64);
    let (mut owner_replans, mut joint_replans) = (0usize, 0usize);
    let (mut replicas_added, mut replicas_dropped) = (0u64, 0u64);

    for window in 0..windows {
        let trace = online_window_trace(drift, window, window_tokens, seed);
        for (placement, acc) in [
            (&static_placement, &mut static_cross),
            (&owner_placement, &mut owner_cross),
        ] {
            let loc = measure_trace_locality(&trace, placement);
            *acc += loc.transitions - loc.local;
        }
        let loc = joint_plan.trace_locality(&trace);
        joint_cross += loc.transitions - loc.local;
        streaming.observe(&trace);

        if (window + 1).is_multiple_of(replan_every) && window + 1 < windows {
            let snapshot = streaming.snapshot();
            let dense = Objective::from_snapshot_with(&snapshot, GapBackend::Dense);
            let sparse = Objective::from_snapshot_with(&snapshot, GapBackend::Sparse);

            // Owner-moves-only: the whole migration budget buys
            // relocations.
            let owner = |objective: &Objective| {
                let moves = REPLICATION_BUDGET_MOVES;
                solve_budgeted_metered(objective, &owner_placement, moves, u64::MAX, None).0
            };
            let owner_next = owner(&dense);
            if owner_next != owner(&sparse) {
                return Err(format!(
                    "{scenario}: owner re-solve diverged across gap backends at window {window}"
                ));
            }
            let plan = MigrationPlan::between(&owner_placement, &owner_next, bytes_per_expert);
            if plan.total_bytes() > budget_bytes {
                return Err(format!(
                    "{scenario}: owner re-plan at window {window} migrated {} bytes over the {budget_bytes} budget",
                    plan.total_bytes()
                ));
            }
            if !plan.is_empty() {
                owner_migrated += plan.total_bytes();
                owner_replans += 1;
            }
            owner_placement = owner_next;

            // Joint: replica adds/drops race owner moves under the same
            // migration budget plus the replica memory budget.
            let joint = |objective: &Objective| {
                solve_budgeted_replicated_metered(
                    objective,
                    &joint_plan,
                    bytes_per_expert,
                    &joint_budget,
                    &ReplicaPolicy::Everywhere,
                    u64::MAX,
                    None,
                )
                .0
            };
            let joint_next = joint(&dense);
            if joint_next != joint(&sparse) {
                return Err(format!(
                    "{scenario}: joint re-solve diverged across gap backends at window {window}"
                ));
            }
            let plan =
                MigrationPlan::between_replicated(&joint_plan, &joint_next, bytes_per_expert);
            if plan.total_bytes() > budget_bytes {
                return Err(format!(
                    "{scenario}: joint re-plan at window {window} migrated {} bytes over the {budget_bytes} budget",
                    plan.total_bytes()
                ));
            }
            if joint_next.extra_copies_per_gpu() as u64 > REPLICATION_SLOTS {
                return Err(format!(
                    "{scenario}: joint re-plan at window {window} holds {} extra copies over the {REPLICATION_SLOTS}-slot memory budget",
                    joint_next.extra_copies_per_gpu()
                ));
            }
            if !plan.is_empty() {
                joint_migrated += plan.total_bytes();
                joint_replans += 1;
                replicas_added += plan.n_replica_adds() as u64;
                replicas_dropped += plan.n_replica_drops() as u64;
            }
            joint_plan = joint_next;
        }
    }

    // The reported objective: the joint plan scored on the final live
    // estimate, bit-compared across backends.
    let snapshot = streaming.snapshot();
    let cm_dense = replicated_cross_mass(
        &Objective::from_snapshot_with(&snapshot, GapBackend::Dense),
        &joint_plan,
    );
    let cm_sparse = replicated_cross_mass(
        &Objective::from_snapshot_with(&snapshot, GapBackend::Sparse),
        &joint_plan,
    );
    if cm_dense.to_bits() != cm_sparse.to_bits() {
        return Err(format!(
            "{scenario}: final replicated cross mass diverged across gap backends: dense {cm_dense} vs sparse {cm_sparse}"
        ));
    }

    Ok(ReplicationOnlineRow {
        scenario,
        n_experts: e,
        layers,
        units,
        windows,
        replan_every,
        budget_bytes,
        replica_slots: REPLICATION_SLOTS,
        owner_migrated_bytes: owner_migrated,
        joint_migrated_bytes: joint_migrated,
        owner_replans,
        joint_replans,
        replicas_added,
        replicas_dropped,
        extra_copies: joint_plan.extra_copies_per_gpu() as u64,
        static_cross,
        owner_cross,
        joint_cross,
        cross_mass: cm_dense,
    })
}

/// The `table_replication_online` sweep: the 3 drift presets at `E = 16`,
/// then one `large_zoo()` sparse instance (`E = 256`, top-1) where the
/// CSR objective backend carries the re-solves. Errors (instead of
/// panicking) if any invariance or budget check fails.
pub fn replication_online_table(
    scale: Scale,
    seed: u64,
) -> Result<Vec<ReplicationOnlineRow>, String> {
    let layers = scale.pick(5, 7);
    let windows = scale.pick(10, 14);
    let window_tokens = scale.pick(1500, 4000);
    let spec = AffinityModelSpec::new(layers, ONLINE_EXPERTS).with_seed(seed ^ 0x05_17_19);
    let mut rows: Vec<ReplicationOnlineRow> = DriftSchedule::presets(&spec, windows)
        .iter()
        .enumerate()
        .map(|(i, drift)| {
            replication_scenario(
                drift,
                ONLINE_EXPERTS,
                ONLINE_UNITS,
                layers,
                ONLINE_REPLAN_EVERY,
                window_tokens,
                split_seed(seed, 0x5e71 ^ i as u64),
            )
        })
        .collect::<Result<_, _>>()?;

    // One large sparse instance: E = 256 top-1 from the large zoo, few
    // windows (each re-solve walks a 256-expert swap neighborhood).
    let large = &large_zoo()[0];
    let large_layers = 2;
    let large_windows = scale.pick(4, 6);
    let large_spec =
        AffinityModelSpec::new(large_layers, large.n_experts).with_seed(seed ^ 0x23_29_31);
    let large_drift = DriftSchedule::piecewise(&large_spec, 2, large_windows);
    rows.push(replication_scenario(
        &large_drift,
        large.n_experts,
        N_UNITS_LARGE,
        large_layers,
        1,
        scale.pick(2000, 6000),
        split_seed(seed, 0x5e71 ^ 0xbeef),
    )?);
    Ok(rows)
}

/// Build one serving engine. All policies share the model, cluster, and
/// master seed, so the profiled incumbent placement — and, downstream,
/// the arrival sample and per-request routing draws of the serving run —
/// are identical across policies; only the re-placement behavior differs.
fn serving_engine(
    layers: usize,
    online: OnlineConfig,
    threads: usize,
    backend: GapBackend,
    seed: u64,
) -> InferenceEngine {
    let mut model = moe_gpt_m(SERVING_EXPERTS);
    model.n_layers = layers;
    model.d_ff = SERVING_D_FF;
    let cost = CostModel::new(
        LinkCost::from_latency_bandwidth(0.3e-6, 1.5e12),
        LinkCost::from_latency_bandwidth(1.0e-6, 300.0e9),
        LinkCost::from_latency_bandwidth(3.5e-6, SERVING_INTER_NODE_BW),
    )
    .with_alltoall_efficiency([1.0, 0.5, 0.16]);
    InferenceEngine::builder(model, ClusterSpec::new(2, 2).unwrap())
        .link_cost(cost)
        .requests_per_gpu(SERVING_MAX_BATCH / 4)
        .prompt_len(4)
        .profile_tokens(800)
        .parallelism(Parallelism::new(threads))
        .gap_backend(backend)
        .online(online)
        .seed(seed ^ 0x5e_4b_1e)
        .build()
}

/// The `table_serving` sweep: Poisson, diurnal, and flash-crowd arrival
/// processes served through the request-level front-end under static /
/// budgeted-online / replication-aware placements. The arrival rate is
/// calibrated against a probed step time
/// (`InferenceEngine::probe_step_time`) so the cell runs at
/// `SERVING_UTILIZATION` (96%) of full-batch capacity regardless of model
/// shape. Errors (instead of panicking) if the budgeted-online report is
/// not bit-identical at `jobs` solver threads or on the CSR gap backend,
/// or if any report fails its sanity bars.
pub fn serving_table(scale: Scale, jobs: usize, seed: u64) -> Result<Vec<ServingBenchRow>, String> {
    let layers = scale.pick(4, 5);
    let n_requests = scale.pick(1400, 1800);
    let mode = ParallelismMode::ContextCoherentAffinity;

    let bytes_per_expert = {
        let mut model = moe_gpt_m(SERVING_EXPERTS);
        model.n_layers = layers;
        model.d_ff = SERVING_D_FF;
        model.expert_params() * 2
    };
    let static_oc = OnlineConfig {
        drift_threshold: f64::INFINITY,
        decay: SERVING_DECAY,
        ..OnlineConfig::default()
    };
    let online_oc = OnlineConfig {
        replan_every: 2,
        drift_threshold: SERVING_DRIFT_THRESHOLD,
        migration_budget_bytes: SERVING_BUDGET_MOVES * bytes_per_expert,
        decay: SERVING_DECAY,
        ..OnlineConfig::default()
    };
    let repl_oc = OnlineConfig {
        migration_budget_bytes: SERVING_BUDGET_MOVES / 2 * bytes_per_expert,
        replica_memory_bytes: SERVING_REPLICA_SLOTS * bytes_per_expert,
        ..online_oc
    };

    let static_eng = serving_engine(layers, static_oc, 1, GapBackend::Dense, seed);
    let online_eng = serving_engine(layers, online_oc, 1, GapBackend::Dense, seed);
    let repl_eng = serving_engine(layers, repl_oc, 1, GapBackend::Dense, seed);
    // Invariance witnesses: the same budgeted-online policy at the
    // requested solver width and on the CSR objective backend.
    let wide_eng = serving_engine(layers, online_oc, jobs.max(2), GapBackend::Dense, seed);
    let sparse_eng = serving_engine(layers, online_oc, 1, GapBackend::Sparse, seed);

    let drift = DriftSchedule::piecewise(&static_eng.config().routing_spec, 2, SERVING_WINDOWS);

    // Calibrate absolute arrival rates against the probed full-batch step
    // time: `rate` fills SERVING_UTILIZATION of the cell's token-serving
    // capacity, and the horizon is how long that rate takes to deliver
    // every request.
    let step = static_eng.probe_step_time(mode, SERVING_MAX_BATCH);
    if step <= 0.0 {
        return Err(format!("probed step time {step} must be positive"));
    }
    let rate =
        SERVING_UTILIZATION * SERVING_MAX_BATCH as f64 / (SERVING_DECODE_STEPS as f64 * step);
    let horizon = n_requests as f64 / rate;
    // The flash crowd compresses the same mean load: a quiet base rate
    // with a 4x spike over 10% of the horizon.
    let arrivals = [
        ArrivalProcess::poisson(rate),
        ArrivalProcess::diurnal(rate, 0.5, horizon / 2.0),
        ArrivalProcess::flash_crowd(rate / 1.3, 4.0, 0.7 * horizon, 0.1 * horizon),
    ];

    let mut rows = Vec::with_capacity(arrivals.len());
    for arrival in arrivals {
        let cfg = ServingConfig {
            arrival,
            n_requests,
            decode_steps: SERVING_DECODE_STEPS,
            batch: BatchPolicy::SizeOrWait {
                max_size: SERVING_MAX_BATCH,
                max_wait: 2.0 * step,
            },
            window_duration: horizon / SERVING_WINDOWS as f64,
        };
        let name = cfg.arrival.name().to_string();
        let scenario = Scenario::offline(mode)
            .with_drift(drift.clone())
            .with_serving(cfg.clone());
        let stat: ServingReport = static_eng.run_scenario(&scenario).expect_serving();
        let online = online_eng.run_scenario(&scenario).expect_serving();
        let repl = repl_eng.run_scenario(&scenario).expect_serving();

        let wide = wide_eng.run_scenario(&scenario).expect_serving();
        if wide != online {
            return Err(format!(
                "{name}: serving report diverged across solver widths (1 vs {})",
                jobs.max(2)
            ));
        }
        let sparse = sparse_eng.run_scenario(&scenario).expect_serving();
        if sparse != online {
            return Err(format!(
                "{name}: serving report diverged across gap backends"
            ));
        }

        for (policy, r) in [
            ("static", &stat),
            ("online", &online),
            ("replicated", &repl),
        ] {
            if r.n_requests() != n_requests {
                return Err(format!(
                    "{name}/{policy}: served {} of {n_requests} requests",
                    r.n_requests()
                ));
            }
            if r.goodput() > r.offered_load {
                return Err(format!(
                    "{name}/{policy}: goodput {} exceeds offered load {}",
                    r.goodput(),
                    r.offered_load
                ));
            }
            if r.offered_load.to_bits() != stat.offered_load.to_bits() {
                return Err(format!(
                    "{name}/{policy}: policies saw different arrival samples"
                ));
            }
        }
        if online.migrations.replans == 0 {
            return Err(format!(
                "{name}: piecewise drift fired no budgeted-online re-plans"
            ));
        }

        rows.push(ServingBenchRow {
            arrival: name,
            requests: n_requests,
            decode_steps: SERVING_DECODE_STEPS,
            windows: SERVING_WINDOWS,
            max_batch: SERVING_MAX_BATCH,
            offered_load: stat.offered_load,
            static_p50: stat.p50(),
            static_p95: stat.p95(),
            static_p99: stat.p99(),
            static_goodput: stat.goodput(),
            online_p50: online.p50(),
            online_p95: online.p95(),
            online_p99: online.p99(),
            online_goodput: online.goodput(),
            online_replans: online.migrations.replans,
            online_migrated_bytes: online.migrations.bytes.total(),
            repl_p50: repl.p50(),
            repl_p95: repl.p95(),
            repl_p99: repl.p99(),
            repl_goodput: repl.goodput(),
            repl_replicas_added: repl.migrations.replicas_added,
        });
    }
    Ok(rows)
}

/// The `table_elasticity` sweep: one Poisson arrival sample served
/// through a mid-run GPU loss (and, in the second cell, a later rejoin)
/// by two fleets that differ only in replication — none (lost experts
/// must be emergency-restored over the wire) vs full (failover is a
/// free ownership flip). The arrival rate is calibrated so the
/// *surviving* fleet stays below saturation (`ELASTICITY_UTILIZATION`),
/// which is what makes "time until the rolling p99 returns to its
/// pre-fault level" well-defined. Errors (instead of panicking) if the
/// faulted run is not bit-identical at `jobs` solver threads and at 8,
/// or on the CSR gap backend, or if the replicated fleet fails its
/// acceptance bars (free failover, strictly faster recovery).
pub fn elasticity_table(
    scale: Scale,
    jobs: usize,
    seed: u64,
) -> Result<Vec<ElasticityRow>, String> {
    let layers = scale.pick(4, 5);
    let n_requests = scale.pick(ELASTICITY_REQUESTS.0, ELASTICITY_REQUESTS.1);
    let mode = ParallelismMode::ContextCoherentAffinity;
    // A static (never drift-replanning) policy on both fleets: the only
    // re-placements in these cells are the emergency ones the fault
    // layer itself triggers, so the recovery clock measures elasticity,
    // not drift adaptation.
    let oc = OnlineConfig {
        drift_threshold: f64::INFINITY,
        decay: SERVING_DECAY,
        ..OnlineConfig::default()
    };

    let eng = serving_engine(layers, oc, 1, GapBackend::Dense, seed);
    let world = eng.config().cluster.world_size();
    let step = eng.probe_step_time(mode, SERVING_MAX_BATCH);
    if step <= 0.0 {
        return Err(format!("probed step time {step} must be positive"));
    }
    let rate =
        ELASTICITY_UTILIZATION * SERVING_MAX_BATCH as f64 / (SERVING_DECODE_STEPS as f64 * step);
    let horizon = n_requests as f64 / rate;
    let cfg = ServingConfig {
        arrival: ArrivalProcess::poisson(rate),
        n_requests,
        decode_steps: SERVING_DECODE_STEPS,
        batch: BatchPolicy::SizeOrWait {
            max_size: SERVING_MAX_BATCH,
            max_wait: 2.0 * step,
        },
        window_duration: horizon / SERVING_WINDOWS as f64,
    };
    // The replicated fleet starts from the same profiled placement with
    // every expert replicated everywhere, so any lost expert has a live
    // copy. `everywhere` materializes the actual non-owner subsets, so
    // the memory figure below counts real copies, not a world-size
    // fan-out assumption.
    let full_replication = ReplicationPlan::everywhere(
        eng.placement_for(mode).clone(),
        vec![(0..SERVING_EXPERTS).collect(); layers],
    );

    let faults = [
        FaultSchedule::gpu_loss(world, 1, ELASTICITY_FAULT_AT * horizon),
        FaultSchedule::loss_and_rejoin(
            world,
            1,
            ELASTICITY_FAULT_AT * horizon,
            ELASTICITY_REJOIN_AT * horizon,
        ),
    ];

    let mut rows = Vec::with_capacity(faults.len());
    for fault in faults {
        let name = fault.name().to_string();
        let plain_scenario = Scenario::offline(mode)
            .with_serving(cfg.clone())
            .with_faults(fault.clone());
        let repl_scenario = plain_scenario
            .clone()
            .with_replication(full_replication.clone());
        let plain = eng.run_scenario(&plain_scenario).expect_serving();
        let repl = eng.run_scenario(&repl_scenario).expect_serving();

        // Bit-identity of the faulted run across solver widths and the
        // CSR objective backend, on the fleet that actually exercises
        // emergency re-placement.
        for threads in [jobs.max(2), 8] {
            let wide = serving_engine(layers, oc, threads, GapBackend::Dense, seed)
                .run_scenario(&plain_scenario)
                .expect_serving();
            if wide != plain {
                return Err(format!(
                    "{name}: faulted serving report diverged across solver widths (1 vs {threads})"
                ));
            }
        }
        let sparse = serving_engine(layers, oc, 1, GapBackend::Sparse, seed)
            .run_scenario(&plain_scenario)
            .expect_serving();
        if sparse != plain {
            return Err(format!(
                "{name}: faulted serving report diverged across gap backends"
            ));
        }

        for (fleet, r) in [("no-replicas", &plain), ("replicated", &repl)] {
            if r.n_requests() != n_requests {
                return Err(format!(
                    "{name}/{fleet}: served {} of {n_requests} requests",
                    r.n_requests()
                ));
            }
            if r.disruption.requests_disrupted == 0 {
                return Err(format!(
                    "{name}/{fleet}: the loss disrupted nothing — the fault landed too late"
                ));
            }
        }
        // The loss evacuation is free under full replication; a rejoin
        // re-home still ships weights back to the returning GPU on both
        // fleets, so only the loss-only cell pins zero emergency bytes.
        let has_rejoin = fault.events().iter().any(|ev| ev.kind == FaultKind::Up);
        if !has_rejoin && repl.disruption.emergency_bytes != 0 {
            return Err(format!(
                "{name}: full replication still copied {} emergency bytes",
                repl.disruption.emergency_bytes
            ));
        }
        if repl.disruption.emergency_bytes >= plain.disruption.emergency_bytes {
            return Err(format!(
                "{name}: replication shipped {} emergency bytes vs {} without — failover \
                 must save wire traffic",
                repl.disruption.emergency_bytes, plain.disruption.emergency_bytes
            ));
        }

        let recovery = |r: &ServingReport| r.recovery_time().unwrap_or(-1.0);
        let row = ElasticityRow {
            fault: name.clone(),
            requests: n_requests,
            fault_time: fault.first_down_time().unwrap_or(0.0),
            plain_p99: plain.p99(),
            plain_disrupted: plain.disruption.requests_disrupted,
            plain_steps_degraded: plain.disruption.steps_degraded,
            plain_emergency_bytes: plain.disruption.emergency_bytes,
            plain_recovery: recovery(&plain),
            repl_p99: repl.p99(),
            repl_disrupted: repl.disruption.requests_disrupted,
            repl_steps_degraded: repl.disruption.steps_degraded,
            repl_emergency_bytes: repl.disruption.emergency_bytes,
            repl_recovery: recovery(&repl),
            repl_extra_copies: full_replication.extra_copies_per_gpu() as u64,
        };
        if !row.replication_recovers_faster() {
            return Err(format!(
                "{name}: replicated fleet recovered in {} vs no-replicas {} — replication must \
                 buy strictly faster recovery",
                row.repl_recovery, row.plain_recovery
            ));
        }
        rows.push(row);
    }
    Ok(rows)
}

/// Measure one `table_replan_latency` cell: drift one large-expert
/// instance through a window stream and re-plan after every window along
/// two lockstep paths sharing one incumbent —
///
/// * **rebuild**: `Objective::from_snapshot` on the live estimate (paid
///   every re-plan), then `solve_budgeted_metered` building its
///   attraction table locally;
/// * **incremental**: `Objective::apply_snapshot_delta` with the
///   window's `SnapshotDelta`, then the same solver in a persistent
///   [`SwapGainCache`] buffer.
///
/// Every re-plan verifies the two objectives are equal, both paths pick
/// the same placement for the same `ReplanCost`, and — at the end — score
/// bit-identical cross mass. Any divergence is an `Err`:
/// it would mean incremental maintenance broke the determinism contract
/// and the JSON must not be published.
fn replan_latency_cell(
    cfg: &ModelConfig,
    scale: Scale,
    seed: u64,
) -> Result<ReplanLatencyRow, String> {
    let e = cfg.n_experts;
    let k = cfg.gate.k();
    let layers = REPLAN_LATENCY_LAYERS;
    let windows = scale.pick(3, 5);
    let window_tokens = scale.pick(REPLAN_LATENCY_TOKENS.0, REPLAN_LATENCY_TOKENS.1);
    let spec = AffinityModelSpec::new(layers, e).with_seed(seed);
    let drift = DriftSchedule::piecewise(&spec, 2, windows);

    // Window 0 profiles the instance; both paths start from the same
    // snapshot-built objective and the same greedy-plus-polish incumbent.
    let mut streaming = StreamingAffinity::new(layers, e, ONLINE_DECAY);
    streaming.observe(&online_window_trace(
        &drift,
        0,
        window_tokens,
        seed ^ 0x0ff1,
    ));
    let mut live = Objective::from_snapshot(&streaming.snapshot());
    let mut cache = SwapGainCache::for_objective(&live);
    let mut placement = {
        let mut p = solve_greedy(&live, N_UNITS_LARGE);
        improve(&live, &mut p, 10);
        p
    };

    let mut replans = 0usize;
    let (mut considered, mut evaluated_rebuild) = (0u64, 0u64);
    let (mut evaluated_incremental, mut reused) = (0u64, 0u64);
    let (mut wall_rebuild, mut wall_incremental) = (0.0f64, 0.0f64);

    for window in 1..windows {
        let trace = online_window_trace(&drift, window, window_tokens, seed);
        let delta = streaming.observe_delta(&trace);

        // Rebuild path: pay the full objective reconstruction, then the
        // solve on a local table.
        let t = Instant::now();
        let rebuilt = Objective::from_snapshot(&streaming.snapshot());
        let (next_rebuild, cost_rebuild) =
            solve_budgeted_metered(&rebuilt, &placement, REPLAN_LATENCY_MOVES, u64::MAX, None);
        wall_rebuild += t.elapsed().as_secs_f64() * 1e3;

        // Incremental path: splice the window delta into the persistent
        // objective, then the solve in the held buffer.
        let t = Instant::now();
        live.apply_snapshot_delta(&delta);
        let (next_incremental, cost_incremental) = solve_budgeted_metered(
            &live,
            &placement,
            REPLAN_LATENCY_MOVES,
            u64::MAX,
            Some(&mut cache),
        );
        wall_incremental += t.elapsed().as_secs_f64() * 1e3;

        if live != rebuilt {
            return Err(format!(
                "{}: delta-maintained objective diverged from the rebuild at window {window}",
                cfg.name
            ));
        }
        if next_incremental != next_rebuild {
            return Err(format!(
                "{}: cached incremental re-plan diverged from the rebuild at window {window}",
                cfg.name
            ));
        }
        if cost_rebuild != cost_incremental {
            return Err(format!(
                "{}: solver work differs at window {window}: {cost_rebuild:?} on a local \
                 table vs {cost_incremental:?} in the held buffer",
                cfg.name
            ));
        }
        considered += cost_rebuild.considered;
        evaluated_rebuild += cost_rebuild.evaluated;
        evaluated_incremental += cost_incremental.evaluated;
        reused += cost_incremental.reused;
        if next_rebuild != placement {
            replans += 1;
        }
        placement = next_rebuild;
    }

    let cm_rebuild = Objective::from_snapshot(&streaming.snapshot()).cross_mass(&placement);
    let cm_incremental = live.cross_mass(&placement);
    if cm_rebuild.to_bits() != cm_incremental.to_bits() {
        return Err(format!(
            "{}: final cross mass diverged: rebuild {cm_rebuild} vs incremental {cm_incremental}",
            cfg.name
        ));
    }

    Ok(ReplanLatencyRow {
        preset: cfg.name.clone(),
        n_experts: e,
        k,
        layers,
        windows,
        replans,
        max_moves: REPLAN_LATENCY_MOVES,
        considered,
        evaluated_rebuild,
        evaluated_incremental,
        reused,
        wall_ms_rebuild: wall_rebuild,
        wall_ms_incremental: wall_incremental,
        cross_mass_rebuild: cm_rebuild,
        cross_mass_incremental: cm_incremental,
    })
}

/// The `table_replan_latency` sweep over the large-expert zoo
/// (`E = 256/512`, top-1 and top-2). Cells run sequentially — both paths
/// are timed, and contention would corrupt the rebuild-vs-incremental
/// comparison. Errors if any cell's paths diverge.
pub fn replan_latency_table(scale: Scale, seed: u64) -> Result<Vec<ReplanLatencyRow>, String> {
    large_zoo()
        .iter()
        .map(|cfg| {
            let stream = seed ^ ((cfg.n_experts as u64) << 20) ^ cfg.gate.k() as u64 ^ 0x9e37;
            replan_latency_cell(cfg, scale, stream)
        })
        .collect()
}

/// Sample one window trace with an explicit gating fan-out `k` (the
/// top-2 cells route every token through two experts per layer).
fn partial_window_trace(
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

/// Measure one `table_partial_replication` cell. Every re-plan races the
/// one-per-node and everywhere fan-out policies from the *same* shared
/// incumbent at equal budgets; the partial winner becomes the next
/// incumbent. The engine leg runs the context-coherent online loop under
/// the subset policy and verifies bit-identity at 1/2/8 solver threads
/// and across gap backends.
fn partial_replication_cell(
    e: usize,
    gate: GateKind,
    scale: Scale,
    seed: u64,
) -> Result<PartialReplicationRow, String> {
    let k = gate.k();
    let scenario = format!("E{e}/top{k}");
    let (units, cluster, layers, windows, window_tokens) = if e <= 16 {
        (
            ONLINE_UNITS,
            ClusterSpec::new(2, 2).unwrap(),
            scale.pick(4, 5),
            scale.pick(6, 10),
            scale.pick(1500, 4000),
        )
    } else {
        (
            N_UNITS_LARGE,
            ClusterSpec::new(2, 4).unwrap(),
            2,
            scale.pick(3, 5),
            scale.pick(2000, 6000),
        )
    };
    let bytes_per_expert = moe_gpt_m(e).expert_params() * 2;
    let budget_bytes = PARTIAL_BUDGET_MOVES * bytes_per_expert;
    let budget = ReplicationBudget {
        replica_memory_bytes: PARTIAL_REPLICA_SLOTS * bytes_per_expert,
        migration_budget_bytes: budget_bytes,
    };
    let partial_policy = ReplicaPolicy::OnePerNode(cluster);

    let spec = AffinityModelSpec::new(layers, e).with_seed(seed ^ 0x9a_7d_11);
    let drift = DriftSchedule::piecewise(&spec, 2, windows);

    let mut streaming = StreamingAffinity::new(layers, e, ONLINE_DECAY);
    streaming.observe(&partial_window_trace(
        &drift,
        0,
        window_tokens,
        k,
        seed ^ 0x0ff1,
    ));
    let initial = {
        let objective = Objective::from_snapshot(&streaming.snapshot());
        let mut p = solve_greedy(&objective, units);
        improve(&objective, &mut p, 10);
        p
    };
    let mut incumbent = ReplicationPlan::bare(initial);

    let mut realized_cross = 0u64;
    let (mut partial_cm, mut full_cm) = (0.0f64, 0.0f64);
    let (mut partial_migrated, mut full_migrated) = (0u64, 0u64);
    let mut partial_replans = 0usize;
    let mut replicas_added = 0u64;
    let mut full_extra_copies = 0u64;

    for window in 0..windows {
        let trace = partial_window_trace(&drift, window, window_tokens, k, seed);
        let loc = incumbent.trace_locality(&trace);
        realized_cross += loc.transitions - loc.local;
        streaming.observe(&trace);

        if window + 1 < windows {
            let snapshot = streaming.snapshot();
            let dense = Objective::from_snapshot_with(&snapshot, GapBackend::Dense);
            let sparse = Objective::from_snapshot_with(&snapshot, GapBackend::Sparse);

            let solve_both = |policy: &ReplicaPolicy| -> Result<(ReplicationPlan, f64), String> {
                let solve = |objective: &Objective| {
                    let bpe = bytes_per_expert;
                    solve_budgeted_replicated_metered(
                        objective,
                        &incumbent,
                        bpe,
                        &budget,
                        policy,
                        u64::MAX,
                        None,
                    )
                    .0
                };
                let next = solve(&dense);
                if next != solve(&sparse) {
                    return Err(format!(
                        "{scenario}: {policy:?} solve diverged across gap backends at window {window}"
                    ));
                }
                let cm = replicated_cross_mass(&dense, &next);
                if cm.to_bits() != replicated_cross_mass(&sparse, &next).to_bits() {
                    return Err(format!(
                        "{scenario}: replicated cross mass diverged across gap backends at window {window}"
                    ));
                }
                Ok((next, cm))
            };

            let (partial_next, cm_p) = solve_both(&partial_policy)?;
            let (full_next, cm_f) = solve_both(&ReplicaPolicy::Everywhere)?;
            if cm_p > cm_f {
                return Err(format!(
                    "{scenario}: partial fan-out lost to full at equal memory at window \
                     {window} ({cm_p} vs {cm_f})"
                ));
            }
            partial_cm += cm_p;
            full_cm += cm_f;

            for (next, migrated, extra_cap) in [
                (&partial_next, &mut partial_migrated, PARTIAL_REPLICA_SLOTS),
                (&full_next, &mut full_migrated, PARTIAL_REPLICA_SLOTS),
            ] {
                let diff = MigrationPlan::between_replicated(&incumbent, next, bytes_per_expert);
                if diff.total_bytes() > budget_bytes {
                    return Err(format!(
                        "{scenario}: re-plan at window {window} migrated {} bytes over the \
                         {budget_bytes} budget",
                        diff.total_bytes()
                    ));
                }
                if next.extra_copies_per_gpu() as u64 > extra_cap {
                    return Err(format!(
                        "{scenario}: re-plan at window {window} holds {} extra copies over \
                         the {extra_cap}-slot memory budget",
                        next.extra_copies_per_gpu()
                    ));
                }
                *migrated += diff.total_bytes();
            }
            let diff =
                MigrationPlan::between_replicated(&incumbent, &partial_next, bytes_per_expert);
            if !diff.is_empty() {
                partial_replans += 1;
                replicas_added += diff.n_replica_adds() as u64;
            }
            full_extra_copies = full_next.extra_copies_per_gpu() as u64;
            incumbent = partial_next;
        }
    }

    // The engine leg: the context-coherent online loop dispatching with
    // the meeting-point rule under the one-per-node policy, verified
    // bit-identical at 1/2/8 solver threads and across gap backends.
    let cc_engine = |threads: usize, backend: GapBackend| {
        let mut model = moe_gpt_m(e).with_gate(gate);
        model.n_layers = if e <= 16 { 4 } else { 2 };
        model.d_ff = SERVING_D_FF;
        let engine_bpe = model.expert_params() * 2;
        InferenceEngine::builder(model, ClusterSpec::new(2, 2).unwrap())
            .requests_per_gpu(8)
            .n_iterations(2)
            .prompt_len(4)
            .profile_tokens(scale.pick(400, 800))
            .parallelism(Parallelism::new(threads))
            .gap_backend(backend)
            .online(OnlineConfig {
                replan_every: 1,
                drift_threshold: 0.08,
                migration_budget_bytes: PARTIAL_BUDGET_MOVES * engine_bpe,
                decay: 0.3,
                replica_memory_bytes: PARTIAL_REPLICA_SLOTS * engine_bpe,
                ..OnlineConfig::default()
            })
            .seed(seed ^ 0x77_aa_01)
            .build()
    };
    let cc_windows = if e <= 16 { 4 } else { 3 };
    let cc_run = |threads: usize, backend: GapBackend| {
        let eng = cc_engine(threads, backend);
        let drift = DriftSchedule::piecewise(&eng.config().routing_spec, 2, cc_windows);
        eng.run_scenario(
            &Scenario::offline(ParallelismMode::ContextCoherentAffinity).with_drift(drift),
        )
        .expect_online()
    };
    let baseline = cc_run(1, GapBackend::Auto);
    for threads in [2usize, 8] {
        if cc_run(threads, GapBackend::Auto) != baseline {
            return Err(format!(
                "{scenario}: context-coherent run diverged across solver widths (1 vs {threads})"
            ));
        }
    }
    if cc_run(1, GapBackend::Dense) != cc_run(1, GapBackend::Sparse) {
        return Err(format!(
            "{scenario}: context-coherent run diverged across gap backends"
        ));
    }

    Ok(PartialReplicationRow {
        scenario,
        n_experts: e,
        k,
        layers,
        units,
        windows,
        replica_slots: PARTIAL_REPLICA_SLOTS,
        budget_bytes,
        partial_replans,
        replicas_added,
        partial_migrated_bytes: partial_migrated,
        full_migrated_bytes: full_migrated,
        partial_extra_copies: incumbent.extra_copies_per_gpu() as u64,
        full_extra_copies,
        partial_cross_mass: partial_cm,
        full_cross_mass: full_cm,
        realized_cross,
        cc_replicas_added: baseline.migrations.replicas_added,
        cc_local_fraction: baseline.dispatch().gpu_local_fraction(),
    })
}

/// The `table_partial_replication` sweep: `E ∈ {16, 256} × top-1/top-2`.
/// Errors (instead of panicking) if any cell fails its invariance or
/// budget checks, or if no context-coherent top-2 cell buys a replica —
/// the regression this sweep exists to catch is top-2 models silently
/// falling back to owner-moves-only re-planning.
pub fn partial_replication_table(
    scale: Scale,
    seed: u64,
) -> Result<Vec<PartialReplicationRow>, String> {
    let grid = [
        (16usize, GateKind::Top1),
        (16, GateKind::Top2),
        (256, GateKind::Top1),
        (256, GateKind::Top2),
    ];
    let rows: Vec<PartialReplicationRow> = grid
        .iter()
        .map(|&(e, gate)| {
            let stream = seed ^ ((e as u64) << 24) ^ gate.k() as u64;
            partial_replication_cell(e, gate, scale, split_seed(stream, 0x9a47))
        })
        .collect::<Result<_, _>>()?;
    if !rows.iter().any(|r| r.k == 2 && r.cc_replicas_added > 0) {
        return Err(
            "no context-coherent top-2 cell created a replica — top-2 dispatch fell back \
             to owner moves"
                .to_string(),
        );
    }
    Ok(rows)
}

/// Run the benchmark: the Table II sweep at `--jobs 1` and at `--jobs
/// N` (verified bit-identical in quality, timed in both), the
/// `table_sparse` dense-vs-sparse sweep (verified identical across
/// backends), and the `table_online` drift sweep (verified invariant
/// across thread counts and backends). Errors (instead of panicking) if
/// any verification fails — that would mean the determinism contract is
/// broken and the JSON must not be published.
pub fn run(scale: Scale, jobs: usize, seed: u64) -> Result<BenchSummary, String> {
    let kinds = roster(scale);
    let models = table2();
    let sequential = SweepPool::new(1);
    let parallel = SweepPool::new(jobs);
    // Instance construction (token sampling + trace estimation) is also
    // fanned at the requested width; it feeds both timed passes equally,
    // so it stays outside the timings.
    let instances: Vec<(String, Objective)> = parallel.install(|| {
        par_map(models, |m| {
            // Fold every identity-bearing field into the stream so no two
            // zoo rows ever measure the same instance.
            let stream = seed ^ (m.n_layers as u64) ^ ((m.d_model as u64) << 16) ^ m.base_params;
            let obj = instance(m.n_experts, m.n_layers, scale, stream);
            (m.name, obj)
        })
    });

    let (rows1, wall1) = sequential.install(|| sweep_once(&instances, &kinds, seed));
    let (rows_n, wall_n) = parallel.install(|| sweep_once(&instances, &kinds, seed));

    for (a, b) in rows1.iter().zip(rows_n.iter()) {
        if a.cross_mass.to_bits() != b.cross_mass.to_bits() {
            return Err(format!(
                "objective diverged across thread counts: {}/{} jobs=1 {} vs jobs={jobs} {}",
                a.model, a.solver, a.cross_mass, b.cross_mass
            ));
        }
    }

    let sparse_rows = sparse_table(scale, seed)?;
    let online_rows = online_table(scale, jobs, seed)?;
    let replication_online_rows = replication_online_table(scale, seed)?;
    let serving_rows = serving_table(scale, jobs, seed)?;
    let elasticity_rows = elasticity_table(scale, jobs, seed)?;
    let replan_latency_rows = replan_latency_table(scale, seed)?;
    let partial_replication_rows = partial_replication_table(scale, seed)?;

    Ok(BenchSummary {
        seed,
        scale: match scale {
            Scale::Quick => "quick".to_string(),
            Scale::Full => "full".to_string(),
        },
        jobs,
        wall_ms_jobs1: wall1,
        wall_ms_jobs_n: wall_n,
        rows: rows1,
        sparse_rows,
        online_rows,
        replication_online_rows,
        serving_rows,
        elasticity_rows,
        replan_latency_rows,
        partial_replication_rows,
    })
}

/// The hand-built summary the `to_json` and perf-gate tests share: one
/// row per section, every acceptance bar cleared.
#[cfg(test)]
pub(crate) mod fixture {
    use super::*;

    pub(crate) fn summary(cross: f64, wall: f64, sparse_wall_dense: f64) -> BenchSummary {
        BenchSummary {
            seed: 1,
            scale: "quick".into(),
            jobs: 4,
            wall_ms_jobs1: wall,
            wall_ms_jobs_n: wall / 2.0,
            rows: vec![BenchRow {
                model: "MoE-GPT-M/8e-24L".into(),
                solver: "greedy".into(),
                wall_ms: wall / 10.0,
                cross_mass: cross,
            }],
            sparse_rows: vec![SparseBenchRow {
                preset: "MoE-GPT-XXL/512e-24L-top1".into(),
                n_experts: 512,
                k: 1,
                layers: 2,
                nnz: 3000,
                density: 0.011,
                wall_ms_dense: sparse_wall_dense,
                wall_ms_sparse: 10.0,
                cross_mass: cross / 2.0,
            }],
            online_rows: vec![OnlineBenchRow {
                scenario: "piecewise-2phase".into(),
                n_experts: 16,
                layers: 5,
                windows: 6,
                replan_every: 1,
                budget_bytes: 1 << 28,
                migrated_bytes: 3 << 27,
                replans: 3,
                static_cross: 5000,
                oracle_cross: 3000,
                budgeted_cross: 3200,
                cross_mass: cross / 3.0,
            }],
            replication_online_rows: vec![ReplicationOnlineRow {
                scenario: "piecewise-2phase/E16".into(),
                n_experts: 16,
                layers: 5,
                units: 4,
                windows: 10,
                replan_every: 1,
                budget_bytes: 1 << 26,
                replica_slots: 8,
                owner_migrated_bytes: 3 << 25,
                joint_migrated_bytes: 1 << 26,
                owner_replans: 2,
                joint_replans: 2,
                replicas_added: 5,
                replicas_dropped: 1,
                extra_copies: 4,
                static_cross: 5000,
                owner_cross: 3600,
                joint_cross: 3100,
                cross_mass: cross / 4.0,
            }],
            serving_rows: vec![ServingBenchRow {
                arrival: "poisson".into(),
                requests: 48,
                decode_steps: 2,
                windows: 6,
                max_batch: 8,
                offered_load: 0.125,
                static_p50: 20.0,
                static_p95: 44.0,
                static_p99: 52.0,
                static_goodput: 0.115,
                online_p50: 18.0,
                online_p95: 34.0,
                online_p99: 40.0,
                online_goodput: 0.12,
                online_replans: 2,
                online_migrated_bytes: 9 << 20,
                repl_p50: 17.5,
                repl_p95: 33.0,
                repl_p99: 39.0,
                repl_goodput: 0.121,
                repl_replicas_added: 3,
            }],
            elasticity_rows: vec![ElasticityRow {
                fault: "gpu-loss".into(),
                requests: 500,
                fault_time: 12.5,
                plain_p99: 60.0,
                plain_disrupted: 9,
                plain_steps_degraded: 40,
                plain_emergency_bytes: 7 << 20,
                plain_recovery: 8.25,
                repl_p99: 48.0,
                repl_disrupted: 9,
                repl_steps_degraded: 12,
                repl_emergency_bytes: 0,
                repl_recovery: 1.5,
                repl_extra_copies: 6,
            }],
            replan_latency_rows: vec![ReplanLatencyRow {
                preset: "MoE-GPT-XXL/512e-24L-top1".into(),
                n_experts: 512,
                k: 1,
                layers: 2,
                windows: 4,
                replans: 3,
                max_moves: 40,
                considered: 8_000_000,
                evaluated_rebuild: 1_000,
                evaluated_incremental: 1_000,
                reused: 7_999_000,
                wall_ms_rebuild: 900.0,
                wall_ms_incremental: 120.0,
                cross_mass_rebuild: cross / 5.0,
                cross_mass_incremental: cross / 5.0,
            }],
            partial_replication_rows: vec![PartialReplicationRow {
                scenario: "partial-repl/256e-top2".into(),
                n_experts: 256,
                k: 2,
                layers: 2,
                units: 8,
                windows: 3,
                replica_slots: 4,
                budget_bytes: 12 << 20,
                partial_replans: 2,
                replicas_added: 5,
                partial_migrated_bytes: 6 << 20,
                full_migrated_bytes: 9 << 20,
                partial_extra_copies: 3,
                full_extra_copies: 4,
                partial_cross_mass: cross / 6.0,
                full_cross_mass: cross / 5.0,
                realized_cross: 1234,
                cc_replicas_added: 2,
                cc_local_fraction: 0.875,
            }],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_covers_the_full_grid_and_quality_is_sane() {
        let summary = run(Scale::Quick, 2, 7).expect("determinism must hold");
        let n_models = table2().len();
        let n_solvers = roster(Scale::Quick).len();
        assert_eq!(summary.rows.len(), n_models * n_solvers);
        // Within each model, every optimizing solver beats round-robin.
        for chunk in summary.rows.chunks(n_solvers) {
            let rr = chunk
                .iter()
                .find(|r| r.solver == "round-robin")
                .expect("round-robin is in the roster");
            for row in chunk.iter().filter(|r| r.solver != "round-robin") {
                assert!(
                    row.cross_mass <= rr.cross_mass + 1e-9,
                    "{}/{} ({}) worse than round-robin ({})",
                    row.model,
                    row.solver,
                    row.cross_mass,
                    rr.cross_mass
                );
            }
        }
        // The sparse table covers the whole large zoo, each instance
        // genuinely sparse at these token budgets.
        assert_eq!(summary.sparse_rows.len(), large_zoo().len());
        for row in &summary.sparse_rows {
            assert!(row.nnz > 0);
            assert!(
                row.density < exflow_placement::SPARSE_DENSITY_THRESHOLD,
                "{} density {} not sparse",
                row.preset,
                row.density
            );
            assert!(row.cross_mass.is_finite());
        }
    }

    #[test]
    fn online_table_recovers_oracle_reduction_within_budget() {
        let rows = online_table(Scale::Quick, 2, 7).expect("invariance must hold");
        assert_eq!(rows.len(), 3, "one row per drift preset");
        for row in &rows {
            assert!(row.replans > 0, "{}: no re-plans fired", row.scenario);
            assert!(
                row.migrated_bytes <= row.budget_bytes * row.replans as u64,
                "{}: migrated {} over {} re-plans of budget {}",
                row.scenario,
                row.migrated_bytes,
                row.replans,
                row.budget_bytes
            );
            // Drift must genuinely hurt the static incumbent, and both
            // adaptive policies must beat it.
            assert!(
                row.oracle_cross < row.static_cross,
                "{}: oracle {} vs static {}",
                row.scenario,
                row.oracle_cross,
                row.static_cross
            );
            assert!(row.budgeted_cross < row.static_cross);
            // The acceptance bar: budgeted incremental re-placement
            // recovers >= 80% of the oracle's cross-traffic reduction.
            assert!(
                row.recovery() >= 0.8,
                "{}: recovery {:.3} below the 0.8 bar",
                row.scenario,
                row.recovery()
            );
            assert!(row.cross_mass.is_finite());
        }
    }

    #[test]
    fn replication_online_table_joint_dominates_within_budgets() {
        let rows = replication_online_table(Scale::Quick, 7).expect("invariance must hold");
        assert_eq!(rows.len(), 4, "3 presets at E=16 plus one large instance");
        assert_eq!(rows[3].n_experts, large_zoo()[0].n_experts);
        let mut dominated = false;
        for row in &rows {
            assert!(
                row.joint_replans > 0,
                "{}: no joint re-plans fired",
                row.scenario
            );
            // Budget compliance on both axes, both policies.
            assert!(row.extra_copies <= row.replica_slots, "{}", row.scenario);
            assert!(
                row.owner_migrated_bytes <= row.budget_bytes * row.owner_replans as u64,
                "{}",
                row.scenario
            );
            assert!(
                row.joint_migrated_bytes <= row.budget_bytes * row.joint_replans as u64,
                "{}",
                row.scenario
            );
            // Both adaptive policies beat the static incumbent, and the
            // joint policy never loses to owner-moves-only.
            assert!(row.owner_cross < row.static_cross, "{}", row.scenario);
            assert!(row.joint_cross < row.static_cross, "{}", row.scenario);
            assert!(
                row.joint_cross <= row.owner_cross,
                "{}: joint {} worse than owner-only {}",
                row.scenario,
                row.joint_cross,
                row.owner_cross
            );
            if row.joint_cross < row.owner_cross {
                dominated = true;
            }
            assert!(row.cross_mass.is_finite());
        }
        assert!(
            dominated,
            "joint policy must strictly beat owner-moves-only somewhere"
        );
    }

    #[test]
    fn serving_table_online_policies_protect_the_tail() {
        let rows = serving_table(Scale::Quick, 2, 20_240_522).expect("invariance must hold");
        assert_eq!(rows.len(), 3, "one row per arrival process");
        for row in &rows {
            assert!(row.online_replans > 0, "{}: no re-plans", row.arrival);
            assert!(row.online_migrated_bytes > 0, "{}", row.arrival);
            for (p50, p95, p99) in [
                (row.static_p50, row.static_p95, row.static_p99),
                (row.online_p50, row.online_p95, row.online_p99),
                (row.repl_p50, row.repl_p95, row.repl_p99),
            ] {
                assert!(
                    p50 <= p95 && p95 <= p99 && p50 > 0.0,
                    "{}: non-monotone percentiles {p50}/{p95}/{p99}",
                    row.arrival
                );
            }
            // The acceptance bar the perf-gate enforces: at equal budget,
            // adaptive re-placement never worsens the latency tail over
            // the static incumbent — the migration stalls it pays are won
            // back by faster post-drift steps.
            assert!(
                row.online_p99 <= row.static_p99,
                "{}: online p99 {} worse than static {}",
                row.arrival,
                row.online_p99,
                row.static_p99
            );
            assert!(
                row.repl_p99 <= row.static_p99,
                "{}: replicated p99 {} worse than static {}",
                row.arrival,
                row.repl_p99,
                row.static_p99
            );
        }
    }

    #[test]
    fn replan_latency_table_incremental_path_is_exact_and_cheaper() {
        let rows = replan_latency_table(Scale::Quick, 7).expect("lockstep paths must agree");
        assert_eq!(rows.len(), large_zoo().len(), "one row per large preset");
        let mut saw_512 = false;
        for row in &rows {
            assert!(row.replans > 0, "{}: no re-plan moved anything", row.preset);
            // Both paths run the same table-driven solver, and the split
            // always partitions the considered count.
            assert_eq!(
                row.evaluated_rebuild, row.evaluated_incremental,
                "{}",
                row.preset
            );
            assert_eq!(
                row.evaluated_incremental + row.reused,
                row.considered,
                "{}",
                row.preset
            );
            assert!(
                row.cross_mass_rebuild.to_bits() == row.cross_mass_incremental.to_bits(),
                "{}: paths diverged",
                row.preset
            );
            // The acceptance bar the perf-gate enforces at E = 512.
            if row.n_experts == 512 {
                saw_512 = true;
                assert!(
                    row.scan_reduction() >= crate::gate::MIN_REPLAN_SCAN_REDUCTION_512,
                    "{}: scan reduction {:.0}x below the bar",
                    row.preset,
                    row.scan_reduction()
                );
            }
        }
        assert!(saw_512, "the quick sweep must cover E = 512");
    }

    #[test]
    fn json_parses_and_carries_every_declared_field() {
        let summary = fixture::summary(0.25, 100.0, 100.0);
        let json = summary.to_json();
        let doc = Json::parse(&json).expect("to_json emits valid JSON");
        assert_eq!(doc.get("schema").and_then(Json::as_str), Some(SCHEMA));
        assert_eq!(doc.get("seed").and_then(Json::as_u64), Some(1));
        assert_eq!(doc.get("wall_ms_jobsN").and_then(Json::as_f64), Some(50.0));

        /// Every emitted row is exactly what its declaration serializes
        /// to: same keys, same order, same tokens.
        fn check<R: JsonRow>(doc: &Json, key: &str, rows: &[R]) {
            let emitted = doc.get(key).and_then(Json::as_arr);
            let emitted = emitted.unwrap_or_else(|| panic!("no {key} section"));
            assert_eq!(emitted.len(), rows.len(), "{key}");
            for (obj, row) in emitted.iter().zip(rows) {
                let declared = Json::obj(row.fields()).write().unwrap();
                assert_eq!(obj, &Json::parse(&declared).unwrap(), "{key}");
            }
        }
        check(&doc, "rows", &summary.rows);
        check(&doc, "sparse_rows", &summary.sparse_rows);
        check(&doc, "online_rows", &summary.online_rows);
        check(
            &doc,
            "replication_online_rows",
            &summary.replication_online_rows,
        );
        check(&doc, "serving_rows", &summary.serving_rows);
        check(&doc, "elasticity_rows", &summary.elasticity_rows);
        check(&doc, "replan_latency_rows", &summary.replan_latency_rows);
        check(
            &doc,
            "partial_replication_rows",
            &summary.partial_replication_rows,
        );

        // Derived ratios and wall times are display-rounded; deterministic
        // facts print with shortest round-trip formatting.
        for pinned in [
            "\"speedup\": 2.000,",
            "\"wall_ms\": 10.000,",
            "\"speedup\": 10.000,",
            "\"density\": 0.011000,",
            "\"recovery\": 0.9000,",
            "\"owner_recovery\": 0.2800,",
            "\"joint_recovery\": 0.3800,",
            "\"scan_reduction\": 8000.000,",
            "\"cc_local_fraction\": 0.875000}",
            "\"cross_mass\": 0.25}",
            "\"static_p99\": 52,",
            "\"online_goodput\": 0.12,",
            "\"repl_recovery\": 1.5,",
        ] {
            assert!(json.contains(pinned), "{pinned} not in:\n{json}");
        }
    }

    #[test]
    fn every_gated_field_is_declared_by_its_row_type() {
        // The SECTIONS table and the row types' `fields()` name the same
        // keys: a typo on either side would silently gate nothing.
        let doc = Json::parse(&fixture::summary(0.25, 100.0, 100.0).to_json()).unwrap();
        for section in crate::gate::SECTIONS {
            let rows = doc.get(section.key).and_then(Json::as_arr).unwrap();
            assert!(!rows.is_empty(), "{} has no fixture row", section.key);
            let walls = section.warn_wall.iter().map(|&(field, _)| field);
            for field in section.id.iter().chain(section.exact).copied().chain(walls) {
                assert!(
                    rows[0].get(field).is_some(),
                    "{}: no field {field:?} in the emitted row",
                    section.key
                );
            }
        }
        let Json::Obj(top) = &doc else { panic!() };
        let sections = top.iter().filter(|(_, v)| v.as_arr().is_some()).count();
        assert_eq!(
            sections,
            crate::gate::SECTIONS.len(),
            "an emitted section is ungated"
        );
    }
}
