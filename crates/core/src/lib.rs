//! # exflow-core
//!
//! The ExFlow inference engine — the primary contribution of "Exploiting
//! Inter-Layer Expert Affinity for Accelerating Mixture-of-Experts Model
//! Inference" (IPDPS 2024), reimplemented over this repo's simulated
//! multi-GPU substrate.
//!
//! Three execution modes are provided (see [`ParallelismMode`]):
//!
//! * **Vanilla** — the DeepSpeed-MoE baseline: data-parallel contexts mean
//!   every MoE layer needs *two* Alltoalls (dispatch to experts, combine
//!   back home for the next attention).
//! * **ContextCoherent** — ExFlow without affinity: every GPU holds every
//!   token's context (maintained by one AllGather per generation
//!   iteration), so tokens compute attention *in place* and the combine
//!   Alltoall disappears.
//! * **ContextCoherentAffinity** — full ExFlow: context coherence plus the
//!   staged affinity placement from `exflow-placement`, so most dispatch
//!   traffic never leaves the GPU (or at worst the node).
//!
//! The engine steps every rank of the fleet in lockstep on the calling
//! thread (`exflow_collectives::Lockstep`), moves token rows between flat
//! per-rank tables while charging each copy its full frame of bytes (see
//! [`frame`]), folds every expert a token visits into the token's
//! provenance word, and reports deterministic virtual-time breakdowns per
//! operator — the quantities behind the paper's Figs. 6–10.
//!
//! Beyond the paper's offline setting sits the **request-level serving
//! front-end** ([`serving`]): [`Scenario::with_serving`] drives a
//! deterministic discrete-event loop over a seeded arrival process
//! (`exflow_model::arrival`), queues requests, assembles decode batches
//! under a pluggable [`BatchPolicy`] with continuous batching, and reports
//! p50/p95/p99 request latency, goodput, queue-depth and batch-occupancy
//! trajectories in a [`ServingReport`]. Layered with
//! [`Scenario::with_drift`], the loop serves **non-stationary** traffic:
//! it maintains a decayed streaming affinity estimate of the live routing,
//! detects drift against the estimate the current placement was solved
//! for, and executes budgeted incremental re-placements (expert-weight
//! migrations priced on the cluster's links, overlapped with serving) at
//! window boundaries — configured by [`OnlineConfig`] via
//! `EngineConfig::online`.
//!
//! All of these paths share one front door: [`Scenario`] names a run's
//! mode plus its optional drift, serving, fault, and replication layers,
//! and [`InferenceEngine::run_scenario`] dispatches it. The serving loop
//! also tolerates **fleet churn**: a seeded `exflow_model::FaultSchedule`
//! injects GPU loss/rejoin events, losses fail over to replicas or
//! trigger emergency restores, and the disruption lands in
//! [`ServingReport`]'s `DisruptionStats`. Every serving run can be
//! flattened into a versioned JSONL event stream ([`events`]) — one
//! record per serving window — for dashboards and the `repro
//! render-events` renderer. That stream and the bench summary both read
//! and write JSON through one module ([`json`]).
//!
//! ```
//! use exflow_core::{InferenceEngine, ParallelismMode, Scenario};
//! use exflow_model::presets::moe_gpt_m;
//! use exflow_topology::ClusterSpec;
//!
//! let engine = InferenceEngine::builder(moe_gpt_m(8), ClusterSpec::new(2, 4).unwrap())
//!     .requests_per_gpu(16)
//!     .n_iterations(2)
//!     .build();
//! let baseline = engine
//!     .run_scenario(&Scenario::offline(ParallelismMode::Vanilla))
//!     .expect_offline();
//! let exflow = engine
//!     .run_scenario(&Scenario::offline(ParallelismMode::ContextCoherentAffinity))
//!     .expect_offline();
//! assert!(exflow.throughput() > baseline.throughput());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// CI runs clippy with `-D warnings`: no function in this crate outgrows
// clippy's default 100-line bar.
#![warn(clippy::too_many_lines)]

mod adaptive;
pub mod commvolume;
pub mod engine;
pub mod events;
pub mod frame;
pub mod json;
pub mod modes;
pub mod report;
pub mod scenario;
pub mod serving;

pub use engine::{EngineBuilder, EngineConfig, InferenceEngine, OnlineConfig};
pub use events::{events_from_report, render_events, to_jsonl, WindowEvent, EVENT_SCHEMA};
pub use exflow_placement::{
    GapBackend, LayerReplicas, Parallelism, ReplicaPolicy, ReplicationBudget, ReplicationPlan,
};
pub use modes::ParallelismMode;
pub use report::{
    DisruptionStats, FaultMarker, InferenceReport, MigrationStats, OpBreakdown, ReplanEvent,
    ServingReport, RECOVERY_WINDOW,
};
pub use scenario::{Scenario, ScenarioReport};
pub use serving::{BatchPolicy, ServingConfig, MIGRATION_CONTENTION};
