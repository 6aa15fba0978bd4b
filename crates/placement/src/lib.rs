//! # exflow-placement
//!
//! Affinity-aware expert placement — the optimization half of ExFlow
//! (IPDPS 2024, §IV-B/C/D).
//!
//! Given the inter-layer affinity matrices estimated by `exflow-affinity`,
//! this crate decides which GPU holds which expert at every layer so that a
//! token's most likely next expert is, with maximum probability, already on
//! the token's current GPU (and failing that, on its current node).
//!
//! The paper formulates this as an integer linear program (formulas 8–12):
//! minimize the number of cross-unit token transitions subject to exact
//! load balance (each unit holds `E/P` experts per layer) and exclusive
//! ownership. The same formulation is applied twice — first with units =
//! nodes, then within each node with units = GPUs ("staged expert
//! affinity"). Since no external ILP solver is available offline, this crate
//! implements the model plus a family of solvers:
//!
//! * [`exact`] — exact dynamic programming over balanced partitions
//!   (small instances; the oracle the heuristics are validated against);
//! * [`hungarian`] — optimal per-layer-pair assignment (Kuhn–Munkres),
//!   used by the greedy chain construction;
//! * [`greedy`] — layer-by-layer chain construction;
//! * [`local_search`] — pairwise-swap hill climbing with delta evaluation;
//! * [`annealing`] — simulated annealing for rugged instances;
//! * [`portfolio`] — race several solvers on worker threads, keep the best;
//! * [`staged`] — the paper's two-stage node→GPU pipeline;
//! * [`incremental`] — byte-budgeted incremental re-placement from an
//!   incumbent (the online serving mode): the metered solvers
//!   ([`solve_budgeted_metered`], [`solve_budgeted_replicated_metered`],
//!   both reporting the [`ReplanCost`] they charged) and the unit-attraction
//!   table ([`SwapGainCache`]) they price swap candidates from;
//! * [`online`] — the [`MigrationPlan`] pricing the resulting expert moves
//!   against `exflow-topology`'s α–β link costs, and the fleet planners
//!   for GPU loss and rejoin.
//!
//! All stochastic solvers take an optional [`parallel::Parallelism`]
//! width (the `*_with` entry points): restarts, annealing starts,
//! portfolio members, and staged per-node sub-solves fan across worker
//! threads, with per-task `split_seed`-derived RNG streams and ordered
//! reductions keeping results bit-identical at any thread count.
//!
//! [`objective::Objective`] scores placements (expected cross-unit
//! transition mass) and [`objective::measure_trace_locality`] measures the
//! realized locality of a placement on a concrete routing trace (the bars
//! of the paper's Figs. 7–8). Every objective is built the same way —
//! an `exflow-affinity` snapshot's per-gap CSR (or a dense source
//! compressed into that shape) through one constructor — and stores each
//! layer gap once, as CSR with a transposed companion index; a flat
//! `E x E` expansion rides along as a lookup accelerator when the gap is
//! dense enough ([`objective::GapBackend`]). Evaluations are
//! bit-identical across backends, so large-expert instances
//! (`E = 256/512`, where top-k routing leaves the matrices overwhelmingly
//! sparse) solve in `O(nnz)` instead of `O(E^2)` without changing any
//! result.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod annealing;
pub mod exact;
pub mod greedy;
pub mod hungarian;
pub mod incremental;
pub mod local_search;
pub mod objective;
pub mod online;
pub mod parallel;
pub mod placement;
pub mod portfolio;
pub mod replication;
pub mod solver;
pub mod staged;

pub use annealing::AnnealParams;
pub use incremental::{
    solve_budgeted_metered, solve_budgeted_replicated_metered, ReplanCost, SwapGainCache,
};
pub use objective::{GapBackend, Objective, SPARSE_DENSITY_THRESHOLD};
pub use online::{ExpertMove, MigrationPlan, PricedMigration, ReplicaAdd};
pub use parallel::{split_seed, Parallelism};
pub use placement::Placement;
pub use replication::{
    replica_gains_by_unit, replicated_cross_mass, LayerReplicas, ReplicaPolicy, ReplicationBudget,
    ReplicationPlan,
};
pub use solver::{solve, solve_with, SolverKind};
pub use staged::{solve_staged_with, StagedPlacement};
