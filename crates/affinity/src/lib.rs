//! # exflow-affinity
//!
//! Routing-trace capture and inter-layer expert-affinity estimation —
//! the measurement half of ExFlow (IPDPS 2024, §IV-B).
//!
//! The paper defines *expert affinity* as the conditional probability that a
//! token routed to expert `i` at layer `j` is routed to expert `p` at layer
//! `j+1` (Eq. 1). This crate:
//!
//! * records token routing decisions into a [`RoutingTrace`]
//!   (the simulated analogue of "tracing tokens from the Pile through a
//!   pre-trained checkpoint");
//! * estimates dense [`AffinityMatrix`] conditionals for consecutive
//!   layers (Fig. 2) and arbitrary layer gaps (appendix Figs. 14–16) —
//!   the figure view, and the reference the CSR estimate is proven
//!   bit-equal to;
//! * computes the Fig. 2 summary [`metrics`] of a matrix: the mean top-1
//!   and top-`k` conditional mass, and the affinity score that scales the
//!   top-`k` mass against a structureless matrix;
//! * maintains a [`StreamingAffinity`] estimate — the one trace → CSR
//!   estimator, offline (a single profiling window) and online alike:
//!   exponentially decayed pair-count ingestion that never materializes
//!   an `E x E` table (what `E = 256/512` needs, where top-k routing
//!   leaves the dense table overwhelmingly zero), frozen
//!   [`AffinitySnapshot`]s for the placement solver, and the windowed
//!   divergence signal the drift detector triggers re-placement on.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod matrix;
pub mod metrics;
pub mod streaming;
pub mod trace;

pub use matrix::AffinityMatrix;
pub use streaming::{AffinitySnapshot, SnapshotDelta, StreamingAffinity};
pub use trace::RoutingTrace;
