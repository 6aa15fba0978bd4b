//! # exflow-bench
//!
//! The reproduction harness for every table and figure in the evaluation
//! section of "Exploiting Inter-Layer Expert Affinity for Accelerating
//! Mixture-of-Experts Model Inference" (IPDPS 2024).
//!
//! * Each `experiments::*` module regenerates one paper artifact as typed
//!   rows (workload generation, parameter sweep, baselines, measurement).
//! * The `repro` binary prints the rows the paper reports
//!   (`cargo run --release -p exflow-bench --bin repro -- <artifact>`).
//! * The `bench_summary` binary sweeps the gated tables of [`table::TABLES`]
//!   into the `BENCH_*.json` document and runs the CI perf-gate over it.
//!   Speed is measured by the standalone `benchmark/` package, not here.
//!
//! Every experiment takes a [`Scale`]: `Quick` keeps CI and `cargo test`
//! fast on reduced sweeps, `Full` runs the paper-sized sweeps.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod experiments;
pub mod fmt;
pub mod gate;
pub mod summary;
pub mod sweep;
pub mod table;

/// How big an experiment sweep to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Reduced sweep for tests and smoke runs.
    Quick,
    /// Paper-sized sweep (use release builds).
    Full,
}

impl Scale {
    /// Pick `quick` or `full` depending on the scale.
    pub fn pick<T>(self, quick: T, full: T) -> T {
        match self {
            Scale::Quick => quick,
            Scale::Full => full,
        }
    }
}
