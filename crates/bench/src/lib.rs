//! # exflow-bench
//!
//! The reproduction harness for every table and figure in the evaluation
//! section of "Exploiting Inter-Layer Expert Affinity for Accelerating
//! Mixture-of-Experts Model Inference" (IPDPS 2024).
//!
//! * One registry, [`table::TABLES`]: every artifact whose output is rows —
//!   the paper's tables and figures and the beyond-paper `table_*` sweeps
//!   — is an entry naming its sweep, its acceptance bars and its render.
//!   Each `experiments::*` module holds one artifact's three functions.
//! * One runner: the `repro` binary sweeps an artifact's entries, holds
//!   them to their bars and prints them
//!   (`cargo run --release -p exflow-bench --bin repro -- <artifact>`);
//!   `repro --out PATH all` also writes every entry's rows as the
//!   `BENCH_*.json` document, which CI byte-compares with the committed
//!   baseline, so the paper's numbers are bit-compared on every change.
//!   Nothing in this crate reads a clock: speed is measured by the
//!   standalone `benchmark/` package.
//! * One size per artifact: the paper's artifacts run the paper's
//!   workload ([`experiments::common::PAPER`]), the beyond-paper tables
//!   the size their sweep states. The only other workload is the
//!   `#[cfg(test)]` fixture the debug-profile tests sweep.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod experiments;
pub mod fmt;
pub mod gate;
pub mod summary;
pub mod sweep;
pub mod table;
