//! The four workloads. Each stresses a different set of layers, so an
//! optimisation that helps one has a workload that bypasses it and must
//! not move (see the prediction table in `benchmark/README.md`).

pub mod offline;
pub mod replan;
pub mod serving;

use exflow::placement::split_seed;

/// Independent generator streams cut from the one `--seed`. The engine
/// receives only seeds and inputs derived here.
#[derive(Clone, Copy)]
pub enum Stream {
    /// `AffinityModelSpec::with_seed`: the synthetic routing process.
    Routing = 1,
    /// `TokenBatch::sample` in harness-generated window traces.
    Tokens = 2,
    /// Probe-phase inputs (payloads, weights, arrival samples).
    Probe = 3,
}

pub fn stream_seed(seed: u64, stream: Stream) -> u64 {
    split_seed(seed, stream as u64)
}
