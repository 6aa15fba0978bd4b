//! Deterministic parallelism primitives shared by every solver in this
//! crate (and re-exported through `exflow-core` for engine configuration).
//!
//! Two rules make "same answer at any thread count" hold by construction:
//!
//! 1. **Independent streams.** Every parallel task derives its own RNG
//!    stream with [`split_seed`] (a SplitMix64 finalizer over the master
//!    seed and the task index) instead of consuming a shared sequential
//!    stream, so the random numbers a task sees do not depend on
//!    scheduling.
//! 2. **Ordered reduction.** Task results are reassembled in task-index
//!    order (the rayon shim's executor guarantees this) and reduced with
//!    first-wins tie-breaks, so the selected winner does not depend on
//!    completion order.

use rayon::iter::{IntoParallelIterator, ParallelIterator};
use rayon::ThreadPool;

/// How many worker threads a solver (or an engine's placement solve) may
/// use. Plain data, threaded explicitly through call stacks — no global
/// state, so two engines in one process can use different widths.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Parallelism {
    /// Worker threads (>= 1). `1` means fully sequential.
    pub threads: usize,
}

impl Parallelism {
    /// A width of `threads` workers. Panics if `threads == 0`.
    pub fn new(threads: usize) -> Self {
        assert!(threads >= 1, "parallelism width must be >= 1");
        Parallelism { threads }
    }

    /// Sequential execution (the default everywhere: parallelism is
    /// opt-in).
    pub fn single() -> Self {
        Parallelism { threads: 1 }
    }

    /// A pool of this width (the shim never fails for threads >= 1).
    fn pool(self) -> ThreadPool {
        ThreadPool::new(self.threads).expect("threads >= 1 by construction")
    }

    /// Map `f` over `0..n` on up to `self.threads` workers; results come
    /// back in index order, bit-identical to the sequential run for pure
    /// `f`.
    pub fn map_indexed<T, F>(self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        self.pool()
            .install(|| (0..n).into_par_iter().map(f).collect())
    }
}

impl Default for Parallelism {
    fn default() -> Self {
        Parallelism::single()
    }
}

/// Derive an independent, well-mixed seed for parallel stream `stream` of
/// master seed `seed` (SplitMix64 finalizer; the same mixing used by the
/// workspace's `StdRng`). Stream 0 is *not* the identity, so sibling
/// streams never collide with the master stream itself.
pub fn split_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        ^ stream
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(0x243F_6A88_85A3_08D3);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Select the lowest-cost result with a first-wins tie-break: the winner
/// is the earliest index attaining the minimum, which is independent of
/// how the costs were computed (sequentially or on any number of
/// threads). Costs are ordered by `total_cmp`, so a NaN cost (a broken
/// objective) never displaces a finite one. Returns `None` on an empty
/// slate.
pub fn argmin_by_cost<T>(results: Vec<(f64, T)>) -> Option<T> {
    let mut best: Option<(f64, T)> = None;
    for (cost, value) in results {
        match &best {
            Some((best_cost, _)) if cost.total_cmp(best_cost) == std::cmp::Ordering::Less => {
                best = Some((cost, value));
            }
            None => best = Some((cost, value)),
            _ => {}
        }
    }
    best.map(|(_, v)| v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_seed_streams_are_distinct() {
        let mut seen = std::collections::BTreeSet::new();
        for stream in 0..1000u64 {
            assert!(
                seen.insert(split_seed(42, stream)),
                "stream {stream} collided"
            );
        }
        // And not the identity on stream 0.
        assert_ne!(split_seed(42, 0), 42);
    }

    #[test]
    fn split_seed_depends_on_master_seed() {
        assert_ne!(split_seed(1, 5), split_seed(2, 5));
    }

    #[test]
    fn map_indexed_is_width_independent() {
        let seq = Parallelism::single().map_indexed(33, |i| i * 7);
        for threads in [2, 3, 8] {
            let par = Parallelism::new(threads).map_indexed(33, |i| i * 7);
            assert_eq!(par, seq, "width {threads}");
        }
    }

    #[test]
    fn argmin_breaks_ties_by_earliest_index() {
        let results = vec![(2.0, "a"), (1.0, "b"), (1.0, "c"), (3.0, "d")];
        assert_eq!(argmin_by_cost(results), Some("b"));
        assert_eq!(argmin_by_cost::<&str>(vec![]), None);
    }

    #[test]
    fn argmin_never_picks_nan_over_finite() {
        assert_eq!(argmin_by_cost(vec![(1.0, "a"), (f64::NAN, "b")]), Some("a"));
        assert_eq!(argmin_by_cost(vec![(f64::NAN, "a"), (1.0, "b")]), Some("b"));
        // All-NaN still returns something (the earliest).
        assert_eq!(
            argmin_by_cost(vec![(f64::NAN, "a"), (f64::NAN, "b")]),
            Some("a")
        );
    }

    #[test]
    #[should_panic(expected = "must be >= 1")]
    fn zero_width_rejected() {
        let _ = Parallelism::new(0);
    }
}
