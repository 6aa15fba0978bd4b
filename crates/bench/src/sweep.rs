//! Deterministic fan-out of experiment sweep points across a work-stealing
//! pool.
//!
//! Every experiment grid in this crate (GPU counts, κ values, model ×
//! solver products, ...) is embarrassingly parallel: each point is a pure
//! function of its parameters and a fixed seed. [`SweepPool::install`]
//! makes a `--jobs N` width ambient for the dynamic extent of a run (the
//! rayon shim keeps it in a thread-local, so concurrent runs with
//! different widths don't interfere), and [`par_map`] fans a grid across
//! that width, returning results in input order — so `repro --jobs 8` and
//! `repro --jobs 1` print byte-identical artifacts, faster.

use rayon::iter::{IntoParallelIterator, ParallelIterator};
use rayon::ThreadPool;

/// Upper bound on `--jobs`: wider than any realistic runner, low enough
/// to catch typos (`--jobs 1000000`) before they spawn a thread storm.
pub const MAX_JOBS: usize = 512;

/// A sweep-wide worker pool of a fixed, validated width.
#[derive(Debug, Clone)]
pub struct SweepPool {
    pool: ThreadPool,
}

impl SweepPool {
    /// A pool of `jobs` workers. Panics if `jobs` is 0 or above
    /// [`MAX_JOBS`]; CLI layers validate first and exit 2 instead.
    pub fn new(jobs: usize) -> Self {
        assert!(
            (1..=MAX_JOBS).contains(&jobs),
            "jobs must be in 1..={MAX_JOBS}, got {jobs}"
        );
        SweepPool {
            pool: ThreadPool::new(jobs).expect("width validated above"),
        }
    }

    /// Run `op` with this pool's width installed: every [`par_map`] (and
    /// every parallel iterator) reached from `op` on this thread fans out
    /// across `jobs` workers.
    pub fn install<R>(&self, op: impl FnOnce() -> R) -> R {
        self.pool.install(op)
    }
}

/// Fan `items` across the installed pool (sequential when none is
/// installed). Results come back in input order, bit-identical to the
/// sequential run for pure `f` — thread count only changes wall time.
pub fn par_map<T, U, F>(items: Vec<T>, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Sync,
{
    items.into_par_iter().map(f).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_order_at_any_width() {
        let seq: Vec<usize> = (0..40).map(|i| i * i).collect();
        for jobs in [1, 2, 8] {
            let pool = SweepPool::new(jobs);
            let par = pool.install(|| par_map((0..40).collect(), |i: usize| i * i));
            assert_eq!(par, seq, "jobs {jobs}");
        }
    }

    #[test]
    fn par_map_without_pool_is_sequential_and_correct() {
        let out = par_map(vec![3usize, 1, 2], |x| x + 1);
        assert_eq!(out, vec![4, 2, 3]);
    }

    #[test]
    fn par_map_empty_grid() {
        let pool = SweepPool::new(4);
        let out: Vec<usize> = pool.install(|| par_map(Vec::<usize>::new(), |x| x));
        assert!(out.is_empty());
    }

    #[test]
    #[should_panic(expected = "jobs must be in")]
    fn zero_jobs_pool_rejected() {
        let _ = SweepPool::new(0);
    }

    #[test]
    #[should_panic(expected = "jobs must be in")]
    fn absurd_jobs_pool_rejected() {
        let _ = SweepPool::new(MAX_JOBS + 1);
    }
}
