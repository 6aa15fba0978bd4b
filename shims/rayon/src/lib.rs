//! Offline shim for the `rayon` crate.
//!
//! Implements the subset of rayon's API this workspace uses (see
//! `shims/README.md`): [`iter`] + the pool types, a genuinely parallel,
//! *deterministic* executor. `into_par_iter().map(f).collect()` fans tasks
//! over worker threads that pull indices from a shared atomic counter
//! (work stealing), then reassembles results in input order, so the output
//! is bit-identical to the sequential run for any pure `f` and any thread
//! count. There is deliberately no reduction adaptor (`sum`, `fold`, ...):
//! a parallel float reduction's result depends on how the work is split
//! (determinism rule D004); collect, then fold sequentially.
//!
//! Unlike real rayon there is no global pool and the default width is 1:
//! parallelism is strictly opt-in through [`ThreadPool::install`] (or the
//! explicit [`ThreadPool::run_indexed`]), which keeps test timings and
//! benchmark baselines reproducible. Panics from workers propagate to the
//! caller exactly like `std::thread::scope` joins.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

thread_local! {
    /// Thread-local pool width installed by [`ThreadPool::install`].
    static INSTALLED_THREADS: Cell<usize> = const { Cell::new(1) };
}

/// The number of worker threads parallel iterators on this thread will
/// use: the width installed by the innermost [`ThreadPool::install`], or 1
/// when none is active (sequential by default, unlike real rayon).
pub fn current_num_threads() -> usize {
    INSTALLED_THREADS.with(|t| t.get())
}

/// Error building a [`ThreadPool`] (zero threads requested).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThreadPoolBuildError {
    msg: String,
}

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.msg)
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// Builder mirroring `rayon::ThreadPoolBuilder`.
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: Option<usize>,
}

impl ThreadPoolBuilder {
    /// A fresh builder (defaults to 1 thread: opt-in parallelism).
    pub fn new() -> Self {
        ThreadPoolBuilder::default()
    }

    /// Set the pool width. `0` is rejected at [`build`](Self::build) time
    /// (real rayon treats 0 as "auto"; this shim keeps widths explicit so
    /// runs are reproducible by construction).
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = Some(n);
        self
    }

    /// Build the pool.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        let n = self.num_threads.unwrap_or(1);
        if n == 0 {
            return Err(ThreadPoolBuildError {
                msg: "thread pool width must be >= 1".to_string(),
            });
        }
        Ok(ThreadPool { num_threads: n })
    }
}

/// A handle carrying a pool width. Workers are not kept alive between
/// operations: each parallel call spawns scoped threads, which keeps the
/// shim free of global state (and of `unsafe`).
#[derive(Debug, Clone)]
pub struct ThreadPool {
    num_threads: usize,
}

impl ThreadPool {
    /// Shorthand for `ThreadPoolBuilder::new().num_threads(n).build()`.
    pub fn new(n: usize) -> Result<ThreadPool, ThreadPoolBuildError> {
        ThreadPoolBuilder::new().num_threads(n).build()
    }

    /// This pool's width.
    pub fn current_num_threads(&self) -> usize {
        self.num_threads
    }

    /// Run `op` with this pool installed: parallel iterators created inside
    /// `op` (on this thread) use this pool's width. The previous width is
    /// restored on exit, even on panic.
    pub fn install<R>(&self, op: impl FnOnce() -> R) -> R {
        struct Restore(usize);
        impl Drop for Restore {
            fn drop(&mut self) {
                INSTALLED_THREADS.with(|t| t.set(self.0));
            }
        }
        let prev = INSTALLED_THREADS.with(|t| t.replace(self.num_threads));
        let _restore = Restore(prev);
        op()
    }

    /// Deterministic indexed fan-out: compute `f(0..n)` on up to
    /// `self.num_threads` workers and return the results in index order.
    pub fn run_indexed<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        run_indexed(n, self.num_threads, &f)
    }
}

/// The deterministic work-stealing core: workers pull the next index from
/// a shared atomic counter, results are reassembled in index order. For a
/// pure `f` the output is identical for every `threads` value; a panic in
/// any task propagates to the caller.
fn run_indexed<T, F>(n: usize, threads: usize, f: &F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = threads.min(n);
    if workers <= 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let mut pairs: Vec<(usize, T)> = Vec::with_capacity(n);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut local: Vec<(usize, T)> = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        local.push((i, f(i)));
                    }
                    local
                })
            })
            .collect();
        for h in handles {
            match h.join() {
                Ok(local) => pairs.extend(local),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    pairs.sort_unstable_by_key(|&(i, _)| i);
    pairs.into_iter().map(|(_, v)| v).collect()
}

/// Parallel iterator adaptors over indexable sources, driven by the
/// deterministic executor above.
pub mod iter {
    use super::{current_num_threads, run_indexed};

    /// Conversion into a parallel iterator, mirroring
    /// `rayon::iter::IntoParallelIterator`.
    pub trait IntoParallelIterator {
        /// Element type.
        type Item: Send;
        /// Iterator type produced.
        type Iter: ParallelIterator<Item = Self::Item>;
        /// Convert `self` into a parallel iterator.
        fn into_par_iter(self) -> Self::Iter;
    }

    /// A parallel iterator. `drive` is the single execution point: it
    /// materializes all elements in input order using the installed pool
    /// width, which is what makes every downstream adaptor deterministic.
    pub trait ParallelIterator: Sized {
        /// Element type.
        type Item: Send;

        /// Execute the pipeline and return the elements in input order.
        fn drive(self) -> Vec<Self::Item>;

        /// Map each element through `f` (applied in parallel at drive
        /// time).
        fn map<U, F>(self, f: F) -> Map<Self, F>
        where
            U: Send,
            F: Fn(Self::Item) -> U + Sync,
        {
            Map { base: self, f }
        }

        /// Collect into any `FromIterator` container, preserving input
        /// order.
        fn collect<C: FromIterator<Self::Item>>(self) -> C {
            self.drive().into_iter().collect()
        }

        /// Run `f` on every element (parallel over elements).
        fn for_each<F>(self, f: F)
        where
            F: Fn(Self::Item) + Sync,
        {
            self.map(f).drive();
        }

        /// Minimum by comparator. Ties resolve to the *earliest* element
        /// (stable, unlike `std`'s last-wins `min_by`), so the winner is
        /// independent of thread count by construction.
        fn min_by<F>(self, cmp: F) -> Option<Self::Item>
        where
            F: Fn(&Self::Item, &Self::Item) -> std::cmp::Ordering,
        {
            let mut best: Option<Self::Item> = None;
            for item in self.drive() {
                match &best {
                    Some(b) if cmp(&item, b) == std::cmp::Ordering::Less => {
                        best = Some(item);
                    }
                    None => best = Some(item),
                    _ => {}
                }
            }
            best
        }
    }

    impl<I> IntoParallelIterator for std::ops::Range<I>
    where
        I: Send + Copy,
        std::ops::Range<I>: Iterator<Item = I>,
    {
        type Item = I;
        type Iter = VecParIter<I>;
        fn into_par_iter(self) -> VecParIter<I> {
            VecParIter {
                items: self.collect(),
            }
        }
    }

    impl<T: Send> IntoParallelIterator for Vec<T> {
        type Item = T;
        type Iter = VecParIter<T>;
        fn into_par_iter(self) -> VecParIter<T> {
            VecParIter { items: self }
        }
    }

    /// Parallel iterator over an owned vector of items.
    pub struct VecParIter<T> {
        items: Vec<T>,
    }

    impl<T: Send> ParallelIterator for VecParIter<T> {
        type Item = T;
        fn drive(self) -> Vec<T> {
            self.items
        }
    }

    /// Lazy `map` adaptor; the closure runs on worker threads at drive
    /// time.
    pub struct Map<I, F> {
        base: I,
        f: F,
    }

    impl<I, U, F> ParallelIterator for Map<I, F>
    where
        I: ParallelIterator,
        U: Send,
        F: Fn(I::Item) -> U + Sync,
    {
        type Item = U;
        fn drive(self) -> Vec<U> {
            let items = self.base.drive();
            let threads = current_num_threads();
            let f = &self.f;
            // Each element is owned by exactly one task; the mutex slots
            // hand ownership across the thread boundary without `unsafe`
            // and are uncontended (every index is taken exactly once).
            let slots: Vec<std::sync::Mutex<Option<I::Item>>> = items
                .into_iter()
                .map(|x| std::sync::Mutex::new(Some(x)))
                .collect();
            run_indexed(slots.len(), threads, &|i| {
                let item = slots[i]
                    .lock()
                    .expect("slot mutex poisoned")
                    .take()
                    .expect("each index is driven exactly once");
                f(item)
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::iter::{IntoParallelIterator, ParallelIterator};
    use super::*;

    #[test]
    fn pool_rejects_zero_threads() {
        assert!(ThreadPoolBuilder::new().num_threads(0).build().is_err());
        assert!(ThreadPool::new(0).is_err());
    }

    #[test]
    fn install_is_scoped_and_restored() {
        assert_eq!(current_num_threads(), 1);
        let pool = ThreadPool::new(4).unwrap();
        pool.install(|| {
            assert_eq!(current_num_threads(), 4);
            let inner = ThreadPool::new(2).unwrap();
            inner.install(|| assert_eq!(current_num_threads(), 2));
            assert_eq!(current_num_threads(), 4);
        });
        assert_eq!(current_num_threads(), 1);
    }

    #[test]
    fn install_restores_width_after_panic() {
        let pool = ThreadPool::new(8).unwrap();
        let caught = std::panic::catch_unwind(|| pool.install(|| panic!("boom")));
        assert!(caught.is_err());
        assert_eq!(current_num_threads(), 1);
    }

    #[test]
    fn run_indexed_preserves_order_at_any_width() {
        let expected: Vec<usize> = (0..97).map(|i| i * i).collect();
        for threads in [1, 2, 3, 8] {
            let pool = ThreadPool::new(threads).unwrap();
            let got = pool.run_indexed(97, |i| i * i);
            assert_eq!(got, expected, "width {threads}");
        }
    }

    #[test]
    fn run_indexed_empty_input() {
        let pool = ThreadPool::new(4).unwrap();
        let got: Vec<usize> = pool.run_indexed(0, |i| i);
        assert!(got.is_empty());
    }

    #[test]
    fn run_indexed_actually_uses_multiple_threads() {
        // With a 4-wide pool and tasks that block until at least two
        // workers arrive, single-threaded execution would deadlock; a
        // barrier of 2 proves real concurrency without flakiness.
        let gate = std::sync::Barrier::new(2);
        let pool = ThreadPool::new(4).unwrap();
        let got = pool.run_indexed(2, |i| {
            gate.wait();
            i
        });
        assert_eq!(got, vec![0, 1]);
    }

    #[test]
    fn worker_panics_propagate() {
        let pool = ThreadPool::new(4).unwrap();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run_indexed(16, |i| {
                if i == 7 {
                    panic!("task 7 failed");
                }
                i
            })
        }));
        assert!(result.is_err(), "panic in a worker must reach the caller");
    }

    #[test]
    fn into_par_iter_map_collect_preserves_order() {
        let seq: Vec<usize> = (0usize..50).map(|i| i * 3).collect();
        for threads in [1, 4] {
            let pool = ThreadPool::new(threads).unwrap();
            let par: Vec<usize> =
                pool.install(|| (0usize..50).into_par_iter().map(|i| i * 3).collect());
            assert_eq!(par, seq, "width {threads}");
        }
    }

    #[test]
    fn par_map_on_empty_range() {
        let pool = ThreadPool::new(4).unwrap();
        let out: Vec<usize> = pool.install(|| (0usize..0).into_par_iter().map(|i| i + 1).collect());
        assert!(out.is_empty());
    }

    #[test]
    fn min_by_is_first_wins_and_width_independent() {
        // Costs with a tie between indices 1 and 3; the earliest must win
        // regardless of pool width.
        let costs = [5.0f64, 1.0, 2.0, 1.0];
        let mut picks = Vec::new();
        for threads in [1, 2, 8] {
            let pool = ThreadPool::new(threads).unwrap();
            let pick = pool.install(|| {
                (0usize..4)
                    .into_par_iter()
                    .map(|i| (i, costs[i]))
                    .min_by(|a, b| a.1.total_cmp(&b.1))
            });
            picks.push(pick.unwrap());
        }
        assert!(picks.iter().all(|&(i, _)| i == 1), "{picks:?}");
    }
}
