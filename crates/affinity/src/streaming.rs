//! Streaming affinity estimation with exponential decay — the one
//! trace → CSR estimator. The dense
//! [`AffinityMatrix`](crate::AffinityMatrix) is the figure view and the
//! reference this estimate is proven bit-equal to.
//!
//! Offline, the engine folds one profiling trace in and freezes it. Under
//! live traffic the routing distribution drifts, so the online serving
//! mode keeps folding: each serving window's routing decisions are added
//! after multiplying all accumulated mass by a decay factor, making the
//! estimate an exponentially weighted average over recent windows.
//! Ingestion costs sorting and merging, not a map operation per token:
//! [`RoutingTrace::pair_counts`] sorts each gap's packed `(expert,
//! successor)` keys and counts the runs (at most `n_tokens` distinct pairs
//! per window per gap), and those ascending counts are merged into the
//! gap's ascending store of joint mass. No `E x E` table is ever built.
//!
//! Three consumers hang off the estimator:
//!
//! * [`StreamingAffinity::snapshot`] freezes the current estimate into an
//!   [`AffinitySnapshot`] (per-gap CSR conditionals + source marginals) —
//!   the single interchange the placement objective builds from
//!   (`Objective::from_snapshot` in `exflow-placement`);
//! * [`StreamingAffinity::divergence`] measures how far the live estimate
//!   has drifted from a reference snapshot (the one the current placement
//!   was solved against) — the drift-detector signal;
//! * the marginal/row accessors feed diagnostics.
//!
//! A first window defines — bit for bit, whatever the decay — the same
//! conditionals and marginals as [`AffinityMatrix::from_trace`] on the
//! same trace (integer counts below 2^53 are exact in f64), so the one
//! estimator serves the offline and online paths alike.
//!
//! [`AffinityMatrix::from_trace`]: crate::AffinityMatrix::from_trace

use crate::trace::RoutingTrace;

/// One gap's joint mass: `((from, to), mass)` cells, ascending in
/// `(from, to)`.
type PairStore = Vec<((u16, u16), f64)>;

/// Exponentially decayed conditional-probability estimate over a stream of
/// routing-trace windows.
///
/// ```
/// use exflow_affinity::{RoutingTrace, StreamingAffinity};
///
/// // Two serving windows over 3 experts and 3 layers.
/// let w0 = RoutingTrace::new(vec![vec![0, 1, 2], vec![0, 1, 2]], 3);
/// let w1 = RoutingTrace::new(vec![vec![0, 2, 1], vec![0, 2, 1]], 3);
///
/// let mut est = StreamingAffinity::new(3, 3, 0.5);
/// est.observe(&w0);
/// let reference = est.snapshot();
/// assert_eq!(est.divergence(&reference), 0.0); // nothing drifted yet
///
/// est.observe(&w1); // routing changed: 0 -> 2 now dominates 0 -> 1
/// assert!(est.divergence(&reference) > 0.25);
/// // Recent windows outweigh old ones: P(2|0) = 2/(2*0.5 + 2) = 2/3.
/// let snap = est.snapshot();
/// assert!((snap.prob(0, 0, 2) - 2.0 / 3.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct StreamingAffinity {
    n_layers: usize,
    n_experts: usize,
    decay: f64,
    windows_seen: u64,
    /// Per gap: joint mass of each observed `(from, to)` pair, one cell
    /// per pair, strictly ascending in `(from, to)` — row-major, so a
    /// row's cells are one contiguous run, found by binary search, and
    /// every downstream accumulation walks them in one fixed order. A
    /// window's sorted pair counts are merged in: an existing cell gains
    /// the count, a new one is written as `0.0 + count`.
    ///
    /// Decay is applied *lazily*, row by row: a row's values are only
    /// brought up to date (stepwise, one multiplication per elapsed
    /// window, so the result is bit-identical to eager per-window decay)
    /// when the row next receives counts. Between touches a row's stored
    /// values and its [`Self::row_total`] denominator share the same
    /// stale timestamp, so the *conditional* `value / row_total` — the
    /// only thing snapshots expose — is unaffected by the deferral and,
    /// crucially, bit-stable across windows that do not touch the row.
    /// That stability is what makes consecutive snapshots differ only in
    /// touched rows, the contract [`Self::observe_delta`] exports.
    gaps: Vec<PairStore>,
    /// Per gap: decayed mass of each source expert (row totals), decayed
    /// *eagerly* every window — this feeds the marginal weights (which
    /// change every window anyway) and the uniform-row test.
    row_mass: Vec<Vec<f64>>,
    /// Per gap: lazy per-row denominators — bit-identical to `row_mass`
    /// at each row's last touch (both sides apply the same op sequence:
    /// one decay multiplication per window, then the window's counts in
    /// ingestion order).
    row_total: Vec<Vec<f64>>,
    /// Per gap: the window count as of which each row's lazy state
    /// (`gaps` values + `row_total`) is current.
    row_stamp: Vec<Vec<u64>>,
}

impl StreamingAffinity {
    /// An empty estimator for `n_layers` layers and `n_experts` experts.
    /// `decay` is the multiplier applied to all accumulated mass before
    /// each new window is folded in: `1.0` never forgets (the plain
    /// running estimate), small values track only the recent past.
    pub fn new(n_layers: usize, n_experts: usize, decay: f64) -> Self {
        assert!(n_layers >= 1 && n_experts >= 1);
        assert!(
            decay > 0.0 && decay <= 1.0,
            "decay must be in (0, 1], got {decay}"
        );
        let n_gaps = n_layers - 1;
        StreamingAffinity {
            n_layers,
            n_experts,
            decay,
            windows_seen: 0,
            gaps: vec![Vec::new(); n_gaps],
            row_mass: vec![vec![0.0; n_experts]; n_gaps],
            row_total: vec![vec![0.0; n_experts]; n_gaps],
            row_stamp: vec![vec![0; n_experts]; n_gaps],
        }
    }

    /// Fold one serving window into the estimate: decay everything
    /// accumulated so far, then add the window's pair counts for every
    /// consecutive layer gap.
    pub fn observe(&mut self, window: &RoutingTrace) {
        self.fold(window, false);
    }

    /// Fold one serving window into the estimate (exactly like
    /// [`Self::observe`]) and return the [`SnapshotDelta`] describing how
    /// the frozen estimate changed: the conditional rows the window
    /// touched (plus any row whose decayed-away mass flipped it to the
    /// uniform estimate), with their new CSR fragments, and the full new
    /// marginal weights (which shift every window because the totals
    /// decay). Applying the delta to the previous window's snapshot
    /// reproduces [`Self::snapshot`] on the updated estimate bit for bit
    /// — the contract `Objective::apply_snapshot_delta` in
    /// `exflow-placement` builds on.
    pub fn observe_delta(&mut self, window: &RoutingTrace) -> SnapshotDelta {
        self.fold(window, true)
            .expect("fold emits a delta when asked to")
    }

    /// Bring one row's lazy state (pair values + `row_total`) up to
    /// `now`, applying one decay multiplication per elapsed window — the
    /// exact op sequence eager decay would have applied. Idempotent
    /// within a window.
    fn materialize_row(&mut self, gap: usize, row: usize, now: u64) {
        let stamp = self.row_stamp[gap][row];
        if stamp == now {
            return;
        }
        self.row_stamp[gap][row] = now;
        if self.decay >= 1.0 {
            return;
        }
        let pending = now - stamp;
        let store = &mut self.gaps[gap];
        let cells = row_range(store, row);
        for (_, v) in &mut store[cells] {
            for _ in 0..pending {
                *v *= self.decay;
            }
        }
        let t = &mut self.row_total[gap][row];
        for _ in 0..pending {
            *t *= self.decay;
        }
    }

    /// The shared ingestion fold behind [`Self::observe`] /
    /// [`Self::observe_delta`]; the delta is only assembled when `emit`
    /// is set, so plain observation pays nothing for it.
    fn fold(&mut self, window: &RoutingTrace, emit: bool) -> Option<SnapshotDelta> {
        assert_eq!(window.n_layers(), self.n_layers, "window layer mismatch");
        assert_eq!(window.n_experts(), self.n_experts, "window expert mismatch");
        let e = self.n_experts;
        let now = self.windows_seen + 1;
        let mut delta_gaps = Vec::with_capacity(if emit { self.n_gaps() } else { 0 });
        let mut delta_weights = Vec::with_capacity(if emit { self.n_gaps() } else { 0 });
        for gap in 0..self.n_gaps() {
            // Eager decay of the marginal row masses. A positive mass that
            // underflows to exactly 0.0 flips its row to the uniform
            // estimate without the row being touched — those rows must
            // still appear in the delta (their lazy state stays stale; the
            // uniform row is what the snapshot emits for them).
            let mut flipped: Vec<usize> = Vec::new();
            if self.decay < 1.0 {
                for (i, m) in self.row_mass[gap].iter_mut().enumerate() {
                    let was_pos = *m > 0.0;
                    *m *= self.decay;
                    if was_pos && *m == 0.0 {
                        flipped.push(i);
                    }
                }
            }
            // Touched rows: materialize the lazy state first (stepwise
            // decay to `now`), then fold the counts in, in ingestion
            // order, mirrored onto the eager and lazy totals alike, and
            // merge them into the store. `pair_counts` is ascending in
            // `(from, to)`, so a new row is exactly a change of the last
            // one and `touched` stays sorted.
            let counts = window.pair_counts(gap, gap + 1);
            let mut touched: Vec<usize> = Vec::new();
            for &((i, _), c) in &counts {
                let row = i as usize;
                if touched.last() != Some(&row) {
                    debug_assert!(touched.last().is_none_or(|&last| last < row));
                    touched.push(row);
                    self.materialize_row(gap, row, now);
                }
                self.row_total[gap][row] += c as f64;
                self.row_mass[gap][row] += c as f64;
            }
            merge_counts(&mut self.gaps[gap], &counts);
            if emit {
                // A flipped row that also received counts is an ordinary
                // touched row (its mass is positive again); only the
                // untouched flips emit as uniform rows.
                let mut rows: Vec<usize> = touched;
                rows.extend(
                    flipped.iter().copied().filter(|r| {
                        self.row_stamp[gap][*r] != now && self.row_mass[gap][*r] <= 0.0
                    }),
                );
                rows.sort_unstable();
                rows.dedup();
                let mut row_ptr = Vec::with_capacity(rows.len() + 1);
                row_ptr.push(0usize);
                let mut cols = Vec::new();
                let mut probs = Vec::new();
                for &row in &rows {
                    if self.row_mass[gap][row] <= 0.0 {
                        for p in 0..e {
                            cols.push(p);
                            probs.push(1.0 / e as f64);
                        }
                    } else {
                        let denom = self.row_total[gap][row];
                        let store = &self.gaps[gap];
                        for &((_, p), v) in &store[row_range(store, row)] {
                            cols.push(p as usize);
                            probs.push(v / denom);
                        }
                    }
                    row_ptr.push(cols.len());
                }
                delta_gaps.push(DeltaGap {
                    rows,
                    row_ptr,
                    cols,
                    probs,
                });
                let mass = &self.row_mass[gap];
                let total: f64 = mass.iter().sum();
                delta_weights.push(if total <= 0.0 {
                    vec![1.0 / e as f64; e]
                } else {
                    mass.iter().map(|&m| m / total).collect()
                });
            }
        }
        self.windows_seen = now;
        emit.then_some(SnapshotDelta {
            n_layers: self.n_layers,
            n_experts: e,
            window: now,
            gaps: delta_gaps,
            weights: delta_weights,
        })
    }

    /// Number of MoE layers.
    pub fn n_layers(&self) -> usize {
        self.n_layers
    }

    /// Experts per layer.
    pub fn n_experts(&self) -> usize {
        self.n_experts
    }

    /// Number of layer gaps (`L - 1`).
    pub fn n_gaps(&self) -> usize {
        self.n_layers - 1
    }

    /// The decay multiplier.
    pub fn decay(&self) -> f64 {
        self.decay
    }

    /// Windows folded in so far.
    pub fn windows_seen(&self) -> u64 {
        self.windows_seen
    }

    /// Distinct `(from, to)` pairs ever observed at one gap.
    pub fn gap_nnz(&self, gap: usize) -> usize {
        self.gaps[gap].len()
    }

    /// Decayed mass of source expert `i` at `gap` (the numerator of its
    /// marginal weight).
    pub fn row_mass(&self, gap: usize, i: usize) -> f64 {
        self.row_mass[gap][i]
    }

    /// Freeze the current estimate: per-gap CSR conditionals (rows with no
    /// observed mass estimate uniform, stored explicitly so the snapshot
    /// defines the dense estimator's matrix cell for cell) plus per-gap
    /// source-marginal weights.
    ///
    /// Read-only: conditionals come from each row's lazy state (stale
    /// values over the equally stale `row_total` denominator), so
    /// a row untouched since the previous snapshot reproduces its
    /// conditional bits exactly — only touched (or decayed-to-uniform)
    /// rows and the marginal weights ever differ between consecutive
    /// snapshots.
    pub fn snapshot(&self) -> AffinitySnapshot {
        let e = self.n_experts;
        let mut gaps = Vec::with_capacity(self.n_gaps());
        let mut weights = Vec::with_capacity(self.n_gaps());
        for gap in 0..self.n_gaps() {
            let mass = &self.row_mass[gap];
            let mut row_ptr = Vec::with_capacity(e + 1);
            row_ptr.push(0usize);
            let mut cols = Vec::new();
            let mut probs = Vec::new();
            let store = &self.gaps[gap];
            let mut lo = 0;
            for (i, &live_mass) in mass.iter().enumerate() {
                // This row's cells: the run after the previous row's.
                let hi = lo + store[lo..].partition_point(|&((r, _), _)| r as usize == i);
                if live_mass <= 0.0 {
                    // Unobserved (or fully decayed-away) source expert:
                    // maximum-entropy estimate, stored explicitly (any
                    // zero-mass residue of the row is skipped).
                    for p in 0..e {
                        cols.push(p);
                        probs.push(1.0 / e as f64);
                    }
                } else {
                    let denom = self.row_total[gap][i];
                    for &((_, p), v) in &store[lo..hi] {
                        cols.push(p as usize);
                        probs.push(v / denom);
                    }
                }
                row_ptr.push(cols.len());
                lo = hi;
            }
            let total: f64 = mass.iter().sum();
            weights.push(if total <= 0.0 {
                vec![1.0 / e as f64; e]
            } else {
                mass.iter().map(|&m| m / total).collect()
            });
            gaps.push(SnapshotGap {
                row_ptr,
                cols,
                probs,
            });
        }
        AffinitySnapshot {
            n_layers: self.n_layers,
            n_experts: e,
            gaps,
            weights,
        }
    }

    /// Windowed drift signal: the marginal-weighted mean total-variation
    /// distance between the live conditionals and `reference`, averaged
    /// over gaps —
    /// `(1/G) Σ_gap Σ_i w_live(i) · ½ Σ_p |P_live(p|i) − P_ref(p|i)|`.
    ///
    /// Ranges over `[0, 1]`: 0 when nothing moved, 1 when every live row
    /// puts all mass where the reference put none. Row weights come from
    /// the *live* side (drift on experts that no longer receive traffic
    /// should not trigger re-placement). A gapless (single-layer) model
    /// has no transitions to drift, so the signal is 0.
    pub fn divergence(&self, reference: &AffinitySnapshot) -> f64 {
        assert_eq!(reference.n_layers, self.n_layers, "snapshot layer mismatch");
        assert_eq!(
            reference.n_experts, self.n_experts,
            "snapshot expert mismatch"
        );
        if self.n_gaps() == 0 {
            return 0.0;
        }
        let live = self.snapshot();
        let mut total = 0.0f64;
        for gap in 0..self.n_gaps() {
            for i in 0..self.n_experts {
                let w = live.weights[gap][i];
                if w == 0.0 {
                    continue;
                }
                let (lc, lp) = live.row(gap, i);
                let (rc, rp) = reference.row(gap, i);
                let mut tv = 0.0f64;
                merge_rows(lc, lp, rc, rp, |_, a, b| tv += (a - b).abs());
                total += w * 0.5 * tv;
            }
        }
        total / self.n_gaps() as f64
    }
}

/// One frozen gap: CSR conditionals, columns ascending per row.
#[derive(Debug, Clone, PartialEq)]
struct SnapshotGap {
    row_ptr: Vec<usize>,
    cols: Vec<usize>,
    probs: Vec<f64>,
}

/// A frozen [`StreamingAffinity`] estimate: per-gap CSR conditional
/// matrices plus source-marginal weights. This is what placements are
/// solved against — offline and online — and the reference the drift
/// detector compares the live estimate to.
#[derive(Debug, Clone, PartialEq)]
pub struct AffinitySnapshot {
    n_layers: usize,
    n_experts: usize,
    gaps: Vec<SnapshotGap>,
    /// `weights[gap][i]`: marginal share of source expert `i` (sums to 1).
    weights: Vec<Vec<f64>>,
}

impl AffinitySnapshot {
    /// Number of MoE layers.
    pub fn n_layers(&self) -> usize {
        self.n_layers
    }

    /// Experts per layer.
    pub fn n_experts(&self) -> usize {
        self.n_experts
    }

    /// Number of layer gaps (`L - 1`).
    pub fn n_gaps(&self) -> usize {
        self.gaps.len()
    }

    /// Stored cells of one gap.
    pub fn gap_nnz(&self, gap: usize) -> usize {
        self.gaps[gap].cols.len()
    }

    /// The raw CSR triplet `(row_ptr, cols, probs)` of one gap — consumed
    /// by the placement objective's builder.
    pub fn gap_csr(&self, gap: usize) -> (&[usize], &[usize], &[f64]) {
        let g = &self.gaps[gap];
        (&g.row_ptr, &g.cols, &g.probs)
    }

    /// Source-marginal weights of one gap (each sums to 1).
    pub fn gap_weights(&self, gap: usize) -> &[f64] {
        &self.weights[gap]
    }

    /// Stored entries of one conditional row: `(columns, probabilities)`.
    #[inline]
    pub fn row(&self, gap: usize, i: usize) -> (&[usize], &[f64]) {
        let g = &self.gaps[gap];
        let (lo, hi) = (g.row_ptr[i], g.row_ptr[i + 1]);
        (&g.cols[lo..hi], &g.probs[lo..hi])
    }

    /// `P(to = p | from = i)` at `gap` (0 for cells not stored).
    pub fn prob(&self, gap: usize, i: usize, p: usize) -> f64 {
        let (cols, probs) = self.row(gap, i);
        match cols.binary_search(&p) {
            Ok(k) => probs[k],
            Err(_) => 0.0,
        }
    }
}

/// The change between two consecutive [`StreamingAffinity::snapshot`]s,
/// produced by [`StreamingAffinity::observe_delta`]: the conditional rows
/// the window changed (touched by counts, or flipped to the uniform
/// estimate by decay underflow) with their new CSR fragments, plus the
/// full new marginal-weight vectors (the totals decay, so every weight
/// moves every window). Rows not listed are — bit for bit — unchanged
/// from the previous snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotDelta {
    n_layers: usize,
    n_experts: usize,
    window: u64,
    gaps: Vec<DeltaGap>,
    weights: Vec<Vec<f64>>,
}

/// One gap's changed rows: a sorted row list plus a CSR fragment over
/// exactly those rows.
#[derive(Debug, Clone, PartialEq)]
struct DeltaGap {
    rows: Vec<usize>,
    row_ptr: Vec<usize>,
    cols: Vec<usize>,
    probs: Vec<f64>,
}

impl SnapshotDelta {
    /// Number of MoE layers.
    pub fn n_layers(&self) -> usize {
        self.n_layers
    }

    /// Experts per layer.
    pub fn n_experts(&self) -> usize {
        self.n_experts
    }

    /// Number of layer gaps (`L - 1`).
    pub fn n_gaps(&self) -> usize {
        self.gaps.len()
    }

    /// The (1-based) window count after the observation this delta
    /// describes.
    pub fn window(&self) -> u64 {
        self.window
    }

    /// The changed row indices of one gap, strictly ascending.
    pub fn touched_rows(&self, gap: usize) -> &[usize] {
        &self.gaps[gap].rows
    }

    /// The new stored entries of the `k`-th changed row of `gap`:
    /// `(columns, probabilities)`, columns ascending — exactly what
    /// [`AffinitySnapshot::row`] returns for that row on the updated
    /// estimate.
    pub fn fragment(&self, gap: usize, k: usize) -> (&[usize], &[f64]) {
        let g = &self.gaps[gap];
        let (lo, hi) = (g.row_ptr[k], g.row_ptr[k + 1]);
        (&g.cols[lo..hi], &g.probs[lo..hi])
    }

    /// The full new marginal-weight vector of one gap (sums to 1).
    pub fn gap_weights(&self, gap: usize) -> &[f64] {
        &self.weights[gap]
    }
}

/// The cells of `row` in an ascending store: one contiguous run.
fn row_range(store: &[((u16, u16), f64)], row: usize) -> std::ops::Range<usize> {
    let lo = store.partition_point(|&((r, _), _)| (r as usize) < row);
    let hi = lo + store[lo..].partition_point(|&((r, _), _)| r as usize == row);
    lo..hi
}

/// Merge one window's ascending pair counts into an ascending store: a
/// cell already present gains its count, a new cell is written as
/// `0.0 + count` — the float operations an `or_insert(0.0) += count` map
/// fold performs. One pass over both, like the snapshot that follows.
fn merge_counts(store: &mut PairStore, counts: &[((u16, u16), u64)]) {
    let mut cells = std::mem::take(store).into_iter().peekable();
    let mut merged = Vec::with_capacity(cells.len() + counts.len());
    for &(key, c) in counts {
        while let Some(cell) = cells.next_if(|&(k, _)| k < key) {
            merged.push(cell);
        }
        let v = cells.next_if(|&(k, _)| k == key).map_or(0.0, |(_, v)| v);
        merged.push((key, v + c as f64));
    }
    merged.extend(cells);
    *store = merged;
}

/// Walk two column-sorted sparse rows in lockstep, calling
/// `f(col, value_a, value_b)` for every column present in either side (the
/// absent side contributes 0.0), in strictly ascending column order.
#[inline]
fn merge_rows<F: FnMut(usize, f64, f64)>(
    ca: &[usize],
    va: &[f64],
    cb: &[usize],
    vb: &[f64],
    mut f: F,
) {
    let (mut a, mut b) = (0usize, 0usize);
    while a < ca.len() || b < cb.len() {
        let ka = if a < ca.len() { ca[a] } else { usize::MAX };
        let kb = if b < cb.len() { cb[b] } else { usize::MAX };
        if ka < kb {
            f(ka, va[a], 0.0);
            a += 1;
        } else if kb < ka {
            f(kb, 0.0, vb[b]);
            b += 1;
        } else {
            f(ka, va[a], vb[b]);
            a += 1;
            b += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exflow_model::routing::AffinityModelSpec;
    use exflow_model::{CorpusSpec, TokenBatch};

    fn sampled_trace(e: usize, l: usize, n: usize, seed: u64) -> RoutingTrace {
        let model = AffinityModelSpec::new(l, e).build();
        let batch = TokenBatch::sample(&model, &CorpusSpec::pile_proxy(4), n, 1, seed);
        RoutingTrace::from_batch(&batch, e)
    }

    #[test]
    fn decay_weights_recent_windows_higher() {
        // Window A: 0 -> 1 always. Window B: 0 -> 2 always.
        let a = RoutingTrace::new(vec![vec![0, 1]; 4], 3);
        let b = RoutingTrace::new(vec![vec![0, 2]; 4], 3);
        let mut s = StreamingAffinity::new(2, 3, 0.25);
        s.observe(&a);
        s.observe(&b);
        let snap = s.snapshot();
        // Mass: 4 * 0.25 on (0,1), 4 on (0,2) -> P(2|0) = 4/5.
        assert!((snap.prob(0, 0, 2) - 0.8).abs() < 1e-12);
        assert!((snap.prob(0, 0, 1) - 0.2).abs() < 1e-12);
        // decay = 1.0 would give a 50/50 split instead.
        let mut flat = StreamingAffinity::new(2, 3, 1.0);
        flat.observe(&a);
        flat.observe(&b);
        assert!((flat.snapshot().prob(0, 0, 2) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn unobserved_rows_estimate_uniform() {
        let t = RoutingTrace::new(vec![vec![0, 1]], 4);
        let mut s = StreamingAffinity::new(2, 4, 0.5);
        s.observe(&t);
        let snap = s.snapshot();
        for p in 0..4 {
            assert!((snap.prob(0, 2, p) - 0.25).abs() < 1e-15);
        }
        // Uniform rows are stored explicitly.
        assert_eq!(snap.row(0, 2).0.len(), 4);
    }

    #[test]
    fn divergence_is_zero_against_own_snapshot() {
        let t = sampled_trace(8, 5, 600, 9);
        let mut s = StreamingAffinity::new(5, 8, 0.5);
        s.observe(&t);
        let snap = s.snapshot();
        assert_eq!(s.divergence(&snap), 0.0);
    }

    #[test]
    fn divergence_grows_with_drift_and_is_bounded() {
        let a = RoutingTrace::new(vec![vec![0, 1], vec![1, 0]], 2);
        let flipped = RoutingTrace::new(vec![vec![0, 0], vec![1, 1]], 2);
        let mut s = StreamingAffinity::new(2, 2, 0.5);
        s.observe(&a);
        let reference = s.snapshot();
        let mut last = 0.0;
        for _ in 0..4 {
            s.observe(&flipped);
            let d = s.divergence(&reference);
            assert!(d > last, "divergence must grow, got {d} after {last}");
            assert!(d <= 1.0 + 1e-12);
            last = d;
        }
        // Fully flipped routing approaches total variation 1.
        assert!(last > 0.8, "fully flipped drift should near 1, got {last}");
    }

    #[test]
    fn divergence_ignores_rows_without_live_traffic() {
        // Reference: expert 0 -> 1. Live: only expert 2 routes (to 3);
        // rows 0/1 keep decayed-away reference mass of zero weight.
        let a = RoutingTrace::new(vec![vec![0, 1]], 4);
        let b = RoutingTrace::new(vec![vec![2, 3]], 4);
        let mut s = StreamingAffinity::new(2, 4, 0.5);
        s.observe(&a);
        let reference = s.snapshot();
        s.observe(&b);
        s.observe(&b);
        // Row 0 drifted only by decay (same conditionals); row 2 moved
        // from uniform to concentrated. Weighted by live mass, row 0's
        // contribution shrinks as its weight decays.
        let d = s.divergence(&reference);
        assert!(d > 0.0 && d < 1.0);
    }

    #[test]
    fn gapless_model_never_drifts() {
        let t = RoutingTrace::new(vec![vec![0], vec![1]], 2);
        let mut s = StreamingAffinity::new(1, 2, 0.5);
        s.observe(&t);
        assert_eq!(s.n_gaps(), 0);
        assert_eq!(s.divergence(&s.snapshot()), 0.0);
    }

    #[test]
    fn observation_is_order_deterministic() {
        let w0 = sampled_trace(8, 3, 300, 1);
        let w1 = sampled_trace(8, 3, 300, 2);
        let run = || {
            let mut s = StreamingAffinity::new(3, 8, 0.7);
            s.observe(&w0);
            s.observe(&w1);
            s.snapshot()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn observe_delta_folds_exactly_like_observe() {
        let windows: Vec<RoutingTrace> = (0..5).map(|i| sampled_trace(8, 4, 200, i)).collect();
        let mut plain = StreamingAffinity::new(4, 8, 0.7);
        let mut delta = StreamingAffinity::new(4, 8, 0.7);
        for w in &windows {
            plain.observe(w);
            let _ = delta.observe_delta(w);
            assert_eq!(plain.snapshot(), delta.snapshot());
        }
        assert_eq!(plain.windows_seen(), delta.windows_seen());
    }

    #[test]
    fn delta_lists_exactly_the_rows_that_changed() {
        let mut s = StreamingAffinity::new(3, 8, 0.5);
        s.observe(&sampled_trace(8, 3, 400, 11));
        let before = s.snapshot();
        // A narrow window touching only rows 2 and 5 at each gap.
        let w = RoutingTrace::new(vec![vec![2, 5, 2], vec![5, 2, 5]], 8);
        let d = s.observe_delta(&w);
        let after = s.snapshot();
        assert_eq!(d.window(), 2);
        assert_eq!(d.n_gaps(), 2);
        for gap in 0..2 {
            assert_eq!(d.touched_rows(gap), &[2, 5], "gap {gap}");
            // Fragments are bit-identical to the updated snapshot's rows.
            for (k, &row) in d.touched_rows(gap).iter().enumerate() {
                let (fc, fp) = d.fragment(gap, k);
                let (sc, sp) = after.row(gap, row);
                assert_eq!(fc, sc);
                for (a, b) in fp.iter().zip(sp) {
                    assert_eq!(a.to_bits(), b.to_bits());
                }
            }
            // Untouched rows are bit-identical to the *previous* snapshot
            // — the property that makes the delta minimal.
            for row in (0..8).filter(|r| !d.touched_rows(gap).contains(r)) {
                let (bc, bp) = before.row(gap, row);
                let (ac, ap) = after.row(gap, row);
                assert_eq!(bc, ac, "gap {gap} row {row}");
                for (a, b) in bp.iter().zip(ap) {
                    assert_eq!(a.to_bits(), b.to_bits(), "gap {gap} row {row}");
                }
            }
            // Weights are replaced wholesale and match the snapshot.
            for (a, b) in d.gap_weights(gap).iter().zip(after.gap_weights(gap)) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn decayed_away_rows_flip_to_uniform_in_the_delta() {
        // Row 0 gets mass once, then only row 1 is ever touched. Under
        // decay 0.25 row 0's eager mass underflows to exactly 0.0 after
        // ~540 windows, flipping its snapshot row to uniform without the
        // row being touched — the delta must report that flip.
        let seed_w = RoutingTrace::new(vec![vec![0, 1]], 4);
        let other_w = RoutingTrace::new(vec![vec![1, 2]], 4);
        let mut s = StreamingAffinity::new(2, 4, 0.25);
        s.observe(&seed_w);
        let mut flipped_at = None;
        for step in 0..600 {
            let before = s.snapshot();
            let d = s.observe_delta(&other_w);
            let after = s.snapshot();
            assert_eq!(s.row_mass(0, 0) > 0.0, after.row(0, 0).0.len() == 1);
            if d.touched_rows(0).contains(&0) {
                // The flip window: row 0 appears with an explicit uniform
                // fragment even though no count touched it.
                assert!(before.row(0, 0).0.len() == 1, "flip from the stored row");
                assert_eq!(after.row(0, 0).0.len(), 4);
                let k = d.touched_rows(0).iter().position(|&r| r == 0).unwrap();
                let (fc, fp) = d.fragment(0, k);
                assert_eq!(fc, &[0, 1, 2, 3]);
                assert!(fp.iter().all(|&p| p == 0.25));
                flipped_at = Some(step);
                break;
            }
            // Before the flip, row 0 stays bit-identical window to window.
            assert_eq!(before.row(0, 0).0, after.row(0, 0).0);
        }
        assert!(flipped_at.is_some(), "decay never underflowed row 0");
        // After the flip the row stays uniform and leaves the delta.
        let d = s.observe_delta(&other_w);
        assert!(!d.touched_rows(0).contains(&0));
        assert_eq!(s.snapshot().row(0, 0).0.len(), 4);
    }

    #[test]
    #[should_panic(expected = "decay must be in (0, 1]")]
    fn zero_decay_rejected() {
        let _ = StreamingAffinity::new(2, 4, 0.0);
    }

    #[test]
    #[should_panic(expected = "window expert mismatch")]
    fn mismatched_window_rejected() {
        let mut s = StreamingAffinity::new(2, 4, 0.5);
        s.observe(&RoutingTrace::new(vec![vec![0, 1]], 8));
    }
}
