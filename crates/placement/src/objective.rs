//! The ILP objective (paper formula 8) and locality measurement.
//!
//! One build path: every constructor adapts its input into per-gap
//! stored-cell CSR plus source-marginal weights — the shape an
//! [`AffinitySnapshot`] already has — and one private constructor turns
//! those into gaps. Each gap holds its CSR (row access) and a transposed
//! CSC companion (column access) exactly once; a flat `E x E` expansion
//! rides along as an accelerator for the point lookups of `swap_delta` /
//! `gap_prob` when the gap is dense enough to pay for it
//! ([`GapBackend`]).

use exflow_affinity::{AffinityMatrix, AffinitySnapshot, RoutingTrace, SnapshotDelta};

use crate::placement::Placement;

/// Whether [`Objective`] keeps a flat `E x E` expansion beside each layer
/// gap's CSR/CSC index.
///
/// Both choices define exactly the same matrix, and every consumer
/// (`cross_mass`, `swap_delta`, the solvers) is arranged so the two
/// produce **bit-identical** results — the backend is purely a
/// speed/memory choice. Flat lookups make `swap_delta` `O(E)` per call;
/// the index walks make it `O(row-nnz + col-nnz)`, which is what top-k
/// routing leaves at `E = 256/512`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GapBackend {
    /// Pick per gap: index-only when the gap's density is below
    /// [`SPARSE_DENSITY_THRESHOLD`], flat-accelerated otherwise.
    #[default]
    Auto,
    /// Keep the flattened row-major `E x E` expansion for every gap.
    Dense,
    /// Keep only the CSR/CSC index for every gap.
    Sparse,
}

/// Density (`nnz / E^2`) below which [`GapBackend::Auto`] stores a gap as
/// CSR only. Below ~25% the CSR traversals win despite their index
/// indirection; near-dense matrices are faster flat.
pub const SPARSE_DENSITY_THRESHOLD: f64 = 0.25;

fn pick_sparse(nnz: usize, e: usize, backend: GapBackend) -> bool {
    match backend {
        GapBackend::Dense => false,
        GapBackend::Sparse => true,
        GapBackend::Auto => (nnz as f64) < SPARSE_DENSITY_THRESHOLD * (e * e) as f64,
    }
}

/// One layer gap's conditional matrix: the stored cells in CSR with a
/// transposed (CSC) companion index.
///
/// The CSR side serves row access (`cross_mass`, the outgoing half of
/// `swap_delta`, greedy gain accumulation) and is the structure
/// [`Objective::apply_snapshot_delta`] splices; the CSC side serves column
/// access (the incoming half of `swap_delta`) in `O(col-nnz)` instead of
/// `O(E)`. Entries are ascending within each row/column.
#[derive(Debug, Clone, PartialEq)]
struct Gap {
    row_ptr: Vec<usize>,
    cols: Vec<usize>,
    vals: Vec<f64>,
    col_ptr: Vec<usize>,
    rows: Vec<usize>,
    tvals: Vec<f64>,
    /// The stored cells expanded row-major over `E x E` — present exactly
    /// when [`pick_sparse`] says dense.
    flat: Option<Vec<f64>>,
}

impl Gap {
    /// Build from CSR parts, deriving the CSC index (counting sort keeps
    /// rows ascending within each column) and, on a dense pick, the flat
    /// expansion. No floating-point arithmetic: values move verbatim.
    fn new(
        n: usize,
        row_ptr: Vec<usize>,
        cols: Vec<usize>,
        vals: Vec<f64>,
        backend: GapBackend,
    ) -> Self {
        assert_eq!(row_ptr.len(), n + 1, "row_ptr must have E + 1 bounds");
        assert_eq!(cols.len(), vals.len());
        let nnz = cols.len();
        let mut col_ptr = vec![0usize; n + 1];
        for &c in &cols {
            col_ptr[c + 1] += 1;
        }
        for c in 0..n {
            col_ptr[c + 1] += col_ptr[c];
        }
        let mut cursor = col_ptr.clone();
        let mut rows = vec![0usize; nnz];
        let mut tvals = vec![0.0f64; nnz];
        let mut flat = (!pick_sparse(nnz, n, backend)).then(|| vec![0.0f64; n * n]);
        for i in 0..n {
            for idx in row_ptr[i]..row_ptr[i + 1] {
                let slot = cursor[cols[idx]];
                cursor[cols[idx]] += 1;
                rows[slot] = i;
                tvals[slot] = vals[idx];
                if let Some(flat) = &mut flat {
                    flat[i * n + cols[idx]] = vals[idx];
                }
            }
        }
        Gap {
            row_ptr,
            cols,
            vals,
            col_ptr,
            rows,
            tvals,
            flat,
        }
    }

    /// Stored entries of row `i`: `(columns, values)`, columns ascending.
    #[inline]
    fn row(&self, i: usize) -> (&[usize], &[f64]) {
        let (lo, hi) = (self.row_ptr[i], self.row_ptr[i + 1]);
        (&self.cols[lo..hi], &self.vals[lo..hi])
    }

    /// Stored entries of column `p`: `(rows, values)`, rows ascending.
    #[inline]
    fn col(&self, p: usize) -> (&[usize], &[f64]) {
        let (lo, hi) = (self.col_ptr[p], self.col_ptr[p + 1]);
        (&self.rows[lo..hi], &self.tvals[lo..hi])
    }
}

/// Stored-cell CSR `(row_ptr, cols, vals)` of dense rows: every nonzero
/// cell is a stored cell.
fn compress_rows<'a>(rows: impl Iterator<Item = &'a [f64]>) -> (Vec<usize>, Vec<usize>, Vec<f64>) {
    let mut row_ptr = vec![0usize];
    let mut cols = Vec::new();
    let mut vals = Vec::new();
    for row in rows {
        for (p, &v) in row.iter().enumerate() {
            if v != 0.0 {
                cols.push(p);
                vals.push(v);
            }
        }
        row_ptr.push(cols.len());
    }
    (row_ptr, cols, vals)
}

/// The placement objective: expected number of cross-unit transitions per
/// token per forward pass, computed from consecutive-layer affinity
/// matrices.
///
/// This is the expectation of the paper's formula 8 (`Σ_k Σ_j R_{k,j}`)
/// under the estimated routing distribution. Each source expert's row is
/// weighted by its *empirical marginal* (its share of traced tokens at that
/// layer): for the GShard-balanced models the paper studies this is simply
/// `1/E`, but it stays correct for skewed checkpoints (early training,
/// Fig. 12a) where a uniform weighting would dilute the objective with
/// never-visited experts.
///
/// Every gap is a stored-cell CSR/CSC index, flat-accelerated or not per
/// [`GapBackend`]; all evaluations are bit-identical across backends.
#[derive(Debug, Clone, PartialEq)]
pub struct Objective {
    n_experts: usize,
    /// The backend policy the objective was built with; re-applied when a
    /// window delta moves a gap across the `Auto` density threshold.
    backend: GapBackend,
    /// Per-gap conditional matrix.
    gaps: Vec<Gap>,
    /// Per-gap source-expert marginal weights (each sums to 1).
    weights: Vec<Vec<f64>>,
}

impl Objective {
    /// The one constructor every public builder adapts into: per gap, the
    /// stored-cell CSR `(row_ptr, cols, vals)` and the source-marginal
    /// `weights`. An empty iterator models a single-layer (L = 1)
    /// instance with no transitions at all.
    fn from_gaps(
        n_experts: usize,
        backend: GapBackend,
        gaps: impl Iterator<Item = (Vec<usize>, Vec<usize>, Vec<f64>, Vec<f64>)>,
    ) -> Self {
        assert!(n_experts >= 1);
        let (gaps, weights) = gaps
            .map(|(row_ptr, cols, vals, weights)| {
                assert_eq!(weights.len(), n_experts);
                (Gap::new(n_experts, row_ptr, cols, vals, backend), weights)
            })
            .unzip();
        Objective {
            n_experts,
            backend,
            gaps,
            weights,
        }
    }

    /// Build from consecutive-layer affinity matrices (length `L - 1`,
    /// ordered by layer), weighting each row by its observed marginal —
    /// the dense reference view of [`Objective::from_snapshot`], the one
    /// build path from a trace, and the test oracle it must match to the
    /// bit. Storage is selected per gap by [`GapBackend::Auto`].
    pub fn from_affinities(matrices: &[AffinityMatrix]) -> Self {
        Self::from_affinities_with(matrices, GapBackend::Auto)
    }

    /// [`Objective::from_affinities`] with an explicit backend override.
    pub fn from_affinities_with(matrices: &[AffinityMatrix], backend: GapBackend) -> Self {
        assert!(!matrices.is_empty(), "need at least one layer gap");
        let e = matrices[0].n_experts();
        Self::from_gaps(
            e,
            backend,
            matrices.iter().map(|m| {
                assert_eq!(m.n_experts(), e, "matrices must agree on expert count");
                let (row_ptr, cols, vals) = compress_rows((0..e).map(|i| m.row(i)));
                let total = m.total_count();
                let weights = if total == 0 {
                    vec![1.0 / e as f64; e]
                } else {
                    (0..e)
                        .map(|i| m.row_count(i) as f64 / total as f64)
                        .collect()
                };
                (row_ptr, cols, vals, weights)
            }),
        )
    }

    /// Build from a frozen [`AffinitySnapshot`] of the streaming estimator
    /// — the path the engine profiles through offline and re-places
    /// through online. Conditional rows come in CSR form (the dense
    /// `E x E` table is never materialized unless the backend asks for
    /// it) and source marginals come from the snapshot's decayed row mass,
    /// so a first-window snapshot defines the same objective — bit for
    /// bit — as [`Objective::from_affinities`] on that window's trace.
    /// Storage is selected per gap by [`GapBackend::Auto`].
    pub fn from_snapshot(snapshot: &AffinitySnapshot) -> Self {
        Self::from_snapshot_with(snapshot, GapBackend::Auto)
    }

    /// [`Objective::from_snapshot`] with an explicit backend override
    /// (`Dense` expands the CSR rows).
    pub fn from_snapshot_with(snapshot: &AffinitySnapshot, backend: GapBackend) -> Self {
        Self::from_gaps(
            snapshot.n_experts(),
            backend,
            (0..snapshot.n_gaps()).map(|gap| {
                let (row_ptr, cols, probs) = snapshot.gap_csr(gap);
                (
                    row_ptr.to_vec(),
                    cols.to_vec(),
                    probs.to_vec(),
                    snapshot.gap_weights(gap).to_vec(),
                )
            }),
        )
    }

    /// Build from raw flattened transition matrices (each row-stochastic
    /// `E x E`), e.g. a routing model's exact transitions, with uniform
    /// (balanced) source marginals. An empty `gaps` list models a
    /// single-layer (L = 1) instance with no transitions at all. Storage
    /// is selected per gap by [`GapBackend::Auto`].
    pub fn from_raw(gaps: Vec<Vec<f64>>, n_experts: usize) -> Self {
        Self::from_raw_with(gaps, n_experts, GapBackend::Auto)
    }

    /// [`Objective::from_raw`] with an explicit backend override.
    pub fn from_raw_with(gaps: Vec<Vec<f64>>, n_experts: usize, backend: GapBackend) -> Self {
        Self::from_gaps(
            n_experts,
            backend,
            gaps.iter().map(|flat| {
                assert_eq!(flat.len(), n_experts * n_experts);
                let (row_ptr, cols, vals) = compress_rows(flat.chunks(n_experts));
                let weights = vec![1.0 / n_experts as f64; n_experts];
                (row_ptr, cols, vals, weights)
            }),
        )
    }

    /// Fold a [`SnapshotDelta`] — the rows one streaming window actually
    /// changed — into the objective **in place**, instead of rebuilding it
    /// from the full snapshot.
    ///
    /// Postcondition (the incremental-maintenance contract, enforced by
    /// unit tests here and the cross-crate proptests): after this call the
    /// objective equals `Objective::from_snapshot_with(&s, backend)` —
    /// bit for bit — where `s` is the snapshot the estimator would freeze
    /// after the same `observe` call that produced the delta. That holds
    /// for values, for the storage choice (the `Auto` density rule is
    /// re-applied with the updated stored-cell count, so a gap can gain or
    /// lose its flat expansion mid-stream), and therefore for every
    /// downstream evaluation (`cross_mass`, `swap_delta`, the solvers).
    ///
    /// Untouched gaps cost nothing; a touched gap's stored-cell CSR is
    /// spliced (untouched rows copied, touched rows taken from the delta's
    /// fragments) and its companions re-derived by the same integer
    /// counting sort the constructors run. No floating-point arithmetic
    /// happens at all — stored probabilities move verbatim, which is what
    /// makes the bit-identity structural rather than numerical.
    pub fn apply_snapshot_delta(&mut self, delta: &SnapshotDelta) {
        assert_eq!(
            delta.n_experts(),
            self.n_experts,
            "delta expert count mismatch"
        );
        assert_eq!(delta.n_gaps(), self.gaps.len(), "delta gap count mismatch");
        let e = self.n_experts;
        for (gap, old) in self.gaps.iter_mut().enumerate() {
            // Marginal weights shift globally whenever any mass decays, so
            // the delta always carries each gap's vector whole.
            self.weights[gap].clear();
            self.weights[gap].extend_from_slice(delta.gap_weights(gap));
            let rows = delta.touched_rows(gap);
            if rows.is_empty() {
                continue;
            }
            let mut row_ptr = Vec::with_capacity(e + 1);
            row_ptr.push(0usize);
            let mut cols = Vec::with_capacity(old.cols.len());
            let mut vals = Vec::with_capacity(old.vals.len());
            let mut k = 0usize;
            for i in 0..e {
                let touched = rows.get(k) == Some(&i);
                let (c, v) = if touched {
                    delta.fragment(gap, k)
                } else {
                    old.row(i)
                };
                k += usize::from(touched);
                cols.extend_from_slice(c);
                vals.extend_from_slice(v);
                row_ptr.push(cols.len());
            }
            debug_assert_eq!(k, rows.len(), "delta rows must be ascending in [0, E)");
            *old = Gap::new(e, row_ptr, cols, vals, self.backend);
        }
    }

    /// The backend policy this objective was built with.
    pub fn backend(&self) -> GapBackend {
        self.backend
    }

    /// Experts per layer.
    pub fn n_experts(&self) -> usize {
        self.n_experts
    }

    /// Number of layer gaps (`L - 1`).
    pub fn n_gaps(&self) -> usize {
        self.gaps.len()
    }

    /// Number of layers (`gaps + 1`).
    pub fn n_layers(&self) -> usize {
        self.gaps.len() + 1
    }

    /// Whether `gap` is index-only (no flat expansion).
    pub fn gap_is_sparse(&self, gap: usize) -> bool {
        self.gaps[gap].flat.is_none()
    }

    /// Stored cells of one gap's conditional matrix (backend-independent).
    pub fn gap_nnz(&self, gap: usize) -> usize {
        self.gaps[gap].cols.len()
    }

    /// Stored cells across all gaps.
    pub fn nnz(&self) -> usize {
        self.gaps.iter().map(|g| g.cols.len()).sum()
    }

    /// `nnz` over the dense cell count (`gaps x E^2`); 0 for a gapless
    /// (single-layer) objective.
    pub fn density(&self) -> f64 {
        if self.gaps.is_empty() {
            return 0.0;
        }
        self.nnz() as f64 / (self.gaps.len() * self.n_experts * self.n_experts) as f64
    }

    /// The conditional probability `P(expert p at layer gap+1 | expert i at
    /// layer gap)` this objective was built from. `O(1)` flat,
    /// `O(log row-nnz)` otherwise.
    #[inline]
    pub fn gap_prob(&self, gap: usize, i: usize, p: usize) -> f64 {
        let g = &self.gaps[gap];
        if let Some(m) = &g.flat {
            return m[i * self.n_experts + p];
        }
        let (cols, vals) = g.row(i);
        match cols.binary_search(&p) {
            Ok(k) => vals[k],
            Err(_) => 0.0,
        }
    }

    /// The marginal weight of source expert `i` at layer `gap` (its share
    /// of traced tokens; `1/E` for balanced models).
    #[inline]
    pub fn row_weight(&self, gap: usize, i: usize) -> f64 {
        self.weights[gap][i]
    }

    /// Visit the stored entries of one conditional row in ascending column
    /// order: `f(p, P(p | i))`. `O(row-nnz)`; cells not stored are zero
    /// and cannot change any sum this crate accumulates.
    #[inline]
    pub fn for_each_in_row<F: FnMut(usize, f64)>(&self, gap: usize, i: usize, mut f: F) {
        let (cols, vals) = self.gaps[gap].row(i);
        for (&p, &v) in cols.iter().zip(vals) {
            f(p, v);
        }
    }

    /// Visit the stored entries of one conditional *column* in ascending
    /// row order: `f(i, P(p | i))` — the predecessor set the swap-gain
    /// cache invalidates when expert `p` moves. `O(col-nnz)` via the CSC
    /// companion.
    #[inline]
    pub fn for_each_in_col<F: FnMut(usize, f64)>(&self, gap: usize, p: usize, mut f: F) {
        let (rows, vals) = self.gaps[gap].col(p);
        for (&i, &v) in rows.iter().zip(vals) {
            f(i, v);
        }
    }

    /// Expected cross-unit transitions per token across the whole forward
    /// pass (lower is better; range `[0, L-1]`). `O(nnz)`.
    pub fn cross_mass(&self, placement: &Placement) -> f64 {
        assert_eq!(placement.n_layers(), self.n_layers());
        assert_eq!(placement.n_experts(), self.n_experts);
        let mut total = 0.0f64;
        for (gap, g) in self.gaps.iter().enumerate() {
            for (i, &w) in self.weights[gap].iter().enumerate() {
                if w == 0.0 {
                    continue;
                }
                let ui = placement.unit_of(gap, i);
                let (cols, vals) = g.row(i);
                let mut cross = 0.0f64;
                for (&p, &prob) in cols.iter().zip(vals) {
                    if placement.unit_of(gap + 1, p) != ui {
                        cross += prob;
                    }
                }
                total += w * cross;
            }
        }
        total
    }

    /// Expected fraction of layer transitions that stay on their unit
    /// (`1 - cross_mass / (L-1)`; the quantity behind the paper's Fig. 7
    /// bars). A single-layer model (no gaps) has no transitions to lose,
    /// so everything is local: 1.0, not the `0/0` NaN the naive formula
    /// yields.
    pub fn local_fraction(&self, placement: &Placement) -> f64 {
        if self.n_gaps() == 0 {
            assert_eq!(placement.n_layers(), self.n_layers());
            assert_eq!(placement.n_experts(), self.n_experts);
            return 1.0;
        }
        1.0 - self.cross_mass(placement) / self.n_gaps() as f64
    }

    /// Change in [`Objective::cross_mass`] if `e1` and `e2` swapped units
    /// at `layer` (negative = improvement). `O(E)` on flat gaps — the
    /// enabler for large-instance local search — and
    /// `O(col-nnz + row-nnz)` on index-only ones: the incoming direction
    /// walks the CSC index of columns `e1`/`e2`, the outgoing direction
    /// merges the CSR rows.
    pub fn swap_delta(&self, placement: &Placement, layer: usize, e1: usize, e2: usize) -> f64 {
        let e = self.n_experts;
        let u1 = placement.unit_of(layer, e1);
        let u2 = placement.unit_of(layer, e2);
        if u1 == u2 || e1 == e2 {
            return 0.0;
        }
        let mut delta = 0.0f64;
        // Incoming gap: transitions from layer-1 experts into e1/e2.
        if layer > 0 {
            let gap = layer - 1;
            let weights = &self.weights[gap];
            let mut incoming = |i: usize, p1: f64, p2: f64| {
                let w = weights[i];
                if w == 0.0 {
                    return;
                }
                let ui = placement.unit_of(gap, i);
                let before = f64::from(u1 != ui) * p1 + f64::from(u2 != ui) * p2;
                let after = f64::from(u2 != ui) * p1 + f64::from(u1 != ui) * p2;
                delta += w * (after - before);
            };
            let g = &self.gaps[gap];
            if let Some(m) = &g.flat {
                for i in 0..e {
                    incoming(i, m[i * e + e1], m[i * e + e2]);
                }
            } else {
                let (r1, v1) = g.col(e1);
                let (r2, v2) = g.col(e2);
                merge_indexed(r1, v1, r2, v2, incoming);
            }
        }
        // Outgoing gap: transitions from e1/e2 into layer+1 experts, each
        // row carrying its own marginal weight.
        if layer + 1 < self.n_layers() {
            let w1 = self.weights[layer][e1];
            let w2 = self.weights[layer][e2];
            let mut outgoing = |p: usize, p1: f64, p2: f64| {
                let up = placement.unit_of(layer + 1, p);
                let before = w1 * f64::from(up != u1) * p1 + w2 * f64::from(up != u2) * p2;
                let after = w1 * f64::from(up != u2) * p1 + w2 * f64::from(up != u1) * p2;
                delta += after - before;
            };
            let g = &self.gaps[layer];
            if let Some(m) = &g.flat {
                for p in 0..e {
                    outgoing(p, m[e1 * e + p], m[e2 * e + p]);
                }
            } else {
                let (c1, v1) = g.row(e1);
                let (c2, v2) = g.row(e2);
                merge_indexed(c1, v1, c2, v2, outgoing);
            }
        }
        delta
    }
}

/// Walk two index-sorted sparse vectors in lockstep, calling
/// `f(index, value_a, value_b)` for every index present in either (the
/// absent side contributes 0.0). The indices f sees are strictly
/// ascending — the same order the dense loops visit them in, which is
/// what keeps sparse and dense accumulation bit-identical.
#[inline]
fn merge_indexed<F: FnMut(usize, f64, f64)>(
    ia: &[usize],
    va: &[f64],
    ib: &[usize],
    vb: &[f64],
    mut f: F,
) {
    let (mut a, mut b) = (0usize, 0usize);
    while a < ia.len() || b < ib.len() {
        let ka = if a < ia.len() { ia[a] } else { usize::MAX };
        let kb = if b < ib.len() { ib[b] } else { usize::MAX };
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

/// Realized locality of a placement on a concrete routing trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceLocality {
    /// Total layer transitions counted (`tokens x (L-1)`).
    pub transitions: u64,
    /// Transitions where the next expert lived on the same unit.
    pub local: u64,
}

impl TraceLocality {
    /// Fraction of transitions that stayed unit-local.
    pub fn fraction(&self) -> f64 {
        if self.transitions == 0 {
            1.0
        } else {
            self.local as f64 / self.transitions as f64
        }
    }
}

/// Count, over a concrete trace, how many layer transitions stay on their
/// unit under `placement` (the measured counterpart of
/// [`Objective::local_fraction`]; the paper's "% tokens staying on the same
/// GPU", Fig. 7).
pub fn measure_trace_locality(trace: &RoutingTrace, placement: &Placement) -> TraceLocality {
    assert_eq!(trace.n_layers(), placement.n_layers());
    assert_eq!(trace.n_experts(), placement.n_experts());
    let mut local = 0u64;
    let mut transitions = 0u64;
    for t in 0..trace.n_tokens() {
        for j in 0..trace.n_layers() - 1 {
            let a = placement.unit_of(j, trace.expert_at(t, j));
            let b = placement.unit_of(j + 1, trace.expert_at(t, j + 1));
            transitions += 1;
            if a == b {
                local += 1;
            }
        }
    }
    TraceLocality { transitions, local }
}

/// Like [`measure_trace_locality`] but at node granularity: `placement`
/// assigns experts to GPUs (node-major ranks, `gpus_per_node` each) and a
/// transition counts as local when both GPUs share a node (Fig. 8).
pub fn measure_trace_node_locality(
    trace: &RoutingTrace,
    placement: &Placement,
    gpus_per_node: usize,
) -> TraceLocality {
    assert!(gpus_per_node >= 1 && placement.n_units().is_multiple_of(gpus_per_node));
    let mut local = 0u64;
    let mut transitions = 0u64;
    for t in 0..trace.n_tokens() {
        for j in 0..trace.n_layers() - 1 {
            let a = placement.unit_of(j, trace.expert_at(t, j)) / gpus_per_node;
            let b = placement.unit_of(j + 1, trace.expert_at(t, j + 1)) / gpus_per_node;
            transitions += 1;
            if a == b {
                local += 1;
            }
        }
    }
    TraceLocality { transitions, local }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Identity affinity: expert i always routes to expert i next.
    fn identity_objective(e: usize, gaps: usize) -> Objective {
        let mut m = vec![0.0f64; e * e];
        for i in 0..e {
            m[i * e + i] = 1.0;
        }
        Objective::from_raw(vec![m; gaps], e)
    }

    /// Shift affinity: expert i routes to (i+1) mod E.
    fn shift_objective(e: usize, gaps: usize) -> Objective {
        let mut m = vec![0.0f64; e * e];
        for i in 0..e {
            m[i * e + (i + 1) % e] = 1.0;
        }
        Objective::from_raw(vec![m; gaps], e)
    }

    /// A dense-ish random row-stochastic matrix.
    fn dense_matrix(e: usize) -> Vec<f64> {
        let mut m = vec![0.0f64; e * e];
        for i in 0..e {
            for p in 0..e {
                m[i * e + p] = ((i * 7 + p * 3) % 11) as f64 + 1.0;
            }
            let s: f64 = m[i * e..(i + 1) * e].iter().sum();
            for p in 0..e {
                m[i * e + p] /= s;
            }
        }
        m
    }

    #[test]
    fn identity_affinity_makes_round_robin_perfect() {
        let obj = identity_objective(8, 3);
        let p = Placement::round_robin(4, 8, 4);
        assert!(obj.cross_mass(&p) < 1e-12);
        assert!((obj.local_fraction(&p) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn shift_affinity_breaks_round_robin_at_boundaries() {
        // Capacity 2, shift-by-one: expert 1 -> 2 crosses, 3 -> 4 crosses,
        // etc. Half the experts cross per gap.
        let obj = shift_objective(8, 1);
        let p = Placement::round_robin(2, 8, 4);
        assert!((obj.cross_mass(&p) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn cross_mass_bounded_by_gaps() {
        let obj = shift_objective(4, 5);
        let p = Placement::round_robin(6, 4, 4); // capacity 1: every shift crosses
        assert!((obj.cross_mass(&p) - 5.0).abs() < 1e-12);
        assert!(obj.local_fraction(&p).abs() < 1e-12);
    }

    #[test]
    fn auto_selection_follows_the_density_threshold() {
        // Identity: density 1/8 << threshold -> sparse.
        let sparse = identity_objective(8, 2);
        assert!(sparse.gap_is_sparse(0) && sparse.gap_is_sparse(1));
        assert!((sparse.density() - 1.0 / 8.0).abs() < 1e-12);
        // Fully dense random matrix: density 1.0 -> dense.
        let dense = Objective::from_raw(vec![dense_matrix(6)], 6);
        assert!(!dense.gap_is_sparse(0));
        assert_eq!(dense.nnz(), 36);
    }

    #[test]
    fn explicit_backend_overrides_auto() {
        let m = dense_matrix(6);
        let forced = Objective::from_raw_with(vec![m.clone()], 6, GapBackend::Sparse);
        assert!(forced.gap_is_sparse(0));
        let forced_dense = Objective::from_raw_with(vec![vec![0.0; 36]], 6, GapBackend::Dense);
        assert!(!forced_dense.gap_is_sparse(0));
    }

    #[test]
    fn backends_agree_bitwise_on_everything() {
        let e = 8;
        let mut m = vec![0.0f64; e * e];
        for i in 0..e {
            m[i * e + (i + 1) % e] = 0.6;
            m[i * e + (i + 3) % e] = 0.4;
        }
        let dense = Objective::from_raw_with(vec![m.clone(), m.clone()], e, GapBackend::Dense);
        let sparse = Objective::from_raw_with(vec![m.clone(), m], e, GapBackend::Sparse);
        let p = Placement::round_robin(3, e, 4);
        assert_eq!(
            dense.cross_mass(&p).to_bits(),
            sparse.cross_mass(&p).to_bits()
        );
        for layer in 0..3 {
            for e1 in 0..e {
                for e2 in 0..e {
                    assert_eq!(
                        dense.swap_delta(&p, layer, e1, e2).to_bits(),
                        sparse.swap_delta(&p, layer, e1, e2).to_bits(),
                        "swap({layer},{e1},{e2})"
                    );
                    assert_eq!(
                        dense.gap_prob(layer.min(1), e1, e2).to_bits(),
                        sparse.gap_prob(layer.min(1), e1, e2).to_bits()
                    );
                }
            }
        }
    }

    #[test]
    fn row_iteration_skips_zeros_in_column_order() {
        let obj = shift_objective(6, 1);
        for backend in [GapBackend::Dense, GapBackend::Sparse] {
            let mut m = vec![0.0f64; 36];
            for i in 0..6 {
                m[i * 6 + (i + 1) % 6] = 1.0;
            }
            let o = Objective::from_raw_with(vec![m], 6, backend);
            let mut seen = Vec::new();
            o.for_each_in_row(0, 2, |p, v| seen.push((p, v)));
            assert_eq!(seen, vec![(3, 1.0)], "{backend:?}");
        }
        assert_eq!(obj.gap_nnz(0), 6);
    }

    #[test]
    fn single_layer_objective_is_fully_local() {
        // L = 1: no gaps, no transitions — the naive formula would be 0/0.
        let obj = Objective::from_raw(vec![], 8);
        assert_eq!(obj.n_layers(), 1);
        assert_eq!(obj.n_gaps(), 0);
        let p = Placement::round_robin(1, 8, 4);
        assert_eq!(obj.cross_mass(&p), 0.0);
        let f = obj.local_fraction(&p);
        assert_eq!(f, 1.0, "single-layer locality must be 1.0, got {f}");
        assert!(!f.is_nan());
        assert_eq!(obj.density(), 0.0);
    }

    #[test]
    fn swap_delta_matches_recomputation() {
        // Random-ish dense matrix; verify delta == full recompute diff on
        // both backends.
        let e = 6;
        let m = dense_matrix(e);
        for backend in [GapBackend::Dense, GapBackend::Sparse] {
            let obj = Objective::from_raw_with(vec![m.clone(), m.clone()], e, backend);
            let p = Placement::round_robin(3, e, 3);
            for layer in 0..3 {
                for e1 in 0..e {
                    for e2 in 0..e {
                        let delta = obj.swap_delta(&p, layer, e1, e2);
                        let mut q = p.clone();
                        q.swap(layer, e1, e2);
                        let full = obj.cross_mass(&q) - obj.cross_mass(&p);
                        assert!(
                            (delta - full).abs() < 1e-12,
                            "{backend:?} layer {layer} swap({e1},{e2}): delta {delta} vs {full}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn swap_delta_is_symmetric_bitwise() {
        // The swap-gain cache stores entries on the unordered pair, which
        // is sound only if both argument orders produce the same bits
        // (IEEE addition is commutative and both orders visit indices
        // ascending).
        let e = 8;
        let m = dense_matrix(e);
        for backend in [GapBackend::Dense, GapBackend::Sparse] {
            let obj = Objective::from_raw_with(vec![m.clone(), m.clone()], e, backend);
            let p = Placement::round_robin(3, e, 4);
            for layer in 0..3 {
                for e1 in 0..e {
                    for e2 in 0..e {
                        assert_eq!(
                            obj.swap_delta(&p, layer, e1, e2).to_bits(),
                            obj.swap_delta(&p, layer, e2, e1).to_bits(),
                            "{backend:?} swap({layer},{e1},{e2})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn swap_same_unit_is_free() {
        let obj = identity_objective(4, 2);
        let p = Placement::round_robin(3, 4, 2);
        // Experts 0,1 share unit 0.
        assert_eq!(obj.swap_delta(&p, 1, 0, 1), 0.0);
    }

    #[test]
    fn trace_locality_counts_by_hand() {
        let trace = RoutingTrace::new(vec![vec![0, 1, 2], vec![3, 3, 3]], 4);
        let p = Placement::round_robin(3, 4, 2); // units: {0,1}, {2,3}
                                                 // Token 0: 0->1 local, 1->2 cross. Token 1: 3->3 local, 3->3 local.
        let loc = measure_trace_locality(&trace, &p);
        assert_eq!(loc.transitions, 4);
        assert_eq!(loc.local, 3);
        assert!((loc.fraction() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn node_locality_is_coarser_than_gpu() {
        let trace = RoutingTrace::new(vec![vec![0, 1], vec![0, 3]], 4);
        let p = Placement::round_robin(2, 4, 4); // 1 expert per GPU
        let gpu = measure_trace_locality(&trace, &p);
        let node = measure_trace_node_locality(&trace, &p, 2); // 2 GPUs/node
                                                               // 0->1 crosses GPU but stays on node; 0->3 crosses both.
        assert_eq!(gpu.local, 0);
        assert_eq!(node.local, 1);
        assert!(node.fraction() >= gpu.fraction());
    }

    #[test]
    fn expected_and_measured_locality_agree_on_large_traces() {
        use exflow_model::routing::AffinityModelSpec;
        use exflow_model::{CorpusSpec, TokenBatch};
        let model = AffinityModelSpec::new(6, 8).with_affinity(0.7).build();
        let batch = TokenBatch::sample(&model, &CorpusSpec::pile_proxy(4), 20_000, 1, 3);
        let trace = RoutingTrace::from_batch(&batch, 8);
        let mats = AffinityMatrix::consecutive(&trace);
        let obj = Objective::from_affinities(&mats);
        let p = Placement::round_robin(6, 8, 4);
        let expected = obj.local_fraction(&p);
        let measured = measure_trace_locality(&trace, &p).fraction();
        assert!(
            (expected - measured).abs() < 0.02,
            "expected {expected} vs measured {measured}"
        );
    }

    /// One window through the CSR estimator defines the same objective,
    /// on both backends, as the dense estimate of the same trace.
    fn assert_snapshot_build_matches_dense(trace: &RoutingTrace, units: usize) {
        use exflow_affinity::StreamingAffinity;
        let (l, e) = (trace.n_layers(), trace.n_experts());
        let mut streaming = StreamingAffinity::new(l, e, 1.0);
        streaming.observe(trace);
        let snapshot = streaming.snapshot();
        let dense_mats = AffinityMatrix::consecutive(trace);
        let p = Placement::round_robin(l, e, units);
        for backend in [GapBackend::Dense, GapBackend::Sparse] {
            let online = Objective::from_snapshot_with(&snapshot, backend);
            let offline = Objective::from_affinities_with(&dense_mats, backend);
            assert_eq!(online.nnz(), offline.nnz());
            assert_eq!(
                online.cross_mass(&p).to_bits(),
                offline.cross_mass(&p).to_bits()
            );
            for gap in 0..l - 1 {
                for i in 0..e {
                    assert_eq!(
                        online.row_weight(gap, i).to_bits(),
                        offline.row_weight(gap, i).to_bits()
                    );
                    for j in 0..e {
                        assert_eq!(
                            online.gap_prob(gap, i, j).to_bits(),
                            offline.gap_prob(gap, i, j).to_bits()
                        );
                    }
                }
            }
            for layer in 0..l {
                for e1 in 0..e {
                    for e2 in 0..e {
                        assert_eq!(
                            online.swap_delta(&p, layer, e1, e2).to_bits(),
                            offline.swap_delta(&p, layer, e1, e2).to_bits(),
                            "{backend:?} swap({layer},{e1},{e2})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn snapshot_build_matches_dense_reference_build_bitwise() {
        use exflow_model::routing::AffinityModelSpec;
        use exflow_model::{CorpusSpec, TokenBatch, TrainingSimulator};
        let model = AffinityModelSpec::new(4, 16).with_affinity(0.9).build();
        let batch = TokenBatch::sample(&model, &CorpusSpec::pile_proxy(4), 2500, 1, 21);
        let trace = RoutingTrace::from_batch(&batch, 16);
        assert_snapshot_build_matches_dense(&trace, 4);
        // A collapsed early-training checkpoint (Fig. 12a): most experts
        // are never visited, so most rows take the uniform branch.
        let sim = TrainingSimulator::new(AffinityModelSpec::new(8, 16));
        let model = sim.model_at(0);
        let corpus = CorpusSpec::pile_proxy(model.n_domains());
        let batch = TokenBatch::sample(&model, &corpus, 4000, 1, 1000);
        let collapsed = RoutingTrace::from_batch(&batch, 16);
        let visited = collapsed
            .layer_histogram(0)
            .iter()
            .filter(|&&c| c > 0)
            .count();
        assert!(visited < 16, "{visited} experts visited: not collapsed");
        assert_snapshot_build_matches_dense(&collapsed, 4);
        // A truncated profile (Fig. 13's smallest budget).
        assert_snapshot_build_matches_dense(&trace.truncated(50), 4);
    }

    #[test]
    fn snapshot_delta_application_matches_cold_rebuild_bitwise() {
        use exflow_affinity::StreamingAffinity;
        use exflow_model::routing::AffinityModelSpec;
        use exflow_model::{CorpusSpec, TokenBatch};
        let model = AffinityModelSpec::new(4, 16).with_affinity(0.8).build();
        for backend in [GapBackend::Auto, GapBackend::Dense, GapBackend::Sparse] {
            let mut streaming = StreamingAffinity::new(4, 16, 0.5);
            let seed = TokenBatch::sample(&model, &CorpusSpec::pile_proxy(4), 800, 1, 3);
            streaming.observe(&RoutingTrace::from_batch(&seed, 16));
            let mut incremental = Objective::from_snapshot_with(&streaming.snapshot(), backend);
            for w in 0..6u64 {
                let batch = TokenBatch::sample(&model, &CorpusSpec::pile_proxy(4), 400, 1, 100 + w);
                let delta = streaming.observe_delta(&RoutingTrace::from_batch(&batch, 16));
                incremental.apply_snapshot_delta(&delta);
                let rebuilt = Objective::from_snapshot_with(&streaming.snapshot(), backend);
                assert_eq!(incremental, rebuilt, "{backend:?} window {w}");
                let p = Placement::round_robin(4, 16, 4);
                assert_eq!(
                    incremental.cross_mass(&p).to_bits(),
                    rebuilt.cross_mass(&p).to_bits()
                );
            }
        }
    }

    #[test]
    fn delta_can_flip_the_auto_storage_choice() {
        use exflow_affinity::StreamingAffinity;
        let e = 8usize;
        let mut streaming = StreamingAffinity::new(2, e, 1.0);
        // Window 1: the identity routing (i -> i); 8 of 64 cells -> CSR.
        let identity: Vec<Vec<u16>> = (0..e as u16).map(|i| vec![i, i]).collect();
        streaming.observe(&RoutingTrace::new(identity, e));
        let mut obj = Objective::from_snapshot(&streaming.snapshot());
        assert!(obj.gap_is_sparse(0));
        // Window 2: every (i -> p) pair appears; 64 of 64 cells -> the
        // Auto rule must flip the spliced gap to dense mid-stream.
        let all_pairs: Vec<Vec<u16>> = (0..e as u16)
            .flat_map(|i| (0..e as u16).map(move |p| vec![i, p]))
            .collect();
        let delta = streaming.observe_delta(&RoutingTrace::new(all_pairs, e));
        obj.apply_snapshot_delta(&delta);
        assert!(!obj.gap_is_sparse(0));
        assert_eq!(obj.gap_nnz(0), 64);
        assert_eq!(obj, Objective::from_snapshot(&streaming.snapshot()));
    }

    #[test]
    fn column_iteration_matches_row_structure_across_backends() {
        let e = 8;
        let mut m = vec![0.0f64; e * e];
        for i in 0..e {
            m[i * e + (i + 1) % e] = 0.7;
            m[i * e + (i + 5) % e] = 0.3;
        }
        for backend in [GapBackend::Dense, GapBackend::Sparse] {
            let o = Objective::from_raw_with(vec![m.clone()], e, backend);
            for p in 0..e {
                let mut seen = Vec::new();
                o.for_each_in_col(0, p, |i, v| seen.push((i, v)));
                let mut expect = Vec::new();
                for i in 0..e {
                    let v = m[i * e + p];
                    if v != 0.0 {
                        expect.push((i, v));
                    }
                }
                assert_eq!(seen, expect, "{backend:?} col {p}");
            }
        }
    }
}
