//! The synthetic routing process: a layer-to-layer Markov chain over experts
//! with controllable inter-layer affinity.
//!
//! This is the repo's stand-in for "tracing a pre-trained GPT MoE model on
//! the Pile" (paper §IV-B). The construction mirrors the two facts the paper
//! establishes about pre-trained models:
//!
//! 1. **Load balance** (Fig. 11): models trained with the GShard auxiliary
//!    loss route tokens near-uniformly across experts *marginally*. We get
//!    this for free by building every transition matrix as a convex mixture
//!    of permutation matrices and the uniform matrix — all doubly
//!    stochastic, so a uniform layer-0 marginal stays uniform at every layer.
//! 2. **Sparse conditional structure** (Fig. 2): *conditioned* on the expert
//!    at layer `j`, only a few experts at `j+1` are likely ("for each row,
//!    only a few columns are red"). The permutation mixture puts the
//!    conditional mass on `n_permutations` successors per expert; the
//!    `affinity` knob (κ) sets how much mass stays on them versus leaking
//!    uniformly.
//!
//! Domains model corpus heterogeneity: each domain blends a shared core
//! structure (weight `domain_share`) with domain-specific structure, which
//! is what makes affinity estimated on one corpus transfer to others
//! (Table III).
//!
//! **Storage.** Every cell a row's permutations miss holds the same value,
//! the *floor* `(1 - κ) / E` (exactly: the cell expression evaluated with
//! no permutation hit). So a [`RoutingModel`] keeps one floor and, for
//! every row of every (domain, gap) matrix, the row's *spikes* — the at
//! most `2 m` columns its `m` core and `m` domain permutations hit,
//! ascending, each with the value the cell expression gives it — plus the
//! row's total, its cells folded left to right. That is `O(L · D · E · m)`
//! memory where a dense table took `O(L · D · E²)`. A blend of two models
//! ([`RoutingModel::interpolate`]) blends the floors and the union of the
//! two spike lists, so it stays in this form. [`RoutingModel::transition`]
//! and [`RoutingModel::mixture_transition`] build the dense matrices on
//! demand; every cell has the bits the dense construction gave it.
//!
//! **Sampling.** A draw's target is `uniform * total`, and the sampler is
//! defined as the sequential scan that subtracts cell after cell from it.
//! An unrestricted draw first reads one byte: its row's guide entry for
//! the uniform's bucket, one of `G = (4E).next_power_of_two()` equal
//! ones, which names the cell every target of the bucket lands on where a
//! rounding margin proves the scan stops there at both of the bucket's
//! edges (the scan is monotone in its target, so the edges bound every
//! target between them). A draw the guide does not answer, or a top-2
//! second pick, walks the row's few segments to the cell whose computed
//! prefix sums bracket the target, and takes it only when the same margin
//! proves it (the proof is on the private `search`); otherwise, and for a
//! model restricted to active experts, it runs the scan run by run. A
//! model builds its guides on its first unrestricted draw, and only when
//! `E <= 255`, so that a cell index fits a byte. Every draw is the scan's,
//! so routes, traces and everything downstream keep their bits.

use std::ops::{ControlFlow, Range};
use std::sync::OnceLock;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters of the synthetic routing process.
#[derive(Debug, Clone, PartialEq)]
pub struct AffinityModelSpec {
    /// Number of MoE layers (the chain has `n_layers - 1` transitions).
    pub n_layers: usize,
    /// Experts per layer.
    pub n_experts: usize,
    /// Affinity concentration κ ∈ [0, 1]: fraction of conditional mass on
    /// the preferred successors. 0 → routing is independent across layers;
    /// 1 → routing is a deterministic function of the previous expert (up to
    /// the permutation mixture).
    pub affinity: f64,
    /// Number of permutation matrices mixed into the preferred structure,
    /// i.e. roughly how many "red columns" each heatmap row has.
    pub n_permutations: usize,
    /// Number of token domains (corpus heterogeneity).
    pub n_domains: usize,
    /// Weight of the domain-shared core structure versus domain-specific
    /// structure, ∈ [0, 1]. High values make affinity corpus-invariant.
    pub domain_share: f64,
    /// RNG seed; everything derived from it is deterministic.
    pub seed: u64,
}

impl AffinityModelSpec {
    /// A spec with the defaults used throughout the evaluation: strong
    /// affinity (κ=0.85), 2 preferred successors, 4 domains sharing 85% of
    /// structure — the regime the paper's Fig. 2 heatmaps display ("for
    /// each row ... only a few columns are red").
    pub fn new(n_layers: usize, n_experts: usize) -> Self {
        assert!(n_layers >= 1 && n_experts >= 1);
        AffinityModelSpec {
            n_layers,
            n_experts,
            affinity: 0.85,
            n_permutations: 2,
            n_domains: 4,
            domain_share: 0.85,
            seed: 0x5eed_ef10,
        }
    }

    /// Override the affinity concentration κ.
    pub fn with_affinity(mut self, affinity: f64) -> Self {
        assert!((0.0..=1.0).contains(&affinity), "κ must be in [0,1]");
        self.affinity = affinity;
        self
    }

    /// Override the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Build the concrete routing model.
    ///
    /// # Panics
    ///
    /// If the spec has more than 65 536 experts (routes and traces carry
    /// expert ids as `u16`), or κ or `domain_share` outside `[0, 1]` — the
    /// fields are public, so the checks of [`AffinityModelSpec::new`] and
    /// the `with_*` setters are not the only way in.
    pub fn build(&self) -> RoutingModel {
        RoutingModel::new(self.clone())
    }
}

/// splitmix64 — used to derive independent sub-seeds deterministically.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn sub_seed(seed: u64, parts: &[u64]) -> u64 {
    let mut s = mix(seed);
    for &p in parts {
        s = mix(s ^ p);
    }
    s
}

/// Sample a random permutation of `0..n` (Fisher–Yates).
fn random_permutation<R: Rng>(n: usize, rng: &mut R) -> Vec<usize> {
    let mut p: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        p.swap(i, j);
    }
    p
}

/// The most experts a model takes: routes and traces carry expert ids as
/// `u16`.
const MAX_EXPERTS: usize = 1 << 16;

/// A cell that is not the floor: its column and probability.
#[derive(Debug, Clone, Copy)]
struct Spike {
    col: u32,
    p: f64,
}

/// Every row of every transition matrix, `(domain, gap, from)`-major, as
/// its spikes; every other cell is the model's floor.
#[derive(Debug, Clone)]
struct Rows {
    /// Row `r`'s spikes are `spikes[starts[r]..starts[r + 1]]`, ascending
    /// by column.
    starts: Vec<usize>,
    spikes: Vec<Spike>,
    /// `totals[r]`: row `r`'s cells summed left to right — the normalizer
    /// of an unrestricted draw.
    totals: Vec<f64>,
}

impl Rows {
    /// No rows yet, and room for `rows` rows holding `spikes` spikes in all.
    fn with_capacity(rows: usize, spikes: usize) -> Self {
        let mut starts = Vec::with_capacity(rows + 1);
        starts.push(0);
        Rows {
            starts,
            spikes: Vec::with_capacity(spikes),
            totals: Vec::with_capacity(rows),
        }
    }

    /// Append a row whose spikes sit at `row.cols` (sorted and
    /// deduplicated here), cell `col` worth `value(col)`, with its total:
    /// the row spelled out in `row.cells` and folded left to right.
    fn push(&mut self, row: &mut RowScratch, value: impl Fn(usize) -> f64, floor: f64, e: usize) {
        row.cols.sort_unstable();
        row.cols.dedup();
        row.cells.clear();
        row.cells.resize(e, floor);
        for &col in &row.cols {
            let p = value(col);
            row.cells[col] = p;
            self.spikes.push(Spike { col: col as u32, p });
        }
        self.totals
            .push(row.cells.iter().fold(0.0f64, |total, &p| total + p));
        self.starts.push(self.spikes.len());
    }

    fn get(&self, r: usize) -> &[Spike] {
        &self.spikes[self.starts[r]..self.starts[r + 1]]
    }
}

/// What [`Rows::push`] reuses from row to row: the row's spike
/// columns, filled in by the caller, and its cells.
#[derive(Default)]
struct RowScratch {
    cols: Vec<usize>,
    cells: Vec<f64>,
}

/// Cell `col` of a row: its spike's value, or `floor`.
fn cell_at(row: &[Spike], col: usize, floor: f64) -> f64 {
    row.iter()
        .find(|s| s.col as usize == col)
        .map_or(floor, |s| s.p)
}

/// Visit a row's `e` cells in column order as runs of one value — the
/// floor over the columns before each spike (perhaps none), then the
/// spike — until `visit` breaks.
fn walk<B>(
    floor: f64,
    e: usize,
    row: &[Spike],
    mut visit: impl FnMut(Range<usize>, f64) -> ControlFlow<B>,
) -> ControlFlow<B> {
    let mut col = 0;
    for s in row {
        let c = s.col as usize;
        visit(col..c, floor)?;
        visit(c..c + 1, s.p)?;
        col = c + 1;
    }
    visit(col..e, floor)
}

/// A row's admissible cells summed left to right.
fn row_sum(floor: f64, e: usize, row: &[Spike], admissible: impl Fn(usize) -> bool) -> f64 {
    let mut total = 0.0f64;
    let _ = walk::<()>(floor, e, row, |cols, p| {
        for i in cols {
            if admissible(i) {
                total += p;
            }
        }
        ControlFlow::Continue(())
    });
    total
}

/// The sequential scan: walk the row's admissible cells in column order,
/// subtracting each from `target` until `target` falls below one; past
/// the end, the last admissible cell (`fallback` if there is none).
fn scan(
    floor: f64,
    e: usize,
    row: &[Spike],
    mut target: f64,
    admissible: impl Fn(usize) -> bool,
    mut fallback: usize,
) -> usize {
    let stop = walk(floor, e, row, |cols, p| {
        for i in cols {
            if admissible(i) {
                fallback = i;
                if target < p {
                    return ControlFlow::Break(i);
                }
                target -= p;
            }
        }
        ControlFlow::Continue(())
    });
    match stop {
        ControlFlow::Break(i) => i,
        ControlFlow::Continue(()) => fallback, // numerical edge: the last admissible expert
    }
}

/// The cell [`scan`] stops at, found without the scan: the segment (a
/// run of floor cells, or a spike) whose computed prefix sums bracket
/// `target`, then the cell within it. `None` unless a rounding margin
/// proves the scan stops there. The row is `floor` but at `spikes` (at
/// most `n_spikes`, ascending); a cell the scan skips is a zero spike here,
/// since subtracting 0 leaves the scan's value as skipping it does and a
/// value never falls below 0. `last` is the last cell the scan may
/// return, `total` the scan's normalizer (its admissible cells folded left
/// to right) and `target` a draw in `[0, total]`.
///
/// Why the margin is sufficient. Let `u = EPSILON / 2`, `p_i >= 0` the
/// cells (κ, `domain_share` and every blend weight lie in `[0, 1]`),
/// `S_k` the real sum of `p_0 .. p_(k-1)` and `t_i` the scan's value of
/// `target` on reaching cell `i`. While the scan continues,
/// `t_(i+1) = fl(t_i - p_i)` with `0 <= t_i - p_i <= t_i <= target`, so
/// each step is off by at most `u * target` and
/// `|t_i - (target - S_i)| <= i * u * target <= E * u * total`. The scan
/// therefore passes every cell before `k` if `target >= S_k + E u total`,
/// and stops at `k` if also `target + E u total < S_(k+1)`; at `k = 0`
/// the first condition holds outright, and at `k = last` the second is
/// not needed (past `last` the scan falls back to it). The skipped cell
/// is never `last`, and it never passes: both conditions at once need
/// `hi_k - lo_k > 2 * margin`, and where the first is waived, at `k = 0`,
/// the second reads `target < -margin`. The computed `lo_k` and `hi_k`
/// are recursive sums of the same real terms — spikes, and runs of `n`
/// floor cells formed as `n * floor` — with at most `2 m + 2` additions
/// over `m` spikes, so by the `gamma_j = j u / (1 - j u)` bound each lies
/// within `gamma_(2m + 3)` of `S_k` and `S_(k+1)`, and both of those are
/// below `2 * total` (`total` is itself within `gamma_(E - 1)` of the real
/// row sum, and `E <= 65 536`). To first order the two conditions need a
/// margin of `(E + 8 m + 16) * u * total`; the one used,
/// `(E + 4 m + 16) * EPSILON * total`, is more than that, which also covers
/// the second-order terms and the rounding of the margin and of
/// `lo_k + margin`, `hi_k - margin`. A draw this fails to settle goes to
/// the scan itself, so every draw is the scan's.
///
/// Certifying a bucket of uniforms. [`guide_row`] gives the uniforms
/// `[b / G, (b + 1) / G)` cell `k` only when this certificate, with `k`'s
/// bounds formed as here, holds at both edge targets `fl(b / G * total)`
/// and `fl((b + 1) / G * total)`, so the scan stops at `k` from both.
/// Every uniform of the bucket has a target between the two, since
/// `fl(u * total)` is monotone in `u`; and the scan is monotone in its
/// target: `fl(t - p)` is monotone in `t`, so each `t_i` is, and a larger
/// target stops at the same cell or a later one. So a target between two
/// that stop at `k` stops at `k`. The upper edge is the bucket's open end,
/// so this holds for any `u` in the bucket, not only for the multiples of
/// `2^-53` the generator yields.
fn search(
    floor: f64,
    e: usize,
    spikes: impl IntoIterator<Item = (usize, f64)>,
    n_spikes: usize,
    last: usize,
    total: f64,
    target: f64,
) -> Option<usize> {
    // Cell of the floor run over columns `start..end` that begins at `lo`.
    let in_run = |start: usize, end: usize, lo: f64| {
        let j = (((target - lo) / floor) as usize).min(end - start - 1);
        let lo_k = lo + j as f64 * floor;
        (start + j, lo_k, lo_k + floor)
    };
    let mut lo = 0.0f64;
    let mut col = 0;
    let mut last_spike = None;
    let mut found = None;
    for (c, p) in spikes {
        if c > col {
            let hi = lo + (c - col) as f64 * floor;
            if target < hi {
                found = Some(in_run(col, c, lo));
                break;
            }
            lo = hi;
        }
        let hi = lo + p;
        last_spike = Some((c, lo, hi));
        if target < hi {
            found = last_spike;
            break;
        }
        lo = hi;
        col = c + 1;
    }
    let cell = match found {
        Some(cell) => cell,
        None if col < e => in_run(col, e, lo),
        // The last cell is a spike and `target` lies past it.
        None => last_spike?,
    };
    certified(cell, margin(e, n_spikes, total), last)
        .contains(&target)
        .then_some(cell.0)
}

/// [`search`]'s rounding margin for a row of `e` cells, `n_spikes` of them
/// spikes, that sums to `total`.
fn margin(e: usize, n_spikes: usize, total: f64) -> f64 {
    (e + 4 * n_spikes + 16) as f64 * f64::EPSILON * total
}

/// The targets `margin` proves the scan stops at cell `k` for, whose
/// computed prefix sums are `lo_k` and `hi_k`: `lo_k + margin ..
/// hi_k - margin`, unbounded below at `k = 0` and above at `last`, the
/// last cell the scan may return.
fn certified((k, lo_k, hi_k): (usize, f64, f64), margin: f64, last: usize) -> Range<f64> {
    let inf = f64::INFINITY;
    let above = if k == 0 { -inf } else { lo_k + margin };
    let below = if k == last { inf } else { hi_k - margin };
    above..below
}

/// A guide entry no cell is certified for: the draw goes to the search.
const MISS: u8 = u8::MAX;

/// Guide buckets per row of a model with `e` experts: a power of two, so
/// `u * G` and `b / G` are exact.
fn buckets(e: usize) -> usize {
    (4 * e).next_power_of_two()
}

/// Fill `out`, the guide of one row of `e` cells summing to `total`, with
/// `out.len()` buckets: entry `b` is the cell `k` whose [`certified`]
/// targets hold both of the bucket's edge targets `(b / G) * total` and
/// `((b + 1) / G) * total` (see [`search`]), and stays [`MISS`] where no
/// cell's do. Each cell's bounds are formed as `search` forms them, and its
/// buckets are found from the two ends of its certified targets, so a
/// row costs its segments, its cells in runs at least a bucket wide (a
/// narrower cell holds no bucket whole), and the fill.
fn guide_row(floor: f64, e: usize, row: &[Spike], total: f64, out: &mut [u8]) {
    let (g, margin) = (out.len(), margin(e, row.len(), total));
    let scale = 1.0 / g as f64;
    let (per_target, last_edge) = (g as f64 / total, g as f64);
    let edge = |b: f64| (b * scale) * total;
    // The first bucket edge at or past `x`, or `G + 1`: edges ascend in
    // `b`, and `x / total * G` rounded up is at most an edge off. (Edges
    // are counted in `f64`, exact to 2^53, to keep integer conversions out
    // of the loops.)
    let first_edge = |x: f64| {
        let mut b = (x * per_target).ceil().clamp(0.0, last_edge + 1.0);
        while b > 0.0 && edge(b - 1.0) >= x {
            b -= 1.0;
        }
        while b <= last_edge && edge(b) < x {
            b += 1.0;
        }
        b as usize
    };
    let mut lo = 0.0f64;
    let _ = walk::<()>(floor, e, row, |cols, p| {
        if p >= total * scale {
            for (j, k) in cols.clone().enumerate() {
                let lo_k = lo + j as f64 * p;
                let targets = certified((k, lo_k, lo_k + p), margin, e - 1);
                // Bucket `b` holds when `edge(b)` and `edge(b + 1)` do.
                let (from, to) = (first_edge(targets.start), first_edge(targets.end));
                if from + 1 < to {
                    out[from..to - 1].fill(k as u8);
                }
            }
        }
        lo += cols.len() as f64 * p;
        ControlFlow::Continue(())
    });
}

#[cfg(test)]
thread_local! {
    /// Draws [`search`] left to the scan, on this thread.
    static FALLBACKS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    /// Draws a guide entry answered, on this thread.
    static GUIDED: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// The concrete Markov routing process. See the module docs for the
/// construction; all matrices are row-stochastic and (in the unrestricted
/// case) doubly stochastic.
#[derive(Debug, Clone)]
pub struct RoutingModel {
    spec: AffinityModelSpec,
    /// The value of every cell no row lists as a spike.
    floor: f64,
    /// Row `from` of the transition from layer `gap` to `gap + 1` for
    /// `domain` is row [`RoutingModel::row_index`].
    rows: Rows,
    /// Optional restriction to a subset of active experts (used by the
    /// training simulator to model early-training expert collapse).
    active: Option<Vec<bool>>,
    /// Every row's [`guide_row`], [`buckets`] entries each, in row order;
    /// built on the first unrestricted draw, and empty when a cell index
    /// does not fit below [`MISS`].
    guide: OnceLock<Vec<u8>>,
}

impl RoutingModel {
    /// See [`AffinityModelSpec::build`].
    fn new(spec: AffinityModelSpec) -> Self {
        let e = spec.n_experts;
        assert!(
            e <= MAX_EXPERTS,
            "expert ids are u16, so a routing model has at most {MAX_EXPERTS} experts; got {e}"
        );
        let (mu, kappa) = (spec.domain_share, spec.affinity);
        assert!(
            (0.0..=1.0).contains(&kappa) && (0.0..=1.0).contains(&mu),
            "κ and domain_share must be in [0,1]"
        );
        let gaps = spec.n_layers.saturating_sub(1);
        let uniform = 1.0 / e as f64;
        let weight = 1.0 / spec.n_permutations as f64;
        // `sums[n]`: `n` permutations' weights added up one at a time.
        let sums: Vec<f64> = (0..=spec.n_permutations)
            .scan(0.0f64, |sum, _| {
                let before = *sum;
                *sum += weight;
                Some(before)
            })
            .collect();
        // The value of a cell that `core` core permutations and `dom`
        // domain permutations map to: their weights summed, blended, and
        // leaked towards uniform.
        let cell = |core: usize, dom: usize| {
            let s = mu * sums[core] + (1.0 - mu) * sums[dom];
            kappa * s + (1.0 - kappa) * uniform
        };
        let floor = cell(0, 0);
        let permutations = |tag: &[u64]| -> Vec<Vec<usize>> {
            (0..spec.n_permutations as u64)
                .map(|i| {
                    let parts: Vec<u64> = tag.iter().copied().chain([i]).collect();
                    let mut rng = StdRng::seed_from_u64(sub_seed(spec.seed, &parts));
                    random_permutation(e, &mut rng)
                })
                .collect()
        };
        // Shared core structure: per gap, m permutations.
        let core: Vec<_> = (0..gaps)
            .map(|gap| permutations(&[1, gap as u64]))
            .collect();
        let n_rows = spec.n_domains * gaps * e;
        let mut rows = Rows::with_capacity(
            n_rows,
            n_rows * spec.n_permutations.saturating_mul(2).min(e),
        );
        let mut row = RowScratch::default();
        for d in 0..spec.n_domains {
            for (gap, core) in core.iter().enumerate() {
                // Domain-specific structure.
                let dom = permutations(&[2, gap as u64, d as u64]);
                for from in 0..e {
                    let hits = |perms: &[Vec<usize>], col: usize| {
                        perms.iter().filter(|p| p[from] == col).count()
                    };
                    row.cols.clear();
                    row.cols.extend(core.iter().chain(&dom).map(|p| p[from]));
                    let value = |col| cell(hits(core, col), hits(&dom, col));
                    rows.push(&mut row, value, floor, e);
                }
            }
        }
        RoutingModel {
            spec,
            floor,
            rows,
            active: None,
            guide: OnceLock::new(),
        }
    }

    /// Where row `from` of `domain`'s transition from layer `gap` sits in
    /// [`RoutingModel::rows`].
    fn row_index(&self, domain: usize, gap: usize, from: usize) -> usize {
        (domain * self.spec.n_layers.saturating_sub(1) + gap) * self.spec.n_experts + from
    }

    /// The spec this model was built from.
    pub fn spec(&self) -> &AffinityModelSpec {
        &self.spec
    }

    /// Number of MoE layers.
    pub fn n_layers(&self) -> usize {
        self.spec.n_layers
    }

    /// Experts per layer.
    pub fn n_experts(&self) -> usize {
        self.spec.n_experts
    }

    /// Number of domains.
    pub fn n_domains(&self) -> usize {
        self.spec.n_domains
    }

    /// Restrict routing to a subset of experts (training-collapse model).
    /// Pass `None` to lift the restriction.
    pub fn set_active_experts(&mut self, active: Option<Vec<usize>>) {
        self.active = active.map(|list| {
            assert!(!list.is_empty(), "active set must be non-empty");
            let mut mask = vec![false; self.spec.n_experts];
            for idx in list {
                assert!(idx < self.spec.n_experts, "active expert out of range");
                mask[idx] = true;
            }
            mask
        });
    }

    /// Exact transition matrix (flattened row-major `E x E`, built on
    /// demand) for `domain` between layers `gap` and `gap + 1`, ignoring
    /// any active restriction.
    pub fn transition(&self, domain: usize, gap: usize) -> Vec<f64> {
        assert!(
            domain < self.spec.n_domains && gap + 1 < self.spec.n_layers,
            "no transition for domain {domain}, gap {gap}"
        );
        let e = self.spec.n_experts;
        let mut out = Vec::with_capacity(e * e);
        for from in 0..e {
            let row = self.rows.get(self.row_index(domain, gap, from));
            let _ = walk::<()>(self.floor, e, row, |cols, p| {
                out.extend(cols.map(|_| p));
                ControlFlow::Continue(())
            });
        }
        out
    }

    /// Convex interpolation towards `other`: every domain/gap transition
    /// matrix becomes `(1 - alpha) * self + alpha * other`. Both models
    /// must share a shape (layers, experts, domains). The blend of two
    /// row-stochastic (indeed doubly stochastic) matrices is again doubly
    /// stochastic, so load balance survives interpolation — this is the
    /// primitive behind the smooth routing-drift presets in
    /// [`crate::drift`]. Any active-expert restriction is dropped (drift
    /// models serve fully-trained checkpoints). The blend's spikes are the
    /// union of the two models' spikes, row by row.
    pub fn interpolate(&self, other: &RoutingModel, alpha: f64) -> RoutingModel {
        assert!((0.0..=1.0).contains(&alpha), "alpha must be in [0,1]");
        assert_eq!(self.spec.n_layers, other.spec.n_layers, "layer mismatch");
        assert_eq!(self.spec.n_experts, other.spec.n_experts, "expert mismatch");
        assert_eq!(self.spec.n_domains, other.spec.n_domains, "domain mismatch");
        let e = self.spec.n_experts;
        let blend = |a: f64, b: f64| (1.0 - alpha) * a + alpha * b;
        let floor = blend(self.floor, other.floor);
        let n_rows = self.rows.totals.len();
        let room = self.rows.spikes.len() + other.rows.spikes.len();
        let mut rows = Rows::with_capacity(n_rows, room);
        let mut row = RowScratch::default();
        for r in 0..n_rows {
            let (ra, rb) = (self.rows.get(r), other.rows.get(r));
            row.cols.clear();
            row.cols.extend(ra.iter().chain(rb).map(|s| s.col as usize));
            let value = |col| blend(cell_at(ra, col, self.floor), cell_at(rb, col, other.floor));
            rows.push(&mut row, value, floor, e);
        }
        RoutingModel {
            spec: self.spec.clone(),
            floor,
            rows,
            active: None,
            guide: OnceLock::new(),
        }
    }

    /// Domain-mixture transition matrix for `gap`, weighted by `weights`
    /// (will be normalized; length must equal `n_domains`).
    pub fn mixture_transition(&self, weights: &[f64], gap: usize) -> Vec<f64> {
        assert_eq!(weights.len(), self.spec.n_domains);
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0, "weights must not all be zero");
        let e = self.spec.n_experts;
        let mut out = vec![0.0f64; e * e];
        for (d, &w) in weights.iter().enumerate() {
            let w = w / total;
            for (o, v) in out.iter_mut().zip(self.transition(d, gap)) {
                *o += w * v;
            }
        }
        out
    }

    /// Row `from`'s total for `domain` and `gap`: what an unrestricted
    /// draw scales its uniform by.
    #[cfg(test)]
    fn row_total(&self, domain: usize, gap: usize, from: usize) -> f64 {
        self.rows.totals[self.row_index(domain, gap, from)]
    }

    /// The expert a draw from row `from`, every cell admissible but
    /// `exclude`, lands on at an explicit `target` in `[0, total]`, where
    /// `total` sums the admissible cells.
    #[cfg(test)]
    fn next_at(
        &self,
        domain: usize,
        gap: usize,
        from: usize,
        target: f64,
        exclude: Option<usize>,
    ) -> usize {
        let row = self.rows.get(self.row_index(domain, gap, from));
        let total = row_sum(self.floor, self.spec.n_experts, row, |i| Some(i) != exclude);
        self.pick(row, total, target, exclude, from)
    }

    /// Sample the layer-0 expert for a token of `domain`.
    fn sample_first<R: Rng>(&self, rng: &mut R) -> usize {
        let e = self.spec.n_experts;
        match &self.active {
            None => rng.gen_range(0..e),
            Some(mask) => {
                let actives = || (0..e).filter(|&i| mask[i]);
                let pick = rng.gen_range(0..actives().count());
                actives().nth(pick).expect("pick < count")
            }
        }
    }

    /// Where a draw at `target` from `row` lands when every cell but
    /// `exclude` is admissible: the certified search — the excluded cell
    /// taken as a zero spike, which the scan passes just as it skips it,
    /// and the last admissible cell as the last — or the scan when the
    /// search cannot settle it.
    fn pick(
        &self,
        row: &[Spike],
        total: f64,
        target: f64,
        exclude: Option<usize>,
        from: usize,
    ) -> usize {
        let e = self.spec.n_experts;
        let cell = |s: &Spike| (s.col as usize, s.p);
        let found = match exclude {
            None => search(
                self.floor,
                e,
                row.iter().map(cell),
                row.len(),
                e - 1,
                total,
                target,
            ),
            Some(x) => {
                let (before, rest) = row.split_at(row.partition_point(|s| (s.col as usize) < x));
                let after = match rest.split_first() {
                    Some((s, tail)) if s.col as usize == x => tail,
                    _ => rest,
                };
                let spikes = before
                    .iter()
                    .map(cell)
                    .chain([(x, 0.0)])
                    .chain(after.iter().map(cell));
                let last = if x == e - 1 { e - 2 } else { e - 1 };
                search(self.floor, e, spikes, row.len() + 1, last, total, target)
            }
        };
        found.unwrap_or_else(|| {
            #[cfg(test)]
            FALLBACKS.with(|n| n.set(n.get() + 1));
            scan(self.floor, e, row, target, |i| Some(i) != exclude, from)
        })
    }

    /// Where an unrestricted draw from row `r` (row `from` of its table)
    /// lands when the generator yields `u` in `[0, 1)`: the target
    /// `u * total`, every cell admissible. The guide entry of `u`'s bucket
    /// when it names a cell, else [`RoutingModel::pick`].
    fn draw(&self, r: usize, from: usize, u: f64) -> usize {
        debug_assert!((0.0..1.0).contains(&u), "a uniform in [0, 1)");
        let g = buckets(self.spec.n_experts);
        match self.guide().get(r * g + (u * g as f64) as usize) {
            Some(&k) if k != MISS => {
                #[cfg(test)]
                GUIDED.with(|n| n.set(n.get() + 1));
                usize::from(k)
            }
            _ => {
                let total = self.rows.totals[r];
                self.pick(self.rows.get(r), total, u * total, None, from)
            }
        }
    }

    /// Every row's guide, built on first use.
    fn guide(&self) -> &[u8] {
        self.guide.get_or_init(|| {
            let e = self.spec.n_experts;
            if e > usize::from(MISS) {
                return Vec::new();
            }
            let g = buckets(e);
            let mut guide = vec![MISS; self.rows.totals.len() * g];
            for (r, out) in guide.chunks_exact_mut(g).enumerate() {
                guide_row(self.floor, e, self.rows.get(r), self.rows.totals[r], out);
            }
            guide
        })
    }

    /// [`RoutingModel::draw`] from row `from` of `domain`'s transition
    /// from layer `gap`.
    #[cfg(test)]
    fn draw_at(&self, domain: usize, gap: usize, from: usize, u: f64) -> usize {
        self.draw(self.row_index(domain, gap, from), from, u)
    }

    /// Sample the next expert given the current one, restricted to the
    /// active set (if any) and excluding `exclude` (for top-2's second pick).
    fn sample_next<R: Rng>(
        &self,
        rng: &mut R,
        domain: usize,
        gap: usize,
        from: usize,
        exclude: Option<usize>,
    ) -> usize {
        let e = self.spec.n_experts;
        let r = self.row_index(domain, gap, from);
        let Some(mask) = &self.active else {
            let Some(x) = exclude else {
                return self.draw(r, from, rng.gen::<f64>());
            };
            let row = self.rows.get(r);
            let total = row_sum(self.floor, e, row, |i| i != x);
            return self.pick(row, total, rng.gen::<f64>() * total, exclude, from);
        };
        let row = self.rows.get(r);
        let admissible = |i: usize| Some(i) != exclude && mask[i];
        let total = row_sum(self.floor, e, row, admissible);
        debug_assert!(total > 0.0, "renormalized row must have mass");
        scan(
            self.floor,
            e,
            row,
            rng.gen::<f64>() * total,
            admissible,
            from,
        )
    }

    /// Append one top-k route to `out`, flat: layer by layer, `k` distinct
    /// experts each, the primary first. The draws are the primary walk
    /// over every layer, then the second picks layer by layer.
    ///
    /// # Panics
    ///
    /// Unless `k` is 1 or 2 (the two [`crate::GateKind`]s) and at most the
    /// expert count, or if `domain` is out of range — before any draw.
    pub fn sample_route_into<R: Rng>(
        &self,
        rng: &mut R,
        domain: usize,
        k: usize,
        out: &mut Vec<u16>,
    ) {
        assert!(
            (k == 1 || k == 2) && k <= self.spec.n_experts,
            "top-k routes have k = 1 or 2 experts per layer, at most the {} there are; got k = {k}",
            self.spec.n_experts
        );
        assert!(domain < self.spec.n_domains, "domain out of range");
        let start = out.len();
        out.resize(start + self.spec.n_layers * k, 0);
        let route = &mut out[start..];
        let mut cur = self.sample_first(rng);
        route[0] = cur as u16;
        for gap in 0..self.spec.n_layers - 1 {
            cur = self.sample_next(rng, domain, gap, cur, None);
            route[(gap + 1) * k] = cur as u16;
        }
        if k == 2 {
            for layer in 0..self.spec.n_layers {
                let p = usize::from(route[2 * layer]);
                let second = if layer == 0 {
                    // No previous layer: second expert uniform among others.
                    let s = rng.gen_range(0..self.spec.n_experts - 1);
                    s + usize::from(s >= p)
                } else {
                    let from = usize::from(route[2 * (layer - 1)]);
                    self.sample_next(rng, domain, layer - 1, from, Some(p))
                };
                route[2 * layer + 1] = second as u16;
            }
        }
    }
}

#[cfg(test)]
#[path = "routing_oracle.rs"]
pub(crate) mod oracle;

#[cfg(test)]
mod tests {
    use super::*;

    fn model(e: usize, l: usize, kappa: f64) -> RoutingModel {
        AffinityModelSpec::new(l, e).with_affinity(kappa).build()
    }

    #[test]
    fn transitions_are_row_stochastic() {
        let m = model(16, 6, 0.9);
        for d in 0..m.n_domains() {
            for gap in 0..5 {
                let t = m.transition(d, gap);
                for row in 0..16 {
                    let s: f64 = t[row * 16..(row + 1) * 16].iter().sum();
                    assert!((s - 1.0).abs() < 1e-9, "row {row} sums to {s}");
                }
            }
        }
    }

    #[test]
    fn transitions_are_doubly_stochastic() {
        // Column sums are 1 too (permutation mixtures), which is what keeps
        // the marginal load balanced at every layer.
        let m = model(8, 4, 0.7);
        let t = m.transition(0, 0);
        for col in 0..8 {
            let s: f64 = (0..8).map(|row| t[row * 8 + col]).sum();
            assert!((s - 1.0).abs() < 1e-9, "col {col} sums to {s}");
        }
    }

    #[test]
    fn zero_affinity_is_uniform() {
        let m = model(8, 3, 0.0);
        for p in m.transition(0, 0) {
            assert!((p - 0.125).abs() < 1e-12);
        }
    }

    #[test]
    fn high_affinity_concentrates_rows() {
        let m = model(32, 3, 0.95);
        let t = m.transition(0, 0);
        // Each row mixes n_permutations core + n_permutations domain
        // successors, so the top 6 columns must hold ~95% of the mass —
        // the "only a few columns are red" structure of Fig. 2.
        for row in 0..32 {
            let mut probs: Vec<f64> = t[row * 32..(row + 1) * 32].to_vec();
            probs.sort_by(|a, b| b.total_cmp(a));
            let top6: f64 = probs[..6].iter().sum();
            assert!(top6 > 0.9, "row {row} top6 mass {top6}");
        }
    }

    #[test]
    fn pure_affinity_routing_is_natively_sparse() {
        // κ = 1: no uniform leak, each row holds at most the core +
        // domain permutation successors.
        let m = AffinityModelSpec::new(3, 64).with_affinity(1.0).build();
        for (i, row) in m.transition(0, 0).chunks(64).enumerate() {
            let nnz = row.iter().filter(|&&v| v != 0.0).count();
            assert!((1..=4).contains(&nnz), "row {i} has {nnz} cells");
        }
        // With leak, every cell is alive.
        let leaky = AffinityModelSpec::new(3, 64).with_affinity(0.9).build();
        assert!(leaky.transition(0, 0).iter().all(|&v| v != 0.0));
    }

    /// One top-1 path: the primary expert of every layer.
    fn sample_path(m: &RoutingModel, rng: &mut StdRng, domain: usize) -> Vec<u16> {
        let mut path = Vec::new();
        m.sample_route_into(rng, domain, 1, &mut path);
        path
    }

    #[test]
    fn paths_have_one_expert_per_layer() {
        let m = model(8, 12, 0.8);
        let mut rng = StdRng::seed_from_u64(1);
        let p = sample_path(&m, &mut rng, 0);
        assert_eq!(p.len(), 12);
        assert!(p.iter().all(|&e| (e as usize) < 8));
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let m = model(8, 12, 0.8);
        let p1 = sample_path(&m, &mut StdRng::seed_from_u64(9), 1);
        let p2 = sample_path(&m, &mut StdRng::seed_from_u64(9), 1);
        assert_eq!(p1, p2);
    }

    #[test]
    fn marginal_stays_balanced() {
        // With doubly stochastic transitions and a uniform start, every
        // layer's expert distribution is near-uniform over many samples.
        let m = model(8, 6, 0.9);
        let mut rng = StdRng::seed_from_u64(5);
        let mut counts = vec![vec![0usize; 8]; 6];
        let n = 8000;
        for _ in 0..n {
            let d = rng.gen_range(0..m.n_domains());
            for (layer, &e) in sample_path(&m, &mut rng, d).iter().enumerate() {
                counts[layer][e as usize] += 1;
            }
        }
        for (layer, layer_counts) in counts.iter().enumerate() {
            for &c in layer_counts {
                let share = c as f64 / n as f64;
                assert!((share - 0.125).abs() < 0.04, "layer {layer} share {share}");
            }
        }
    }

    #[test]
    fn empirical_transitions_match_exact() {
        let m = model(4, 2, 0.8);
        let mut rng = StdRng::seed_from_u64(11);
        let n = 60_000;
        let mut joint = [0usize; 16];
        let mut first = [0usize; 4];
        for _ in 0..n {
            let p = sample_path(&m, &mut rng, 0);
            joint[p[0] as usize * 4 + p[1] as usize] += 1;
            first[p[0] as usize] += 1;
        }
        let t = m.transition(0, 0);
        for i in 0..4 {
            for j in 0..4 {
                let emp = joint[i * 4 + j] as f64 / first[i] as f64;
                assert!(
                    (emp - t[i * 4 + j]).abs() < 0.02,
                    "P({j}|{i}) empirical {emp} vs exact {}",
                    t[i * 4 + j]
                );
            }
        }
    }

    #[test]
    fn top2_routes_have_distinct_experts() {
        let m = model(8, 6, 0.8);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..50 {
            let mut route = Vec::new();
            m.sample_route_into(&mut rng, 0, 2, &mut route);
            assert_eq!(route.len(), 2 * 6);
            for layer in route.chunks_exact(2) {
                assert_ne!(layer[0], layer[1]);
            }
        }
    }

    #[test]
    #[should_panic(expected = "k = 1 or 2 experts per layer")]
    fn top3_routes_are_rejected_before_any_draw() {
        // Only the two gates exist; a third slot was never drawn, so a
        // k = 3 route used to come back with one expert per layer.
        let m = model(8, 6, 0.8);
        m.sample_route_into(&mut StdRng::seed_from_u64(3), 0, 3, &mut Vec::new());
    }

    #[test]
    fn active_restriction_confines_routing() {
        let mut m = model(8, 6, 0.8);
        m.set_active_experts(Some(vec![1, 4]));
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..50 {
            let p = sample_path(&m, &mut rng, 0);
            assert!(p.iter().all(|&e| e == 1 || e == 4));
        }
        m.set_active_experts(None);
        let p = sample_path(&m, &mut rng, 0);
        assert_eq!(p.len(), 6);
    }

    #[test]
    fn domains_share_core_structure() {
        // With domain_share=1.0 all domains have identical transitions.
        let spec = |domain_share| AffinityModelSpec {
            n_domains: 3,
            domain_share,
            ..AffinityModelSpec::new(4, 8)
        };
        let m = spec(1.0).build();
        let t0 = m.transition(0, 0).to_vec();
        for d in 1..3 {
            assert_eq!(m.transition(d, 0), &t0[..]);
        }
        // With domain_share=0.0 they differ.
        let m2 = spec(0.0).build();
        assert_ne!(m2.transition(0, 0), m2.transition(1, 0));
    }

    #[test]
    fn mixture_transition_interpolates() {
        let m = model(4, 3, 0.6);
        let pure = m.mixture_transition(&[1.0, 0.0, 0.0, 0.0], 0);
        assert_eq!(&pure[..], m.transition(0, 0));
        let blend = m.mixture_transition(&[1.0, 1.0, 1.0, 1.0], 0);
        let s: f64 = blend[..4].iter().sum();
        assert!((s - 1.0).abs() < 1e-9);
    }

    #[test]
    fn interpolation_endpoints_and_stochasticity() {
        let a = model(8, 4, 0.9);
        let b = AffinityModelSpec::new(4, 8)
            .with_affinity(0.9)
            .with_seed(0xd1f7)
            .build();
        let at0 = a.interpolate(&b, 0.0);
        let at1 = a.interpolate(&b, 1.0);
        assert_eq!(at0.transition(0, 0), a.transition(0, 0));
        assert_eq!(at1.transition(0, 0), b.transition(0, 0));
        let mid = a.interpolate(&b, 0.5);
        for gap in 0..3 {
            let t = mid.transition(0, gap);
            for row in 0..8 {
                let s: f64 = t[row * 8..(row + 1) * 8].iter().sum();
                assert!((s - 1.0).abs() < 1e-9, "row {row} sums to {s}");
            }
            // Doubly stochastic too: columns also sum to 1.
            for col in 0..8 {
                let s: f64 = (0..8).map(|r| t[r * 8 + col]).sum();
                assert!((s - 1.0).abs() < 1e-9, "col {col} sums to {s}");
            }
        }
    }

    #[test]
    fn cached_row_totals_are_the_walks_own_sums_to_the_bit() {
        // The draw is `gen::<f64>() * total`: a total one ulp off is a
        // different sample stream once in a long while, which no sampled
        // comparison would notice.
        let a = model(24, 4, 0.85);
        let b = AffinityModelSpec::new(4, 24).with_seed(9).build();
        for m in [a.interpolate(&b, 0.3), a] {
            for d in 0..m.n_domains() {
                for gap in 0..3 {
                    let matrix = m.transition(d, gap);
                    for (from, row) in matrix.chunks_exact(24).enumerate() {
                        let mut total = 0.0f64;
                        for &p in row {
                            total += p;
                        }
                        assert_eq!(m.row_total(d, gap, from).to_bits(), total.to_bits());
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "at most 65536 experts; got 70000")]
    fn more_experts_than_u16_ids_hold_are_rejected() {
        // Routes and traces are u16: expert 65 536 would wrap to 0 and
        // still pass every range check downstream.
        let spec = AffinityModelSpec {
            n_experts: 70_000,
            ..AffinityModelSpec::new(2, 8)
        };
        let _ = spec.build();
    }

    #[test]
    fn the_largest_expert_count_builds_and_routes() {
        let m = AffinityModelSpec::new(1, 1 << 16).build();
        let path = sample_path(&m, &mut StdRng::seed_from_u64(4), 0);
        assert_eq!(path.len(), 1);
    }

    #[test]
    #[should_panic(expected = "alpha must be in [0,1]")]
    fn interpolation_rejects_bad_alpha() {
        let a = model(8, 4, 0.9);
        let _ = a.interpolate(&a, 1.5);
    }

    #[test]
    fn single_layer_model_has_no_transitions() {
        let m = model(8, 1, 0.5);
        let mut rng = StdRng::seed_from_u64(2);
        let p = sample_path(&m, &mut rng, 0);
        assert_eq!(p.len(), 1);
    }
}
