//! Incremental re-placement for the online serving mode: the budgeted
//! solvers that re-plan from an incumbent placement, the deterministic
//! operation-count meter every one of them charges (its tally is the
//! [`ReplanCost`] they return), and the
//! unit-attraction table ([`SwapGainCache`]) that prices their swap
//! candidates in `O(1)`.
//!
//! Offline, ExFlow solves placements from scratch; online, a from-scratch
//! re-solve would discard the incumbent and migrate almost every expert.
//! Following the budgeted-re-optimization view of the interval-subset-sum
//! line of work (Diao et al., arXiv:1704.06928), re-placement is instead
//! treated as an *incremental* problem: start from the incumbent, apply
//! the highest-gain balanced swaps first, and stop when the migration
//! budget — bytes of expert weights moved between GPUs — is exhausted.
//! Every function here is sequential and deterministic, so online runs
//! stay bit-identical at any thread count by construction. The resulting
//! moves are priced by [`crate::online::MigrationPlan`].
//!
//! The walks rescan every `(layer, e1, e2)` swap candidate on every step,
//! so a re-plan that executes `S` swaps *considers* about
//! `(S + 1) * L * E^2 / 2` candidates. Considering is cheap; recomputing
//! each gain (a CSR/CSC merge per [`Objective::swap_delta`]) is not. Experts
//! of one layer share no edge, so a swap's gain separates into each
//! expert's attraction to the two units involved: four reads of a
//! per-`(layer, expert, unit)` table of `L * E * G` floats built in
//! `O(nnz)`. `swap_delta` is called only where rounding could change the
//! decision — within the table's rounding bound of the accept threshold
//! (polish) or of the scan's running minimum (descent, toward-target) —
//! and an accepted swap only marks the rows of its structural neighbours
//! stale. Every read of the table falls inside the scan of the read row's
//! own layer, so a layer's stale rows are rebuilt just before that scan,
//! each once however many swaps marked it: at most once per row per pass
//! of the polish, not once per neighbouring swap.
//!
//! Every candidate is still *considered* — charged to the meter — but no
//! longer *visited*. All three walks bound a `(layer, e1)` row from below
//! in `O(G)` (the private `SwapGainCache::row_floor`, exact in floating
//! point) from one floor per `(scan, layer)` — the least any partner on
//! each unit can add — and charge a row that cannot change their answer in
//! one addition:
//!
//! * the **descent** skips a row that cannot hold a candidate under the
//!   scan's running minimum; at `E = 512` that is all but a few rows of a
//!   scan;
//! * the **toward-target walk** lists, per unit, the experts an off-target
//!   expert may trade with, once per `(scan, layer)`, instead of filtering
//!   all `E` for every row, takes the floor over the listed experts only,
//!   and skips the list of a row whose one wanted unit cannot beat the
//!   running minimum;
//! * the **polish** skips a stretch of a row in which neither arm of the
//!   accept test can fire. It alone swaps while its floor is in use. A swap
//!   at `layer` marks rows of the layers next to it stale, never of
//!   `layer`, so the partner halves the floor was taken over keep their
//!   values and only the two moved experts are missing from their new
//!   units: they are taken in there in `O(G)`. What they leave on their
//!   old units is a half no pair has any more — the floor may go stale
//!   *downwards*, which skips less than a rebuild would, but never
//!   *upwards*, which would skip a row that holds an improving swap. The
//!   next `(pass, layer)` rebuilds it; nothing is rebuilt per swap.
//!
//! Everything here preserves the crate's bit-determinism contract:
//!
//! * whatever the table cannot separate by more than its rounding bound is
//!   decided on exact `swap_delta` values in the scan's
//!   `(delta, layer, e1, e2)` order, so the walks return the placements a
//!   rescan evaluating every candidate exactly would — bit for bit;
//! * the table is history-independent (a settled row is recomputed from
//!   scratch in index order, whatever swaps marked it), so deferring a
//!   rebuild changes no bit, and a caller-held buffer saves an allocation
//!   and changes nothing else;
//! * the meter counts *considered* candidates, however each was answered,
//!   and charges a skipped row as if scanned: `considered` is what a walk
//!   visiting every candidate reports, and since the row would have
//!   offered nothing the shortlist (or, in the polish, the accepted swap)
//!   — hence the exact calls and the pick — is what the full scan leaves;
//! * nothing here consults the clock. Re-plan wall time is measured
//!   outside the library (the `replan-e512` workload of `benchmark/`),
//!   never branched on.

use crate::greedy::solve_greedy;
use crate::objective::Objective;
use crate::online::net_moves;
use crate::placement::Placement;
use crate::replication::{
    replica_gains_by_unit, replicated_cross_mass, LayerReplicas, ReplicaPolicy, ReplicationBudget,
    ReplicationPlan,
};

/// A swap improves only if its delta is below this; the rest is noise.
const IMPROVES: f64 = -1e-12;

#[cfg(test)]
#[path = "incremental_oracle.rs"]
mod oracle;

/// Deterministic solver-cost accounting for one re-plan.
///
/// All counters are operation counts, not wall clock, so they are
/// bit-reproducible across machines and thread counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReplanCost {
    /// Swap candidates the scan loops looked at, however each was
    /// answered; a row a bound skips is charged as if scanned.
    pub considered: u64,
    /// Candidates decided by an exact [`Objective::swap_delta`] call: the
    /// attraction table's rounding bound could not separate them.
    pub evaluated: u64,
    /// Candidates the table decided alone (`considered - evaluated`).
    pub reused: u64,
}

/// A deterministic operation-count meter for re-plan solver work: it
/// tallies a [`ReplanCost`] and never stops a walk.
#[derive(Debug)]
pub(crate) struct CostMeter {
    cost: ReplanCost,
}

impl CostMeter {
    /// A meter that has counted nothing.
    pub(crate) fn new() -> Self {
        CostMeter {
            cost: ReplanCost::default(),
        }
    }

    /// Charge `n` considered candidates.
    fn consider(&mut self, n: u64) {
        self.cost.considered += n;
    }

    /// One exact call for an already considered candidate.
    fn exact_delta(&mut self, objective: &Objective, placement: &Placement, swap: Swap) -> f64 {
        self.cost.evaluated += 1;
        objective.swap_delta(placement, swap.0, swap.1, swap.2)
    }

    /// The accumulated cost so far.
    pub(crate) fn cost(&self) -> ReplanCost {
        ReplanCost {
            reused: self.cost.considered - self.cost.evaluated,
            ..self.cost
        }
    }
}

/// A swap candidate: `(layer, e1, e2)`.
type Swap = (usize, usize, usize);

/// `(floor, bmax)` of [`SwapGainCache::partner_floor`].
type PartnerFloor = (Vec<f64>, f64);

/// The unit-attraction table every metered walk prices its candidates
/// from, as a reusable buffer.
///
/// `A[layer][expert][unit]` is the weighted affinity mass `expert`
/// exchanges with the experts currently on `unit` one layer down
/// (`w_i * P(expert | i)`, the CSC column of the gap below) and one layer
/// up (`w_expert * P(p | expert)`, the CSR row of the gap above). With
/// `u1`/`u2` the units of `e1`/`e2`, `swap_delta(layer, e1, e2)` equals
/// `(A[e1][u1] - A[e1][u2]) + (A[e2][u2] - A[e2][u1])` up to the rounding
/// bound stated on the private `SwapGainCache::load`.
///
/// An accepted swap marks the rows that read its experts' units stale
/// (the private `SwapGainCache::refresh`); a walk rebuilds a layer's stale
/// rows (`SwapGainCache::settle`) before it reads that layer, and reads no
/// other layer while it scans one.
///
/// Every walk loads the table for its own starting placement, so the
/// buffer carries **no values** from one walk to the next: passing `None`
/// to a solver builds the same table locally and does identical work.
#[derive(Debug, Clone)]
pub struct SwapGainCache {
    n_experts: usize,
    n_units: usize,
    /// `attraction[(layer * E + expert) * G + unit]`.
    attraction: Vec<f64>,
    /// Per-`(layer, expert)` half of a pair's rounding bound.
    band: Vec<f64>,
    /// Per layer, the experts whose row a swap left stale, each once.
    stale: Vec<Vec<usize>>,
    /// `is_stale[layer * E + expert]`: the row is in `stale[layer]`.
    is_stale: Vec<bool>,
    #[cfg(test)]
    probe: oracle::Probe,
}

impl SwapGainCache {
    /// An empty buffer for walks over `objective`.
    pub fn for_objective(objective: &Objective) -> Self {
        SwapGainCache {
            n_experts: objective.n_experts(),
            n_units: 0,
            attraction: Vec::new(),
            band: vec![0.0; objective.n_layers() * objective.n_experts()],
            stale: Vec::new(),
            is_stale: Vec::new(),
            #[cfg(test)]
            probe: oracle::Probe::default(),
        }
    }

    /// Build the table for `placement`, and the rounding bound of every
    /// pair: `tol(e1, e2) = band[e1] + band[e2]` with
    /// `band[e] = 2 * EPSILON * (2 * n + 8) * mass[e]`, where `mass[e]` is
    /// the row sum of `A[e]` (placement-independent up to rounding) and
    /// `n = 2 * E` bounds the stored cells one expert touches.
    ///
    /// Why that is sufficient: `swap_delta` and the table formula are
    /// floating-point sums of the same real terms `w * P`, all belonging to
    /// `e1` or `e2`, whose absolute values add up to `mass[e1] + mass[e2]`.
    /// `swap_delta` adds at most `2n` nonzero terms (absent cells are exact
    /// zeros), each formed with at most three roundings; the table adds at
    /// most `n` products per cell and combines four cells with three more.
    /// By the `gamma_k = k u / (1 - k u)` bound for recursive summation
    /// (`u = EPSILON / 2`) each side is within `gamma_(2n + 3)` times that
    /// mass of the real value, so to first order they differ by less than
    /// `EPSILON * (2n + 3) * (mass[e1] + mass[e2])`. The bound used is more
    /// than twice that, which also covers the second-order terms and the
    /// rounding of `mass` itself and of `approx +- tol` in the callers.
    fn load(&mut self, objective: &Objective, placement: &Placement) {
        let (e, g) = (objective.n_experts(), placement.n_units());
        let rows = objective.n_layers() * e;
        (self.n_experts, self.n_units) = (e, g);
        self.attraction.resize(rows * g, 0.0);
        self.band.resize(rows, 0.0);
        self.stale.resize_with(objective.n_layers(), Vec::new);
        self.stale.iter_mut().for_each(Vec::clear);
        self.is_stale.clear();
        self.is_stale.resize(rows, false);
        let scale = 2.0 * f64::EPSILON * (4 * e + 8) as f64;
        for row in 0..rows {
            self.fill_row(objective, placement, row / e, row % e);
            let mass: f64 = self.attraction[row * g..][..g].iter().sum();
            self.band[row] = scale * mass;
        }
    }

    /// Recompute `A[layer][expert]` from scratch: incoming cells in
    /// ascending source order, then outgoing cells in ascending target
    /// order.
    fn fill_row(&mut self, objective: &Objective, base: &Placement, layer: usize, expert: usize) {
        let g = self.n_units;
        let row = &mut self.attraction[(layer * self.n_experts + expert) * g..][..g];
        row.fill(0.0);
        if layer > 0 {
            let units = base.layer(layer - 1);
            objective.for_each_in_col(layer - 1, expert, |i, prob| {
                row[units[i]] += objective.row_weight(layer - 1, i) * prob;
            });
        }
        if layer + 1 < objective.n_layers() {
            let (units, w) = (base.layer(layer + 1), objective.row_weight(layer, expert));
            objective.for_each_in_row(layer, expert, |p, prob| row[units[p]] += w * prob);
        }
    }

    /// `a` and `b` swapped units at `layer`: mark stale the rows that read
    /// their units — their CSR successors one layer up and CSC predecessors
    /// one layer down. Their own rows depend only on the other layers, so
    /// no row of `layer` goes stale. [`Self::settle`] rebuilds the marked
    /// rows when their layer is next read.
    fn refresh(&mut self, objective: &Objective, (layer, a, b): Swap) {
        #[cfg(test)]
        self.probe.swaps.push((layer, a, b));
        let e = self.n_experts;
        let mut mark = |layer: usize, x: usize| {
            if !std::mem::replace(&mut self.is_stale[layer * e + x], true) {
                self.stale[layer].push(x);
            }
        };
        for x in [a, b] {
            if layer + 1 < objective.n_layers() {
                objective.for_each_in_row(layer, x, |p, _| mark(layer + 1, p));
            }
            if layer > 0 {
                objective.for_each_in_col(layer - 1, x, |i, _| mark(layer - 1, i));
            }
        }
    }

    /// Rebuild the stale rows of `layer` for `base`, the placement it is
    /// about to be read against. A row is a function of the placement alone
    /// ([`Self::fill_row`]), so the settled layer is bit for bit what
    /// [`Self::load`] would build, however many swaps marked it.
    fn settle(&mut self, objective: &Objective, base: &Placement, layer: usize) {
        while let Some(x) = self.stale[layer].pop() {
            self.is_stale[layer * self.n_experts + x] = false;
            self.fill_row(objective, base, layer, x);
            #[cfg(test)]
            {
                self.probe.rebuilt += 1;
            }
        }
    }

    /// The table rows and the bands of one layer's experts; the layer must
    /// be settled.
    fn layer(&self, layer: usize) -> (&[f64], &[f64]) {
        debug_assert!(self.stale[layer].is_empty(), "layer {layer} read stale");
        let (e, g) = (self.n_experts, self.n_units);
        (
            &self.attraction[layer * e * g..][..e * g],
            &self.band[layer * e..][..e],
        )
    }

    /// One candidate from the `(unit, table row, band)` of its two experts: a
    /// same-unit pair is an exact zero on both sides.
    #[inline]
    fn priced(
        &self,
        (u1, r1, b1): (usize, &[f64], f64),
        (u2, r2, b2): (usize, &[f64], f64),
        e2: usize,
    ) -> (usize, f64, f64) {
        #[cfg(test)]
        self.probe.visited.set(self.probe.visited.get() + 1);
        match u1 == u2 {
            true => (e2, 0.0, 0.0),
            false => (e2, (r1[u1] - r1[u2]) + (r2[u2] - r2[u1]), b1 + b2),
        }
    }

    /// For every `e2` in `from..E`, in ascending order: `(e2, approx, tol)` —
    /// the table's value for `swap_delta(layer, e1, e2)` and the bound on
    /// how far the exact value can be from it. `units` is the placement's
    /// row for `layer`.
    #[inline]
    fn candidates<'a>(
        &'a self,
        units: &'a [usize],
        (layer, e1, from): Swap,
    ) -> impl Iterator<Item = (usize, f64, f64)> + 'a {
        let (g, (rows, band)) = (self.n_units, self.layer(layer));
        let first = (units[e1], &rows[e1 * g..][..g], band[e1]);
        let pairs = (from..self.n_experts).zip(&units[from..]);
        let pairs = pairs.zip(rows[from * g..].chunks_exact(g).zip(&band[from..]));
        pairs.map(move |((e2, &u2), (r2, &b2))| self.priced(first, (u2, r2, b2), e2))
    }

    /// [`Self::candidates`] for the `e2` of an ascending list.
    #[inline]
    fn partners<'a>(
        &'a self,
        units: &'a [usize],
        (layer, e1): (usize, usize),
        list: &'a [usize],
    ) -> impl Iterator<Item = (usize, f64, f64)> + 'a {
        let (g, (rows, band)) = (self.n_units, self.layer(layer));
        let first = (units[e1], &rows[e1 * g..][..g], band[e1]);
        list.iter()
            .map(move |&e2| self.priced(first, (units[e2], &rows[e2 * g..][..g], band[e2]), e2))
    }

    /// What a partner among `experts` can add to a pair of `layer`, for
    /// [`Self::row_floor`]: `floor[u1 * G + u2]`, the least
    /// `A[e2][u2] - A[e2][u1]` over those `e2` that `units` puts on `u2` —
    /// the partner's half of `approx`, computed as in [`Self::priced`] —
    /// and the largest `band` among them.
    fn partner_floor(
        &self,
        units: &[usize],
        layer: usize,
        experts: impl Iterator<Item = usize>,
    ) -> PartnerFloor {
        let g = self.n_units;
        #[cfg(test)]
        if self.probe.unpruned {
            return (vec![f64::NEG_INFINITY; g * g], 0.0);
        }
        let mut bound = (vec![f64::INFINITY; g * g], 0.0);
        experts.for_each(|e2| self.lower_floor(&mut bound, units, (layer, e2)));
        bound
    }

    /// Take `e2`, on the unit `units` names for it, into `bound`. A floor
    /// is only ever lowered: after a swap at `layer` — which leaves no row
    /// of `layer` stale ([`Self::refresh`]) — taking the two experts in on
    /// their new units keeps it a lower bound for the layer's pairs. What
    /// they left behind on their old units makes it looser until it is next
    /// rebuilt, never wrong, and no `O(E * G)` rebuild is paid per swap.
    fn lower_floor(
        &self,
        (floor, bmax): &mut PartnerFloor,
        units: &[usize],
        (layer, e2): (usize, usize),
    ) {
        let (g, (rows, band)) = (self.n_units, self.layer(layer));
        let (u2, r2) = (units[e2], &rows[e2 * g..][..g]);
        for (u1, a) in r2.iter().enumerate() {
            floor[u1 * g + u2] = floor[u1 * g + u2].min(r2[u2] - a);
        }
        *bmax = bmax.max(band[e2]);
    }

    /// `(least, widest)`: no pair of `(layer, e1)` with an expert `bound`
    /// took in on one of the units `toward` (other than `e1`'s own) has an
    /// `approx` under `least` or a `tol` over `widest`, exactly as
    /// [`Self::priced`] computes them — no epsilon. With
    /// `a = A[e1][u1] - A[e1][u2]` the pair's `approx` is `fl(a + x)` for a
    /// partner half `x >= floor[u1][u2]` and its `tol` is `fl(band[e1] + b)`
    /// for a `b <= bmax`; a rounded sum is non-decreasing in either operand
    /// and a rounded difference non-decreasing in its first, non-increasing
    /// in its second. So replacing `x` by the floor, `b` by `bmax` and the
    /// unit by the one that minimises can only lower `approx` and raise
    /// `tol`, and for every such pair, in floating point as written,
    ///
    /// * `approx - tol >= least - widest` — a best-of-scan row with
    ///   `least - widest > upper` offers nothing;
    /// * `least >= IMPROVES + widest` implies `approx >= IMPROVES + tol`,
    ///   and that `approx >= IMPROVES - tol`: neither arm of the polish's
    ///   accept test can fire and no exact call is made.
    ///
    /// (The floor ranges over every expert taken in, `e1 < e2` or not:
    /// merely conservative.)
    fn row_floor(
        &self,
        units: &[usize],
        (layer, e1): (usize, usize),
        toward: impl Iterator<Item = usize>,
        (floor, bmax): &PartnerFloor,
    ) -> (f64, f64) {
        let (g, (rows, band)) = (self.n_units, self.layer(layer));
        let (u1, r1) = (units[e1], &rows[e1 * g..][..g]);
        let least = toward
            .filter(|&u2| u2 != u1)
            .map(|u2| (r1[u1] - r1[u2]) + floor[u1 * g + u2])
            .fold(f64::INFINITY, f64::min);
        (least, band[e1] + bmax)
    }

    /// One stretch of the polish's row `(layer, e1)`: the first `e2` in
    /// `from..E` whose swap improves, every candidate up to it charged to
    /// `meter`. A stretch that `bound` — a floor over the layer's experts
    /// where `placement` has them — shows to hold no such `e2` is charged
    /// as if scanned and not visited.
    fn first_improving(
        &self,
        objective: &Objective,
        placement: &Placement,
        (layer, e1, from): Swap,
        bound: &PartnerFloor,
        meter: &mut CostMeter,
    ) -> Option<usize> {
        let units = placement.layer(layer);
        let (least, widest) = self.row_floor(units, (layer, e1), 0..self.n_units, bound);
        if least >= IMPROVES + widest {
            meter.consider((units.len() - from) as u64);
            return None;
        }
        for (e2, approx, tol) in self.candidates(units, (layer, e1, from)) {
            meter.consider(1);
            // Only inside the rounding band can the exact delta fall on the
            // other side of the threshold.
            if approx < IMPROVES - tol
                || (approx < IMPROVES + tol
                    && meter.exact_delta(objective, placement, (layer, e1, e2)) < IMPROVES)
            {
                return Some(e2);
            }
        }
        None
    }
}

/// First-improvement swap passes over `placement`, in place, until a local
/// optimum or `max_passes` — the walk behind
/// [`crate::local_search::improve`] — charged to `meter` and priced from
/// the attraction table (built in `cache` when one is passed). Returns the
/// final cross mass.
pub(crate) fn improve_metered(
    objective: &Objective,
    placement: &mut Placement,
    max_passes: usize,
    meter: &mut CostMeter,
    cache: Option<&mut SwapGainCache>,
) -> f64 {
    let mut local = None;
    let table = cache.unwrap_or_else(|| local.insert(SwapGainCache::for_objective(objective)));
    table.load(objective, placement);
    #[cfg(test)]
    if table.probe.reference {
        return oracle::improve(objective, placement, max_passes, meter, table);
    }
    let (e, l) = (objective.n_experts(), objective.n_layers());
    for _ in 0..max_passes {
        let mut improved = false;
        for layer in 0..l {
            table.settle(objective, placement, layer);
            let mut bound = table.partner_floor(placement.layer(layer), layer, 0..e);
            for e1 in 0..e {
                // A row is scanned in stretches, each ending at an accepted
                // swap: applying it needs the placement and table back.
                let mut from = e1 + 1;
                while from < e {
                    let stretch = (layer, e1, from);
                    let Some(e2) =
                        table.first_improving(objective, placement, stretch, &bound, meter)
                    else {
                        break;
                    };
                    placement.swap(layer, e1, e2);
                    table.refresh(objective, (layer, e1, e2));
                    for moved in [e1, e2] {
                        table.lower_floor(&mut bound, placement.layer(layer), (layer, moved));
                    }
                    improved = true;
                    from = e2 + 1;
                }
            }
        }
        if !improved {
            break;
        }
    }
    objective.cross_mass(placement)
}

/// Best-of-scan state: `(approx - tol, swap)` of every candidate whose lower
/// bound was not above `upper`, the smallest `approx + tol` seen when it
/// came up. Only those can hold the scan's exact minimum.
#[derive(Debug, PartialEq)]
struct Shortlist {
    kept: Vec<(f64, Swap)>,
    upper: f64,
}

impl Shortlist {
    /// Offer the candidates of one `(layer, e1)` row, charging each to
    /// `meter`.
    fn offer_row(
        &mut self,
        row: impl Iterator<Item = (usize, f64, f64)>,
        (layer, e1): (usize, usize),
        meter: &mut CostMeter,
    ) {
        for (e2, approx, tol) in row {
            meter.consider(1);
            if approx - tol <= self.upper {
                self.kept.push((approx - tol, (layer, e1, e2)));
                self.upper = self.upper.min(approx + tol);
            }
        }
    }

    /// Offer every pair `e1 < e2` of `layer`, row by row — the descent's
    /// candidates. A row whose floor is above `upper` would offer nothing:
    /// it is charged as if scanned and not visited.
    fn offer_pairs(
        &mut self,
        table: &SwapGainCache,
        units: &[usize],
        layer: usize,
        meter: &mut CostMeter,
    ) {
        // The floor leaves same-unit pairs out. Their `approx - tol` is an
        // exact zero: never kept below a negative `upper`.
        assert!(self.upper < 0.0);
        let e = units.len();
        let bound = table.partner_floor(units, layer, 0..e);
        for e1 in 0..e {
            let (least, widest) = table.row_floor(units, (layer, e1), 0..table.n_units, &bound);
            if least - widest <= self.upper {
                let row = table.candidates(units, (layer, e1, e1 + 1));
                self.offer_row(row, (layer, e1), meter);
            } else {
                meter.consider((e - e1 - 1) as u64);
            }
        }
    }

    /// Offer the trades of `layer` that move an expert to the unit `wanted`
    /// names for it — the toward-target walk's candidates: an expert off
    /// its wanted unit pairs with the experts that sit there and do not
    /// belong, listed per unit in ascending order before the rows are
    /// walked. A row whose floor — over the listed experts, toward the one
    /// unit it wants — is above `upper` would offer nothing: its partners
    /// are charged as if scanned and not visited.
    fn offer_trades(
        &mut self,
        table: &SwapGainCache,
        units: &[usize],
        wanted: &[usize],
        layer: usize,
        meter: &mut CostMeter,
    ) {
        let mut misplaced = vec![Vec::new(); table.n_units];
        for (e2, (&u2, &w2)) in units.iter().zip(wanted).enumerate() {
            if u2 != w2 {
                misplaced[u2].push(e2);
            }
        }
        let bound = table.partner_floor(units, layer, misplaced.iter().flatten().copied());
        for e1 in (0..units.len()).filter(|&e1| wanted[e1] != units[e1]) {
            let (w1, list) = (wanted[e1], &misplaced[wanted[e1]]);
            let toward = std::iter::once(w1);
            let (least, widest) = table.row_floor(units, (layer, e1), toward, &bound);
            if least - widest <= self.upper {
                let row = table.partners(units, (layer, e1), list);
                self.offer_row(row, (layer, e1), meter);
            } else {
                meter.consider(list.len() as u64);
            }
        }
    }
}

/// One strategy of [`solve_budgeted_with_meter`]: apply the scan's
/// best swap and rescan, while the result stays within `max_moves` net
/// moves of the incumbent. Without a `target` (descent) every pair is a
/// candidate and only improving swaps are taken; with one, an expert off
/// its target unit pairs with the experts that sit there and do not belong,
/// best swap first whatever its sign.
fn budgeted_walk(
    objective: &Objective,
    incumbent: &Placement,
    target: Option<&Placement>,
    max_moves: u64,
    meter: &mut CostMeter,
    cache: Option<&mut SwapGainCache>,
) -> Placement {
    let mut local = None;
    let table = cache.unwrap_or_else(|| local.insert(SwapGainCache::for_objective(objective)));
    table.load(objective, incumbent);
    #[cfg(test)]
    if table.probe.reference {
        return oracle::walk(objective, incumbent, target, max_moves, meter, table);
    }
    let l = objective.n_layers();
    let threshold = target.map_or(IMPROVES, |_| f64::INFINITY);
    let mut placement = incumbent.clone();
    // The toward-target walk may pass through worse placements and returns
    // the cheapest visited; the descent returns its last and sums no cost.
    let mut best = target.map(|_| (objective.cross_mass(&placement), placement.clone()));
    let mut scan = Shortlist {
        kept: Vec::new(),
        upper: threshold,
    };
    loop {
        for layer in 0..l {
            table.settle(objective, &placement, layer);
            let units = placement.layer(layer);
            match target {
                None => scan.offer_pairs(table, units, layer, meter),
                Some(t) => scan.offer_trades(table, units, t.layer(layer), layer, meter),
            }
        }
        // Exact calls for what the bounds left, in scan order: the first
        // smallest delta wins, as if every candidate had been evaluated.
        let mut pick: Option<(f64, Swap)> = None;
        for (lower, swap) in scan.kept.drain(..) {
            if lower <= scan.upper {
                let delta = meter.exact_delta(objective, &placement, swap);
                if delta < threshold && pick.is_none_or(|(b, _)| delta < b) {
                    pick = Some((delta, swap));
                }
            }
        }
        scan.upper = threshold;
        let Some((_, swap)) = pick else { break };
        let mut next = placement.clone();
        next.swap(swap.0, swap.1, swap.2);
        if net_moves(incumbent, &next) > max_moves {
            break;
        }
        placement = next;
        table.refresh(objective, swap);
        if let Some(best) = &mut best {
            let cost = objective.cross_mass(&placement);
            if cost < best.0 {
                *best = (cost, placement.clone());
            }
        }
    }
    best.map_or(placement, |(_, cheapest)| cheapest)
}

/// [`solve_budgeted_metered`] threading an explicit meter — the
/// composition the replication-aware entry point shares. It builds a
/// deterministic from-scratch target (greedy chain + swap polish, no
/// randomness), then races two strategies on `meter` (descent scans
/// first):
///
/// * **descent** — best-improvement swaps from the incumbent (cheap
///   polish; ideal when drift only perturbed the structure);
/// * **toward-target** — walk the incumbent toward the target
///   best-gain-first, keeping the cheapest placement visited within
///   budget (escapes the stale basin after a regime change).
///
/// The cheaper result wins (descent on ties). Both walks are
/// budget-independent paths that a larger budget merely extends, so the
/// returned cost improves monotonically with `max_moves`, and
/// `max_moves = 0` returns the incumbent unchanged.
fn solve_budgeted_with_meter(
    objective: &Objective,
    incumbent: &Placement,
    max_moves: u64,
    meter: &mut CostMeter,
    mut cache: Option<&mut SwapGainCache>,
) -> Placement {
    let mut target = solve_greedy(objective, incumbent.n_units());
    improve_metered(objective, &mut target, 50, meter, cache.as_deref_mut());
    let buffer = cache.as_deref_mut();
    let descent = budgeted_walk(objective, incumbent, None, max_moves, meter, buffer);
    let toward = budgeted_walk(objective, incumbent, Some(&target), max_moves, meter, cache);
    if objective.cross_mass(&toward) < objective.cross_mass(&descent) {
        toward
    } else {
        descent
    }
}

/// Budgeted incremental re-placement: starting from the incumbent, spend
/// at most `max_moves` *net* expert relocations (what a
/// [`crate::online::MigrationPlan`] between incumbent and result would
/// migrate) to reduce the objective as much as possible.
///
/// `max_moves` caps *migration traffic*, not solver compute: the walk
/// races a descent from the incumbent against a walk toward a
/// from-scratch target (greedy chain + swap polish, no randomness) and
/// keeps the cheaper.
///
/// The returned placement and [`ReplanCost`] are the same with or without
/// a `cache` buffer; the cost reports how many candidates were considered,
/// how many needed an exact `swap_delta` call, and how many the attraction
/// table decided alone.
///
/// Nothing reads `_scan_budget`: it stays only for the pinned call of
/// the `replan-e512` workload under `benchmark/`, until a change to the
/// benchmark drops it.
pub fn solve_budgeted_metered(
    objective: &Objective,
    incumbent: &Placement,
    max_moves: u64,
    _scan_budget: u64,
    cache: Option<&mut SwapGainCache>,
) -> (Placement, ReplanCost) {
    let mut meter = CostMeter::new();
    let placement = solve_budgeted_with_meter(objective, incumbent, max_moves, &mut meter, cache);
    (placement, meter.cost())
}

/// One replica entry a joint re-plan candidate may keep: `(layer, expert,
/// holder subset, bytes keeping it ships, rank score)`.
type Entry = (usize, usize, Vec<usize>, u64, f64);

/// Walk `entries` in order and keep each whose subset is not empty, has a
/// free slot on every unit (fewer than `slots` copies packed there) and
/// ships no more than `bytes_left`, which pays for it; a skipped entry
/// blocks nothing after it. Returns per-layer entries sorted by expert
/// (the [`LayerReplicas`] invariant).
fn pack<'a>(
    entries: impl Iterator<Item = (usize, usize, &'a [usize], u64)>,
    shape: &Placement,
    slots: u64,
    bytes_left: &mut u64,
) -> Vec<LayerReplicas> {
    let mut load = vec![0u64; shape.n_units()];
    let mut out: Vec<LayerReplicas> = vec![Vec::new(); shape.n_layers()];
    for (layer, expert, units, ship) in entries {
        if units.is_empty() || units.iter().any(|&u| load[u] >= slots) || ship > *bytes_left {
            continue;
        }
        *bytes_left -= ship;
        for &u in units {
            load[u] += 1;
        }
        out[layer].push((expert, units.to_vec()));
    }
    for lr in &mut out {
        lr.sort_unstable_by_key(|r| r.0);
    }
    out
}

/// One candidate of [`solve_budgeted_replicated_metered`], built from its
/// replica `entries`: rank them best-first (score descending, then layer,
/// then expert), pack them under the per-GPU slot cap and the migration
/// byte budget, and spend the bytes left on owner moves. An owner that
/// lands on one of its holders trades places with it
/// ([`ReplicationPlan::reowned`]), which may load the old owner past its
/// slots, so the entries are packed once more under the slots alone: a
/// trade and a drop ship nothing.
fn candidate(
    objective: &Objective,
    incumbent: &ReplicationPlan,
    mut entries: Vec<Entry>,
    bpe: u64,
    budget: &ReplicationBudget,
    meter: &mut CostMeter,
    cache: Option<&mut SwapGainCache>,
) -> ReplicationPlan {
    entries.sort_by(|a, b| b.4.total_cmp(&a.4).then(a.0.cmp(&b.0)).then(a.1.cmp(&b.1)));
    let slots = budget.replica_memory_bytes / bpe;
    let mut bytes_left = budget.migration_budget_bytes;
    let ranked = entries
        .iter()
        .map(|(l, x, units, ship, _)| (*l, *x, &units[..], *ship));
    let replicas = pack(ranked, &incumbent.base, slots, &mut bytes_left);
    let base =
        solve_budgeted_with_meter(objective, &incumbent.base, bytes_left / bpe, meter, cache);
    let packed = ReplicationPlan {
        base: incumbent.base.clone(),
        replicas,
    };
    let moved = packed.reowned(base);
    let ranked = entries
        .iter()
        .map(|&(l, x, ..)| (l, x, moved.replica_units(l, x), 0));
    let replicas = pack(ranked, &moved.base, slots, &mut 0);
    ReplicationPlan {
        base: moved.base,
        replicas,
    }
}

/// Replication-aware budgeted re-plan: starting from an incumbent
/// [`ReplicationPlan`], spend a joint budget — replica memory per GPU plus
/// migration bytes — on whichever mix of **replica adds/drops** and
/// **owner moves** reduces the replication-aware objective
/// ([`replicated_cross_mass`]) the most. Up to three deterministic
/// candidates race, each built the same way from its replica entries:
/// rank them, pack them under the per-GPU slot cap and the migration byte
/// budget, and spend the bytes left on the [`solve_budgeted_metered`]
/// walk of the base placement. An owner the walk lands on one of its
/// holders trades places with it ([`ReplicationPlan::reowned`]): the old
/// owner keeps the weights as the copy, so moving the expert back later
/// ships nothing.
///
/// * **owner-moves-only** — the incumbent's entries, ranked by absorbed
///   gain and shipping nothing: the full migration budget goes to owner
///   moves, and an entry is dropped only where a slot runs out (the
///   per-GPU memory budget shrank, or a trade loaded an old owner past
///   it);
/// * **replica-first under `policy`** — `(expert, target-subset)`
///   candidates (the subset is what `policy` selects for the expert's
///   owner) are ranked by absorbed incoming cross mass *per fan-out byte*
///   ([`replica_gains_by_unit`] summed over the subset, divided by the
///   bytes the add must ship), in the budgeted-subset-selection style of
///   the interval-subset-sum line of work (Diao et al.,
///   arXiv:1704.06928). Entries the incumbent already holds are free and
///   rank first; new ones are accepted best-density-first while every
///   subset unit has a free memory slot and the migration budget covers
///   the fan-out;
/// * **replica-first everywhere** — the same construction under
///   [`ReplicaPolicy::Everywhere`], raced only when `policy` is not
///   already the full fan-out. This makes "partial replication never
///   loses to full replication at equal budgets" structural: the partial
///   solve's candidate set is a superset of the full solve's.
///
/// The candidate with the lower [`replicated_cross_mass`] wins (earlier
/// candidate on ties, so owner-moves-only is the conservative default
/// that never spends memory without a measured win). Every candidate
/// respects both budget axes by construction: extra copies per GPU never
/// exceed `replica_memory_bytes / bytes_per_expert` and a
/// [`crate::online::MigrationPlan::between_replicated`] diff against the
/// incumbent never exceeds `migration_budget_bytes`.
///
/// Every inner budgeted solve is charged to one meter in a fixed order
/// (owner-moves-only first, then the policy's replica-first, then full
/// fan-out), with `cache` as buffer. Replica-gain ranking is `O(nnz)`
/// bookkeeping and is not charged.
pub fn solve_budgeted_replicated_metered(
    objective: &Objective,
    incumbent: &ReplicationPlan,
    bytes_per_expert: u64,
    budget: &ReplicationBudget,
    policy: &ReplicaPolicy,
    mut cache: Option<&mut SwapGainCache>,
) -> (ReplicationPlan, ReplanCost) {
    let mut meter = CostMeter::new();
    let bpe = bytes_per_expert.max(1);
    let (n_layers, n_units) = (incumbent.base.n_layers(), incumbent.base.n_units());
    let gains = replica_gains_by_unit(objective, &incumbent.base);
    let gain = |l: usize, x: usize, units: &[usize]| -> f64 {
        units.iter().map(|&u| gains[l][x][u]).sum()
    };
    // The policy's subset for every positive-gain expert; one the
    // incumbent already holds in full ships nothing and ranks first.
    let proposals = |policy: &ReplicaPolicy| -> Vec<Entry> {
        let experts = (0..n_layers).flat_map(|l| (0..objective.n_experts()).map(move |x| (l, x)));
        experts
            .filter_map(|(l, x)| {
                let units = policy.target_units(l, x, incumbent.base.unit_of(l, x), n_units);
                let gain = gain(l, x, &units);
                if gain <= 0.0 {
                    return None;
                }
                let fresh = units.iter().filter(|&&u| !incumbent.available_on(l, x, u));
                let ship = fresh.count() as u64 * bpe;
                let score = if ship == 0 {
                    f64::INFINITY
                } else {
                    gain / ship as f64
                };
                Some((l, x, units, ship, score))
            })
            .collect()
    };
    let held = incumbent.replicas.iter().enumerate().flat_map(|(l, lr)| {
        lr.iter()
            .map(move |(x, units)| (l, *x, units.clone(), 0, gain(l, *x, units)))
    });
    let mut build = |entries| {
        candidate(
            objective,
            incumbent,
            entries,
            bpe,
            budget,
            &mut meter,
            cache.as_deref_mut(),
        )
    };
    let owner_moves = build(held.collect());
    let replica_first = build(proposals(policy));
    // Full fan-out stays in the race so a subset policy degrades
    // gracefully to the Lina-style baseline on instances where only
    // universal copies absorb enough mass.
    let everywhere = (!matches!(policy, ReplicaPolicy::Everywhere))
        .then(|| build(proposals(&ReplicaPolicy::Everywhere)));

    let mut winner = owner_moves;
    let mut best = replicated_cross_mass(objective, &winner);
    for cand in [Some(replica_first), everywhere].into_iter().flatten() {
        let cost = replicated_cross_mass(objective, &cand);
        if cost < best {
            best = cost;
            winner = cand;
        }
    }
    (winner, meter.cost())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::GapBackend;
    use crate::online::MigrationPlan;

    /// Shift affinity with a uniform leak: the optimum differs from
    /// round-robin, so re-placement has work to do.
    fn objective_with(e: usize, gaps: usize, kappa: f64, backend: GapBackend) -> Objective {
        let u = 1.0 / e as f64;
        let mut m = vec![0.0f64; e * e];
        for i in 0..e {
            for p in 0..e {
                let s = f64::from(p == (i + 3) % e);
                m[i * e + p] = kappa * s + (1.0 - kappa) * u;
            }
        }
        Objective::from_raw_with(vec![m; gaps], e, backend)
    }

    /// Sparse shift instance (pure permutation rows keep the gaps CSR).
    fn sparse_objective(e: usize, gaps: usize) -> Objective {
        let mut m = vec![0.0f64; e * e];
        for i in 0..e {
            m[i * e + (i + 3) % e] = 0.7;
            m[i * e + (i + 1) % e] = 0.3;
        }
        Objective::from_raw(vec![m; gaps], e)
    }

    /// A layer a swap left stale cannot be read before it is settled.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "read stale")]
    fn reading_a_stale_layer_panics() {
        let obj = sparse_objective(8, 2);
        let mut placement = Placement::round_robin(3, 8, 2);
        let mut table = SwapGainCache::for_objective(&obj);
        table.load(&obj, &placement);
        placement.swap(1, 0, 1);
        table.refresh(&obj, (1, 0, 1));
        table.layer(2);
    }

    #[test]
    fn solve_is_the_same_with_and_without_a_buffer() {
        for obj in [
            objective_with(12, 4, 0.85, GapBackend::Dense),
            objective_with(12, 4, 0.85, GapBackend::Sparse),
            sparse_objective(16, 3),
        ] {
            let incumbent = Placement::round_robin(obj.n_layers(), obj.n_experts(), 4);
            // One buffer across every budget: nothing carries over.
            let mut cache = SwapGainCache::for_objective(&obj);
            for budget in [0u64, 4, 12, u64::MAX] {
                let (local, cost_l) =
                    solve_budgeted_metered(&obj, &incumbent, budget, u64::MAX, None);
                let (cached, cost_c) =
                    solve_budgeted_metered(&obj, &incumbent, budget, u64::MAX, Some(&mut cache));
                assert_eq!(local, cached, "budget {budget}: buffer changed the walk");
                // Same code, same work: the whole cost is equal, and
                // evaluated + reused partitions considered.
                assert_eq!(cost_l, cost_c);
                assert_eq!(cost_c.evaluated + cost_c.reused, cost_c.considered);
            }
        }
    }

    #[test]
    fn the_table_answers_almost_every_candidate() {
        let obj = sparse_objective(32, 4);
        let incumbent = Placement::round_robin(obj.n_layers(), 32, 4);
        let (_, cost) = solve_budgeted_metered(&obj, &incumbent, u64::MAX, u64::MAX, None);
        assert!(
            cost.evaluated * 20 < cost.considered,
            "too many exact calls: {} of {}",
            cost.evaluated,
            cost.considered
        );
    }

    /// The row bounds fire, as a machine-independent count: on a random
    /// start at `E = 512` the polish and the toward-target walk price
    /// (*visit*) a fraction of the candidates they are charged for, and are
    /// charged exactly what the walks that visit every candidate are.
    #[test]
    fn the_polish_and_the_toward_walk_visit_a_fraction_of_what_they_consider() {
        use rand::{rngs::StdRng, SeedableRng};
        let obj = sparse_objective(512, 1);
        let start = crate::local_search::random_placement(2, 512, 8, &mut StdRng::seed_from_u64(7));
        let mut target = solve_greedy(&obj, 8);
        crate::local_search::improve(&obj, &mut target, 50);
        type Walk<'a> = &'a dyn Fn(&mut CostMeter, &mut SwapGainCache) -> Placement;
        let polish: Walk = &|meter, table| {
            let mut p = start.clone();
            improve_metered(&obj, &mut p, 50, meter, Some(table));
            p
        };
        let toward: Walk =
            &|meter, table| budgeted_walk(&obj, &start, Some(&target), 64, meter, Some(table));
        // Visited per thousand considered: the measured share (0.2563 and
        // 0.0493), rounded up.
        for (name, walk, bar) in [("polish", polish, 260), ("toward-target", toward, 50)] {
            let run = |mut table: SwapGainCache| {
                let mut meter = CostMeter::new();
                let end = walk(&mut meter, &mut table);
                (end, meter.cost(), table.probe.visited.get())
            };
            let (end, cost, visited) = run(SwapGainCache::for_objective(&obj));
            let (end_all, cost_all, visited_all) = run(SwapGainCache::unpruned(&obj));
            assert_eq!((end, cost), (end_all, cost_all), "{name}");
            assert_eq!(visited_all, cost_all.considered, "{name}");
            println!(
                "{name}: visited {visited} of {} considered ({:.4})",
                cost.considered,
                visited as f64 / cost.considered as f64
            );
            assert!(visited * 1000 <= cost.considered * bar, "{name}: {visited}");
        }
    }

    #[test]
    fn replicated_cached_matches_uncached_and_respects_budgets() {
        let obj = sparse_objective(16, 4);
        let l = obj.n_layers();
        let mut lists = vec![Vec::new(); l];
        lists[1] = vec![2, 9];
        let incumbent = ReplicationPlan::everywhere(Placement::round_robin(l, 16, 4), lists);
        let budget = ReplicationBudget {
            replica_memory_bytes: 40,
            migration_budget_bytes: 80,
        };
        for policy in [
            ReplicaPolicy::Everywhere,
            ReplicaPolicy::OnePerNode(exflow_topology::ClusterSpec::new(2, 2).unwrap()),
        ] {
            let (uncached, _) =
                solve_budgeted_replicated_metered(&obj, &incumbent, 10, &budget, &policy, None);
            let mut cache = SwapGainCache::for_objective(&obj);
            let (cached, cost) = solve_budgeted_replicated_metered(
                &obj,
                &incumbent,
                10,
                &budget,
                &policy,
                Some(&mut cache),
            );
            assert_eq!(uncached, cached);
            assert!(cost.reused > 0);
            let plan = MigrationPlan::between_replicated(&incumbent, &cached, 10);
            assert!(plan.total_bytes() <= budget.migration_budget_bytes);
        }
    }

    #[test]
    fn zero_budget_returns_incumbent_unchanged() {
        let obj = objective_with(8, 3, 0.8, GapBackend::Auto);
        let incumbent = Placement::round_robin(4, 8, 4);
        for budget in [0u64, 1] {
            let p = solve_budgeted_metered(&obj, &incumbent, budget, u64::MAX, None).0;
            assert_eq!(p, incumbent, "budget {budget} must not move anything");
            assert!(MigrationPlan::between(&incumbent, &p, 1).is_empty());
        }
    }

    #[test]
    fn budget_caps_moves_exactly() {
        let obj = objective_with(16, 4, 0.9, GapBackend::Auto);
        let incumbent = Placement::round_robin(5, 16, 4);
        for budget in [2u64, 4, 8, 16] {
            let p = solve_budgeted_metered(&obj, &incumbent, budget, u64::MAX, None).0;
            let plan = MigrationPlan::between(&incumbent, &p, 1);
            assert!(
                plan.n_moves() as u64 <= budget,
                "budget {budget}: {} moves",
                plan.n_moves()
            );
        }
    }

    #[test]
    fn budgeted_cost_is_monotone_in_budget() {
        let obj = objective_with(16, 4, 0.9, GapBackend::Auto);
        let incumbent = Placement::round_robin(5, 16, 4);
        let mut last = obj.cross_mass(&incumbent);
        for budget in [0u64, 2, 6, 12, 24, 1000] {
            let cost =
                obj.cross_mass(&solve_budgeted_metered(&obj, &incumbent, budget, u64::MAX, None).0);
            assert!(
                cost <= last + 1e-12,
                "budget {budget}: cost {cost} worse than {last}"
            );
            last = cost;
        }
    }

    #[test]
    fn unbounded_budget_matches_from_scratch_quality() {
        let obj = objective_with(8, 3, 0.85, GapBackend::Auto);
        let incumbent = Placement::round_robin(4, 8, 2);
        let p = solve_budgeted_metered(&obj, &incumbent, u64::MAX, u64::MAX, None).0;
        // At least as good as the from-scratch greedy + polish target it
        // races against (the toward-walk visits the target itself), and
        // strictly better than the stale incumbent.
        let mut target = solve_greedy(&obj, 2);
        crate::local_search::improve(&obj, &mut target, 50);
        let cost = obj.cross_mass(&p);
        assert!(cost <= obj.cross_mass(&target) + 1e-12);
        assert!(cost < obj.cross_mass(&incumbent));
    }

    #[test]
    fn joint_solve_respects_both_budget_axes() {
        let obj = objective_with(16, 4, 0.9, GapBackend::Auto);
        let incumbent = ReplicationPlan::bare(Placement::round_robin(5, 16, 4));
        let policies = [
            ReplicaPolicy::Everywhere,
            ReplicaPolicy::OnePerNode(exflow_topology::ClusterSpec::new(2, 2).unwrap()),
        ];
        for policy in &policies {
            for (mem_slots, move_slots) in [(0u64, 4u64), (4, 0), (4, 8), (8, 16)] {
                let budget = ReplicationBudget {
                    replica_memory_bytes: mem_slots * 10,
                    migration_budget_bytes: move_slots * 10,
                };
                let next =
                    solve_budgeted_replicated_metered(&obj, &incumbent, 10, &budget, policy, None)
                        .0;
                let extra = next.extra_copies_per_gpu() as u64;
                assert!(
                    extra <= mem_slots,
                    "{policy:?} ({mem_slots},{move_slots}): {extra} extra copies over budget"
                );
                let plan = MigrationPlan::between_replicated(&incumbent, &next, 10);
                assert!(
                    plan.total_bytes() <= budget.migration_budget_bytes,
                    "{policy:?} ({mem_slots},{move_slots}): {} bytes over budget",
                    plan.total_bytes()
                );
            }
        }
    }

    #[test]
    fn partial_policy_never_loses_to_full_at_equal_budget() {
        // The partial solve races the everywhere candidate too, so at any
        // equal joint budget its winner is at least as good. Inputs:
        // `(E, layers, cluster, [(replica slots, moves)])`, the last the
        // large-expert shape.
        let cluster = |nodes, gpus| exflow_topology::ClusterSpec::new(nodes, gpus).unwrap();
        let inputs = [
            (16, 5, cluster(2, 2), &[(2u64, 8u64), (4, 8), (6, 16)][..]),
            (256, 2, cluster(2, 4), &[(4, 12)][..]),
        ];
        for (e, layers, cluster, budgets) in inputs {
            let obj = objective_with(e, layers - 1, 0.9, GapBackend::Auto);
            let units = cluster.world_size();
            let incumbent = ReplicationPlan::bare(Placement::round_robin(layers, e, units));
            for &(mem_slots, move_slots) in budgets {
                let budget = ReplicationBudget {
                    replica_memory_bytes: mem_slots * 10,
                    migration_budget_bytes: move_slots * 10,
                };
                let cross = |policy: &ReplicaPolicy| {
                    let (plan, _) = solve_budgeted_replicated_metered(
                        &obj, &incumbent, 10, &budget, policy, None,
                    );
                    replicated_cross_mass(&obj, &plan)
                };
                let full_cross = cross(&ReplicaPolicy::Everywhere);
                let partial_cross = cross(&ReplicaPolicy::OnePerNode(cluster));
                assert!(
                    partial_cross <= full_cross,
                    "E{e} ({mem_slots},{move_slots}): partial {partial_cross} vs full {full_cross}"
                );
            }
        }
    }

    #[test]
    fn joint_solve_never_loses_to_owner_moves_only() {
        let obj = objective_with(16, 4, 0.9, GapBackend::Auto);
        let incumbent = ReplicationPlan::bare(Placement::round_robin(5, 16, 4));
        for move_slots in [4u64, 8, 24] {
            let bytes = move_slots * 10;
            let owner_only =
                solve_budgeted_metered(&obj, &incumbent.base, move_slots, u64::MAX, None).0;
            let owner_cost = obj.cross_mass(&owner_only);
            let joint = solve_budgeted_replicated_metered(
                &obj,
                &incumbent,
                10,
                &ReplicationBudget {
                    replica_memory_bytes: 6 * 10,
                    migration_budget_bytes: bytes,
                },
                &ReplicaPolicy::Everywhere,
                None,
            )
            .0;
            let joint_cost = replicated_cross_mass(&obj, &joint);
            assert!(
                joint_cost <= owner_cost + 1e-12,
                "moves {move_slots}: joint {joint_cost} vs owner-only {owner_cost}"
            );
        }
    }

    #[test]
    fn zero_memory_budget_reduces_to_owner_moves() {
        let obj = objective_with(12, 3, 0.85, GapBackend::Auto);
        let incumbent = ReplicationPlan::bare(Placement::round_robin(4, 12, 4));
        let budget = ReplicationBudget {
            replica_memory_bytes: 0,
            migration_budget_bytes: 8 * 10,
        };
        let next = solve_budgeted_replicated_metered(
            &obj,
            &incumbent,
            10,
            &budget,
            &ReplicaPolicy::Everywhere,
            None,
        )
        .0;
        assert!(next.replicas.iter().all(Vec::is_empty));
        assert_eq!(
            next.base,
            solve_budgeted_metered(&obj, &incumbent.base, 8, u64::MAX, None).0
        );
    }

    #[test]
    fn joint_owner_moves_onto_held_copies_ship_nothing() {
        // Every expert is replicated on every other unit and slots are to
        // spare: each owner move the walk makes lands on a holder.
        let (l, e, bpe) = (3, 8, 10);
        let incumbent = Placement::round_robin(l, e, 2);
        let incumbent = ReplicationPlan::everywhere(incumbent, vec![(0..e).collect(); l]);
        let budget = ReplicationBudget {
            replica_memory_bytes: (l * e) as u64 * bpe,
            migration_budget_bytes: 8 * bpe,
        };
        let solve = |obj: &Objective, from: &ReplicationPlan| {
            let policy = ReplicaPolicy::Everywhere;
            solve_budgeted_replicated_metered(obj, from, bpe, &budget, &policy, None).0
        };
        let next = solve(&objective_with(e, l - 1, 0.9, GapBackend::Auto), &incumbent);
        let mut landed = 0;
        for layer in 0..l {
            for x in 0..e {
                let (from, to) = (
                    incumbent.base.unit_of(layer, x),
                    next.base.unit_of(layer, x),
                );
                if from != to && incumbent.available_on(layer, x, to) {
                    landed += 1;
                    assert!(
                        next.available_on(layer, x, from),
                        "({layer}, {x}) lost its copy"
                    );
                }
            }
        }
        assert!(landed > 0, "the shifted objective must move owners");
        // The reversed objective routes within the incumbent's blocks, so
        // the second re-plan walks owners back onto their old units.
        let cap = e / 2;
        let back: Vec<f64> = (0..e * e)
            .map(|c| f64::from(c / e / cap == c % e / cap) / cap as f64)
            .collect();
        let again = solve(&Objective::from_raw(vec![back; l - 1], e), &next);
        let plan = MigrationPlan::between_replicated(&next, &again, bpe);
        assert!(
            plan.n_relocations() > 0,
            "the reversed objective must move owners"
        );
        assert_eq!(plan.total_bytes(), 0, "{plan:?}");
    }

    #[test]
    fn joint_solve_is_deterministic_and_drops_stale_replicas() {
        let obj = objective_with(16, 4, 0.9, GapBackend::Auto);
        // Incumbent replicates two experts the drifted objective gives no
        // incoming cross mass... pick experts and verify drop behavior on
        // a shrunken memory budget.
        let mut lists = vec![Vec::new(); 5];
        lists[2] = vec![3, 7];
        let incumbent = ReplicationPlan::everywhere(Placement::round_robin(5, 16, 4), lists);
        let budget = ReplicationBudget {
            replica_memory_bytes: 10, // one slot per GPU
            migration_budget_bytes: 6 * 10,
        };
        let a = solve_budgeted_replicated_metered(
            &obj,
            &incumbent,
            10,
            &budget,
            &ReplicaPolicy::Everywhere,
            None,
        )
        .0;
        let b = solve_budgeted_replicated_metered(
            &obj,
            &incumbent,
            10,
            &budget,
            &ReplicaPolicy::Everywhere,
            None,
        )
        .0;
        assert_eq!(a, b, "joint solve must be deterministic");
        assert!(a.extra_copies_per_gpu() <= 1);
    }

    #[test]
    fn cached_improve_matches_uncached_improve() {
        use crate::local_search::improve;
        let obj = objective_with(12, 4, 0.8, GapBackend::Dense);
        let seed = Placement::round_robin(5, 12, 4);
        let mut plain = seed.clone();
        let plain_cost = improve(&obj, &mut plain, 50);
        let mut cached = seed.clone();
        let mut meter = CostMeter::new();
        let mut cache = SwapGainCache::for_objective(&obj);
        let cached_cost = improve_metered(&obj, &mut cached, 50, &mut meter, Some(&mut cache));
        assert_eq!(plain, cached);
        assert_eq!(plain_cost.to_bits(), cached_cost.to_bits());
        assert!(meter.cost().reused > 0);
    }
}
