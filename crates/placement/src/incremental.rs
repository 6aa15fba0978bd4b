//! Incremental re-placement for the online serving mode: the budgeted
//! solvers that re-plan from an incumbent placement, the deterministic
//! operation-count [`CostMeter`] every one of them charges, and the
//! persistent [`SwapGainCache`] with structural (CSR/CSC-keyed)
//! invalidation they can reuse gains from.
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
//! The budgeted solvers rescan every `(layer, e1, e2)` swap candidate on
//! every descent step, so a re-plan that executes `S` swaps costs
//! `(S + 1) * L * E^2 / 2` gain evaluations — the actual bottleneck at
//! `E = 512`, where the solver, not migration bytes, dominates re-plan
//! latency. A swap only perturbs the gains of candidates that *touch* it
//! structurally (the swapped experts, their successors one layer down,
//! their predecessors one layer up), so after the first full scan each
//! subsequent rescan re-evaluates `O(dirty)` candidates and answers the
//! rest from the cache.
//!
//! Everything here preserves the crate's bit-determinism contract:
//!
//! * a cache hit returns the exact `f64` a fresh [`Objective::swap_delta`]
//!   call would produce (invalidation is a structural superset of every
//!   value-changing dependency), so cached and uncached runs pick the
//!   same swaps;
//! * the scan budget counts *considered* candidates — cache hits and
//!   misses cost the same — so budgeted truncation points are identical
//!   with and without a cache;
//! * nothing here consults the clock. Wall time is reported by the bench
//!   harness, never branched on.

use crate::greedy::solve_greedy;
use crate::objective::Objective;
use crate::online::{net_moves, pack_to_gpu_slots, sort_by_score};
use crate::placement::Placement;
use crate::replication::{
    replica_gains_by_unit, replicated_cross_mass, LayerReplicas, ReplicaPolicy, ReplicationBudget,
    ReplicationPlan,
};

/// Deterministic solver-cost accounting for one re-plan.
///
/// All counters are operation counts, not wall clock, so they are
/// bit-reproducible across machines and thread counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReplanCost {
    /// Swap candidates the scan loops looked at — cache hits and misses
    /// alike. This is the quantity a scan budget truncates on, which is
    /// what keeps budgeted runs bit-identical whether or not a cache is
    /// attached.
    pub considered: u64,
    /// Candidates whose gain was recomputed via [`Objective::swap_delta`].
    pub evaluated: u64,
    /// Candidates answered from the [`SwapGainCache`].
    pub reused: u64,
    /// Whether the scan budget ran out before the walks converged.
    pub truncated: bool,
}

/// A deterministic operation-count meter for re-plan solver work.
///
/// `budget` caps [`ReplanCost::considered`]; when it is exhausted the
/// scan loops finish the decision already in flight from the scanned
/// prefix and then stop (the descent is truncated, never corrupted).
/// `u64::MAX` means unlimited.
#[derive(Debug, Clone)]
pub struct CostMeter {
    budget: u64,
    cost: ReplanCost,
}

impl CostMeter {
    /// A meter that truncates scans after `budget` considered candidates.
    pub fn new(budget: u64) -> Self {
        CostMeter {
            budget,
            cost: ReplanCost::default(),
        }
    }

    /// A meter that never truncates.
    pub fn unlimited() -> Self {
        CostMeter::new(u64::MAX)
    }

    /// Charge one considered candidate; `false` when the budget is spent
    /// (and the caller must stop scanning).
    fn try_consider(&mut self) -> bool {
        if self.cost.considered >= self.budget {
            self.cost.truncated = true;
            false
        } else {
            self.cost.considered += 1;
            true
        }
    }

    /// The accumulated cost so far.
    pub fn cost(&self) -> ReplanCost {
        self.cost
    }
}

/// A persistent per-`(layer, e1, e2)` swap-gain cache with structural
/// invalidation.
///
/// An entry is valid while neither endpoint's *dirty stamp* is newer than
/// the entry. Executing a swap of `(a, b)` at layer `l`
/// ([`SwapGainCache::note_swap`]) dirties exactly the experts whose unit
/// assignment feeds some candidate's gain:
///
/// * `a` and `b` at layer `l`;
/// * their structural successors at layer `l + 1` (the CSR rows `a`/`b`
///   of gap `l`) — candidates there read `a`/`b`'s units through the
///   incoming half of `swap_delta`;
/// * their structural predecessors at layer `l - 1` (the CSC columns
///   `a`/`b` of gap `l - 1`) — candidates there read the units through
///   the outgoing half.
///
/// A gap's stored cells are the structure on either backend; a cell not
/// stored is zero and contributes an exactly-zero term to every gain on
/// both sides of any unit change, so skipping it never lets a stale value
/// change a solver decision.
///
/// Cached values are position-symmetric: `swap_delta(l, a, b)` and
/// `swap_delta(l, b, a)` are bit-identical (IEEE addition is commutative
/// and both orders visit indices ascending), so entries are stored on the
/// unordered pair.
///
/// The cache carries **no values across trajectories**: each metered walk
/// starts with [`SwapGainCache::invalidate_all`] because it descends its
/// own placement sequence (and each streaming window rewrites the
/// marginal weights wholesale). What persists is the allocation and the
/// within-walk reuse — which is where the `O(E^2)`-per-step cost was.
#[derive(Debug, Clone)]
pub struct SwapGainCache {
    n_layers: usize,
    n_experts: usize,
    /// Entries per layer: `E * (E - 1) / 2` unordered pairs.
    tri: usize,
    vals: Vec<f64>,
    /// Tick at which each entry was computed; 0 = never.
    stamp: Vec<u64>,
    /// Tick at which each `(layer, expert)` was last dirtied.
    dirty: Vec<u64>,
    tick: u64,
}

impl SwapGainCache {
    /// An empty cache for `n_layers x n_experts` instances.
    pub fn new(n_layers: usize, n_experts: usize) -> Self {
        assert!(n_layers >= 1 && n_experts >= 1);
        let tri = n_experts * (n_experts - 1) / 2;
        SwapGainCache {
            n_layers,
            n_experts,
            tri,
            vals: vec![0.0; n_layers * tri],
            stamp: vec![0; n_layers * tri],
            dirty: vec![1; n_layers * n_experts],
            tick: 1,
        }
    }

    /// An empty cache shaped for `objective`.
    pub fn for_objective(objective: &Objective) -> Self {
        SwapGainCache::new(objective.n_layers(), objective.n_experts())
    }

    /// Layers this cache is shaped for.
    pub fn n_layers(&self) -> usize {
        self.n_layers
    }

    /// Experts per layer this cache is shaped for.
    pub fn n_experts(&self) -> usize {
        self.n_experts
    }

    #[inline]
    fn slot(&self, layer: usize, e1: usize, e2: usize) -> usize {
        let (lo, hi) = if e1 < e2 { (e1, e2) } else { (e2, e1) };
        debug_assert!(lo < hi && hi < self.n_experts);
        layer * self.tri + lo * (2 * self.n_experts - lo - 1) / 2 + (hi - lo - 1)
    }

    /// The cached gain for swapping `e1`/`e2` at `layer`, if still valid.
    #[inline]
    pub fn get(&self, layer: usize, e1: usize, e2: usize) -> Option<f64> {
        let s = self.slot(layer, e1, e2);
        let t = self.stamp[s];
        let d = &self.dirty[layer * self.n_experts..(layer + 1) * self.n_experts];
        (t != 0 && t >= d[e1] && t >= d[e2]).then(|| self.vals[s])
    }

    /// Store a freshly computed gain.
    #[inline]
    pub fn put(&mut self, layer: usize, e1: usize, e2: usize, val: f64) {
        let s = self.slot(layer, e1, e2);
        self.vals[s] = val;
        self.stamp[s] = self.tick;
    }

    /// Drop every entry (start of a new walk trajectory, or a streaming
    /// window rewrote the objective's weights). `O(L * E)` — no entry
    /// storage is touched.
    pub fn invalidate_all(&mut self) {
        self.tick += 1;
        self.dirty.fill(self.tick);
    }

    #[inline]
    fn mark(&mut self, layer: usize, x: usize) {
        self.dirty[layer * self.n_experts + x] = self.tick;
    }

    /// Record that `a` and `b` swapped units at `layer`, dirtying exactly
    /// the experts whose unit feeds some cached gain (see the type docs).
    pub fn note_swap(&mut self, objective: &Objective, layer: usize, a: usize, b: usize) {
        debug_assert_eq!(objective.n_layers(), self.n_layers);
        debug_assert_eq!(objective.n_experts(), self.n_experts);
        self.tick += 1;
        self.mark(layer, a);
        self.mark(layer, b);
        if layer + 1 < self.n_layers {
            objective.for_each_in_row(layer, a, |p, _| self.mark(layer + 1, p));
            objective.for_each_in_row(layer, b, |p, _| self.mark(layer + 1, p));
        }
        if layer > 0 {
            objective.for_each_in_col(layer - 1, a, |i, _| self.mark(layer - 1, i));
            objective.for_each_in_col(layer - 1, b, |i, _| self.mark(layer - 1, i));
        }
    }
}

/// One gain lookup: cache hit, or recompute-and-fill. The value is
/// bit-identical either way; only the `evaluated`/`reused` split differs.
#[inline]
fn gain(
    objective: &Objective,
    placement: &Placement,
    layer: usize,
    e1: usize,
    e2: usize,
    meter: &mut CostMeter,
    cache: &mut Option<&mut SwapGainCache>,
) -> f64 {
    if let Some(c) = cache.as_deref_mut() {
        if let Some(v) = c.get(layer, e1, e2) {
            meter.cost.reused += 1;
            return v;
        }
        let v = objective.swap_delta(placement, layer, e1, e2);
        meter.cost.evaluated += 1;
        c.put(layer, e1, e2, v);
        v
    } else {
        meter.cost.evaluated += 1;
        objective.swap_delta(placement, layer, e1, e2)
    }
}

/// First-improvement swap passes over `placement`, in place, until a local
/// optimum or `max_passes` — the walk behind
/// [`crate::local_search::improve`] — charged to `meter`, optionally
/// served from `cache`, and truncated when the scan budget runs out (swaps
/// already applied stay applied). Returns the final cross mass.
pub fn improve_metered(
    objective: &Objective,
    placement: &mut Placement,
    max_passes: usize,
    meter: &mut CostMeter,
    mut cache: Option<&mut SwapGainCache>,
) -> f64 {
    if let Some(c) = cache.as_deref_mut() {
        c.invalidate_all();
    }
    let e = objective.n_experts();
    let l = objective.n_layers();
    'passes: for _ in 0..max_passes {
        let mut improved = false;
        for layer in 0..l {
            for e1 in 0..e {
                for e2 in (e1 + 1)..e {
                    if !meter.try_consider() {
                        break 'passes;
                    }
                    let delta = gain(objective, placement, layer, e1, e2, meter, &mut cache);
                    if delta < -1e-12 {
                        placement.swap(layer, e1, e2);
                        if let Some(c) = cache.as_deref_mut() {
                            c.note_swap(objective, layer, e1, e2);
                        }
                        improved = true;
                    }
                }
            }
        }
        if !improved {
            break;
        }
    }
    objective.cross_mass(placement)
}

/// Best-improvement descent (see [`solve_budgeted_toward_metered`] for the
/// walk's semantics). A spent scan budget finishes the decision in flight
/// from the scanned prefix and stops.
fn budgeted_descent_metered(
    objective: &Objective,
    incumbent: &Placement,
    max_moves: u64,
    meter: &mut CostMeter,
    mut cache: Option<&mut SwapGainCache>,
) -> Placement {
    if let Some(c) = cache.as_deref_mut() {
        c.invalidate_all();
    }
    let e = objective.n_experts();
    let l = objective.n_layers();
    let mut placement = incumbent.clone();
    loop {
        let mut best: Option<(f64, usize, usize, usize)> = None;
        let mut exhausted = false;
        'scan: for layer in 0..l {
            for e1 in 0..e {
                for e2 in (e1 + 1)..e {
                    if !meter.try_consider() {
                        exhausted = true;
                        break 'scan;
                    }
                    let delta = gain(objective, &placement, layer, e1, e2, meter, &mut cache);
                    if delta < -1e-12 && best.is_none_or(|(b, _, _, _)| delta < b) {
                        best = Some((delta, layer, e1, e2));
                    }
                }
            }
        }
        let Some((_, layer, e1, e2)) = best else {
            break;
        };
        let mut next = placement.clone();
        next.swap(layer, e1, e2);
        if net_moves(incumbent, &next) > max_moves {
            break;
        }
        placement = next;
        if let Some(c) = cache.as_deref_mut() {
            c.note_swap(objective, layer, e1, e2);
        }
        if exhausted {
            break;
        }
    }
    placement
}

/// Toward-target walk (see [`solve_budgeted_toward_metered`]). Same
/// truncation semantics as the descent.
fn budgeted_toward_metered(
    objective: &Objective,
    incumbent: &Placement,
    target: &Placement,
    max_moves: u64,
    meter: &mut CostMeter,
    mut cache: Option<&mut SwapGainCache>,
) -> Placement {
    if let Some(c) = cache.as_deref_mut() {
        c.invalidate_all();
    }
    let e = objective.n_experts();
    let l = objective.n_layers();
    let mut placement = incumbent.clone();
    let mut best = (objective.cross_mass(&placement), placement.clone());
    loop {
        let mut pick: Option<(f64, usize, usize, usize)> = None;
        let mut exhausted = false;
        'scan: for layer in 0..l {
            for e1 in 0..e {
                let want = target.unit_of(layer, e1);
                if placement.unit_of(layer, e1) == want {
                    continue;
                }
                for e2 in 0..e {
                    if e2 != e1
                        && placement.unit_of(layer, e2) == want
                        && target.unit_of(layer, e2) != want
                    {
                        if !meter.try_consider() {
                            exhausted = true;
                            break 'scan;
                        }
                        let delta = gain(objective, &placement, layer, e1, e2, meter, &mut cache);
                        if pick.is_none_or(|(b, _, _, _)| delta < b) {
                            pick = Some((delta, layer, e1, e2));
                        }
                    }
                }
            }
        }
        let Some((_, layer, e1, e2)) = pick else {
            break;
        };
        let mut next = placement.clone();
        next.swap(layer, e1, e2);
        if net_moves(incumbent, &next) > max_moves {
            break;
        }
        placement = next;
        if let Some(c) = cache.as_deref_mut() {
            c.note_swap(objective, layer, e1, e2);
        }
        let cost = objective.cross_mass(&placement);
        if cost < best.0 {
            best = (cost, placement.clone());
        }
        if exhausted {
            break;
        }
    }
    best.1
}

/// Budgeted incremental re-placement toward an explicit unconstrained
/// target. Two deterministic strategies race on the shared `meter`
/// (descent scans first):
///
/// * **descent** — best-improvement swaps from the incumbent (cheap
///   polish; ideal when drift only perturbed the structure);
/// * **toward-target** — walk the incumbent toward `target`
///   best-gain-first, keeping the cheapest placement visited within
///   budget (escapes the stale basin after a regime change).
///
/// The cheaper result wins (descent on ties). Both walks are
/// budget-independent paths that a larger budget merely extends, so the
/// returned cost improves monotonically with `max_moves`, and
/// `max_moves = 0` returns the incumbent unchanged.
pub fn solve_budgeted_toward_metered(
    objective: &Objective,
    incumbent: &Placement,
    target: &Placement,
    max_moves: u64,
    meter: &mut CostMeter,
    mut cache: Option<&mut SwapGainCache>,
) -> Placement {
    let descent =
        budgeted_descent_metered(objective, incumbent, max_moves, meter, cache.as_deref_mut());
    let toward = budgeted_toward_metered(objective, incumbent, target, max_moves, meter, cache);
    if objective.cross_mass(&toward) < objective.cross_mass(&descent) {
        toward
    } else {
        descent
    }
}

/// [`solve_budgeted_metered`] threading an explicit meter — the
/// composition the replication-aware entry point shares.
fn solve_budgeted_with_meter(
    objective: &Objective,
    incumbent: &Placement,
    max_moves: u64,
    meter: &mut CostMeter,
    mut cache: Option<&mut SwapGainCache>,
) -> Placement {
    let mut target = solve_greedy(objective, incumbent.n_units());
    improve_metered(objective, &mut target, 50, meter, cache.as_deref_mut());
    solve_budgeted_toward_metered(objective, incumbent, &target, max_moves, meter, cache)
}

/// Budgeted incremental re-placement: starting from the incumbent, spend
/// at most `max_moves` *net* expert relocations (what a
/// [`crate::online::MigrationPlan`] between incumbent and result would
/// migrate) to reduce the objective as much as possible.
///
/// `max_moves` caps *migration traffic*, not solver compute, so the
/// target of the walk may be as good a solution as the caller can afford
/// to compute. This entry point builds a deterministic from-scratch
/// target (greedy chain + swap polish, no randomness) and delegates to
/// [`solve_budgeted_toward_metered`]; callers that already hold a
/// stronger solution — e.g. an oracle re-solve — should pass it there
/// directly.
///
/// Solver compute is capped by `scan_budget`. The returned placement is
/// the same for any cache state; the [`ReplanCost`] reports how many
/// candidates were considered, how many gains were actually recomputed,
/// and how many were reused from the cache. A finite budget truncates the
/// walks deterministically — cache hits and misses are charged alike, so
/// the truncation point does not depend on cache state — and
/// `u64::MAX` never truncates.
pub fn solve_budgeted_metered(
    objective: &Objective,
    incumbent: &Placement,
    max_moves: u64,
    scan_budget: u64,
    cache: Option<&mut SwapGainCache>,
) -> (Placement, ReplanCost) {
    let mut meter = CostMeter::new(scan_budget);
    let placement = solve_budgeted_with_meter(objective, incumbent, max_moves, &mut meter, cache);
    (placement, meter.cost())
}

/// Remove the (possibly new) owner from every subset and drop entries
/// whose subset emptied — owner moves executed after subset selection may
/// land an owner on a unit that was picked as a replica target.
fn sanitize_subsets(replicas: &mut [LayerReplicas], base: &Placement) {
    for (layer, lr) in replicas.iter_mut().enumerate() {
        for (expert, units) in lr.iter_mut() {
            let owner = base.unit_of(layer, *expert);
            units.retain(|&u| u != owner);
        }
        lr.retain(|(_, units)| !units.is_empty());
    }
}

/// One replica-first candidate under `policy`: rank every positive-gain
/// `(layer, expert)` by absorbed incoming cross mass per byte shipped to
/// its policy-chosen target subset (entries the incumbent already holds
/// in full ship nothing and rank first), greedily accept under the
/// per-GPU slot cap and the migration byte budget, then spend the
/// leftover bytes on owner moves.
// Mirrors the solver-stage plumbing; a params struct would just rename
// the same eight inputs at every call site.
#[allow(clippy::too_many_arguments)]
fn replica_first_candidate(
    objective: &Objective,
    incumbent: &ReplicationPlan,
    gains: &[Vec<Vec<f64>>],
    policy: &ReplicaPolicy,
    bpe: u64,
    slots: u64,
    budget: &ReplicationBudget,
    meter: &mut CostMeter,
    cache: Option<&mut SwapGainCache>,
) -> ReplicationPlan {
    let n_layers = incumbent.base.n_layers();
    let n_units = incumbent.base.n_units();
    let e = objective.n_experts();
    // Dense side tables so the ranked triples stay cheap to sort.
    let mut subset_of: Vec<Vec<Vec<usize>>> = vec![vec![Vec::new(); e]; n_layers];
    let mut ship_bytes: Vec<Vec<u64>> = vec![vec![0; e]; n_layers];
    let mut ranked: Vec<(usize, usize, f64)> = Vec::new();
    for l in 0..n_layers {
        for x in 0..e {
            let owner = incumbent.base.unit_of(l, x);
            let units = policy.target_units(l, x, owner, n_units);
            if units.is_empty() {
                continue;
            }
            let gain: f64 = units.iter().map(|&u| gains[l][x][u]).sum();
            if gain <= 0.0 {
                continue;
            }
            let to_ship = units
                .iter()
                .filter(|&&u| !incumbent.available_on(l, x, u))
                .count() as u64;
            let ship = to_ship * bpe;
            // Fully-held subsets are free to keep and rank ahead of
            // anything that costs bytes.
            let score = if ship == 0 {
                f64::INFINITY
            } else {
                gain / ship as f64
            };
            subset_of[l][x] = units;
            ship_bytes[l][x] = ship;
            ranked.push((l, x, score));
        }
    }
    sort_by_score(&mut ranked);
    let mut migration_left = budget.migration_budget_bytes;
    let mut load = vec![0u64; n_units];
    let mut replicas: Vec<LayerReplicas> = vec![Vec::new(); n_layers];
    for &(l, x, _) in &ranked {
        let units = &subset_of[l][x];
        if units.iter().any(|&u| load[u] >= slots) {
            continue;
        }
        if ship_bytes[l][x] > migration_left {
            continue;
        }
        migration_left -= ship_bytes[l][x];
        for &u in units {
            load[u] += 1;
        }
        replicas[l].push((x, units.clone()));
    }
    for lr in &mut replicas {
        lr.sort_unstable_by_key(|r| r.0);
    }
    let base = solve_budgeted_with_meter(
        objective,
        &incumbent.base,
        migration_left / bpe,
        meter,
        cache,
    );
    sanitize_subsets(&mut replicas, &base);
    ReplicationPlan { base, replicas }
}

/// Replication-aware budgeted re-plan: starting from an incumbent
/// [`ReplicationPlan`], spend a joint budget — replica memory per GPU plus
/// migration bytes — on whichever mix of **replica adds/drops** and
/// **owner moves** reduces the replication-aware objective
/// ([`replicated_cross_mass`]) the most. Up to three deterministic
/// candidates race:
///
/// * **owner-moves-only** — the full migration budget goes to the
///   [`solve_budgeted_metered`] walk on the base placement; the
///   incumbent's replica entries are kept, re-packed into the per-GPU
///   memory budget if it shrank;
/// * **replica-first under `policy`** — `(expert, target-subset)`
///   candidates (the subset is what `policy` selects for the expert's
///   owner) are ranked by absorbed incoming cross mass *per fan-out byte*
///   ([`replica_gains_by_unit`] summed over the subset, divided by the
///   bytes the add must ship), in the budgeted-subset-selection style of
///   the interval-subset-sum line of work (Diao et al.,
///   arXiv:1704.06928). Entries the incumbent already holds are free and
///   rank first; new ones are accepted best-density-first while every
///   subset unit has a free memory slot and the migration budget covers
///   the fan-out; whatever bytes remain fund owner-move descent.
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
/// Every inner budgeted solve is charged to one meter of `scan_budget`
/// considered candidates in a fixed order (owner-moves-only first, then
/// the policy's replica-first, then full fan-out) and may reuse `cache`.
/// Replica-gain ranking is `O(nnz)` bookkeeping and is not charged.
pub fn solve_budgeted_replicated_metered(
    objective: &Objective,
    incumbent: &ReplicationPlan,
    bytes_per_expert: u64,
    budget: &ReplicationBudget,
    policy: &ReplicaPolicy,
    scan_budget: u64,
    mut cache: Option<&mut SwapGainCache>,
) -> (ReplicationPlan, ReplanCost) {
    let mut meter = CostMeter::new(scan_budget);
    let bpe = bytes_per_expert.max(1);
    // Per-GPU slot cap: how many extra expert copies any single GPU may hold.
    let slots = budget.replica_memory_bytes / bpe;
    let n_layers = incumbent.base.n_layers();
    let n_units = incumbent.base.n_units();
    let gains = replica_gains_by_unit(objective, &incumbent.base);

    // Candidate A: owner moves only, incumbent subsets carried over —
    // re-packed under the per-GPU slot cap by descending absorbed gain
    // (drops are free), then sanitized against the moved owners.
    let owner_moves = budget.migration_budget_bytes / bpe;
    let base_a = solve_budgeted_with_meter(
        objective,
        &incumbent.base,
        owner_moves,
        &mut meter,
        cache.as_deref_mut(),
    );
    let mut held: Vec<(usize, usize, f64)> = Vec::new();
    for (l, layer) in incumbent.replicas.iter().enumerate() {
        for (x, units) in layer {
            let gain: f64 = units.iter().map(|&u| gains[l][*x][u]).sum();
            held.push((l, *x, gain));
        }
    }
    sort_by_score(&mut held);
    let ranked: Vec<(usize, usize, Vec<usize>)> = held
        .iter()
        .map(|&(l, x, _)| (l, x, incumbent.replica_units(l, x).to_vec()))
        .collect();
    let mut replicas_a = pack_to_gpu_slots(&ranked, n_layers, n_units, slots);
    sanitize_subsets(&mut replicas_a, &base_a);
    let cand_a = ReplicationPlan {
        base: base_a,
        replicas: replicas_a,
    };

    // Candidate B: replica-first under the caller's policy.
    let cand_b = replica_first_candidate(
        objective,
        incumbent,
        &gains,
        policy,
        bpe,
        slots,
        budget,
        &mut meter,
        cache.as_deref_mut(),
    );

    // Candidate C: replica-first with full fan-out — kept in the race so
    // a subset policy degrades gracefully to the Lina-style baseline on
    // instances where only universal copies absorb enough mass.
    let cand_c = if matches!(policy, ReplicaPolicy::Everywhere) {
        None
    } else {
        Some(replica_first_candidate(
            objective,
            incumbent,
            &gains,
            &ReplicaPolicy::Everywhere,
            bpe,
            slots,
            budget,
            &mut meter,
            cache,
        ))
    };

    let mut winner = cand_a;
    let mut best = replicated_cross_mass(objective, &winner);
    for cand in [Some(cand_b), cand_c].into_iter().flatten() {
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

    #[test]
    fn cached_solve_is_bit_identical_to_uncached() {
        for obj in [
            objective_with(12, 4, 0.85, GapBackend::Dense),
            objective_with(12, 4, 0.85, GapBackend::Sparse),
            sparse_objective(16, 3),
        ] {
            let incumbent = Placement::round_robin(obj.n_layers(), obj.n_experts(), 4);
            for budget in [0u64, 4, 12, u64::MAX] {
                let (uncached, cost_u) =
                    solve_budgeted_metered(&obj, &incumbent, budget, u64::MAX, None);
                let mut cache = SwapGainCache::for_objective(&obj);
                let (cached, cost_c) =
                    solve_budgeted_metered(&obj, &incumbent, budget, u64::MAX, Some(&mut cache));
                assert_eq!(uncached, cached, "budget {budget}: cached diverged");
                assert_eq!(
                    obj.cross_mass(&cached).to_bits(),
                    obj.cross_mass(&uncached).to_bits()
                );
                // Considered counts never depend on the cache; evaluated +
                // reused always partitions considered.
                assert_eq!(cost_u.considered, cost_c.considered);
                assert_eq!(cost_u.evaluated, cost_u.considered);
                assert_eq!(cost_u.reused, 0);
                assert_eq!(cost_c.evaluated + cost_c.reused, cost_c.considered);
                assert!(!cost_u.truncated && !cost_c.truncated);
            }
        }
    }

    #[test]
    fn cache_reuse_cuts_evaluations_substantially() {
        let obj = sparse_objective(32, 4);
        let incumbent = Placement::round_robin(obj.n_layers(), 32, 4);
        let (_, uncached) = solve_budgeted_metered(&obj, &incumbent, u64::MAX, u64::MAX, None);
        let mut cache = SwapGainCache::for_objective(&obj);
        let (_, cached) =
            solve_budgeted_metered(&obj, &incumbent, u64::MAX, u64::MAX, Some(&mut cache));
        assert!(cached.reused > 0, "no reuse at all");
        assert!(
            cached.evaluated * 2 < uncached.evaluated,
            "cache saved too little: {} vs {}",
            cached.evaluated,
            uncached.evaluated
        );
    }

    #[test]
    fn scan_budget_truncates_deterministically_and_cache_free() {
        let obj = objective_with(16, 4, 0.9, GapBackend::Dense);
        let incumbent = Placement::round_robin(5, 16, 4);
        let (full, _) = solve_budgeted_metered(&obj, &incumbent, u64::MAX, u64::MAX, None);
        // Zero scan budget: nothing is even considered, incumbent returned.
        let (none, cost0) = solve_budgeted_metered(&obj, &incumbent, u64::MAX, 0, None);
        assert_eq!(none, incumbent);
        assert!(cost0.truncated);
        assert_eq!(cost0.considered, 0);
        for scan in [1u64, 100, 2_000, 50_000] {
            let (a, ca) = solve_budgeted_metered(&obj, &incumbent, u64::MAX, scan, None);
            let mut cache = SwapGainCache::for_objective(&obj);
            let (b, cb) =
                solve_budgeted_metered(&obj, &incumbent, u64::MAX, scan, Some(&mut cache));
            assert_eq!(a, b, "scan {scan}: truncation point depends on cache");
            assert_eq!(ca.considered, cb.considered);
            assert_eq!(ca.truncated, cb.truncated);
            assert!(ca.considered <= scan);
            // A truncated walk still never worsens the incumbent.
            assert!(obj.cross_mass(&a) <= obj.cross_mass(&incumbent) + 1e-12);
        }
        // A generous budget reproduces the untruncated result.
        let (big, cost_big) = solve_budgeted_metered(&obj, &incumbent, u64::MAX, u64::MAX, None);
        assert_eq!(big, full);
        assert!(!cost_big.truncated);
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
            let (uncached, _) = solve_budgeted_replicated_metered(
                &obj,
                &incumbent,
                10,
                &budget,
                &policy,
                u64::MAX,
                None,
            );
            let mut cache = SwapGainCache::for_objective(&obj);
            let (cached, cost) = solve_budgeted_replicated_metered(
                &obj,
                &incumbent,
                10,
                &budget,
                &policy,
                u64::MAX,
                Some(&mut cache),
            );
            assert_eq!(uncached, cached);
            assert!(cost.reused > 0);
            let plan = MigrationPlan::between_replicated(&incumbent, &cached, 10);
            assert!(plan.total_bytes() <= budget.migration_budget_bytes);
        }
    }

    #[test]
    fn note_swap_invalidation_is_exact_on_both_backends() {
        // After any executed swap, every *valid* cache entry must still
        // equal a fresh recomputation — the core soundness property.
        for obj in [
            objective_with(10, 3, 0.8, GapBackend::Dense),
            objective_with(10, 3, 0.8, GapBackend::Sparse),
            sparse_objective(10, 3),
        ] {
            let e = obj.n_experts();
            let l = obj.n_layers();
            let mut placement = Placement::round_robin(l, e, 5);
            let mut cache = SwapGainCache::for_objective(&obj);
            cache.invalidate_all();
            // Fill the cache completely.
            for layer in 0..l {
                for e1 in 0..e {
                    for e2 in (e1 + 1)..e {
                        cache.put(layer, e1, e2, obj.swap_delta(&placement, layer, e1, e2));
                    }
                }
            }
            // Execute a few swaps, each time checking every still-valid
            // entry against a recomputation.
            for (layer, a, b) in [(1, 0, 5), (0, 2, 7), (2, 4, 9), (1, 1, 6)] {
                placement.swap(layer, a, b);
                cache.note_swap(&obj, layer, a, b);
                for layer in 0..l {
                    for e1 in 0..e {
                        for e2 in (e1 + 1)..e {
                            if let Some(v) = cache.get(layer, e1, e2) {
                                let fresh = obj.swap_delta(&placement, layer, e1, e2);
                                assert_eq!(
                                    v.to_bits(),
                                    fresh.to_bits(),
                                    "stale cache entry ({layer},{e1},{e2}) after swap"
                                );
                            }
                        }
                    }
                }
            }
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
                let next = solve_budgeted_replicated_metered(
                    &obj,
                    &incumbent,
                    10,
                    &budget,
                    policy,
                    u64::MAX,
                    None,
                )
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
        // equal joint budget its winner is at least as good — exactly the
        // bench gate's bar, here as a unit invariant.
        let obj = objective_with(16, 4, 0.9, GapBackend::Auto);
        let incumbent = ReplicationPlan::bare(Placement::round_robin(5, 16, 4));
        let partial = ReplicaPolicy::OnePerNode(exflow_topology::ClusterSpec::new(2, 2).unwrap());
        for (mem_slots, move_slots) in [(2u64, 8u64), (4, 8), (6, 16)] {
            let budget = ReplicationBudget {
                replica_memory_bytes: mem_slots * 10,
                migration_budget_bytes: move_slots * 10,
            };
            let full_plan = solve_budgeted_replicated_metered(
                &obj,
                &incumbent,
                10,
                &budget,
                &ReplicaPolicy::Everywhere,
                u64::MAX,
                None,
            )
            .0;
            let partial_plan = solve_budgeted_replicated_metered(
                &obj,
                &incumbent,
                10,
                &budget,
                &partial,
                u64::MAX,
                None,
            )
            .0;
            let full_cross = replicated_cross_mass(&obj, &full_plan);
            let partial_cross = replicated_cross_mass(&obj, &partial_plan);
            assert!(
                partial_cross <= full_cross,
                "({mem_slots},{move_slots}): partial {partial_cross} vs full {full_cross}"
            );
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
                u64::MAX,
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
            u64::MAX,
            None,
        )
        .0;
        assert!(!next.has_replicas());
        assert_eq!(
            next.base,
            solve_budgeted_metered(&obj, &incumbent.base, 8, u64::MAX, None).0
        );
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
            u64::MAX,
            None,
        )
        .0;
        let b = solve_budgeted_replicated_metered(
            &obj,
            &incumbent,
            10,
            &budget,
            &ReplicaPolicy::Everywhere,
            u64::MAX,
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
        let mut meter = CostMeter::unlimited();
        let mut cache = SwapGainCache::for_objective(&obj);
        let cached_cost = improve_metered(&obj, &mut cached, 50, &mut meter, Some(&mut cache));
        assert_eq!(plain, cached);
        assert_eq!(plain_cost.to_bits(), cached_cost.to_bits());
        assert!(meter.cost().reused > 0);
    }
}
