//! Expert *replication* on top of a base placement: from the all-GPUs
//! baseline (Li et al., "Accelerating Distributed MoE Training and
//! Inference with Lina", USENIX ATC'23 — the paper's §VI) to partial,
//! node-aware replica subsets.
//!
//! Instead of moving experts to better GPUs, replication keeps the owning
//! placement and spends *extra memory* on copies of hot experts, so tokens
//! whose next expert has a nearby replica skip (or shorten) the Alltoall
//! hop. The Lina baseline fans every replica out to *every* GPU; that is
//! exactly why it degenerates to owner moves at large expert counts — each
//! copy costs `world - 1` payloads of traffic and a memory slot on every
//! GPU. This module therefore represents a replica as an explicit **unit
//! subset**: [`ReplicationPlan`] records, per `(layer, expert)`, the
//! non-owner GPUs holding a copy, and [`ReplicaPolicy`] names the two
//! placement-dependent subset shapes the suite uses (everywhere, or one
//! replica per non-owner node — the paper's node-then-GPU topology). Full
//! replication is the special case where every subset is "all other GPUs",
//! so the Lina baseline remains expressible and all its constructors
//! survive unchanged.

use exflow_affinity::RoutingTrace;
use exflow_topology::{ClusterSpec, Rank};

use crate::objective::{Objective, TraceLocality};
use crate::placement::Placement;

/// One layer's replica entries: `(expert, units)` pairs sorted by expert,
/// where `units` is the sorted list of *non-owner* GPUs holding a copy
/// (never empty, never containing the owner).
pub type LayerReplicas = Vec<(usize, Vec<usize>)>;

/// Joint resource budget of one replication-aware online re-plan: how many
/// bytes of replica copies each GPU may hold, and how many bytes of expert
/// weights the re-plan may ship (owner moves plus replica fan-out).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicationBudget {
    /// Per-GPU byte budget for *extra* replica copies, under the
    /// [`ReplicationPlan::extra_copies_per_gpu`] convention (a copy on the
    /// owner GPU is the original and costs nothing). `0` disables
    /// replication entirely (owner moves only).
    pub replica_memory_bytes: u64,
    /// Byte budget of the migration traffic one re-plan may generate.
    /// A replica add ships the expert from its owner to every unit of the
    /// selected subset that does not already hold a copy; a replica drop
    /// (and an owner move landing on a unit that already holds a copy) is
    /// free.
    pub migration_budget_bytes: u64,
}

/// Which unit subset a replica fans out to — the placement-dependent shape
/// behind [`ReplicationPlan::available_units`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplicaPolicy {
    /// A copy on every non-owner GPU: the Lina-style full fan-out.
    Everywhere,
    /// One copy per non-owner *node*, on a salt-rotated GPU slot within
    /// each node (the paper's topology: the owner's node is already
    /// covered by the owner itself). On a single-node cluster this subset
    /// is empty and replication degenerates to owner moves.
    OnePerNode(ClusterSpec),
}

impl ReplicaPolicy {
    /// The replica target subset for `expert` at `layer` owned by `owner`:
    /// sorted ascending, never containing `owner`. Deterministic in its
    /// arguments, so re-plans at any thread width derive identical
    /// subsets.
    pub fn target_units(
        &self,
        layer: usize,
        expert: usize,
        owner: usize,
        n_units: usize,
    ) -> Vec<usize> {
        match self {
            ReplicaPolicy::Everywhere => (0..n_units).filter(|&u| u != owner).collect(),
            ReplicaPolicy::OnePerNode(cluster) => {
                assert_eq!(
                    cluster.world_size(),
                    n_units,
                    "replica policy cluster does not match the placement's world size"
                );
                cluster
                    .one_per_node(Rank(owner), layer.wrapping_mul(31).wrapping_add(expert))
                    .into_iter()
                    .map(Rank::index)
                    .collect()
            }
        }
    }
}

/// A replication plan on top of a base placement: per layer, the experts
/// holding extra copies and the exact non-owner GPU subset each copy set
/// occupies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicationPlan {
    /// Base (owning) placement.
    pub base: Placement,
    /// `replicas[layer]` lists `(expert, units)` entries sorted by expert;
    /// `units` is the sorted non-owner holder subset (see
    /// [`LayerReplicas`]).
    pub replicas: Vec<LayerReplicas>,
}

impl ReplicationPlan {
    /// The plan with no replicas at any layer: exactly the base placement.
    pub fn bare(base: Placement) -> Self {
        let replicas = vec![Vec::new(); base.n_layers()];
        ReplicationPlan { base, replicas }
    }

    /// Expand per-layer expert lists into all-GPUs replica subsets (the
    /// Lina baseline's semantics): every listed expert gets a copy on
    /// every non-owner unit.
    pub fn everywhere(base: Placement, replicated: Vec<Vec<usize>>) -> Self {
        Self::with_policy(base, replicated, &ReplicaPolicy::Everywhere)
    }

    /// Expand per-layer expert lists into the subsets `policy` selects.
    /// Input lists are sorted and deduplicated; experts whose target
    /// subset is empty (a single-node [`ReplicaPolicy::OnePerNode`]) are
    /// dropped — there is nowhere to put a copy.
    pub fn with_policy(
        base: Placement,
        replicated: Vec<Vec<usize>>,
        policy: &ReplicaPolicy,
    ) -> Self {
        assert_eq!(replicated.len(), base.n_layers(), "layer mismatch");
        let units = base.n_units();
        let replicas: Vec<LayerReplicas> = replicated
            .into_iter()
            .enumerate()
            .map(|(layer, mut xs)| {
                xs.sort_unstable();
                xs.dedup();
                xs.into_iter()
                    .filter_map(|x| {
                        let owner = base.unit_of(layer, x);
                        let tu = policy.target_units(layer, x, owner, units);
                        (!tu.is_empty()).then_some((x, tu))
                    })
                    .collect()
            })
            .collect();
        ReplicationPlan { base, replicas }
    }

    /// Replicate, at every layer, the `budget` experts that receive the
    /// most tokens (the "expert popularity" heuristic), everywhere. The
    /// marginal comes from the objective's row weights.
    ///
    /// ```
    /// use exflow_placement::replication::ReplicationPlan;
    /// use exflow_placement::{Objective, Placement};
    ///
    /// // Identity affinity over 4 experts: every expert equally popular.
    /// let mut gap = vec![0.0; 16];
    /// for i in 0..4 { gap[i * 4 + i] = 1.0; }
    /// let objective = Objective::from_raw(vec![gap], 4);
    /// let base = Placement::round_robin(2, 4, 2);
    ///
    /// let plan = ReplicationPlan::most_popular(&objective, base.clone(), 1);
    /// // One expert replicated everywhere at each of the 2 layers; only
    /// // the non-owner GPU stores an extra copy, so the worst-case extra
    /// // memory is 2 expert payloads (one per layer).
    /// assert_eq!(plan.extra_copies_per_gpu(), 2);
    /// // ... and it is available on every GPU, not just its owner.
    /// let expert = plan.replicated_experts(0).next().unwrap();
    /// assert!(plan.available_on(0, expert, 0) && plan.available_on(0, expert, 1));
    ///
    /// // Replicating *everything* costs each GPU only the experts it does
    /// // not already own: 2 extra per layer here, not 4.
    /// let full = ReplicationPlan::most_popular(&objective, base, 4);
    /// assert_eq!(full.extra_copies_per_gpu(), 4);
    /// ```
    pub fn most_popular(objective: &Objective, base: Placement, budget: usize) -> Self {
        let e = objective.n_experts();
        let l = base.n_layers();
        // Popularity of an expert at `layer` = its marginal share. Row
        // weights exist per gap; the last layer reuses the incoming gap's
        // successor mass.
        let popularity: Vec<Vec<f64>> = (0..l)
            .map(|layer| {
                (0..e)
                    .map(|expert| {
                        if layer < objective.n_gaps() {
                            objective.row_weight(layer, expert)
                        } else if objective.n_gaps() == 0 {
                            // Gapless single-layer instance: no routing
                            // information — every expert is equally popular.
                            1.0 / e as f64
                        } else {
                            (0..e)
                                .map(|i| {
                                    objective.row_weight(layer - 1, i)
                                        * objective.gap_prob(layer - 1, i, expert)
                                })
                                .sum()
                        }
                    })
                    .collect()
            })
            .collect();
        Self::from_popularity(&popularity, base, budget)
    }

    /// Replicate everywhere, at every layer, the `budget` experts with the
    /// highest `popularity[layer][expert]` score. Selection uses a *total*
    /// order — popularity descending, expert index ascending on ties — so
    /// NaN scores (a degenerate estimate) and exact ties resolve
    /// deterministically instead of panicking or leaning on sort
    /// stability. (Under `f64::total_cmp`, NaN orders above every finite
    /// popularity, so NaN-scored experts are selected first — and
    /// deterministically — rather than poisoning the sort.)
    pub fn from_popularity(popularity: &[Vec<f64>], base: Placement, budget: usize) -> Self {
        let e = base.n_experts();
        assert!(budget <= e, "cannot replicate more experts than exist");
        assert_eq!(popularity.len(), base.n_layers(), "layer mismatch");
        let replicated = popularity
            .iter()
            .map(|scores| {
                assert_eq!(scores.len(), e, "expert mismatch");
                let mut ranked: Vec<usize> = (0..e).collect();
                ranked.sort_by(|&a, &b| scores[b].total_cmp(&scores[a]).then(a.cmp(&b)));
                ranked.into_iter().take(budget).collect()
            })
            .collect();
        Self::everywhere(base, replicated)
    }

    /// The sorted non-owner units holding a copy of `expert` at `layer`
    /// (empty if the expert is not replicated).
    pub fn replica_units(&self, layer: usize, expert: usize) -> &[usize] {
        match self.replicas[layer].binary_search_by_key(&expert, |r| r.0) {
            Ok(i) => &self.replicas[layer][i].1,
            Err(_) => &[],
        }
    }

    /// Whether `expert` at `layer` has at least one replica.
    pub fn is_replicated(&self, layer: usize, expert: usize) -> bool {
        !self.replica_units(layer, expert).is_empty()
    }

    /// Whether any layer replicates anything.
    pub fn has_replicas(&self) -> bool {
        self.replicas.iter().any(|lr| !lr.is_empty())
    }

    /// The experts replicated at `layer`, ascending.
    pub fn replicated_experts(&self, layer: usize) -> impl Iterator<Item = usize> + '_ {
        self.replicas[layer].iter().map(|r| r.0)
    }

    /// Whether `expert` at `layer` is available on `unit` (owned there or
    /// holding a replica there).
    pub fn available_on(&self, layer: usize, expert: usize, unit: usize) -> bool {
        self.base.unit_of(layer, expert) == unit
            || self.replica_units(layer, expert).contains(&unit)
    }

    /// Every unit `expert` at `layer` is available on: the owner merged
    /// into the replica subset, sorted ascending. Always contains the
    /// owner, so dispatch and failover can treat "where can this expert be
    /// served" as one question.
    pub fn available_units(&self, layer: usize, expert: usize) -> Vec<usize> {
        let owner = self.base.unit_of(layer, expert);
        let units = self.replica_units(layer, expert);
        let mut all = Vec::with_capacity(units.len() + 1);
        let mut placed = false;
        for &u in units {
            if !placed && owner < u {
                all.push(owner);
                placed = true;
            }
            all.push(u);
        }
        if !placed {
            all.push(owner);
        }
        all
    }

    /// Worst-case *extra* expert copies any one GPU stores, summed over
    /// layers — the "Extra Memory" column of the paper's Table I, in units
    /// of one expert's parameters.
    ///
    /// Convention (Table-I-consistent): a replicated expert's copy on its
    /// *owner* GPU is the original, not an extra — only the copies on the
    /// other GPUs cost memory. A GPU is charged exactly for the replica
    /// subsets it belongs to, **not** for a world-size fan-out: partial
    /// subsets cost proportionally less. The reported number is the
    /// maximum over GPUs, i.e. the memory headroom every GPU must
    /// provision to hold the plan.
    ///
    /// ```
    /// use exflow_placement::replication::{ReplicaPolicy, ReplicationPlan};
    /// use exflow_placement::Placement;
    /// use exflow_topology::ClusterSpec;
    ///
    /// // 4 experts on 2 nodes x 2 GPUs, expert i owned by GPU i.
    /// let base = Placement::round_robin(1, 4, 4);
    /// // Lina-style full fan-out: one replicated expert costs every
    /// // non-owner GPU a slot.
    /// let full = ReplicationPlan::everywhere(base.clone(), vec![vec![0]]);
    /// assert_eq!(full.extra_copies_per_gpu(), 1); // 3 GPUs hold 1 each
    /// // One-per-node subset: the same expert costs exactly one GPU (on
    /// // the far node) a slot — not world-size minus one.
    /// let policy = ReplicaPolicy::OnePerNode(ClusterSpec::new(2, 2).unwrap());
    /// let partial = ReplicationPlan::with_policy(base, vec![vec![0]], &policy);
    /// assert_eq!(partial.replica_units(0, 0).len(), 1);
    /// assert_eq!(partial.extra_copies_per_gpu(), 1);
    /// ```
    pub fn extra_copies_per_gpu(&self) -> usize {
        let units = self.base.n_units();
        (0..units)
            .map(|unit| {
                self.replicas
                    .iter()
                    .map(|lr| lr.iter().filter(|(_, us)| us.contains(&unit)).count())
                    .sum::<usize>()
            })
            .max()
            .unwrap_or(0)
    }

    /// Realized locality of this plan on a concrete trace, counting
    /// replicas as local: the replication-aware counterpart of
    /// [`measure_trace_locality`](crate::objective::measure_trace_locality).
    ///
    /// A token's position is tracked as the *set* of units it may sit on:
    /// it starts on any unit serving its first expert, a transition is
    /// local when some feasible unit also serves the next expert (the set
    /// then narrows to that intersection), and otherwise the token moves —
    /// a cross hop — to any unit serving the next expert. For everywhere
    /// plans this reduces to the classic unpinned-prefix rule (fully
    /// replicated prefixes are free, the first owned-only expert pins the
    /// token); for partial subsets it charges exactly the hops no holder
    /// of the previous expert could absorb.
    pub fn trace_locality(&self, trace: &RoutingTrace) -> TraceLocality {
        assert_eq!(trace.n_layers(), self.base.n_layers());
        let mut local = 0u64;
        let mut transitions = 0u64;
        for t in 0..trace.n_tokens() {
            let mut feasible = self.available_units(0, trace.expert_at(t, 0));
            for j in 1..trace.n_layers() {
                let expert = trace.expert_at(t, j);
                transitions += 1;
                let owner = self.base.unit_of(j, expert);
                let units = self.replica_units(j, expert);
                let overlap: Vec<usize> = feasible
                    .iter()
                    .copied()
                    .filter(|&u| u == owner || units.contains(&u))
                    .collect();
                if overlap.is_empty() {
                    feasible = self.available_units(j, expert);
                } else {
                    local += 1;
                    feasible = overlap;
                }
            }
        }
        TraceLocality { transitions, local }
    }

    /// Fraction of a trace's layer transitions that can be served without
    /// leaving the current unit, counting replicas as local (see
    /// [`ReplicationPlan::trace_locality`] for the exact semantics).
    ///
    /// A gapless single-layer trace has no transitions to lose, so the
    /// fraction is 1.0 — agreeing with `Objective::local_fraction` on the
    /// same L = 1 instance (the naive `0 / 0` ratio would report 0).
    pub fn trace_local_fraction(&self, trace: &RoutingTrace) -> f64 {
        self.trace_locality(trace).fraction()
    }
}

/// Expected cross-unit transition mass a replica add would absorb,
/// resolved per source unit: `gains[layer][expert][unit]` is the cross
/// mass flowing into `expert` at `layer` from tokens sitting on `unit`
/// (layer 0 has no incoming gap — its entries are 0). A copy of `expert`
/// placed on the subset `S` absorbs exactly
/// `sum over u in S of gains[layer][expert][u]`, which is what the
/// budgeted solver ranks `(expert, target-subset)` candidates by; a
/// replica everywhere absorbs the whole row. Entries at the owner unit
/// are zero (those hops were already local), so subset sums never
/// double-count. Accumulation visits stored cells in ascending
/// `(gap, source, column)` order, so the scores are bit-identical across
/// gap backends.
pub fn replica_gains_by_unit(objective: &Objective, base: &Placement) -> Vec<Vec<Vec<f64>>> {
    assert_eq!(base.n_layers(), objective.n_layers());
    assert_eq!(base.n_experts(), objective.n_experts());
    let e = objective.n_experts();
    let units = base.n_units();
    let mut gains = vec![vec![vec![0.0f64; units]; e]; base.n_layers()];
    for gap in 0..objective.n_gaps() {
        for i in 0..e {
            let w = objective.row_weight(gap, i);
            if w == 0.0 {
                continue;
            }
            let from = base.unit_of(gap, i);
            objective.for_each_in_row(gap, i, |p, prob| {
                if base.unit_of(gap + 1, p) != from {
                    gains[gap + 1][p][from] += w * prob;
                }
            });
        }
    }
    gains
}

/// Expected cross-unit transitions per token under a replication plan:
/// [`Objective::cross_mass`] minus the mass absorbed by replicas. A hop
/// into an expert is absorbed exactly when the *source* unit holds a copy
/// (owned or replica) of the destination expert — partial subsets absorb
/// only the hops they cover. First-order model: a token that used a
/// replica is assumed to continue from the destination expert's *owner*
/// for the next gap, mirroring the owner-marginal view the objective
/// itself takes. Lower is better; equals `cross_mass` exactly when no
/// expert is replicated.
pub fn replicated_cross_mass(objective: &Objective, plan: &ReplicationPlan) -> f64 {
    assert_eq!(plan.base.n_layers(), objective.n_layers());
    assert_eq!(plan.base.n_experts(), objective.n_experts());
    let e = objective.n_experts();
    let mut total = 0.0f64;
    for gap in 0..objective.n_gaps() {
        for i in 0..e {
            let w = objective.row_weight(gap, i);
            if w == 0.0 {
                continue;
            }
            let from = plan.base.unit_of(gap, i);
            objective.for_each_in_row(gap, i, |p, prob| {
                if !plan.available_on(gap + 1, p, from) {
                    total += w * prob;
                }
            });
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::local_search::solve_local_search_with;
    use crate::parallel::Parallelism;
    use exflow_affinity::AffinityMatrix;
    use exflow_model::routing::AffinityModelSpec;
    use exflow_model::{CorpusSpec, TokenBatch};

    fn instance(e: usize, l: usize) -> (Objective, RoutingTrace) {
        let model = AffinityModelSpec::new(l, e).build();
        let batch = TokenBatch::sample(&model, &CorpusSpec::pile_proxy(4), 4000, 1, 21);
        let trace = RoutingTrace::from_batch(&batch, e);
        let obj = Objective::from_affinities(&AffinityMatrix::consecutive(&trace));
        (obj, trace)
    }

    #[test]
    fn zero_budget_changes_nothing() {
        let (obj, trace) = instance(8, 5);
        let base = Placement::round_robin(5, 8, 4);
        let plan = ReplicationPlan::most_popular(&obj, base.clone(), 0);
        assert_eq!(plan.extra_copies_per_gpu(), 0);
        assert!(!plan.has_replicas());
        let plain = crate::objective::measure_trace_locality(&trace, &base).fraction();
        assert!((plan.trace_local_fraction(&trace) - plain).abs() < 0.15);
    }

    #[test]
    fn full_budget_makes_everything_local() {
        let (obj, trace) = instance(8, 5);
        let base = Placement::round_robin(5, 8, 4);
        let plan = ReplicationPlan::most_popular(&obj, base, 8);
        assert!((plan.trace_local_fraction(&trace) - 1.0).abs() < 1e-12);
        // Each GPU owns 2 of the 8 experts per layer, so full replication
        // costs it the other 6 per layer — owner copies are not "extra".
        assert_eq!(plan.extra_copies_per_gpu(), 30);
    }

    #[test]
    fn extra_copies_exclude_owner_copies() {
        let (obj, _) = instance(8, 2);
        let base = Placement::round_robin(2, 8, 4);
        // One replicated expert per layer: its owner GPU stores nothing
        // extra, every other GPU stores one copy per layer.
        let plan = ReplicationPlan::most_popular(&obj, base.clone(), 1);
        assert_eq!(plan.extra_copies_per_gpu(), 2);
        // Hand-built plan replicating a different owner's expert per
        // layer: experts 0 (unit 0) and 7 (unit 3). Units 1 and 2 store
        // both extras; units 0 and 3 store one each. Worst case: 2.
        let plan = ReplicationPlan::everywhere(base, vec![vec![0], vec![7]]);
        assert_eq!(plan.extra_copies_per_gpu(), 2);
    }

    #[test]
    fn one_per_node_subsets_cover_exactly_the_other_nodes() {
        let cluster = ClusterSpec::new(2, 2).unwrap();
        let policy = ReplicaPolicy::OnePerNode(cluster);
        let base = Placement::round_robin(2, 8, 4);
        let plan =
            ReplicationPlan::with_policy(base, vec![(0..8).collect(), (0..8).collect()], &policy);
        for layer in 0..2 {
            for expert in 0..8 {
                let owner = plan.base.unit_of(layer, expert);
                let units = plan.replica_units(layer, expert);
                assert_eq!(units.len(), 1, "one replica on the single other node");
                assert!(!units.contains(&owner), "owner never appears in a subset");
                assert_ne!(
                    cluster.node_of(Rank(units[0])),
                    cluster.node_of(Rank(owner)),
                    "the replica must sit on the other node"
                );
                // The owner is always available, plus exactly the subset.
                let avail = plan.available_units(layer, expert);
                assert!(avail.contains(&owner));
                assert!(avail.windows(2).all(|w| w[0] < w[1]), "sorted + unique");
                assert_eq!(avail.len(), 2);
            }
        }
        // Full replication of everything costs each GPU up to 6 extra per
        // layer (8 experts minus its own 2); one-per-node costs far less.
        assert!(plan.extra_copies_per_gpu() <= 2 * 8 / 2);
        let full = ReplicationPlan::everywhere(
            plan.base.clone(),
            vec![(0..8).collect(), (0..8).collect()],
        );
        assert!(plan.extra_copies_per_gpu() < full.extra_copies_per_gpu());
    }

    #[test]
    fn partial_plan_absorbs_only_hops_from_holder_units() {
        // 4 experts, expert i owned by unit i (2 nodes x 2 GPUs). Gap:
        // experts 0 and 1 both route into expert 2; experts 2 and 3
        // self-loop (local).
        let e = 4;
        let mut gap = vec![0.0; e * e];
        gap[2] = 1.0; // 0 -> 2 (cross: unit 0 -> 2)
        gap[e + 2] = 1.0; // 1 -> 2 (cross: unit 1 -> 2)
        gap[2 * e + 2] = 1.0; // 2 -> 2 (local)
        gap[3 * e + 3] = 1.0; // 3 -> 3 (local)
        let obj = Objective::from_raw(vec![gap], e);
        let base = Placement::round_robin(2, e, 4);
        let cross = obj.cross_mass(&base);
        assert!((cross - 0.5).abs() < 1e-12);

        // One-per-node replica of expert 2 (owner unit 2, node 1) lands on
        // one GPU of node 0 — it absorbs the hop from that unit only.
        let policy = ReplicaPolicy::OnePerNode(ClusterSpec::new(2, 2).unwrap());
        let partial = ReplicationPlan::with_policy(base.clone(), vec![vec![], vec![2]], &policy);
        let holder = partial.replica_units(1, 2)[0];
        assert!(holder < 2, "replica sits on node 0");
        let partial_cross = replicated_cross_mass(&obj, &partial);
        assert!((partial_cross - 0.25).abs() < 1e-12);

        // Everywhere absorbs both incoming hops.
        let full = ReplicationPlan::everywhere(base.clone(), vec![vec![], vec![2]]);
        let full_cross = replicated_cross_mass(&obj, &full);
        assert!(full_cross.abs() < 1e-12);
        assert!(partial_cross > full_cross);

        // By-unit gains resolve exactly which source units a copy helps.
        let by_unit = replica_gains_by_unit(&obj, &base);
        assert!((by_unit[1][2][0] - 0.25).abs() < 1e-12);
        assert!((by_unit[1][2][1] - 0.25).abs() < 1e-12);
        assert_eq!(by_unit[1][2][2], 0.0, "owner-unit hops were never cross");
    }

    #[test]
    fn by_unit_gains_sum_to_the_cross_mass() {
        // Every cross hop lands on exactly one (layer, expert, source
        // unit) cell, so the table partitions the objective.
        let (obj, _) = instance(16, 5);
        let base = Placement::round_robin(5, 16, 4);
        let by_unit = replica_gains_by_unit(&obj, &base);
        let total: f64 = by_unit.iter().flatten().flatten().sum();
        let cross = obj.cross_mass(&base);
        assert!((total - cross).abs() <= 1e-12 * cross.max(1.0));
    }

    #[test]
    fn popularity_sort_is_total_and_breaks_ties_by_index() {
        // NaN popularity (a degenerate affinity estimate) must not panic,
        // and exact ties must resolve by ascending expert index.
        let e = 4;
        let mut gap = vec![f64::NAN; e * e];
        for i in 0..e {
            gap[i * e + i] = 1.0;
        }
        let obj = Objective::from_raw(vec![gap], e);
        let base = Placement::round_robin(2, e, 2);
        let plan = ReplicationPlan::most_popular(&obj, base.clone(), 2);
        // Layer-0 popularity is the uniform marginal (all tied): lowest
        // indices win. Layer-1 popularity is NaN-tainted successor mass:
        // selection stays deterministic either way.
        assert_eq!(plan.replicated_experts(0).collect::<Vec<_>>(), vec![0, 1]);
        assert_eq!(plan.replicated_experts(1).count(), 2);
        let again = ReplicationPlan::most_popular(&obj, base.clone(), 2);
        assert_eq!(plan, again, "NaN selection must be deterministic");

        // Explicit popularity: tie on 0.4 between experts 1 and 3.
        let pop = vec![vec![0.1, 0.4, 0.1, 0.4]; 2];
        let tied = ReplicationPlan::from_popularity(&pop, base, 1);
        assert_eq!(tied.replicated_experts(0).collect::<Vec<_>>(), vec![1]);
        assert_eq!(tied.replicated_experts(1).collect::<Vec<_>>(), vec![1]);
    }

    #[test]
    fn locality_is_monotone_in_budget() {
        let (obj, trace) = instance(16, 6);
        let base = Placement::round_robin(6, 16, 4);
        let mut last = 0.0;
        for budget in [0usize, 2, 4, 8, 16] {
            let plan = ReplicationPlan::most_popular(&obj, base.clone(), budget);
            let frac = plan.trace_local_fraction(&trace);
            assert!(
                frac + 1e-9 >= last,
                "budget {budget}: locality {frac} fell below {last}"
            );
            last = frac;
        }
    }

    #[test]
    fn exflow_placement_beats_replication_at_zero_memory() {
        // The paper's §VI point: ExFlow reaches comparable locality with
        // no replicas. Replication needs a non-trivial budget to catch the
        // affinity placement.
        let (obj, trace) = instance(16, 6);
        let base = Placement::round_robin(6, 16, 4);
        let exflow = solve_local_search_with(&obj, 4, 1, 0, Parallelism::single());
        let exflow_local = crate::objective::measure_trace_locality(&trace, &exflow).fraction();
        let rep0 =
            ReplicationPlan::most_popular(&obj, base.clone(), 0).trace_local_fraction(&trace);
        assert!(
            exflow_local > rep0,
            "exflow {exflow_local} vs zero-budget replication {rep0}"
        );
        // Replication with large budget eventually wins (it spends memory).
        let rep_full = ReplicationPlan::most_popular(&obj, base, 16).trace_local_fraction(&trace);
        assert!(rep_full >= exflow_local);
    }

    #[test]
    fn replicated_experts_are_available_everywhere() {
        let (obj, _) = instance(8, 4);
        let base = Placement::round_robin(4, 8, 4);
        let plan = ReplicationPlan::most_popular(&obj, base, 3);
        for layer in 0..4 {
            let experts: Vec<usize> = plan.replicated_experts(layer).collect();
            assert_eq!(experts.len(), 3);
            for expert in experts {
                for unit in 0..4 {
                    assert!(plan.available_on(layer, expert, unit));
                }
            }
        }
    }

    #[test]
    fn replicated_first_expert_does_not_charge_the_start() {
        // Token path: expert 0 (layer 0, replicated everywhere) -> expert
        // 3 (layer 1, owned by unit 1). The scheduler can start the token
        // on unit 1, so the single transition is local. The old seeding
        // (pin to expert 0's owner, unit 0) wrongly counted it cross-unit.
        let base = Placement::round_robin(2, 4, 2);
        let plan = ReplicationPlan::everywhere(base.clone(), vec![vec![0], vec![]]);
        let trace = RoutingTrace::new(vec![vec![0, 3]], 4);
        assert_eq!(plan.trace_local_fraction(&trace), 1.0);
        let loc = plan.trace_locality(&trace);
        assert_eq!((loc.local, loc.transitions), (1, 1));
        // Once pinned (layer 1's expert is not replicated), later hops are
        // charged normally: 3 (unit 1) -> 0 (unit 0) is cross.
        let base3 = Placement::round_robin(3, 4, 2);
        let plan3 = ReplicationPlan::everywhere(base3, vec![vec![0], vec![], vec![]]);
        let t3 = RoutingTrace::new(vec![vec![0, 3, 0]], 4);
        let loc3 = plan3.trace_locality(&t3);
        assert_eq!((loc3.local, loc3.transitions), (1, 2));
        // A fully-replicated prefix stays unpinned across layers.
        let all = ReplicationPlan::everywhere(
            Placement::round_robin(3, 4, 2),
            vec![vec![0, 1, 2, 3], vec![0, 1, 2, 3], vec![]],
        );
        let loc_all = all.trace_locality(&RoutingTrace::new(vec![vec![0, 3, 1]], 4));
        assert_eq!((loc_all.local, loc_all.transitions), (2, 2));
    }

    #[test]
    fn partial_subset_locality_narrows_the_feasible_set() {
        // 4 experts on 4 units (expert i owned by unit i), 3 layers.
        // Expert 2 at layer 1 is replicated onto unit 0 only. A token
        // routed 0 -> 2 -> 0 can stay on unit 0 the whole way: the layer-1
        // hop is absorbed by the replica and the layer-2 hop returns to
        // the narrowed position {0}.
        let base = Placement::round_robin(3, 4, 4);
        let mut plan = ReplicationPlan::bare(base);
        plan.replicas[1] = vec![(2, vec![0])];
        let loc = plan.trace_locality(&RoutingTrace::new(vec![vec![0, 2, 0]], 4));
        assert_eq!((loc.local, loc.transitions), (2, 2));
        // A token starting on unit 1 gains nothing from that subset:
        // 1 -> 2 is cross (no copy on unit 1), and the move lands it on a
        // holder {0, 2}; 2 -> 3 is cross again.
        let loc2 = plan.trace_locality(&RoutingTrace::new(vec![vec![1, 2, 3]], 4));
        assert_eq!((loc2.local, loc2.transitions), (0, 2));
    }

    #[test]
    fn replica_gains_score_incoming_cross_mass() {
        // Shift affinity: expert i always routes to i + 1 (mod 4).
        let e = 4;
        let mut gap = vec![0.0; e * e];
        for i in 0..e {
            gap[i * e + (i + 1) % e] = 1.0;
        }
        let obj = Objective::from_raw(vec![gap], e);
        let base = Placement::round_robin(2, e, 2);
        let gains: Vec<Vec<f64>> = replica_gains_by_unit(&obj, &base)
            .iter()
            .map(|layer| layer.iter().map(|units| units.iter().sum()).collect())
            .collect();
        // Layer 0 has no incoming gap.
        assert_eq!(gains[0], vec![0.0; e]);
        // Units: {0,1} on GPU 0, {2,3} on GPU 1. Cross hops: 1 -> 2 and
        // 3 -> 0, each with marginal 1/4.
        assert_eq!(gains[1], vec![0.25, 0.0, 0.25, 0.0]);
        // Replicating expert 2 at layer 1 absorbs exactly its gain.
        let plan = ReplicationPlan::everywhere(base.clone(), vec![vec![], vec![2]]);
        let absorbed = obj.cross_mass(&base) - replicated_cross_mass(&obj, &plan);
        assert!((absorbed - 0.25).abs() < 1e-12);
        // No replicas: replicated_cross_mass is exactly cross_mass.
        let bare = ReplicationPlan::bare(base.clone());
        assert_eq!(
            replicated_cross_mass(&obj, &bare).to_bits(),
            obj.cross_mass(&base).to_bits()
        );
    }

    #[test]
    fn single_layer_trace_agrees_with_objective_local_fraction() {
        // Regression: PR 3 fixed the L = 1 edge case in
        // Objective::local_fraction (0/0 -> 1.0) but left this path
        // returning 0. Both views of a gapless instance must agree: with
        // no transitions, nothing can leave its unit.
        let trace = RoutingTrace::new(vec![vec![0], vec![3], vec![1]], 4);
        let base = Placement::round_robin(1, 4, 2);
        let obj = Objective::from_raw(vec![], 4);
        let expected = obj.local_fraction(&base);
        assert_eq!(expected, 1.0);
        for budget in [0usize, 2, 4] {
            let plan = ReplicationPlan::most_popular(&obj, base.clone(), budget);
            let measured = plan.trace_local_fraction(&trace);
            assert_eq!(
                measured, expected,
                "budget {budget}: trace fraction {measured} vs objective {expected}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "more experts than exist")]
    fn over_budget_rejected() {
        let (obj, _) = instance(8, 4);
        let base = Placement::round_robin(4, 8, 4);
        let _ = ReplicationPlan::most_popular(&obj, base, 9);
    }
}
