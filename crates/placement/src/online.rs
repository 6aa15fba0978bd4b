//! What a re-plan costs and what a fleet change forces: the
//! [`MigrationPlan`] that diffs two placements into expert moves and
//! prices them, and the fleet planners ([`plan_gpu_loss`],
//! [`plan_gpu_rejoin`]) that re-home experts when a GPU dies or returns.
//! The budgeted solvers that *choose* the moves live in
//! [`crate::incremental`].
//!
//! Moves are priced against the cluster's α–β link costs
//! (`exflow-topology`): a migration is a bulk point-to-point exchange at
//! full link bandwidth, not a derated Alltoall.

use exflow_topology::collective_cost::{BytesByClass, CollectiveCostModel};
use exflow_topology::{ClusterSpec, CostModel};

use crate::placement::Placement;
use crate::replication::ReplicationPlan;

/// Experts whose unit differs between two placements (the net migration
/// size of jumping from `a` to `b`).
pub(crate) fn net_moves(a: &Placement, b: &Placement) -> u64 {
    let mut n = 0u64;
    for layer in 0..a.n_layers() {
        for expert in 0..a.n_experts() {
            if a.unit_of(layer, expert) != b.unit_of(layer, expert) {
                n += 1;
            }
        }
    }
    n
}

/// One expert relocation: `expert` at `layer` moves from unit `from` to
/// unit `to`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExpertMove {
    /// The MoE layer of the moving expert.
    pub layer: usize,
    /// The moving expert's id.
    pub expert: usize,
    /// Unit (GPU) that currently holds the weights.
    pub from: usize,
    /// Unit (GPU) that will hold them after the migration.
    pub to: usize,
}

/// One replica creation: `expert` at `layer` is copied from its owner
/// `from` to the units in `to` — the selected replica subset, minus any
/// unit that already held a copy. Under partial replication `to` is a
/// strict subset of the fleet (e.g. one GPU per non-owner node), so the
/// fan-out is priced per selected unit, not per world size.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicaAdd {
    /// The MoE layer of the replicated expert.
    pub layer: usize,
    /// The replicated expert's id.
    pub expert: usize,
    /// Unit (GPU) that owns the weights and sources the fan-out.
    pub from: usize,
    /// Units receiving a new copy (subset units that did not already hold
    /// one).
    pub to: Vec<usize>,
}

/// The set of expert moves that turns one placement into another, with
/// the byte accounting and α–β pricing the online engine budgets against.
///
/// ```
/// use exflow_placement::online::MigrationPlan;
/// use exflow_placement::{solve_budgeted_metered, Objective, Placement};
/// use exflow_topology::{ClusterSpec, CostModel};
///
/// // Shift affinity (expert i routes to i+1) on 2 layers, 4 experts.
/// let mut gap = vec![0.0; 16];
/// for i in 0..4 { gap[i * 4 + (i + 1) % 4] = 1.0; }
/// let objective = Objective::from_raw(vec![gap], 4);
/// let incumbent = Placement::round_robin(2, 4, 2);
///
/// // Re-place under a budget of at most 2 expert moves (one swap).
/// let (next, _cost) = solve_budgeted_metered(&objective, &incumbent, 2, u64::MAX, None);
/// let plan = MigrationPlan::between(&incumbent, &next, 1 << 20);
/// assert!(plan.n_moves() <= 2);
/// assert!(plan.total_bytes() <= 2 << 20);
/// assert!(objective.cross_mass(&next) < objective.cross_mass(&incumbent));
///
/// // Moves are priced against the cluster's link costs.
/// let cluster = ClusterSpec::new(1, 2).unwrap();
/// let priced = plan.priced(&cluster, &CostModel::wilkes3());
/// assert_eq!(priced.bytes.total(), plan.total_bytes());
/// assert!(priced.time > 0.0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MigrationPlan {
    /// Bytes of weights one expert move transfers.
    pub bytes_per_expert: u64,
    /// Every expert that changes units *and* must ship weights, in
    /// (layer, expert) order.
    pub moves: Vec<ExpertMove>,
    /// Owner relocations whose destination already held a replica of the
    /// expert: the weights are already there, so these are bookkeeping —
    /// zero bytes, but still a placement change the plan must surface
    /// (an "empty" plan must mean *nothing* changed).
    pub free_moves: Vec<ExpertMove>,
    /// Every replica creation, in (layer, expert) order. Each fans the
    /// expert's weights out from its owner to the units of its selected
    /// subset that lack a copy.
    pub replica_adds: Vec<ReplicaAdd>,
    /// Every replica retirement, in (layer, expert) order. Dropping a
    /// replica frees memory but ships nothing.
    pub replica_drops: Vec<(usize, usize)>,
}

impl MigrationPlan {
    /// Diff two placements of identical shape into the moves that turn
    /// `old` into `new`. `bytes_per_expert` is the wire size of one
    /// expert's weights (`2 * d_model * d_ff` parameters at 2 bytes each
    /// for the fp16 models the paper serves).
    pub fn between(old: &Placement, new: &Placement, bytes_per_expert: u64) -> Self {
        assert_eq!(old.n_layers(), new.n_layers(), "layer mismatch");
        assert_eq!(old.n_experts(), new.n_experts(), "expert mismatch");
        assert_eq!(old.n_units(), new.n_units(), "unit mismatch");
        let mut moves = Vec::new();
        for layer in 0..old.n_layers() {
            for expert in 0..old.n_experts() {
                let from = old.unit_of(layer, expert);
                let to = new.unit_of(layer, expert);
                if from != to {
                    moves.push(ExpertMove {
                        layer,
                        expert,
                        from,
                        to,
                    });
                }
            }
        }
        MigrationPlan {
            bytes_per_expert,
            moves,
            free_moves: Vec::new(),
            replica_adds: Vec::new(),
            replica_drops: Vec::new(),
        }
    }

    /// Diff two [`ReplicationPlan`]s into the migration that turns `old`
    /// into `new`: owner moves, replica adds, and replica drops.
    ///
    /// Pricing consults where copies actually were (`old`'s
    /// [`ReplicationPlan::available_on`]), not a universal fan-out:
    ///
    /// * an owner move whose destination already held a copy of the
    ///   expert in `old` is **free** — the relocation is bookkeeping, not
    ///   traffic (such moves land in `free_moves`, never in the send
    ///   matrix);
    /// * a **replica add** ships the expert from its (new) owner to every
    ///   unit of the *selected subset* that did not already hold a copy —
    ///   `to.len()` payloads, not `n_units - 1`;
    /// * a **replica drop** (an expert leaving the replicated set) is
    ///   free. Subset shrinkage of an expert that stays replicated is
    ///   likewise free and ships nothing.
    pub fn between_replicated(
        old: &ReplicationPlan,
        new: &ReplicationPlan,
        bytes_per_expert: u64,
    ) -> Self {
        let mut plan = MigrationPlan::between(&old.base, &new.base, bytes_per_expert);
        let (free, priced) = std::mem::take(&mut plan.moves)
            .into_iter()
            .partition(|m: &ExpertMove| old.available_on(m.layer, m.expert, m.to));
        plan.free_moves = free;
        plan.moves = priced;
        for layer in 0..new.base.n_layers() {
            for (expert, units) in &new.replicas[layer] {
                let to: Vec<usize> = units
                    .iter()
                    .copied()
                    .filter(|&u| !old.available_on(layer, *expert, u))
                    .collect();
                if !to.is_empty() {
                    plan.replica_adds.push(ReplicaAdd {
                        layer,
                        expert: *expert,
                        from: new.base.unit_of(layer, *expert),
                        to,
                    });
                }
            }
            for (expert, _) in &old.replicas[layer] {
                if !new.is_replicated(layer, *expert) {
                    plan.replica_drops.push((layer, *expert));
                }
            }
        }
        plan
    }

    /// Number of *priced* expert relocations (free moves and replica
    /// adds/drops not included).
    pub fn n_moves(&self) -> usize {
        self.moves.len()
    }

    /// Number of owner relocations of any kind, priced or free.
    pub fn n_relocations(&self) -> usize {
        self.moves.len() + self.free_moves.len()
    }

    /// Number of replica creations.
    pub fn n_replica_adds(&self) -> usize {
        self.replica_adds.len()
    }

    /// Number of replica retirements.
    pub fn n_replica_drops(&self) -> usize {
        self.replica_drops.len()
    }

    /// Whether the plan changes nothing at all — no owner relocations
    /// (priced or free), no replica churn. Callers use this to decide
    /// whether a re-plan happened, so a zero-byte plan that still changes
    /// the placement must *not* be empty.
    pub fn is_empty(&self) -> bool {
        self.moves.is_empty()
            && self.free_moves.is_empty()
            && self.replica_adds.is_empty()
            && self.replica_drops.is_empty()
    }

    /// Total bytes of expert weights crossing GPUs: one payload per owner
    /// move plus one payload per unit each replica add fans out to (drops
    /// are free).
    pub fn total_bytes(&self) -> u64 {
        let fan_out: u64 = self.replica_adds.iter().map(|a| a.to.len() as u64).sum();
        (self.moves.len() as u64 + fan_out) * self.bytes_per_expert
    }

    /// The `world x world` send matrix of this plan: entry `[src][dst]`
    /// holds the bytes `src` ships to `dst` (owner moves plus replica
    /// fan-out).
    pub fn send_matrix(&self, world_size: usize) -> Vec<Vec<u64>> {
        let mut matrix = vec![vec![0u64; world_size]; world_size];
        for m in &self.moves {
            assert!(
                m.from < world_size && m.to < world_size,
                "move endpoints must be ranks of the cluster"
            );
            matrix[m.from][m.to] += self.bytes_per_expert;
        }
        for a in &self.replica_adds {
            assert!(a.from < world_size, "replica owner must be a rank");
            for &dst in &a.to {
                assert!(dst < world_size, "replica fan-out must target ranks");
                matrix[a.from][dst] += self.bytes_per_expert;
            }
        }
        matrix
    }

    /// Price the plan on a concrete cluster: per-link-class byte totals
    /// and the completion time of the full-bandwidth point-to-point
    /// exchange under the α–β cost model.
    pub fn priced(&self, cluster: &ClusterSpec, cost: &CostModel) -> PricedMigration {
        let model = CollectiveCostModel::new(*cluster, *cost);
        let matrix = self.send_matrix(cluster.world_size());
        PricedMigration {
            time: model.exchange_time(&matrix),
            bytes: model.alltoallv_bytes(&matrix),
        }
    }
}

/// Evacuate a failed GPU: the fleet plan after `gpu` dies, and the
/// migration that reaches it from `current`. `live_ranks` lists the
/// surviving GPUs ascending (`gpu` is not among them).
///
/// The dead GPU's replica copies die with it: it never counts as a holder
/// and leaves every subset. Per expert it owned: where a surviving
/// replica holder exists, the least-loaded one is *promoted* to owner
/// for free (a `free_move`; its subset membership retires); an expert
/// whose only copies just died is re-homed on the least-loaded survivor
/// and restored — a priced move — from a deterministic surviving source
/// (a checkpoint shard, never the dead GPU).
pub fn plan_gpu_loss(
    current: &ReplicationPlan,
    live_ranks: &[usize],
    gpu: usize,
    bytes_per_expert: u64,
) -> (ReplicationPlan, MigrationPlan) {
    assert!(!live_ranks.is_empty(), "at least one GPU must survive");
    let w = current.base.n_units();
    let mut assign = Vec::with_capacity(current.base.n_layers());
    let mut moves = Vec::new();
    let mut free_moves = Vec::new();
    for layer in 0..current.base.n_layers() {
        let mut row = current.base.layer(layer).to_vec();
        let mut load = vec![0usize; w];
        for &u in &row {
            load[u] += 1;
        }
        for (expert, owner) in row.iter_mut().enumerate() {
            if *owner != gpu {
                continue;
            }
            load[gpu] -= 1;
            let holder = current
                .replica_units(layer, expert)
                .iter()
                .copied()
                .filter(|&r| r != gpu)
                .min_by_key(|&r| (load[r], r));
            let to = match holder {
                Some(to) => {
                    free_moves.push(ExpertMove {
                        layer,
                        expert,
                        from: gpu,
                        to,
                    });
                    to
                }
                None => {
                    let &to = live_ranks
                        .iter()
                        .min_by_key(|&&r| (load[r], r))
                        .expect("at least one live GPU");
                    moves.push(ExpertMove {
                        layer,
                        expert,
                        from: live_ranks[(layer + expert) % live_ranks.len()],
                        to,
                    });
                    to
                }
            };
            load[to] += 1;
            *owner = to;
        }
        assign.push(row);
    }
    // A promoted holder leaves its subset as the owner; the dead GPU's
    // copies leave every subset.
    let mut next = ReplicationPlan {
        base: Placement::new_degraded(assign, w),
        replicas: current.replicas.clone(),
    };
    next.retain_holders(|u| u != gpu);
    let plan = MigrationPlan {
        bytes_per_expert,
        moves,
        free_moves,
        replica_adds: Vec::new(),
        replica_drops: Vec::new(),
    };
    (next, plan)
}

/// Re-home a returned GPU: per layer, pull experts off the most-loaded
/// survivors (lowest rank on ties, lowest expert index first) until
/// `gpu` owns its fair share `E / W`. Replica subsets carry over under
/// [`ReplicationPlan::reowned`]. Returns the healed fleet plan and the
/// [`MigrationPlan::between_replicated`] diff that reaches it from
/// `current`.
pub fn plan_gpu_rejoin(
    current: &ReplicationPlan,
    gpu: usize,
    bytes_per_expert: u64,
) -> (ReplicationPlan, MigrationPlan) {
    let w = current.base.n_units();
    let target = current.base.n_experts() / w;
    let mut assign = Vec::with_capacity(current.base.n_layers());
    for layer in 0..current.base.n_layers() {
        let mut row = current.base.layer(layer).to_vec();
        let mut load = vec![0usize; w];
        for &u in &row {
            load[u] += 1;
        }
        while load[gpu] < target {
            let from = (0..w)
                .filter(|&r| r != gpu && load[r] > 0)
                .min_by_key(|&r| (std::cmp::Reverse(load[r]), r))
                .expect("survivors hold every expert");
            let expert = row
                .iter()
                .position(|&u| u == from)
                .expect("loaded unit owns an expert");
            row[expert] = gpu;
            load[from] -= 1;
            load[gpu] += 1;
        }
        assign.push(row);
    }
    let next = current.reowned(Placement::new_degraded(assign, w));
    let plan = MigrationPlan::between_replicated(current, &next, bytes_per_expert);
    (next, plan)
}

/// A [`MigrationPlan`] priced on a concrete cluster.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PricedMigration {
    /// Completion time of the exchange, seconds of virtual time.
    pub time: f64,
    /// Bytes moved, bucketed by link class.
    pub bytes: BytesByClass,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_between_lists_exactly_the_diff() {
        let old = Placement::round_robin(2, 4, 2);
        let mut new = old.clone();
        new.swap(1, 0, 2);
        let plan = MigrationPlan::between(&old, &new, 100);
        assert_eq!(plan.n_moves(), 2);
        assert_eq!(plan.total_bytes(), 200);
        assert_eq!(
            plan.moves,
            vec![
                ExpertMove {
                    layer: 1,
                    expert: 0,
                    from: 0,
                    to: 1
                },
                ExpertMove {
                    layer: 1,
                    expert: 2,
                    from: 1,
                    to: 0
                },
            ]
        );
        let matrix = plan.send_matrix(2);
        assert_eq!(matrix[0][1], 100);
        assert_eq!(matrix[1][0], 100);
    }

    #[test]
    fn pricing_charges_link_classes_correctly() {
        let cluster = ClusterSpec::new(2, 2).unwrap();
        let cost = CostModel::wilkes3();
        let old = Placement::round_robin(1, 8, 4);
        // Intra-node swap: experts 0 and 2 trade GPUs 0 and 1 (same node).
        let mut intra = old.clone();
        intra.swap(0, 0, 2);
        let p_intra = MigrationPlan::between(&old, &intra, 1 << 20).priced(&cluster, &cost);
        assert_eq!(p_intra.bytes.intra_node, 2 << 20);
        assert_eq!(p_intra.bytes.inter_node, 0);
        // Inter-node swap: experts 0 and 4 trade GPUs 0 and 2.
        let mut inter = old.clone();
        inter.swap(0, 0, 4);
        let p_inter = MigrationPlan::between(&old, &inter, 1 << 20).priced(&cluster, &cost);
        assert_eq!(p_inter.bytes.inter_node, 2 << 20);
        assert!(p_inter.time > p_intra.time, "inter-node moves cost more");
    }

    #[test]
    fn empty_plan_is_free() {
        let cluster = ClusterSpec::new(1, 4).unwrap();
        let p = Placement::round_robin(3, 8, 4);
        let plan = MigrationPlan::between(&p, &p, 1 << 20);
        assert!(plan.is_empty());
        let priced = plan.priced(&cluster, &CostModel::wilkes3());
        assert_eq!(priced.time, 0.0);
        assert_eq!(priced.bytes.total(), 0);
    }

    #[test]
    #[should_panic(expected = "unit mismatch")]
    fn mismatched_placements_rejected() {
        let a = Placement::round_robin(2, 8, 4);
        let b = Placement::round_robin(2, 8, 2);
        let _ = MigrationPlan::between(&a, &b, 1);
    }

    fn bare(base: Placement) -> ReplicationPlan {
        ReplicationPlan::bare(base)
    }

    #[test]
    fn replicated_diff_prices_adds_and_frees_drops() {
        let base = Placement::round_robin(2, 4, 2);
        let old = ReplicationPlan::everywhere(base.clone(), vec![vec![1], vec![]]);
        let new = ReplicationPlan::everywhere(base.clone(), vec![vec![], vec![2]]);
        let plan = MigrationPlan::between_replicated(&old, &new, 100);
        assert_eq!(plan.n_moves(), 0);
        assert_eq!(plan.n_replica_adds(), 1);
        assert_eq!(plan.n_replica_drops(), 1);
        assert_eq!(plan.replica_drops, vec![(0, 1)]);
        // Expert 2 at layer 1 is owned by unit 1: one payload to unit 0.
        assert_eq!(plan.total_bytes(), 100);
        let matrix = plan.send_matrix(2);
        assert_eq!(matrix[1][0], 100);
        assert_eq!(matrix[0][1], 0);
        assert!(!plan.is_empty());
        // Drops alone still make the plan non-empty but ship nothing.
        let drop_only = MigrationPlan::between_replicated(&old, &bare(base), 100);
        assert!(!drop_only.is_empty());
        assert_eq!(drop_only.total_bytes(), 0);
    }

    #[test]
    fn moves_of_replicated_experts_are_free() {
        let base = Placement::round_robin(1, 4, 2);
        let mut moved = base.clone();
        moved.swap(0, 0, 2); // experts 0 and 2 trade units
        let old = ReplicationPlan::everywhere(base, vec![vec![0]]);
        let new = ReplicationPlan::everywhere(moved, vec![vec![0]]);
        let plan = MigrationPlan::between_replicated(&old, &new, 100);
        // Expert 0 was replicated everywhere: its relocation ships
        // nothing. Expert 2 pays one payload.
        assert_eq!(plan.n_moves(), 1);
        assert_eq!(plan.moves[0].expert, 2);
        assert_eq!(plan.free_moves.len(), 1);
        assert_eq!(plan.free_moves[0].expert, 0);
        assert_eq!(plan.n_relocations(), 2);
        assert_eq!(plan.total_bytes(), 100);
        // A plan whose only change is free moves of replicated experts
        // ships zero bytes but is NOT empty — the placement did change,
        // and callers key re-plan accounting off emptiness.
        let both = ReplicationPlan::everywhere(old.base.clone(), vec![vec![0, 2]]);
        let mut moved_base = old.base.clone();
        moved_base.swap(0, 0, 2);
        let moved = ReplicationPlan::everywhere(moved_base, vec![vec![0, 2]]);
        let free_only = MigrationPlan::between_replicated(&both, &moved, 100);
        assert_eq!(free_only.total_bytes(), 0);
        assert_eq!(free_only.n_moves(), 0);
        assert_eq!(free_only.n_relocations(), 2);
        assert!(!free_only.is_empty());
        assert_eq!(free_only.send_matrix(2), vec![vec![0; 2]; 2]);
    }
}
