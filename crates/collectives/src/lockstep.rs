//! The whole-fleet communicator: every rank's clock in one place, each
//! collective one function call on the calling thread.
//!
//! A collective here takes byte counts, not bytes: only how many bytes
//! each lane carries reaches the clocks and the ledger, so that is all a
//! caller hands over, and nothing is handed back. The caller moves its
//! payloads itself (the engine writes token rows into the destination
//! tables). The threaded [`crate::CommWorld`] moves real buffers under the
//! same clock rules; `tests/properties.rs` feeds this type the lengths of
//! the payloads that world moves and holds the two to the same clocks and
//! ledger, bit for bit.
//!
//! A call does the host work its clock rule needs and no more: an
//! AlltoallV walks each sender's lanes once, in ring order, and leaves
//! them empty for the next hop; an AllGatherV prices each ring step
//! from links hoisted at construction; every call folds into the ledger
//! once. The formulation these replaced (one ledger record per rank, a
//! link lookup per ring cell) is kept as a test oracle
//! (`lockstep_oracle.rs`) and the two are held to the same clocks and
//! ledger bit for bit.

use exflow_topology::collective_cost::BytesByClass;
use exflow_topology::{ClusterSpec, CostModel, LinkClass, LinkCost, Rank};

use crate::clock::VirtualClock;
use crate::record::{Ledger, OpKind, OpTotals};

#[cfg(test)]
#[path = "lockstep_oracle.rs"]
mod oracle;

/// All W ranks of a simulated cluster advanced in lockstep by one caller.
///
/// Where a [`RankComm`](crate::RankComm) is one rank's endpoint and a
/// collective completes once W threads have each called it, a `Lockstep`
/// call *is* the collective: it takes every lane's byte count and applies
/// the send / receive clock rules of [`crate::world`] to all W clocks and
/// to the ledger. The caller runs each rank's compute between calls
/// (`for rank in 0..w`) and charges it with [`Lockstep::advance`]. Clocks
/// start at zero; totals accumulate until [`Lockstep::reset`]. A
/// collective allocates nothing: its per-rank scratch lives here.
pub struct Lockstep {
    cost: CostModel,
    /// `class[src * w + dst]`: the link a lane crosses.
    class: Vec<LinkClass>,
    /// `right[r]`: the link from rank `r` to its ring successor, and its
    /// cost — the one edge `r` sends over in an AllGatherV.
    right: Vec<(LinkClass, LinkCost)>,
    clocks: Vec<VirtualClock>,
    ledger: Ledger,
    /// `all_to_all_v` scratch: each rank's latest arrival stamp.
    stamps: Vec<f64>,
}

impl Lockstep {
    /// A fleet over `cluster` with per-link costs from `cost`, every clock
    /// at zero.
    pub fn new(cluster: ClusterSpec, cost: CostModel) -> Self {
        let w = cluster.world_size();
        let link = |src: usize, dst: usize| cluster.link_class(Rank(src), Rank(dst % w));
        let class = (0..w * w).map(|lane| link(lane / w, lane % w)).collect();
        let right = (0..w)
            .map(|r| {
                let class = link(r, r + 1);
                (class, cost.link(class))
            })
            .collect();
        Lockstep {
            cost,
            class,
            right,
            clocks: vec![VirtualClock::new(); w],
            ledger: Ledger::default(),
            stamps: vec![0.0; w],
        }
    }

    /// Every clock back to zero and every total cleared: the fleet as
    /// [`Lockstep::new`] built it, its allocations kept.
    pub fn reset(&mut self) {
        self.clocks.fill(VirtualClock::new());
        self.ledger = Ledger::default();
    }

    /// Current virtual time at `rank`.
    pub fn now(&self, rank: usize) -> f64 {
        self.clocks[rank].now()
    }

    /// Advance `rank`'s clock by a compute duration (seconds).
    pub fn advance(&mut self, rank: usize, dt: f64) {
        self.clocks[rank].advance(dt);
    }

    /// Totals of every collective issued so far, summed over ranks.
    pub fn totals(&self, op: OpKind) -> OpTotals {
        self.ledger.totals(op)
    }

    /// Barrier: every clock moves to the fleet's max; one record per rank.
    pub fn barrier(&mut self) {
        let max = self
            .clocks
            .iter()
            .map(VirtualClock::now)
            .fold(0.0, f64::max);
        for clock in &mut self.clocks {
            clock.wait_until(max);
        }
        let w = self.clocks.len() as u64;
        self.ledger
            .charge(OpKind::Barrier, w, BytesByClass::default());
    }

    /// AlltoallV: `bytes[src * w + dst]` bytes travel from `src` to `dst`,
    /// and every lane is left at zero, ready for the next hop.
    ///
    /// Clock rule: each sender walks its lanes in ring order from itself
    /// (`dst = (src + off) % w`). A non-empty lane advances the sender by
    /// the derated α–β transfer time and is counted as sent; an empty lane
    /// costs nothing. Either way the lane is stamped with the sender's
    /// clock as it then stands — an empty lane still carries the sender's
    /// progress through its earlier lanes. Once every sender is done, each
    /// receiver waits for the latest stamp among the `w - 1` lanes
    /// addressed to it (`max` is exact, so the order it is folded in is
    /// free); one record per rank.
    pub fn all_to_all_v(&mut self, bytes: &mut [u64]) {
        let w = self.clocks.len();
        assert_eq!(
            bytes.len(),
            w * w,
            "all_to_all_v needs exactly one byte count per lane"
        );
        let Lockstep {
            cost,
            class,
            clocks,
            ledger,
            stamps: latest_arrival,
            ..
        } = self;
        latest_arrival.fill(0.0);
        let mut sent = BytesByClass::default();
        let lanes = bytes.chunks_exact_mut(w).zip(class.chunks_exact(w));
        for (src, (clock, (row, class))) in clocks.iter_mut().zip(lanes).enumerate() {
            let mut sender = *clock;
            let mut walk = |row: &mut [u64], class: &[LinkClass], latest: &mut [f64]| {
                for ((lane, &class), latest) in row.iter_mut().zip(class).zip(latest) {
                    let bytes = std::mem::take(lane);
                    if bytes > 0 {
                        sender.advance(cost.alltoall_transfer_time(class, bytes));
                        sent.add(class, bytes);
                    }
                    *latest = latest.max(sender.now());
                }
            };
            // The ring from `src`: lanes `src..w`, then `0..src`. Its own
            // lane's stamp is never past the clock it ends the walk on,
            // so stamping it too changes no receiver's wait.
            let (before, from) = row.split_at_mut(src);
            let (class_before, class_from) = class.split_at(src);
            let (latest_before, latest_from) = latest_arrival.split_at_mut(src);
            walk(from, class_from, latest_from);
            walk(before, class_before, latest_before);
            *clock = sender;
        }
        for (clock, &arrival) in clocks.iter_mut().zip(latest_arrival.iter()) {
            clock.wait_until(arrival);
        }
        ledger.charge(OpKind::Alltoall, w as u64, sent);
    }

    /// AllGatherV over a ring: rank `r` contributes `bytes[r]` bytes, and
    /// every rank ends up with every contribution.
    ///
    /// Clock rule: the standard `w - 1`-step ring. At step `s` rank `r`
    /// forwards block `(r - s) mod w` to `r + 1` — advancing by the α–β
    /// transfer time of that block over that edge, then stamping — and
    /// waits for its left neighbour's stamp of the same step. A step reads
    /// only clocks the previous step left behind, so all of a step's sends
    /// run before all of its receives. Over the `w - 1` steps rank `r`
    /// forwards every block but its successor's, which is what it is
    /// charged; one record per rank.
    pub fn all_gather_v(&mut self, bytes: &[u64]) {
        let w = self.clocks.len();
        assert_eq!(bytes.len(), w, "all_gather_v needs one byte count per rank");
        let clocks = &mut self.clocks;
        for step in 0..w - 1 {
            // Rank `r` forwards block `r - step`, which wraps to
            // `r + w - step` below `step`.
            let (low, high) = clocks.split_at_mut(step);
            let (low_links, high_links) = self.right.split_at(step);
            (low.iter_mut().zip(low_links).zip(&bytes[w - step..]))
                .chain(high.iter_mut().zip(high_links).zip(bytes))
                .for_each(|((clock, (_, link)), &block)| clock.advance(link.time(block)));
            // Rank `r` waits for rank `r - 1`'s stamp, read before `r - 1`
            // waits in turn; rank 0 for rank `w - 1`'s.
            let last = clocks[w - 1].now();
            for r in (1..w).rev() {
                let left = clocks[r - 1].now();
                clocks[r].wait_until(left);
            }
            clocks[0].wait_until(last);
        }
        let total: u64 = bytes.iter().sum();
        let mut sent = BytesByClass::default();
        let successors = bytes[1..].iter().chain(&bytes[..1]);
        for (&(class, _), &next) in self.right.iter().zip(successors) {
            sent.add(class, total - next);
        }
        self.ledger.charge(OpKind::AllGather, w as u64, sent);
    }

    /// The analytic price of a ring AllGatherV of `bytes[r]` from each rank
    /// `r`, touching no clock:
    /// [`CollectiveCostModel::allgatherv_time`](exflow_topology::CollectiveCostModel::allgatherv_time)
    /// to the bit, read off the hoisted successor links — the sum over the
    /// `w - 1` ring steps of the step's slowest transfer.
    pub fn ring_gather_time(&self, bytes: &[u64]) -> f64 {
        let w = self.right.len();
        assert_eq!(bytes.len(), w, "a ring price needs one byte count per rank");
        (0..w - 1).fold(0.0, |total, step| {
            let wrapped = bytes[w - step..].iter().chain(&bytes[..w - step]);
            let slowest = (self.right.iter().zip(wrapped))
                .fold(0.0, |slowest: f64, ((_, link), &block)| {
                    slowest.max(link.time(block))
                });
            total + slowest
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fleet(nodes: usize, gpn: usize) -> Lockstep {
        Lockstep::new(ClusterSpec::new(nodes, gpn).unwrap(), CostModel::wilkes3())
    }

    #[test]
    fn an_empty_lane_still_carries_the_senders_progress() {
        // Rank 0 sends only to rank 1, and its ring walk reaches 1 before
        // 2: rank 2 receives nothing from it, yet waits until that send is
        // done.
        let mut f = fleet(1, 3);
        let mut bytes = vec![0; 9];
        bytes[1] = 1 << 20;
        f.all_to_all_v(&mut bytes);
        assert!(f.now(0) > 0.0);
        assert_eq!(f.now(2), f.now(0));
    }

    #[test]
    fn a_reset_fleet_runs_as_a_new_one() {
        let ops = |f: &mut Lockstep| {
            f.advance(1, 1e-3);
            f.all_to_all_v(&mut (0..16).map(|lane| lane * 4096).collect::<Vec<_>>());
            f.all_gather_v(&[1 << 20, 0, 7, 1 << 12]);
            f.barrier();
        };
        let (mut used, mut fresh) = (fleet(2, 2), fleet(2, 2));
        ops(&mut used);
        used.reset();
        ops(&mut used);
        ops(&mut fresh);
        for rank in 0..4 {
            assert_eq!(used.now(rank).to_bits(), fresh.now(rank).to_bits());
        }
        for op in OpKind::ALL {
            assert_eq!(used.totals(op), fresh.totals(op));
        }
    }

    #[test]
    #[should_panic(expected = "one byte count per lane")]
    fn alltoall_rejects_a_ragged_matrix() {
        fleet(1, 2).all_to_all_v(&mut [0; 3]);
    }

    #[test]
    fn the_ring_price_is_the_analytic_allgather_time_to_the_bit() {
        let mut state = 5;
        for (nodes, gpn) in [(1, 1), (1, 4), (2, 2), (4, 2), (3, 3), (16, 4)] {
            let cluster = ClusterSpec::new(nodes, gpn).unwrap();
            let f = Lockstep::new(cluster, CostModel::wilkes3());
            let analytic = exflow_topology::CollectiveCostModel::new(cluster, CostModel::wilkes3());
            for _ in 0..20 {
                let bytes: Vec<u64> = (0..nodes * gpn)
                    .map(|_| match oracle::mix(&mut state) % 4 {
                        0 => 0,
                        _ => oracle::block(&mut state),
                    })
                    .collect();
                assert_eq!(
                    f.ring_gather_time(&bytes).to_bits(),
                    analytic.allgatherv_time(&bytes).to_bits(),
                    "{nodes}x{gpn} {bytes:?}"
                );
            }
        }
    }
}
