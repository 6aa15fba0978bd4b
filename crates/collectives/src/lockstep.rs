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

use exflow_topology::collective_cost::BytesByClass;
use exflow_topology::{ClusterSpec, CostModel, LinkClass, Rank};

use crate::clock::VirtualClock;
use crate::record::{CommRecord, Ledger, OpKind, OpTotals};

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
    clocks: Vec<VirtualClock>,
    ledger: Ledger,
    /// Scratch of `all_to_all_v` (each rank's latest arrival stamp) and
    /// of `all_gather_v` (each rank's stamp at the current step).
    stamps: Vec<f64>,
    /// `all_gather_v` scratch: each rank's bytes sent so far.
    sent: Vec<BytesByClass>,
}

impl Lockstep {
    /// A fleet over `cluster` with per-link costs from `cost`, every clock
    /// at zero.
    pub fn new(cluster: ClusterSpec, cost: CostModel) -> Self {
        let w = cluster.world_size();
        let class = (0..w * w)
            .map(|lane| cluster.link_class(Rank(lane / w), Rank(lane % w)))
            .collect();
        Lockstep {
            cost,
            class,
            clocks: vec![VirtualClock::new(); w],
            ledger: Ledger::default(),
            stamps: vec![0.0; w],
            sent: vec![BytesByClass::default(); w],
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
            self.ledger.record(CommRecord {
                op: OpKind::Barrier,
                sent: BytesByClass::default(),
            });
        }
    }

    /// AlltoallV: `bytes[src * w + dst]` bytes travel from `src` to `dst`.
    ///
    /// Clock rule: each sender walks its lanes in ring order from itself
    /// (`dst = (src + off) % w`). A non-empty lane advances the sender by
    /// the derated α–β transfer time and is counted as sent; an empty lane
    /// costs nothing. Either way the lane is stamped with the sender's
    /// clock as it then stands — an empty lane still carries the sender's
    /// progress through its earlier lanes. Once every sender is done, each
    /// receiver waits for the latest stamp among the `w - 1` lanes
    /// addressed to it (`max` is exact, so the order it is folded in is
    /// free).
    pub fn all_to_all_v(&mut self, bytes: &[u64]) {
        let w = self.clocks.len();
        assert_eq!(
            bytes.len(),
            w * w,
            "all_to_all_v needs exactly one byte count per lane"
        );
        let latest_arrival = &mut self.stamps;
        latest_arrival.fill(0.0);
        let lanes = bytes.chunks_exact(w).zip(self.class.chunks_exact(w));
        for (src, (row, class)) in lanes.enumerate() {
            let clock = &mut self.clocks[src];
            let mut sent = BytesByClass::default();
            // The ring from `src`: `src..w`, then `0..src`.
            for dst in (src..w).chain(0..src) {
                if row[dst] > 0 {
                    clock.advance(self.cost.alltoall_transfer_time(class[dst], row[dst]));
                    sent.add(class[dst], row[dst]);
                }
                if dst != src {
                    latest_arrival[dst] = latest_arrival[dst].max(clock.now());
                }
            }
            self.ledger.record(CommRecord {
                op: OpKind::Alltoall,
                sent,
            });
        }
        for (clock, &arrival) in self.clocks.iter_mut().zip(latest_arrival.iter()) {
            clock.wait_until(arrival);
        }
    }

    /// AllGatherV over a ring: rank `r` contributes `bytes[r]` bytes, and
    /// every rank ends up with every contribution.
    ///
    /// Clock rule: the standard `w - 1`-step ring. At step `s` rank `r`
    /// forwards block `(r - s) mod w` to `r + 1` — advancing by the α–β
    /// transfer time of that block over that edge, then stamping — and
    /// waits for its left neighbour's stamp of the same step. A step reads
    /// only clocks the previous step left behind, so all of a step's sends
    /// run before all of its receives.
    pub fn all_gather_v(&mut self, bytes: &[u64]) {
        let w = self.clocks.len();
        assert_eq!(bytes.len(), w, "all_gather_v needs one byte count per rank");
        let (sent, stamps) = (&mut self.sent, &mut self.stamps);
        sent.fill(BytesByClass::default());
        for step in 0..w - 1 {
            // Rank `r` forwards block `r - step`, which wraps to
            // `r + w - step` below `step`.
            let wrapped = bytes[w - step..].iter().chain(&bytes[..w - step]);
            let ranks = self
                .clocks
                .iter_mut()
                .zip(sent.iter_mut())
                .zip(stamps.iter_mut());
            for (r, (((clock, sent), stamp), &block)) in ranks.zip(wrapped).enumerate() {
                let class = self.class[r * w + if r + 1 == w { 0 } else { r + 1 }];
                clock.advance(self.cost.transfer_time(class, block));
                sent.add(class, block);
                *stamp = clock.now();
            }
            // Rank `r` waits for rank `r - 1`'s stamp; rank 0 for rank
            // `w - 1`'s.
            let left = stamps[w - 1..].iter().chain(&stamps[..w - 1]);
            for (clock, &stamp) in self.clocks.iter_mut().zip(left) {
                clock.wait_until(stamp);
            }
        }
        for &sent in sent.iter() {
            self.ledger.record(CommRecord {
                op: OpKind::AllGather,
                sent,
            });
        }
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
        f.all_to_all_v(&bytes);
        assert!(f.now(0) > 0.0);
        assert_eq!(f.now(2), f.now(0));
    }

    #[test]
    fn a_reset_fleet_runs_as_a_new_one() {
        let ops = |f: &mut Lockstep| {
            f.advance(1, 1e-3);
            f.all_to_all_v(&(0..16).map(|lane| lane * 4096).collect::<Vec<_>>());
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
        fleet(1, 2).all_to_all_v(&[0; 3]);
    }
}
