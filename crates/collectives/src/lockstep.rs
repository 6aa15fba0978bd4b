//! The whole-fleet communicator: every rank's clock in one place, each
//! collective one function call on the calling thread.
//!
//! A collective moves whatever its caller holds the bytes in: a buffer is
//! any `AsRef<[u8]>`, handed over by value and handed back in the
//! receiver's slot. The engine passes `&[u8]` lanes borrowed from its wire
//! arena and reads its deliveries out of the same memory; the property
//! tests pass owned `Vec<u8>`s, as the threaded [`crate::CommWorld`] takes
//! them. Only `.len()` reaches the clocks and the ledger, so the two are
//! the same collective (`borrowed_lanes_are_the_same_collective`).

use exflow_topology::collective_cost::BytesByClass;
use exflow_topology::{ClusterSpec, CostModel, Rank};

use crate::clock::VirtualClock;
use crate::record::{CommRecord, Ledger, OpKind, OpTotals};

/// All W ranks of a simulated cluster advanced in lockstep by one caller.
///
/// Where a [`RankComm`](crate::RankComm) is one rank's endpoint and a
/// collective completes once W threads have each called it, a `Lockstep`
/// call *is* the collective: it takes every rank's buffers, applies the
/// send / receive clock rules of [`crate::world`] to all W clocks, and
/// returns every rank's deliveries. The caller runs each rank's compute
/// between calls (`for rank in 0..w`) and charges it with
/// [`Lockstep::advance`]. Clocks start at zero; totals accumulate for the
/// value's life.
pub struct Lockstep {
    cluster: ClusterSpec,
    cost: CostModel,
    clocks: Vec<VirtualClock>,
    ledger: Ledger,
}

impl Lockstep {
    /// A fleet over `cluster` with per-link costs from `cost`, every clock
    /// at zero.
    pub fn new(cluster: ClusterSpec, cost: CostModel) -> Self {
        Lockstep {
            cluster,
            cost,
            clocks: vec![VirtualClock::new(); cluster.world_size()],
            ledger: Ledger::default(),
        }
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

    /// AlltoallV: `bufs[src][dst]` travels from `src` to `dst`; returns
    /// `out[dst][src]`.
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
    pub fn all_to_all_v<B: AsRef<[u8]>>(&mut self, mut bufs: Vec<Vec<B>>) -> Vec<Vec<B>> {
        let w = self.clocks.len();
        assert!(
            bufs.len() == w && bufs.iter().all(|row| row.len() == w),
            "all_to_all_v needs exactly one buffer per rank"
        );
        let mut latest_arrival = vec![0.0f64; w];
        for (src, row) in bufs.iter().enumerate() {
            let mut sent = BytesByClass::default();
            for off in 0..w {
                let dst = (src + off) % w;
                let bytes = row[dst].as_ref().len() as u64;
                if bytes > 0 {
                    let class = self.cluster.link_class(Rank(src), Rank(dst));
                    let t = self.cost.alltoall_transfer_time(class, bytes);
                    self.clocks[src].advance(t);
                    sent.add(class, bytes);
                }
                if dst != src {
                    latest_arrival[dst] = latest_arrival[dst].max(self.clocks[src].now());
                }
            }
            self.ledger.record(CommRecord {
                op: OpKind::Alltoall,
                sent,
            });
        }
        for (clock, &arrival) in self.clocks.iter_mut().zip(&latest_arrival) {
            clock.wait_until(arrival);
        }

        // Transposed where it stands: `bufs[src][dst]` trades places with
        // `bufs[dst][src]`.
        for dst in 1..w {
            let (above, below) = bufs.split_at_mut(dst);
            for (src, row) in above.iter_mut().enumerate() {
                std::mem::swap(&mut row[dst], &mut below[0][src]);
            }
        }
        bufs
    }

    /// AllGatherV over a ring: rank `r` contributes `bufs[r]`; returns the
    /// contributions in rank order — once, since every rank ends up with
    /// the same list.
    ///
    /// Clock rule: the standard `w - 1`-step ring. At step `s` rank `r`
    /// forwards block `(r - s) mod w` to `r + 1` — advancing by the α–β
    /// transfer time of that block over that edge, then stamping — and
    /// waits for its left neighbour's stamp of the same step. A step reads
    /// only clocks the previous step left behind, so all of a step's sends
    /// run before all of its receives.
    pub fn all_gather_v<B: AsRef<[u8]>>(&mut self, bufs: Vec<B>) -> Vec<B> {
        let w = self.clocks.len();
        assert_eq!(bufs.len(), w, "all_gather_v needs one buffer per rank");
        let mut sent = vec![BytesByClass::default(); w];
        let mut stamps = vec![0.0f64; w];
        for step in 0..w - 1 {
            for (r, clock) in self.clocks.iter_mut().enumerate() {
                let class = self.cluster.link_class(Rank(r), Rank((r + 1) % w));
                let bytes = bufs[(r + w - step) % w].as_ref().len() as u64;
                clock.advance(self.cost.transfer_time(class, bytes));
                sent[r].add(class, bytes);
                stamps[r] = clock.now();
            }
            for (r, clock) in self.clocks.iter_mut().enumerate() {
                clock.wait_until(stamps[(r + w - 1) % w]);
            }
        }
        for sent in sent {
            self.ledger.record(CommRecord {
                op: OpKind::AllGather,
                sent,
            });
        }
        bufs
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
        let mut bufs = vec![vec![Vec::new(); 3]; 3];
        bufs[0][1] = vec![0u8; 1 << 20];
        f.all_to_all_v(bufs);
        assert!(f.now(0) > 0.0);
        assert_eq!(f.now(2), f.now(0));
    }

    #[test]
    #[should_panic(expected = "one buffer per rank")]
    fn alltoall_rejects_a_ragged_matrix() {
        fleet(1, 2).all_to_all_v(vec![vec![Vec::<u8>::new(); 2], vec![Vec::new()]]);
    }
}
