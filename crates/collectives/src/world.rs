//! The simulated communication world: rank threads, mailboxes, collectives.

// detlint: allow(D001) pending is a lookup-only match table (exact-key remove/insert), never iterated or drained
use std::collections::HashMap;
use std::sync::Arc;

use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;

use exflow_topology::collective_cost::BytesByClass;
use exflow_topology::{ClusterSpec, CostModel, Rank};

use crate::clock::VirtualClock;
use crate::record::{CommRecord, CommStats, OpKind};

/// A message between rank threads. Payloads are real buffers; `arrival` is
/// the virtual time at which the bytes are fully delivered.
#[derive(Debug)]
struct Msg {
    src: usize,
    seq: u64,
    step: u32,
    arrival: f64,
    payload: Vec<u8>,
}

/// Shared state backing [`RankComm::barrier`]: a three-phase max-reduction
/// of the ranks' virtual clocks.
struct BarrierState {
    gate: std::sync::Barrier,
    max_clock: Mutex<f64>,
}

/// A simulated cluster communicator. Owns the cluster shape, the cost model
/// and the shared [`CommStats`]; [`CommWorld::run`] spawns one thread per
/// rank and hands each a [`RankComm`].
pub struct CommWorld {
    cluster: ClusterSpec,
    cost: CostModel,
    stats: Arc<CommStats>,
}

impl CommWorld {
    /// Create a world over `cluster` with per-link costs from `cost`.
    pub fn new(cluster: ClusterSpec, cost: CostModel) -> Self {
        CommWorld {
            cluster,
            cost,
            stats: Arc::new(CommStats::new()),
        }
    }

    /// The cluster shape.
    pub fn cluster(&self) -> &ClusterSpec {
        &self.cluster
    }

    /// The cost model.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// Shared communication statistics, accumulated across all runs until
    /// [`CommStats::reset`].
    pub fn stats(&self) -> &Arc<CommStats> {
        &self.stats
    }

    /// Spawn one thread per rank, run `f` on each with its [`RankComm`],
    /// and return the per-rank results ordered by rank.
    ///
    /// Panics in any rank propagate (the run is aborted and the panic
    /// re-raised), so test failures inside rank closures surface normally.
    pub fn run<F, R>(&self, f: F) -> Vec<R>
    where
        F: Fn(&mut RankComm) -> R + Sync,
        R: Send,
    {
        let w = self.cluster.world_size();
        let mut senders: Vec<Sender<Msg>> = Vec::with_capacity(w);
        let mut receivers: Vec<Option<Receiver<Msg>>> = Vec::with_capacity(w);
        for _ in 0..w {
            let (tx, rx) = unbounded();
            senders.push(tx);
            receivers.push(Some(rx));
        }
        let barrier = Arc::new(BarrierState {
            gate: std::sync::Barrier::new(w),
            max_clock: Mutex::new(0.0),
        });

        let mut results: Vec<Option<R>> = (0..w).map(|_| None).collect();
        crossbeam::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(w);
            for (rank, (slot, rx)) in results.iter_mut().zip(receivers.iter_mut()).enumerate() {
                let senders = senders.clone();
                let rx = rx.take().expect("receiver taken once");
                let barrier = Arc::clone(&barrier);
                let stats = Arc::clone(&self.stats);
                let cluster = self.cluster;
                let cost = self.cost;
                let f = &f;
                handles.push(scope.spawn(move |_| {
                    let mut comm = RankComm {
                        rank: Rank(rank),
                        cluster,
                        cost,
                        senders,
                        rx,
                        // detlint: allow(D001) lookup-only match table, never iterated
                        pending: HashMap::new(),
                        clock: VirtualClock::new(),
                        seq: 0,
                        barrier,
                        stats,
                    };
                    *slot = Some(f(&mut comm));
                }));
            }
            let mut first_panic = None;
            for h in handles {
                if let Err(payload) = h.join() {
                    first_panic.get_or_insert(payload);
                }
            }
            if let Some(payload) = first_panic {
                std::panic::resume_unwind(payload);
            }
        })
        .expect("comm scope failed");

        results
            .into_iter()
            .map(|r| r.expect("every rank produces a result"))
            .collect()
    }
}

/// One rank's endpoint inside a [`CommWorld::run`] closure.
///
/// All methods are *collective*: every rank in the world must call them in
/// the same order (the usual SPMD contract). Sequence numbers are checked in
/// debug builds via message tags — a mismatched schedule deadlocks rather
/// than silently mismatching payloads.
pub struct RankComm {
    rank: Rank,
    cluster: ClusterSpec,
    cost: CostModel,
    senders: Vec<Sender<Msg>>,
    rx: Receiver<Msg>,
    /// Out-of-order message stash, keyed by (src, seq, step). Every
    /// access is an exact-key `remove`/`insert` — the map is never
    /// iterated, so hash order cannot leak into any result.
    // detlint: allow(D001) lookup-only match table, never iterated or drained
    pending: HashMap<(usize, u64, u32), Msg>,
    clock: VirtualClock,
    seq: u64,
    barrier: Arc<BarrierState>,
    stats: Arc<CommStats>,
}

impl RankComm {
    /// This rank's id.
    pub fn rank(&self) -> Rank {
        self.rank
    }

    /// Number of ranks in the world.
    pub fn world_size(&self) -> usize {
        self.cluster.world_size()
    }

    /// The cluster shape.
    pub fn cluster(&self) -> &ClusterSpec {
        &self.cluster
    }

    /// Current virtual time at this rank.
    pub fn now(&self) -> f64 {
        self.clock.now()
    }

    /// Advance this rank's clock by a compute duration (seconds).
    pub fn advance(&mut self, dt: f64) {
        self.clock.advance(dt);
    }

    fn send(&mut self, dst: usize, seq: u64, step: u32, payload: Vec<u8>) {
        let msg = Msg {
            src: self.rank.0,
            seq,
            step,
            arrival: self.clock.now(),
            payload,
        };
        self.senders[dst].send(msg).expect("receiver alive");
    }

    fn recv(&mut self, src: usize, seq: u64, step: u32) -> Msg {
        let key = (src, seq, step);
        if let Some(m) = self.pending.remove(&key) {
            return m;
        }
        loop {
            let m = self.rx.recv().expect("peer disconnected mid-collective");
            let mkey = (m.src, m.seq, m.step);
            if mkey == key {
                return m;
            }
            self.pending.insert(mkey, m);
        }
    }

    /// AlltoallV: `bufs[j]` is sent to rank `j`; returns one buffer per
    /// source rank (index `i` holds what rank `i` sent here).
    ///
    /// Virtual-time model: sends serialize on the sender's copy/NIC engine
    /// (ring order starting at `rank+1` so concurrent senders spread across
    /// destinations); each receive waits until the message's arrival stamp.
    pub fn all_to_all_v(&mut self, mut bufs: Vec<Vec<u8>>) -> Vec<Vec<u8>> {
        let w = self.world_size();
        assert_eq!(
            bufs.len(),
            w,
            "all_to_all_v needs exactly one buffer per rank"
        );
        let seq = self.seq;
        self.seq += 1;
        let start = self.clock.now();
        let mut sent = BytesByClass::default();
        let me = self.rank.0;

        let mut own: Option<Vec<u8>> = None;
        for off in 0..w {
            let dst = (me + off) % w;
            let payload = std::mem::take(&mut bufs[dst]);
            // Zero-count lanes are skipped by AlltoallV implementations
            // (no message, no startup latency) — only charge real traffic.
            if !payload.is_empty() {
                let class = self.cluster.link_class(self.rank, Rank(dst));
                let t = self
                    .cost
                    .alltoall_transfer_time(class, payload.len() as u64);
                self.clock.advance(t);
                sent.add(class, payload.len() as u64);
            }
            if dst == me {
                own = Some(payload);
            } else {
                self.send(dst, seq, 0, payload);
            }
        }

        let mut out: Vec<Vec<u8>> = (0..w).map(|_| Vec::new()).collect();
        out[me] = own.unwrap_or_default();
        for off in 1..w {
            let src = (me + w - off) % w;
            let msg = self.recv(src, seq, 0);
            self.clock.wait_until(msg.arrival);
            out[src] = msg.payload;
        }

        self.stats.record(CommRecord {
            op: OpKind::Alltoall,
            rank: me,
            start,
            end: self.clock.now(),
            sent,
        });
        out
    }

    /// AllGatherV over a ring: every rank contributes `buf`; returns all
    /// contributions ordered by rank.
    ///
    /// Uses the standard `W-1`-step ring schedule, so on hierarchical
    /// clusters only the two ring edges that straddle node boundaries pay
    /// inter-node cost — matching how NCCL rings behave on the paper's
    /// testbed.
    pub fn all_gather_v(&mut self, buf: Vec<u8>) -> Vec<Vec<u8>> {
        let w = self.world_size();
        let seq = self.seq;
        self.seq += 1;
        let start = self.clock.now();
        let me = self.rank.0;
        let mut sent = BytesByClass::default();

        let mut blocks: Vec<Option<Vec<u8>>> = (0..w).map(|_| None).collect();
        blocks[me] = Some(buf);

        if w > 1 {
            let right = (me + 1) % w;
            let left = (me + w - 1) % w;
            let right_class = self.cluster.link_class(self.rank, Rank(right));
            for step in 0..(w - 1) as u32 {
                let send_idx = (me + w - step as usize % w) % w;
                let payload = blocks[send_idx]
                    .as_ref()
                    .expect("ring invariant: block present before forwarding")
                    .clone();
                let t = self.cost.transfer_time(right_class, payload.len() as u64);
                self.clock.advance(t);
                sent.add(right_class, payload.len() as u64);
                self.send(right, seq, step, payload);

                let msg = self.recv(left, seq, step);
                self.clock.wait_until(msg.arrival);
                let recv_idx = (me + w - 1 - step as usize % w) % w;
                blocks[recv_idx] = Some(msg.payload);
            }
        }

        self.stats.record(CommRecord {
            op: OpKind::AllGather,
            rank: me,
            start,
            end: self.clock.now(),
            sent,
        });
        blocks
            .into_iter()
            .map(|b| b.expect("ring completes all blocks"))
            .collect()
    }

    /// Barrier: synchronizes all ranks' virtual clocks to the global max.
    ///
    /// Used between generation iterations, where the paper's engine
    /// implicitly synchronizes through the AllGather anyway; modeled as
    /// cost-free because its latency is dwarfed by data-bearing collectives.
    pub fn barrier(&mut self) {
        let start = self.clock.now();
        {
            let mut m = self.barrier.max_clock.lock();
            if self.clock.now() > *m {
                *m = self.clock.now();
            }
        }
        self.barrier.gate.wait();
        let target = *self.barrier.max_clock.lock();
        self.clock.wait_until(target);
        self.barrier.gate.wait();
        // Third phase: one rank resets the slot for the next barrier, then
        // everyone re-synchronizes so no writer can race the reset.
        if self.barrier.gate.wait().is_leader() {
            *self.barrier.max_clock.lock() = 0.0;
        }
        self.barrier.gate.wait();

        self.stats.record(CommRecord {
            op: OpKind::Barrier,
            rank: self.rank.0,
            start,
            end: self.clock.now(),
            sent: BytesByClass::default(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn world(nodes: usize, gpn: usize) -> CommWorld {
        CommWorld::new(ClusterSpec::new(nodes, gpn).unwrap(), CostModel::wilkes3())
    }

    #[test]
    fn alltoall_routes_payloads_correctly() {
        let w = world(2, 2);
        let results = w.run(|comm| {
            let me = comm.rank().0 as u8;
            // Send [me, dst] to each dst.
            let bufs: Vec<Vec<u8>> = (0..comm.world_size())
                .map(|dst| vec![me, dst as u8])
                .collect();
            comm.all_to_all_v(bufs)
        });
        for (me, received) in results.iter().enumerate() {
            for (src, buf) in received.iter().enumerate() {
                assert_eq!(buf, &vec![src as u8, me as u8]);
            }
        }
    }

    #[test]
    fn alltoall_single_rank_self_delivery() {
        let w = world(1, 1);
        let results = w.run(|comm| comm.all_to_all_v(vec![vec![7, 7]]));
        assert_eq!(results[0][0], vec![7, 7]);
    }

    #[test]
    fn allgather_collects_in_rank_order() {
        let w = world(2, 4);
        let results = w.run(|comm| {
            let me = comm.rank().0 as u8;
            comm.all_gather_v(vec![me; (me as usize) + 1])
        });
        for received in results {
            for (src, buf) in received.iter().enumerate() {
                assert_eq!(buf.len(), src + 1);
                assert!(buf.iter().all(|&b| b == src as u8));
            }
        }
    }

    #[test]
    fn virtual_time_is_deterministic_across_runs() {
        let run_once = || {
            let w = world(2, 2);
            w.run(|comm| {
                comm.advance(1e-3 * (comm.rank().0 + 1) as f64);
                let bufs = vec![vec![0u8; 4096]; comm.world_size()];
                comm.all_to_all_v(bufs);
                let _ = comm.all_gather_v(vec![0u8; 1024]);
                comm.now()
            })
        };
        let a = run_once();
        let b = run_once();
        assert_eq!(a, b, "virtual clocks must not depend on scheduling");
    }

    #[test]
    fn barrier_synchronizes_clocks_to_max() {
        let w = world(1, 4);
        let results = w.run(|comm| {
            comm.advance(comm.rank().0 as f64);
            comm.barrier();
            comm.now()
        });
        for t in &results {
            assert_eq!(*t, 3.0);
        }
    }

    #[test]
    fn repeated_barriers_reset_correctly() {
        let w = world(1, 3);
        let results = w.run(|comm| {
            comm.advance(comm.rank().0 as f64); // clocks 0,1,2
            comm.barrier(); // all at 2
            comm.advance(0.5); // all at 2.5
            comm.barrier(); // still 2.5 (max unchanged)
            comm.now()
        });
        for t in &results {
            assert!((*t - 2.5).abs() < 1e-12);
        }
    }

    #[test]
    fn internode_alltoall_slower_than_intranode() {
        // Two clusters, same world size: 1x4 vs 4x1.
        let run = |nodes, gpn| {
            let w = world(nodes, gpn);
            let times = w.run(|comm| {
                let bufs = vec![vec![0u8; 1 << 16]; comm.world_size()];
                comm.all_to_all_v(bufs);
                comm.now()
            });
            times.into_iter().fold(0.0f64, f64::max)
        };
        assert!(run(4, 1) > run(1, 4));
    }

    #[test]
    fn stats_capture_bytes_by_class() {
        let w = world(2, 2);
        w.run(|comm| {
            let bufs = vec![vec![0u8; 100]; comm.world_size()];
            comm.all_to_all_v(bufs);
        });
        let totals = w.stats().totals(OpKind::Alltoall);
        assert_eq!(totals.records, 4);
        // Each rank: 100B self (local), 100B intra, 2x100B inter.
        assert_eq!(totals.sent.local, 400);
        assert_eq!(totals.sent.intra_node, 400);
        assert_eq!(totals.sent.inter_node, 800);
    }

    #[test]
    fn run_returns_results_in_rank_order() {
        let w = world(1, 8);
        let results = w.run(|comm| comm.rank().0 * 10);
        assert_eq!(results, vec![0, 10, 20, 30, 40, 50, 60, 70]);
    }

    #[test]
    fn empty_buffers_are_legal() {
        let w = world(1, 4);
        let results = w.run(|comm| {
            let bufs = vec![Vec::new(); comm.world_size()];
            let out = comm.all_to_all_v(bufs);
            out.iter().map(|b| b.len()).sum::<usize>()
        });
        assert_eq!(results, vec![0, 0, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "one buffer per rank")]
    fn alltoall_rejects_wrong_buffer_count() {
        let w = world(1, 2);
        w.run(|comm| {
            let _ = comm.all_to_all_v(vec![Vec::new()]);
        });
    }
}
