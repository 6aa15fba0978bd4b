//! The threaded reference world: rank threads, mailboxes, collectives.

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};

use crossbeam::channel::{unbounded, Receiver, Sender};

use exflow_topology::collective_cost::BytesByClass;
use exflow_topology::{ClusterSpec, CostModel, Rank};

use crate::clock::VirtualClock;
use crate::record::{CommRecord, CommStats, Ledger, OpKind};

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

/// What travels through a rank's mailbox.
enum Wire {
    Data(Msg),
    /// A peer's job panicked: whoever is blocked on this mailbox unwinds
    /// too instead of waiting for a message that will never come.
    PeerPanicked,
}

/// Panic payload of a rank that unwound only because a peer did;
/// [`CommWorld::run`] re-raises the peer's own payload in preference to it.
struct PeerPanicked;

/// Shared state backing [`RankComm::barrier`]: a max-reduction of the
/// ranks' virtual clocks that costs each waiter one wake-up.
///
/// Every arriver folds its clock into `running_max` under the lock. The
/// last one publishes it as `released_max`, clears the running slots, bumps
/// `generation` and wakes the rest, who return `released_max`. That single
/// round is race-free because `released_max` is only ever overwritten by
/// the last arriver of the *next* generation, and that rank cannot arrive
/// before every rank — each waiter of this generation included — has read
/// the value (under the lock) and left.
#[derive(Default)]
struct ClockBarrier {
    state: Mutex<BarrierState>,
    released: Condvar,
}

#[derive(Default)]
struct BarrierState {
    count: usize,
    generation: u64,
    running_max: f64,
    released_max: f64,
    /// A rank's job panicked; nobody will complete this generation.
    aborted: bool,
}

impl ClockBarrier {
    fn lock(&self) -> std::sync::MutexGuard<'_, BarrierState> {
        self.state
            .lock()
            .expect("no code path panics while holding the barrier lock")
    }

    /// Block until all `w` ranks have arrived; returns the max of their
    /// `now`s.
    fn sync(&self, w: usize, now: f64) -> f64 {
        let mut s = self.lock();
        if !s.aborted {
            if now > s.running_max {
                s.running_max = now;
            }
            s.count += 1;
            if s.count == w {
                s.released_max = s.running_max;
                s.running_max = 0.0;
                s.count = 0;
                s.generation += 1;
                self.released.notify_all();
                return s.released_max;
            }
            let arrived_in = s.generation;
            while s.generation == arrived_in && !s.aborted {
                s = self
                    .released
                    .wait(s)
                    .expect("no code path panics while holding the barrier lock");
            }
            if s.generation != arrived_in {
                return s.released_max;
            }
        }
        drop(s);
        resume_unwind(Box::new(PeerPanicked))
    }

    fn abort(&self) {
        self.lock().aborted = true;
        self.released.notify_all();
    }
}

/// A simulated cluster communicator, one OS thread per rank. Owns the
/// cluster shape, the cost model and the shared [`CommStats`];
/// [`CommWorld::run`] spawns the rank threads, each owning a [`RankComm`],
/// for one job.
pub struct CommWorld {
    cluster: ClusterSpec,
    cost: CostModel,
    stats: CommStats,
}

impl CommWorld {
    /// Create a world over `cluster` with per-link costs from `cost`.
    pub fn new(cluster: ClusterSpec, cost: CostModel) -> Self {
        CommWorld {
            cluster,
            cost,
            stats: CommStats::new(),
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

    /// Communication statistics, accumulated across every job this world
    /// has run. A job's records appear when it completes.
    pub fn stats(&self) -> &CommStats {
        &self.stats
    }

    /// Run `f` once on every rank, each on a thread of its own (scoped, so
    /// `f` may borrow from the caller), and return the per-rank results
    /// ordered by rank. Every rank starts with its virtual clock at zero;
    /// the ranks' ledgers are folded into [`CommWorld::stats`] in rank
    /// order once all have finished.
    ///
    /// A rank whose `f` panics wakes every peer that is (or will be)
    /// blocked on it — they unwind too — and the first original panic, in
    /// rank order, is re-raised here, so test failures inside rank closures
    /// surface normally.
    pub fn run<F, R>(&self, f: F) -> Vec<R>
    where
        F: Fn(&mut RankComm) -> R + Sync,
        R: Send,
    {
        let w = self.cluster.world_size();
        let (senders, mailboxes): (Vec<Sender<Wire>>, Vec<Receiver<Wire>>) =
            (0..w).map(|_| unbounded()).unzip();
        let barrier = Arc::new(ClockBarrier::default());
        let f = &f;

        let outcomes: Vec<RankOutcome<R>> = std::thread::scope(|scope| {
            let ranks: Vec<_> = mailboxes
                .into_iter()
                .enumerate()
                .map(|(rank, rx)| {
                    let mut comm = RankComm {
                        rank: Rank(rank),
                        cluster: self.cluster,
                        cost: self.cost,
                        senders: senders.clone(),
                        rx,
                        pending: (0..w).map(|_| VecDeque::new()).collect(),
                        clock: VirtualClock::new(),
                        seq: 0,
                        barrier: Arc::clone(&barrier),
                        ledger: Ledger::default(),
                    };
                    scope.spawn(move || {
                        let out = catch_unwind(AssertUnwindSafe(|| f(&mut comm)));
                        if out.is_err() {
                            comm.abort_peers();
                        }
                        out.map(|r| (r, comm.ledger))
                    })
                })
                .collect();
            ranks
                .into_iter()
                .map(|h| h.join().expect("a rank catches its own job's panic"))
                .collect()
        });

        let mut job = Ledger::default();
        let mut out = Vec::with_capacity(w);
        let mut panic: Option<Box<dyn Any + Send>> = None;
        for outcome in outcomes {
            match outcome {
                Ok((r, ledger)) => {
                    out.push(r);
                    job.merge(&ledger);
                }
                Err(payload) => {
                    if panic.as_ref().is_none_or(|p| p.is::<PeerPanicked>()) {
                        panic = Some(payload);
                    }
                }
            }
        }
        if let Some(payload) = panic {
            resume_unwind(payload);
        }
        self.stats.absorb(&job);
        out
    }
}

type RankOutcome<R> = Result<(R, Ledger), Box<dyn Any + Send>>;

/// One rank's endpoint inside a job.
///
/// All methods are *collective*: every rank in the world must call them in
/// the same order (the usual SPMD contract). Sequence numbers are checked in
/// debug builds via message tags.
pub struct RankComm {
    rank: Rank,
    cluster: ClusterSpec,
    cost: CostModel,
    senders: Vec<Sender<Wire>>,
    rx: Receiver<Wire>,
    /// Early arrivals, one FIFO per source rank. A channel keeps one
    /// sender's messages in its program order and this rank consumes them
    /// in the same (SPMD) order, so the head of `pending[src]` is always
    /// the next message expected from `src`.
    pending: Vec<VecDeque<Msg>>,
    clock: VirtualClock,
    seq: u64,
    barrier: Arc<ClockBarrier>,
    /// This rank's accounting for the running job.
    ledger: Ledger,
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
        self.senders[dst]
            .send(Wire::Data(msg))
            .expect("receiver alive");
    }

    fn recv(&mut self, src: usize, seq: u64, step: u32) -> Msg {
        let msg = match self.pending[src].pop_front() {
            Some(m) => m,
            None => loop {
                match self
                    .rx
                    .recv()
                    .expect("this rank holds a sender to its own mailbox")
                {
                    Wire::Data(m) if m.src == src => break m,
                    Wire::Data(m) => self.pending[m.src].push_back(m),
                    Wire::PeerPanicked => resume_unwind(Box::new(PeerPanicked)),
                }
            },
        };
        debug_assert_eq!(
            (msg.seq, msg.step),
            (seq, step),
            "rank {src} and rank {} disagree on the collective schedule",
            self.rank.0
        );
        msg
    }

    /// This rank's job panicked: unblock every peer waiting on it, in the
    /// barrier or on a mailbox.
    fn abort_peers(&self) {
        self.barrier.abort();
        for tx in &self.senders {
            // A peer that already exited has nothing to be told.
            let _ = tx.send(Wire::PeerPanicked);
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

        self.ledger.record(CommRecord {
            op: OpKind::Alltoall,
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

        self.ledger.record(CommRecord {
            op: OpKind::AllGather,
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
        let released = self.barrier.sync(self.world_size(), self.clock.now());
        self.clock.wait_until(released);
        self.ledger.record(CommRecord {
            op: OpKind::Barrier,
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

    /// A seeded per-(rank, round) skew in [0, 1) without a `rand`
    /// dependency: the top bits of a multiplicative hash.
    fn skew(seed: u64, rank: usize, round: u64) -> f64 {
        let z = (seed ^ (rank as u64) << 32 ^ round).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        (z >> 11) as f64 / (1u64 << 53) as f64
    }

    #[test]
    fn back_to_back_barriers_release_the_same_max_to_every_rank() {
        // A fast rank re-entering the next barrier must never overwrite the
        // released value a slow waiter of this one has yet to read.
        const ROUNDS: u64 = 10_000;
        for (nodes, gpn) in [(1, 1), (1, 2), (2, 4)] {
            let w = world(nodes, gpn);
            let n = nodes * gpn;
            let per_rank = w.run(|comm| {
                (0..ROUNDS)
                    .map(|round| {
                        comm.advance(skew(17, comm.rank().0, round));
                        comm.barrier();
                        comm.now().to_bits()
                    })
                    .collect::<Vec<u64>>()
            });
            // What the max must be, replayed sequentially.
            let mut clocks = vec![0.0f64; n];
            for round in 0..ROUNDS {
                for (rank, c) in clocks.iter_mut().enumerate() {
                    *c += skew(17, rank, round);
                }
                let max = clocks.iter().copied().fold(0.0, f64::max);
                clocks.fill(max);
                for seen in &per_rank {
                    assert_eq!(seen[round as usize], max.to_bits(), "W={n} round {round}");
                }
            }
            assert_eq!(w.stats().totals(OpKind::Barrier).records, ROUNDS * n as u64);
        }
    }

    #[test]
    #[should_panic(expected = "boom on every rank")]
    fn a_job_that_panics_on_every_rank_reraises_on_the_caller() {
        world(1, 4).run(|_| -> () { panic!("boom on every rank") });
    }

    #[test]
    #[should_panic(expected = "boom on rank 2")]
    fn a_single_rank_panic_unblocks_its_peers_and_reraises() {
        // Ranks 0, 1 and 3 are parked in a barrier and an Alltoall that
        // rank 2 never joins; they must unwind rather than hang the scope.
        let w = world(1, 4);
        w.run(|comm| {
            if comm.rank().0 == 2 {
                panic!("boom on rank 2");
            }
            if comm.rank().0 == 3 {
                comm.all_to_all_v(vec![vec![1u8]; 4]);
            }
            comm.barrier();
        });
    }
}
