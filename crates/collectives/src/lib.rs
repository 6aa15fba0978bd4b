//! # exflow-collectives
//!
//! A simulated multi-GPU communication layer: the substrate that stands in
//! for NCCL in this reproduction of ExFlow (IPDPS 2024).
//!
//! *Time* is virtual: each rank carries a [`VirtualClock`] advanced by the
//! α–β cost model from `exflow-topology`, which makes every reported
//! latency a deterministic function of (bytes, link class) — independent
//! of host load, exactly what the paper's figures need.
//!
//! The same three collectives — AlltoallV (token dispatch / combine),
//! AllGatherV over a ring (context coherence) and a clock barrier — exist
//! on two surfaces that apply the same clock rules and are property-tested
//! against each other bit for bit (`tests/properties.rs`).
//!
//! # [`Lockstep`]: what the engine runs on
//!
//! One value holds all W clocks and one ledger, and a collective is a
//! single call on the calling thread that takes byte counts and returns
//! nothing: `all_to_all_v(bytes[src * w + dst])`,
//! `all_gather_v(bytes[rank])`, and `barrier()`, which lifts every clock
//! to the fleet's max. Only a lane's length reaches the clocks and the
//! ledger, so the caller moves its payloads itself (the engine writes
//! token rows into the destination tables). The caller is a bulk-synchronous
//! loop — run a stage for rank 0, 1, .. and charge it with
//! `advance(rank, dt)`, then one collective, then the next stage — so a
//! pass costs no thread, channel or wake-up, whatever W is. An AlltoallV
//! leaves its lane matrix at zero, so the caller builds the next hop in
//! the same buffer. The clock rule of each collective is stated on the
//! method that implements it.
//!
//! # [`CommWorld::run`]: the threaded reference, and the probe surface
//!
//! Here messages are real bytes. Every rank is a real OS thread (scoped,
//! so the job may borrow from the caller) owning a [`RankComm`]: a
//! mailbox fed through crossbeam channels, early-arrival queues, its
//! clock and a lock-free per-job ledger that `run` folds into the world's
//! [`CommStats`] in rank order. A collective
//! completes once all W threads have called it, so the concurrency (and
//! any ordering bug) is genuine. This is the message-passing formulation
//! the clock rules were written down in — a send serializes on the sender
//! and stamps the message, a receive waits for the stamp — which makes it
//! the independent oracle for the kernel; `benchmark/`'s `collectives.*`
//! probes time it. The engine never runs on it.
//!
//! A job that panics on a rank is caught there; the rank wakes every peer
//! that is (or will be) blocked on it — they unwind too — and `run`
//! re-raises the original panic on the caller.
//!
//! [`RankComm::barrier`] is a max-reduction of the ranks' clocks behind one
//! mutex and one condition variable: every arriver folds its clock into a
//! running max; the last arriver publishes it as the released max, zeroes
//! the running slots, bumps a generation counter and wakes the others, who
//! return the released max. One wake-up per waiter suffices — no second
//! round to protect the released value — because it can only be
//! overwritten by the last arriver of the *next* barrier, which cannot
//! happen until every rank, including each waiter still reading it under
//! the lock, has returned from this one.
//!
//! ```
//! use exflow_collectives::{CommWorld, Lockstep};
//! use exflow_topology::{ClusterSpec, CostModel};
//!
//! let cluster = ClusterSpec::new(1, 4).unwrap();
//! // Rank r contributes r + 1 bytes; AllGather hands every rank all of them.
//! let world = CommWorld::new(cluster, CostModel::wilkes3());
//! let per_rank = world.run(|comm| {
//!     let gathered = comm.all_gather_v(vec![7; comm.rank().0 + 1]);
//!     assert_eq!(gathered.len(), 4);
//!     comm.now()
//! });
//! // The same collective as one call on the byte counts, with the same clocks.
//! let mut fleet = Lockstep::new(cluster, CostModel::wilkes3());
//! fleet.all_gather_v(&[1, 2, 3, 4]);
//! for (rank, now) in per_rank.iter().enumerate() {
//!     assert_eq!(now.to_bits(), fleet.now(rank).to_bits());
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod lockstep;
pub mod record;
pub mod world;

pub use clock::VirtualClock;
pub use lockstep::Lockstep;
pub use record::{CommRecord, CommStats, OpKind};
pub use world::{CommWorld, RankComm};
