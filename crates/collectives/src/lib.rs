//! # exflow-collectives
//!
//! A simulated multi-GPU communication layer: the substrate that stands in
//! for NCCL in this reproduction of ExFlow (IPDPS 2024).
//!
//! Every simulated GPU is a real OS thread. Messages are real byte buffers
//! moved through crossbeam channels, so the concurrency (and any ordering
//! bug) is genuine. *Time*, however, is virtual: each rank carries a
//! [`VirtualClock`] advanced by the α–β cost model from `exflow-topology`,
//! which makes every reported latency a deterministic function of
//! (bytes, link class) — independent of host load, exactly what the paper's
//! figures need.
//!
//! # Threads live for a session
//!
//! [`CommWorld::session`] spawns the W rank threads once (scoped, so jobs
//! may borrow from the caller) and hands the driver a [`Session`]. Each
//! rank thread owns its [`RankComm`] — mailbox, early-arrival queues,
//! clock, per-job ledger — for the session's whole life. The single driver
//! posts one job at a time; every rank runs it and hands its result back,
//! and the driver returns them in rank order. Posting wakes the ranks once
//! and the last rank to hand in wakes the driver once, so a job costs no
//! thread spawn, no join and no per-rank channel traffic. A job starts with
//! every virtual clock at zero, so N jobs through one session report
//! exactly what N fresh worlds would. [`CommWorld::run`] is a session of
//! one job. A serving run therefore pays thread spawn and join once, not
//! once per decode step.
//!
//! A job that panics on a rank is caught there; the rank wakes every peer
//! that is (or will be) blocked on it — they unwind too — and the driver
//! re-raises the original panic from [`Session::run`].
//!
//! Communication totals are accumulated without locking in a per-rank
//! ledger, returned with the rank's result and folded into the world's
//! [`CommStats`] in rank order when the job completes.
//!
//! # The barrier
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
//! The API mirrors the collectives the ExFlow engine issues:
//!
//! * [`RankComm::all_to_all_v`] — the token dispatch/combine primitive;
//! * [`RankComm::all_gather_v`] — the context-coherence primitive;
//! * [`RankComm::barrier`] — clock synchronization between iterations.
//!
//! ```
//! use exflow_collectives::CommWorld;
//! use exflow_topology::{ClusterSpec, CostModel};
//!
//! let world = CommWorld::new(ClusterSpec::new(1, 4).unwrap(), CostModel::wilkes3());
//! let results = world.run(|comm| {
//!     // Every rank contributes its rank id; AllGather returns all of them.
//!     let gathered = comm.all_gather_v(vec![comm.rank().0 as u8]);
//!     gathered.into_iter().map(|b| b[0]).collect::<Vec<u8>>()
//! });
//! for r in &results {
//!     assert_eq!(r, &[0, 1, 2, 3]);
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod error;
pub mod lockstep;
pub mod record;
pub mod world;

pub use clock::VirtualClock;
pub use error::CommError;
pub use lockstep::Lockstep;
pub use record::{CommRecord, CommStats, OpKind};
pub use world::{CommWorld, RankComm, Session};
