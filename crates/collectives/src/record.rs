//! Accounting records for communication operations.

use exflow_topology::collective_cost::BytesByClass;
use parking_lot::Mutex;

/// The kind of operation a [`CommRecord`] describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// AlltoallV — token dispatch or combine.
    Alltoall,
    /// AllGatherV — context-coherence broadcast of contexts/new tokens.
    AllGather,
    /// Barrier — clock synchronization only, no payload.
    Barrier,
}

impl OpKind {
    /// All operation kinds.
    pub const ALL: [OpKind; 3] = [OpKind::Alltoall, OpKind::AllGather, OpKind::Barrier];

    /// Human-readable label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            OpKind::Alltoall => "alltoall",
            OpKind::AllGather => "allgather",
            OpKind::Barrier => "barrier",
        }
    }
}

impl std::fmt::Display for OpKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// One rank's accounting for one collective invocation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CommRecord {
    /// What operation this was.
    pub op: OpKind,
    /// Bytes this rank *sent*, bucketed by link class.
    pub sent: BytesByClass,
}

/// Aggregated totals for one [`OpKind`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OpTotals {
    /// Number of (rank, invocation) records folded in.
    pub records: u64,
    /// Bytes sent, bucketed by link class, summed over ranks.
    pub sent: BytesByClass,
}

/// Per-op totals without a lock: what a [`Lockstep`](crate::Lockstep)
/// accumulates for its whole fleet, and what one rank thread of a
/// [`CommWorld`](crate::CommWorld) accumulates during a job (folded into
/// the world's [`CommStats`], in rank order, when the job completes).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct Ledger([OpTotals; OpKind::ALL.len()]);

impl Ledger {
    pub(crate) fn record(&mut self, rec: CommRecord) {
        let t = &mut self.0[rec.op as usize];
        t.records += 1;
        t.sent.merge(&rec.sent);
    }

    pub(crate) fn merge(&mut self, other: &Ledger) {
        for (t, o) in self.0.iter_mut().zip(&other.0) {
            t.records += o.records;
            t.sent.merge(&o.sent);
        }
    }

    pub(crate) fn totals(&self, op: OpKind) -> OpTotals {
        self.0[op as usize]
    }
}

/// Thread-safe accumulator of communication totals for one
/// [`CommWorld`](crate::CommWorld).
///
/// Rank threads never touch it: each keeps a private ledger for the job it
/// is running and [`CommWorld::run`](crate::CommWorld::run) folds those
/// in, in rank order, when the job completes.
#[derive(Debug, Default)]
pub struct CommStats {
    inner: Mutex<Ledger>,
}

impl CommStats {
    /// Empty stats.
    pub fn new() -> Self {
        CommStats::default()
    }

    /// Fold one record into the totals.
    pub fn record(&self, rec: CommRecord) {
        self.inner.lock().record(rec);
    }

    /// Fold a finished job's merged ledger into the totals.
    pub(crate) fn absorb(&self, job: &Ledger) {
        self.inner.lock().merge(job);
    }

    /// Snapshot the totals for one op kind.
    pub fn totals(&self, op: OpKind) -> OpTotals {
        self.inner.lock().totals(op)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(op: OpKind, intra: u64, inter: u64) -> CommRecord {
        let sent = BytesByClass {
            intra_node: intra,
            inter_node: inter,
            ..BytesByClass::default()
        };
        CommRecord { op, sent }
    }

    #[test]
    fn stats_accumulate_per_op() {
        let stats = CommStats::new();
        stats.record(rec(OpKind::Alltoall, 100, 50));
        stats.record(rec(OpKind::Alltoall, 10, 5));
        stats.record(rec(OpKind::AllGather, 1, 1));

        let a2a = stats.totals(OpKind::Alltoall);
        assert_eq!(a2a.records, 2);
        assert_eq!(a2a.sent.intra_node, 110);
        assert_eq!(a2a.sent.inter_node, 55);

        let ag = stats.totals(OpKind::AllGather);
        assert_eq!(ag.records, 1);
        // Barrier untouched.
        assert_eq!(stats.totals(OpKind::Barrier).records, 0);
    }

    #[test]
    fn ledgers_fold_into_the_shared_totals() {
        let mut rank0 = Ledger::default();
        rank0.record(rec(OpKind::Alltoall, 7, 0));
        let mut rank1 = Ledger::default();
        rank1.record(rec(OpKind::Alltoall, 0, 3));
        rank1.record(rec(OpKind::Barrier, 0, 0));
        let mut job = Ledger::default();
        job.merge(&rank0);
        job.merge(&rank1);

        let stats = CommStats::new();
        stats.record(rec(OpKind::Alltoall, 1, 1));
        stats.absorb(&job);
        let a2a = stats.totals(OpKind::Alltoall);
        assert_eq!(
            (a2a.records, a2a.sent.intra_node, a2a.sent.inter_node),
            (3, 8, 4)
        );
        assert_eq!(stats.totals(OpKind::Barrier).records, 1);
        assert_eq!(job.totals(OpKind::AllGather), OpTotals::default());
    }

    #[test]
    fn stats_are_shareable_across_threads() {
        use std::sync::Arc;
        let stats = Arc::new(CommStats::new());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let s = Arc::clone(&stats);
                std::thread::spawn(move || {
                    for _ in 0..100 {
                        s.record(CommRecord {
                            op: OpKind::Alltoall,
                            sent: BytesByClass::default(),
                        });
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(stats.totals(OpKind::Alltoall).records, 400);
    }
}
