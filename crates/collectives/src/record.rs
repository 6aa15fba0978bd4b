//! Accounting records for communication operations.

use exflow_topology::collective_cost::BytesByClass;
use parking_lot::Mutex;
use std::collections::BTreeMap;

/// The kind of operation a [`CommRecord`] describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
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
    /// Rank that recorded it.
    pub rank: usize,
    /// Virtual time when the rank entered the operation.
    pub start: f64,
    /// Virtual time when the rank left the operation.
    pub end: f64,
    /// Bytes this rank *sent*, bucketed by link class.
    pub sent: BytesByClass,
}

impl CommRecord {
    /// Elapsed virtual time this rank spent inside the op.
    pub fn elapsed(&self) -> f64 {
        self.end - self.start
    }
}

/// Aggregated totals for one [`OpKind`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OpTotals {
    /// Number of (rank, invocation) records folded in.
    pub records: u64,
    /// Sum over ranks of time spent inside the op.
    pub rank_time_sum: f64,
    /// Max single-record elapsed time (critical-path proxy).
    pub max_elapsed: f64,
    /// Bytes sent, bucketed by link class, summed over ranks.
    pub sent: BytesByClass,
}

/// Thread-safe accumulator of [`CommRecord`]s shared by all rank threads.
///
/// The engine reads it back after a run to build time-breakdown and
/// communication-volume reports (paper Figs. 6 and 9, Table I).
#[derive(Debug, Default)]
pub struct CommStats {
    // Ordered map per the determinism contract (detlint D001): snapshots
    // iterate in OpKind order whatever the record arrival interleaving.
    inner: Mutex<BTreeMap<OpKind, OpTotals>>,
}

impl CommStats {
    /// Empty stats.
    pub fn new() -> Self {
        CommStats::default()
    }

    /// Fold one record into the totals.
    pub fn record(&self, rec: CommRecord) {
        let mut map = self.inner.lock();
        let t = map.entry(rec.op).or_default();
        t.records += 1;
        t.rank_time_sum += rec.elapsed();
        t.max_elapsed = t.max_elapsed.max(rec.elapsed());
        t.sent.merge(&rec.sent);
    }

    /// Snapshot the totals for one op kind.
    pub fn totals(&self, op: OpKind) -> OpTotals {
        self.inner.lock().get(&op).copied().unwrap_or_default()
    }

    /// Snapshot everything, in `OpKind` order.
    pub fn all_totals(&self) -> BTreeMap<OpKind, OpTotals> {
        self.inner.lock().clone()
    }

    /// Drop all accumulated records.
    pub fn reset(&self) {
        self.inner.lock().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(op: OpKind, start: f64, end: f64, intra: u64, inter: u64) -> CommRecord {
        let sent = BytesByClass {
            intra_node: intra,
            inter_node: inter,
            ..BytesByClass::default()
        };
        CommRecord {
            op,
            rank: 0,
            start,
            end,
            sent,
        }
    }

    #[test]
    fn elapsed_is_end_minus_start() {
        assert_eq!(rec(OpKind::Alltoall, 1.0, 3.5, 0, 0).elapsed(), 2.5);
    }

    #[test]
    fn stats_accumulate_per_op() {
        let stats = CommStats::new();
        stats.record(rec(OpKind::Alltoall, 0.0, 1.0, 100, 50));
        stats.record(rec(OpKind::Alltoall, 1.0, 4.0, 10, 5));
        stats.record(rec(OpKind::AllGather, 0.0, 0.5, 1, 1));

        let a2a = stats.totals(OpKind::Alltoall);
        assert_eq!(a2a.records, 2);
        assert!((a2a.rank_time_sum - 4.0).abs() < 1e-12);
        assert!((a2a.max_elapsed - 3.0).abs() < 1e-12);
        assert_eq!(a2a.sent.intra_node, 110);
        assert_eq!(a2a.sent.inter_node, 55);

        let ag = stats.totals(OpKind::AllGather);
        assert_eq!(ag.records, 1);
        // Barrier untouched.
        assert_eq!(stats.totals(OpKind::Barrier).records, 0);
    }

    #[test]
    fn reset_clears_everything() {
        let stats = CommStats::new();
        stats.record(rec(OpKind::Barrier, 0.0, 0.1, 0, 0));
        stats.reset();
        assert_eq!(stats.totals(OpKind::Barrier).records, 0);
    }

    #[test]
    fn stats_are_shareable_across_threads() {
        use std::sync::Arc;
        let stats = Arc::new(CommStats::new());
        let handles: Vec<_> = (0..4)
            .map(|r| {
                let s = Arc::clone(&stats);
                std::thread::spawn(move || {
                    for i in 0..100 {
                        s.record(CommRecord {
                            op: OpKind::Alltoall,
                            rank: r,
                            start: i as f64,
                            end: i as f64 + 1.0,
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
