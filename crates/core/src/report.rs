//! Inference run reports: per-operator time breakdown, locality, traffic.

use std::collections::VecDeque;

use exflow_placement::ReplanCost;
use exflow_topology::collective_cost::BytesByClass;

use crate::modes::ParallelismMode;

/// Virtual time spent in each operator class, summed over iterations
/// (averaged across ranks in an [`InferenceReport`]).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OpBreakdown {
    /// Gating projections.
    pub gating: f64,
    /// Attention (context-dependent compute).
    pub attention: f64,
    /// Expert FFN compute.
    pub expert_ffn: f64,
    /// Alltoall collectives (dispatch, plus combine in vanilla mode).
    pub alltoall: f64,
    /// AllGather collectives (context coherence).
    pub allgather: f64,
    /// Time spent waiting at collective entry for compute stragglers
    /// (MoE load imbalance). Collectives are synchronization points, so
    /// this wait is real; it is kept out of `alltoall`/`allgather` so those
    /// report pure communication cost, as the paper's figures do.
    pub imbalance: f64,
}

impl OpBreakdown {
    /// Total accounted time.
    pub fn total(&self) -> f64 {
        self.gating
            + self.attention
            + self.expert_ffn
            + self.alltoall
            + self.allgather
            + self.imbalance
    }

    /// Element-wise sum.
    pub fn merge(&mut self, other: &OpBreakdown) {
        self.gating += other.gating;
        self.attention += other.attention;
        self.expert_ffn += other.expert_ffn;
        self.alltoall += other.alltoall;
        self.allgather += other.allgather;
        self.imbalance += other.imbalance;
    }

    /// Element-wise scale (for averaging across ranks).
    pub fn scaled(&self, f: f64) -> OpBreakdown {
        OpBreakdown {
            gating: self.gating * f,
            attention: self.attention * f,
            expert_ffn: self.expert_ffn * f,
            alltoall: self.alltoall * f,
            allgather: self.allgather * f,
            imbalance: self.imbalance * f,
        }
    }
}

/// Dispatch locality counters: where tokens' next experts lived.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DispatchStats {
    /// Total token-dispatch decisions.
    pub total: u64,
    /// Dispatches whose target expert was on the token's current GPU.
    pub same_gpu: u64,
    /// Dispatches whose target was on the same node (including same GPU).
    pub same_node: u64,
}

impl DispatchStats {
    /// Fraction of dispatches that stayed on the GPU.
    pub fn gpu_local_fraction(&self) -> f64 {
        if self.total == 0 {
            1.0
        } else {
            self.same_gpu as f64 / self.total as f64
        }
    }

    /// Fraction of dispatches that stayed on the node.
    pub fn node_local_fraction(&self) -> f64 {
        if self.total == 0 {
            1.0
        } else {
            self.same_node as f64 / self.total as f64
        }
    }

    /// Merge counters.
    pub fn merge(&mut self, other: &DispatchStats) {
        self.total += other.total;
        self.same_gpu += other.same_gpu;
        self.same_node += other.same_node;
    }
}

/// Result of one engine run.
#[derive(Debug, Clone, PartialEq)]
pub struct InferenceReport {
    /// Mode that produced this report.
    pub mode: ParallelismMode,
    /// Wall (virtual) time of the run: max final clock across ranks.
    pub total_time: f64,
    /// Mean per-rank operator breakdown.
    pub breakdown: OpBreakdown,
    /// Tokens processed (requests x iterations, summed over ranks).
    pub tokens_processed: u64,
    /// Dispatch locality counters summed over ranks.
    pub dispatch: DispatchStats,
    /// Alltoall bytes sent, by link class, summed over ranks and layers.
    pub alltoall_bytes: BytesByClass,
    /// AllGather bytes sent, by link class.
    pub allgather_bytes: BytesByClass,
    /// What the run *computed*: FNV-1a over `(iteration, token id,
    /// word)` of every token at the end of each generation iteration, in
    /// ascending `(iteration, id)` order, where a token's word folds its
    /// `(seed, iteration, id)`, every `(layer, expert)` that ran it and
    /// every top-2 secondary merged into it, in order. Blind to where a
    /// token ends up, so every mode, placement and replica set that
    /// delivers the paper's "same functionality" (each token through the
    /// same experts, the same copies merged) reports the same value.
    pub output_digest: u64,
}

/// Initial state of [`fnv1a`].
pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// The 64-bit FNV prime [`fnv1a`] multiplies by after each byte.
pub(crate) const FNV_PRIME: u64 = 0x100_0000_01b3;

/// One FNV-1a (64-bit) step: `state` folded over `bytes`.
pub(crate) fn fnv1a(state: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(state, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}

impl InferenceReport {
    /// End-to-end generation throughput in tokens per (virtual) second.
    pub fn throughput(&self) -> f64 {
        if self.total_time == 0.0 {
            0.0
        } else {
            self.tokens_processed as f64 / self.total_time
        }
    }
}

/// Aggregate expert-weight migration accounting for a serving run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MigrationStats {
    /// Re-plan events that moved at least one expert (or churned a
    /// replica).
    pub replans: u64,
    /// Expert relocations executed, summed over re-plans.
    pub experts_moved: u64,
    /// Replica copies created, summed over re-plans (each ships to its
    /// plan-chosen target subset of GPUs).
    pub replicas_added: u64,
    /// Replica copies retired, summed over re-plans (free).
    pub replicas_dropped: u64,
    /// Migrated bytes, bucketed by link class.
    pub bytes: BytesByClass,
    /// Virtual time the weight copies occupy the links; the serving loop
    /// overlaps it with decode steps (contention-priced).
    pub time: f64,
}

/// One re-plan decision that actually migrated experts or churned
/// replicas.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplanEvent {
    /// Serving window after which the re-plan fired (0-based).
    pub window: usize,
    /// Drift signal (windowed divergence) that triggered it.
    pub drift: f64,
    /// Experts relocated by this re-plan.
    pub experts_moved: u64,
    /// Replica copies created by this re-plan.
    pub replicas_added: u64,
    /// Replica copies retired by this re-plan.
    pub replicas_dropped: u64,
    /// Bytes of expert weights migrated (owner moves + replica fan-out).
    pub bytes_moved: u64,
    /// The migration byte budget this re-plan ran under
    /// (`OnlineConfig::migration_budget_bytes`) — `bytes_moved` never
    /// exceeds it.
    pub budget_bytes: u64,
    /// Virtual time the migration exchange took.
    pub migration_time: f64,
    /// Migrated bytes bucketed by link class (the per-event split of
    /// `MigrationStats::bytes`).
    pub bytes_by_class: BytesByClass,
    /// What the re-plan solve itself cost, in the deterministic
    /// operation counts of [`ReplanCost`]: swap
    /// candidates considered, how many needed an exact gain evaluation vs
    /// were decided by the attraction table alone, and whether
    /// `OnlineConfig::replan_time_budget` truncated the descent (see
    /// [`crate::OnlineConfig::replan_time_budget`]).
    pub solver_cost: ReplanCost,
}

/// One fleet-membership change the serving loop processed (the
/// `FaultSchedule` event, stamped with the virtual time it fired).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultMarker {
    /// Virtual time of the change.
    pub time: f64,
    /// GPU index in the provisioned fleet.
    pub gpu: usize,
    /// `true` for a rejoin/scale-up, `false` for a loss/scale-down.
    pub up: bool,
}

/// Fault/recovery accounting of one serving run — the disruption section
/// of [`ServingReport`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DisruptionStats {
    /// In-flight requests whose decode step was cut short by a GPU loss
    /// and were re-queued (a request disrupted twice counts twice).
    pub requests_disrupted: u64,
    /// Decode steps that ran while an emergency restore copy contended
    /// for the links.
    pub steps_degraded: u64,
    /// Emergency re-placements executed (one per fleet event that moved,
    /// restored, or failed over at least one expert).
    pub emergency_replans: u64,
    /// Expert-weight bytes the emergency restores copied (replica
    /// failovers are free and contribute nothing here).
    pub emergency_bytes: u64,
    /// Every fleet change, in processing order.
    pub faults: Vec<FaultMarker>,
}

/// Result of one request-level serving run
/// (`Scenario::with_serving`): per-request tail latency, queueing
/// and batching trajectories, plus the drift trajectory and every re-plan
/// and migration the adaptive re-placement executed.
///
/// Latency percentiles are nearest-rank over the sorted per-request
/// latencies, so `p50() <= p95() <= p99()` holds by construction:
///
/// ```
/// use exflow_core::ServingReport;
///
/// let r = ServingReport {
///     latencies: vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0],
///     ..ServingReport::default()
/// };
/// assert_eq!(r.percentile(50.0), 5.0);
/// assert_eq!(r.p95(), 10.0);
/// assert!(r.p50() <= r.p95() && r.p95() <= r.p99());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ServingReport {
    /// Mode that produced this report.
    pub mode: ParallelismMode,
    /// Per-request latency (completion minus arrival time), sorted
    /// ascending.
    pub latencies: Vec<f64>,
    /// Offered load: requests divided by the span of the arrival process
    /// (how fast traffic *wanted* to be served).
    pub offered_load: f64,
    /// Virtual time of the last request completion.
    pub makespan: f64,
    /// Queue-depth trajectory: `(virtual time, waiting requests)` sampled
    /// at every arrival and batch admission.
    pub queue_depth: Vec<(f64, usize)>,
    /// Batch-occupancy histogram: `batch_occupancy[s]` counts decode
    /// steps that ran with `s` requests in flight (index 0 stays 0).
    pub batch_occupancy: Vec<u64>,
    /// Decode steps executed (batches fed through the dispatch path).
    pub steps: u64,
    /// Virtual time the server spent actually stepping, including any
    /// migration-contention surcharge but excluding idle waits for
    /// arrivals; `busy / makespan` is the realized server utilization.
    pub busy: f64,
    /// Dispatch locality counters summed over every decode step.
    pub dispatch: DispatchStats,
    /// Every decode step's [`InferenceReport::output_digest`], folded
    /// (FNV-1a) in step order: what the run computed for its tokens.
    pub output_digest: u64,
    /// Drift signal at each serving-window boundary the run crossed.
    pub drift: Vec<f64>,
    /// Re-plans that moved experts, in firing order (`window` is the
    /// serving window that ended when the re-plan fired).
    pub replans: Vec<ReplanEvent>,
    /// Aggregate migration accounting; weight copies overlap with
    /// serving but contend for links and defer the new plan's benefit,
    /// so re-placement cost still shows up in the latency tail.
    pub migrations: MigrationStats,
    /// Completion events in completion order: `(virtual completion time,
    /// latency)` — the time-resolved view `latencies` loses by sorting,
    /// needed by the event stream (`crate::events`) and the recovery
    /// clock.
    pub completions: Vec<(f64, f64)>,
    /// Fault/recovery disruption accounting (all-zero on fault-free
    /// runs).
    pub disruption: DisruptionStats,
    /// Length of one serving window in virtual seconds (copied from the
    /// `ServingConfig`; 0.0 on defaulted reports).
    pub window_duration: f64,
}

impl Default for ServingReport {
    fn default() -> Self {
        ServingReport {
            mode: ParallelismMode::Vanilla,
            latencies: Vec::new(),
            offered_load: 0.0,
            makespan: 0.0,
            queue_depth: Vec::new(),
            batch_occupancy: Vec::new(),
            steps: 0,
            busy: 0.0,
            dispatch: DispatchStats::default(),
            output_digest: FNV_OFFSET,
            drift: Vec::new(),
            replans: Vec::new(),
            migrations: MigrationStats::default(),
            completions: Vec::new(),
            disruption: DisruptionStats::default(),
            window_duration: 0.0,
        }
    }
}

/// Completions in the rolling window [`ServingReport::recovery_time`]
/// evaluates the post-fault latency tail over.
pub const RECOVERY_WINDOW: usize = 32;

/// Nearest-rank percentile over an ascending-sorted slice; 0.0 when
/// empty, so degenerate (0-/1-request) runs stay defined.
pub(crate) fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    assert!((0.0..=100.0).contains(&p), "percentile must be in [0, 100]");
    let n = sorted.len();
    if n == 0 {
        return 0.0;
    }
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    sorted[rank.clamp(1, n) - 1]
}

impl ServingReport {
    /// Requests served.
    pub fn n_requests(&self) -> usize {
        self.latencies.len()
    }

    /// Nearest-rank latency percentile; `p` in `[0, 100]`. Monotone in
    /// `p` because `latencies` is sorted, and defined (0.0) on empty and
    /// single-request runs alike.
    pub fn percentile(&self, p: f64) -> f64 {
        debug_assert!(self.latencies.windows(2).all(|w| w[0] <= w[1]));
        nearest_rank(&self.latencies, p)
    }

    /// Median request latency.
    pub fn p50(&self) -> f64 {
        self.percentile(50.0)
    }

    /// 95th-percentile request latency.
    pub fn p95(&self) -> f64 {
        self.percentile(95.0)
    }

    /// 99th-percentile request latency (the tail the gate watches).
    pub fn p99(&self) -> f64 {
        self.percentile(99.0)
    }

    /// Goodput: completed requests per virtual second of makespan. Always
    /// at most `offered_load`, since the last completion trails the last
    /// arrival.
    pub fn goodput(&self) -> f64 {
        if self.makespan > 0.0 {
            self.latencies.len() as f64 / self.makespan
        } else {
            0.0
        }
    }

    /// Mean requests in flight per executed decode step.
    pub fn mean_batch_occupancy(&self) -> f64 {
        let steps: u64 = self.batch_occupancy.iter().sum();
        if steps == 0 {
            return 0.0;
        }
        let weighted: u64 = self
            .batch_occupancy
            .iter()
            .enumerate()
            .map(|(size, &count)| size as u64 * count)
            .sum();
        weighted as f64 / steps as f64
    }

    /// Deepest the waiting queue ever got.
    pub fn max_queue_depth(&self) -> usize {
        self.queue_depth.iter().map(|&(_, d)| d).max().unwrap_or(0)
    }

    /// Nearest-rank p99 over requests that completed strictly *before*
    /// the first GPU loss — the pre-fault service level the fleet must
    /// recover to. `None` when the run had no loss event or nothing
    /// completed before it.
    pub fn pre_fault_p99(&self) -> Option<f64> {
        let fault = self.disruption.faults.iter().find(|m| !m.up)?.time;
        let mut pre: Vec<f64> = self
            .completions
            .iter()
            .filter(|&&(t, _)| t < fault)
            .map(|&(_, l)| l)
            .collect();
        if pre.is_empty() {
            return None;
        }
        pre.sort_by(f64::total_cmp);
        Some(nearest_rank(&pre, 99.0))
    }

    /// Virtual time from the first GPU loss until the rolling p99 over
    /// the last [`RECOVERY_WINDOW`] completions first drops back to the
    /// pre-fault p99. `None` when the run never faulted, nothing
    /// completed before the fault, or the tail never recovered within
    /// the run.
    pub fn recovery_time(&self) -> Option<f64> {
        let target = self.pre_fault_p99()?;
        let fault = self.disruption.faults.iter().find(|m| !m.up)?.time;
        let mut ring: VecDeque<f64> = VecDeque::with_capacity(RECOVERY_WINDOW);
        for &(t, lat) in self.completions.iter().filter(|&&(t, _)| t >= fault) {
            if ring.len() == RECOVERY_WINDOW {
                ring.pop_front();
            }
            ring.push_back(lat);
            if ring.len() == RECOVERY_WINDOW {
                let mut sorted: Vec<f64> = ring.iter().copied().collect();
                sorted.sort_by(f64::total_cmp);
                if nearest_rank(&sorted, 99.0) <= target {
                    return Some(t - fault);
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn breakdown() -> OpBreakdown {
        OpBreakdown {
            gating: 1.0,
            attention: 2.0,
            expert_ffn: 3.0,
            alltoall: 3.0,
            allgather: 1.0,
            imbalance: 0.0,
        }
    }

    #[test]
    fn totals_and_fractions() {
        let b = breakdown();
        assert_eq!(b.total(), 10.0);
        // The Alltoall share of Fig. 9's annotation.
        assert!((b.alltoall / b.total() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn merge_and_scale() {
        let mut a = breakdown();
        a.merge(&breakdown());
        assert_eq!(a.total(), 20.0);
        assert_eq!(a.scaled(0.5).total(), 10.0);
    }

    #[test]
    fn dispatch_fractions() {
        let d = DispatchStats {
            total: 10,
            same_gpu: 4,
            same_node: 7,
        };
        assert!((d.gpu_local_fraction() - 0.4).abs() < 1e-12);
        assert!((d.node_local_fraction() - 0.7).abs() < 1e-12);
    }

    #[test]
    fn empty_dispatch_is_fully_local() {
        let d = DispatchStats::default();
        assert_eq!(d.gpu_local_fraction(), 1.0);
        assert_eq!(d.node_local_fraction(), 1.0);
    }

    #[test]
    fn throughput_divides_tokens_by_time() {
        let r = InferenceReport {
            mode: ParallelismMode::Vanilla,
            total_time: 2.0,
            breakdown: breakdown(),
            tokens_processed: 100,
            dispatch: DispatchStats::default(),
            alltoall_bytes: BytesByClass::default(),
            allgather_bytes: BytesByClass::default(),
            output_digest: FNV_OFFSET,
        };
        assert_eq!(r.throughput(), 50.0);
    }

    #[test]
    fn serving_percentiles_are_nearest_rank_and_monotone() {
        let r = ServingReport {
            latencies: (1..=100).map(f64::from).collect(),
            makespan: 50.0,
            ..ServingReport::default()
        };
        assert_eq!(r.n_requests(), 100);
        assert_eq!(r.percentile(0.0), 1.0);
        assert_eq!(r.p50(), 50.0);
        assert_eq!(r.p95(), 95.0);
        assert_eq!(r.p99(), 99.0);
        assert_eq!(r.percentile(100.0), 100.0);
        assert_eq!(r.goodput(), 2.0);
    }

    #[test]
    fn empty_serving_report_is_all_zero() {
        let r = ServingReport::default();
        assert_eq!(r.percentile(99.0), 0.0);
        assert_eq!(r.goodput(), 0.0);
        assert_eq!(r.mean_batch_occupancy(), 0.0);
        assert_eq!(r.max_queue_depth(), 0);
    }

    #[test]
    fn single_request_percentiles_are_defined() {
        let r = ServingReport {
            latencies: vec![3.5],
            ..ServingReport::default()
        };
        assert_eq!(r.percentile(0.0), 3.5);
        assert_eq!(r.p50(), 3.5);
        assert_eq!(r.p99(), 3.5);
        assert_eq!(r.percentile(100.0), 3.5);
    }

    #[test]
    fn zero_duration_goodput_is_zero() {
        let r = ServingReport {
            latencies: vec![1.0],
            makespan: 0.0,
            ..ServingReport::default()
        };
        assert_eq!(r.goodput(), 0.0);
        assert!(r.goodput().is_finite());
    }

    fn faulted_report(fault: f64, completions: Vec<(f64, f64)>) -> ServingReport {
        ServingReport {
            completions,
            disruption: DisruptionStats {
                faults: vec![FaultMarker {
                    time: fault,
                    gpu: 1,
                    up: false,
                }],
                ..DisruptionStats::default()
            },
            ..ServingReport::default()
        }
    }

    #[test]
    fn recovery_clock_finds_first_healthy_window() {
        // 50 pre-fault completions at latency 1.0, then a degraded burst
        // at 5.0, then a healthy tail back at 1.0. Recovery fires at the
        // first post-fault completion whose trailing RECOVERY_WINDOW-deep
        // p99 is back at the pre-fault p99 (1.0): the ring must flush all
        // RECOVERY_WINDOW - 1 degraded samples past the window edge.
        let mut completions: Vec<(f64, f64)> = (0..50).map(|i| (i as f64 * 0.1, 1.0)).collect();
        let fault = 10.0;
        let mut t = fault;
        for _ in 0..(RECOVERY_WINDOW - 1) {
            t += 0.1;
            completions.push((t, 5.0));
        }
        for _ in 0..(2 * RECOVERY_WINDOW) {
            t += 0.1;
            completions.push((t, 1.0));
        }
        let r = faulted_report(fault, completions);
        assert_eq!(r.pre_fault_p99(), Some(1.0));
        let rec = r.recovery_time().expect("tail recovers");
        // (RECOVERY_WINDOW - 1) degraded + RECOVERY_WINDOW healthy samples
        // must pass before the ring holds only healthy latencies.
        let expected = 0.1 * (2 * RECOVERY_WINDOW - 1) as f64;
        assert!((rec - expected).abs() < 1e-9, "rec = {rec}");
    }

    #[test]
    fn recovery_is_none_without_fault_or_pre_fault_traffic() {
        // No fault markers at all.
        let r = ServingReport {
            completions: vec![(1.0, 1.0)],
            ..ServingReport::default()
        };
        assert_eq!(r.pre_fault_p99(), None);
        assert_eq!(r.recovery_time(), None);
        // Fault before anything completed.
        let r = faulted_report(0.0, vec![(1.0, 1.0), (2.0, 1.0)]);
        assert_eq!(r.pre_fault_p99(), None);
        assert_eq!(r.recovery_time(), None);
        // Tail never recovers: every post-fault latency stays elevated.
        let mut completions: Vec<(f64, f64)> = (0..50).map(|i| (i as f64 * 0.1, 1.0)).collect();
        completions.extend((0..100).map(|i| (10.0 + i as f64 * 0.1, 9.0)));
        let r = faulted_report(10.0, completions);
        assert_eq!(r.pre_fault_p99(), Some(1.0));
        assert_eq!(r.recovery_time(), None);
    }

    #[test]
    fn occupancy_and_queue_summaries() {
        let r = ServingReport {
            batch_occupancy: vec![0, 2, 0, 0, 6],
            queue_depth: vec![(0.0, 1), (1.0, 5), (2.0, 0)],
            ..ServingReport::default()
        };
        // (1*2 + 4*6) / 8 = 3.25
        assert!((r.mean_batch_occupancy() - 3.25).abs() < 1e-12);
        assert_eq!(r.max_queue_depth(), 5);
    }
}
