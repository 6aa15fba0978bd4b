//! Request-level serving front-end: a deterministic discrete-event loop
//! over an arrival process, with per-request queueing and continuous
//! batching, feeding assembled decode batches through the engine's
//! dispatch/collectives path.
//!
//! Where a [`crate::Scenario::with_drift`] run consumes pre-aggregated
//! windows of traffic, a [`crate::Scenario::with_serving`] run consumes
//! *requests*: each arrives at a timestamp drawn from a seeded
//! [`ArrivalProcess`], waits in a
//! FIFO queue until the [`BatchPolicy`] opens a batch, then generates
//! `decode_steps` tokens — one engine pass per step — under continuous
//! batching (finished requests leave the in-flight pool at step
//! boundaries, queued ones top it up). Virtual serving time advances by
//! each pass's simulated `total_time`, so queueing delay, batching
//! efficiency, and placement quality all land in the same clock.
//!
//! Drift handling composes exactly like the windowed mode: virtual time
//! is divided into serving windows of `window_duration`; when the clock
//! crosses a boundary, the realized expert paths folded into the decayed
//! streaming estimate produce a drift signal, and an over-threshold
//! signal triggers the same budgeted re-plan (`replan_step`) the online
//! loop uses. The migration itself overlaps with serving: expert weights
//! stream over the interconnect in the background while decode steps
//! keep running on the *old* placement, and the new placement activates
//! only once the copy lands. Overlap is not free — steps that run while
//! a copy is in flight share links with it and pay a
//! [`MIGRATION_CONTENTION`] surcharge — so re-placement cost still
//! surfaces in the latency tail, as contention plus deferred benefit
//! rather than a dead stop.
//!
//! Faults compose on top: a seeded
//! [`FaultSchedule`] injects GPU loss,
//! rejoin, and fleet scale events into the same event queue. On a loss
//! the engine *evacuates* the dead GPU's experts to the survivors — for
//! free where a replica already holds a copy (failover), priced as an
//! *emergency* restore copy otherwise (mandatory, so its byte budget is
//! elevated to whatever the restore needs; it overlaps with serving and
//! charges the same [`MIGRATION_CONTENTION`] surcharge). In-flight
//! requests homed on the lost GPU are re-queued and counted in the
//! report's [`DisruptionStats`]. On a
//! rejoin the engine re-homes experts back onto the returned GPU the
//! same way. Dead GPUs stay in the collectives with empty payloads, so
//! the SPMD clocks — and hence bit-identity across thread counts — are
//! unaffected by fleet churn.
//!
//! The whole run is a pure function of `(config, drift schedule, serving
//! config, fault schedule)`: the event queue orders events by `(time,
//! sequence)` with total-order float comparison, every random draw comes
//! from a seeded stream, and the engine passes themselves are
//! bit-identical at any thread width — so [`ServingReport`]s are too.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use rand::rngs::StdRng;
use rand::SeedableRng;

use exflow_affinity::{RoutingTrace, StreamingAffinity};
use exflow_model::arrival::ArrivalProcess;
use exflow_model::{DriftSchedule, FaultKind, FaultSchedule, TokenBatch};
use exflow_placement::online::{ExpertMove, MigrationPlan};
use exflow_placement::{LayerReplicas, Placement, ReplicationPlan};

use crate::engine::InferenceEngine;
use crate::modes::ParallelismMode;
use crate::report::{DispatchStats, DisruptionStats, FaultMarker, MigrationStats, ServingReport};

/// Fractional slowdown of a decode step that overlaps a background
/// weight copy: the copy streams over the same links the step's
/// collectives use, so an in-flight step takes `1 + MIGRATION_CONTENTION`
/// times its uncontended duration until the copy lands.
pub const MIGRATION_CONTENTION: f64 = 0.25;

/// How the serving loop opens a fresh batch from the waiting queue.
///
/// Once a batch is in flight, continuous batching applies regardless of
/// policy: at every decode-step boundary, queued requests top the pool
/// back up to `max_size` and finished requests leave. The policy only
/// gates *opening* a batch when the server sits idle.
///
/// ```
/// use exflow_core::BatchPolicy;
///
/// let p = BatchPolicy::SizeOrWait { max_size: 4, max_wait: 2.0 };
/// assert!(p.ready(4, 0.0)); // a full batch closes immediately
/// assert!(p.ready(1, 2.0)); // the oldest request hit the wait cap
/// assert!(!p.ready(3, 1.0)); // otherwise keep accumulating
///
/// // Greedy never holds a request back.
/// assert!(BatchPolicy::Greedy { max_size: 4 }.ready(1, 0.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BatchPolicy {
    /// Open once `max_size` requests are queued **or** the oldest queued
    /// request has waited `max_wait` virtual seconds, whichever first.
    SizeOrWait {
        /// Most requests one decode batch holds.
        max_size: usize,
        /// Longest the oldest queued request waits before a partial
        /// batch opens anyway.
        max_wait: f64,
    },
    /// Open as soon as any request is queued (max_wait = 0): lowest
    /// queueing delay, worst batch occupancy.
    Greedy {
        /// Most requests one decode batch holds.
        max_size: usize,
    },
}

impl BatchPolicy {
    /// The batch-size cap.
    pub fn max_size(&self) -> usize {
        match *self {
            BatchPolicy::SizeOrWait { max_size, .. } | BatchPolicy::Greedy { max_size } => max_size,
        }
    }

    /// Should an idle server open a batch, given `queued` waiting
    /// requests whose oldest has waited `oldest_wait`?
    pub fn ready(&self, queued: usize, oldest_wait: f64) -> bool {
        if queued == 0 {
            return false;
        }
        match *self {
            BatchPolicy::SizeOrWait { max_size, max_wait } => {
                queued >= max_size || oldest_wait >= max_wait
            }
            BatchPolicy::Greedy { .. } => true,
        }
    }

    fn validate(&self) {
        assert!(self.max_size() >= 1, "batch size cap must be >= 1");
        if let BatchPolicy::SizeOrWait { max_wait, .. } = *self {
            assert!(
                max_wait >= 0.0 && max_wait.is_finite(),
                "max_wait must be finite and >= 0"
            );
        }
    }
}

/// Configuration of one [`crate::Scenario::with_serving`] run.
#[derive(Debug, Clone, PartialEq)]
pub struct ServingConfig {
    /// Seeded arrival process generating request timestamps (rates are in
    /// requests per virtual second — calibrate against
    /// [`InferenceEngine::probe_step_time`]).
    pub arrival: ArrivalProcess,
    /// Requests to serve.
    pub n_requests: usize,
    /// Tokens each request generates (decode steps it occupies a batch
    /// slot for).
    pub decode_steps: usize,
    /// Batch-assembly policy.
    pub batch: BatchPolicy,
    /// Length of one serving window in virtual seconds: drift checks and
    /// re-plans happen when the clock crosses window boundaries, mirroring
    /// the windowed online mode's cadence.
    pub window_duration: f64,
}

impl ServingConfig {
    fn validate(&self) {
        // `n_requests == 0` is a valid (idle) run: it reports zero
        // latencies, zero goodput, and still processes fault events.
        assert!(self.decode_steps >= 1, "need at least one decode step");
        assert!(
            self.window_duration > 0.0 && self.window_duration.is_finite(),
            "window duration must be positive and finite"
        );
        self.batch.validate();
    }
}

/// One request's lifecycle state inside the event loop.
struct Request {
    arrival: f64,
    domain: usize,
    /// `routes[step][layer]` = gated experts of the token this request
    /// generates at `step`.
    routes: Vec<Vec<Vec<u16>>>,
    steps_done: usize,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum EventKind {
    /// Request `i` joins the queue.
    Arrival(usize),
    /// Request `i`'s `max_wait` expired (no-op if it already started).
    WaitDeadline(usize),
    /// The in-flight batch finished its current decode step.
    StepDone,
    /// Fleet event `i` of the fault schedule fired (GPU loss or rejoin).
    Fleet(usize),
}

/// Event-queue entry: ordered by `(time, seq)` — total-order float
/// comparison, then insertion sequence — so the pop order is a pure
/// function of the pushes.
#[derive(Debug, Clone, Copy)]
struct Event {
    time: f64,
    seq: u64,
    kind: EventKind,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.time.total_cmp(&other.time).is_eq() && self.seq == other.seq
    }
}

impl Eq for Event {}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.time
            .total_cmp(&other.time)
            .then(self.seq.cmp(&other.seq))
    }
}

/// Min-heap of events with a monotone insertion sequence for ties.
struct EventQueue {
    heap: BinaryHeap<Reverse<Event>>,
    seq: u64,
}

impl EventQueue {
    fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    fn push(&mut self, time: f64, kind: EventKind) {
        self.heap.push(Reverse(Event {
            time,
            seq: self.seq,
            kind,
        }));
        self.seq += 1;
    }

    fn pop(&mut self) -> Option<Event> {
        self.heap.pop().map(|Reverse(e)| e)
    }
}

impl InferenceEngine {
    /// Virtual time of one full-occupancy decode step: a single batch of
    /// `batch_size` tokens through `mode`'s placement at prompt-length
    /// context. Serving scenarios calibrate arrival rates and batch waits
    /// against this (e.g. an offered load of `0.8 * batch_size /
    /// (decode_steps * probe)` requests per virtual second keeps a
    /// size-`batch_size` server at 80% utilization).
    pub fn probe_step_time(&self, mode: ParallelismMode, batch_size: usize) -> f64 {
        assert!(batch_size >= 1, "probe batch must hold at least one token");
        let cfg = self.config();
        let batch = TokenBatch::sample(
            self.routing(),
            &cfg.corpus,
            batch_size,
            cfg.model.gate.k(),
            cfg.seed ^ 0x5e_41_9e,
        );
        let no_replicas = vec![Vec::new(); cfg.model.n_layers];
        self.run_with_batches(
            mode,
            self.placement_for(mode),
            &no_replicas,
            &[batch],
            0,
            None,
        )
        .total_time
    }

    /// One request-level serving run (the `run_scenario` serving path):
    /// serve `serving.n_requests` requests arriving per `serving.arrival`
    /// under continuous batching, interleaving the online mode's
    /// drift-triggered budgeted re-placement with serving time, under a
    /// fault schedule and from an optional starting replication plan (the
    /// replicas emergency failover draws on). See the
    /// [module docs](crate::serving) for the event-loop semantics; the
    /// result is bit-identical at any thread width.
    pub(crate) fn run_serving_impl(
        &self,
        mode: ParallelismMode,
        drift: &DriftSchedule,
        serving: &ServingConfig,
        faults: &FaultSchedule,
        initial: Option<&ReplicationPlan>,
    ) -> ServingReport {
        serving.validate();
        let cfg = self.config();
        let oc = cfg.online;
        let e = cfg.model.n_experts;
        let w = cfg.cluster.world_size();
        assert_eq!(
            faults.n_units(),
            w,
            "fault schedule must cover the provisioned fleet"
        );
        let shape = drift.model_at(0);
        assert_eq!(shape.n_layers(), cfg.model.n_layers, "drift layer mismatch");
        assert_eq!(shape.n_experts(), e, "drift expert mismatch");
        assert_eq!(
            shape.n_domains(),
            cfg.corpus.domain_weights.len(),
            "drift domain mismatch"
        );

        let n = serving.n_requests;
        let max_size = serving.batch.max_size();
        let window_of = |t: f64| -> usize {
            ((t / serving.window_duration) as usize).min(drift.n_windows() - 1)
        };

        // Seeded traffic: arrival timestamps from the arrival process,
        // then each request's domain and full decode route from the
        // routing model of the window it arrives in (its own seed stream,
        // disjoint from profiling and from the windowed mode's).
        let arrivals = serving.arrival.sample(n, cfg.seed ^ 0xac71_0e55);
        let k = cfg.model.gate.k();
        let mut requests: Vec<Request> = arrivals
            .iter()
            .enumerate()
            .map(|(i, &t)| {
                let mut rng = StdRng::seed_from_u64(
                    cfg.seed ^ (i as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0x5e59,
                );
                let model = drift.model_at(window_of(t));
                let domain = cfg.corpus.sample_domain(&mut rng);
                let routes = (0..serving.decode_steps)
                    .map(|_| model.sample_route(&mut rng, domain, k))
                    .collect();
                Request {
                    arrival: t,
                    domain,
                    routes,
                    steps_done: 0,
                }
            })
            .collect();

        // Streaming estimator and re-plan state, exactly as the windowed
        // online loop seeds them; an explicit starting replication plan
        // (the [`Scenario`](crate::scenario::Scenario) front door's
        // `with_replication`) overrides the engine-chosen placement.
        let mut streaming = StreamingAffinity::new(cfg.model.n_layers, e, oc.decay);
        streaming.observe(self.profile_trace());
        let mut reference = streaming.snapshot();
        // The incremental re-plan state (delta-maintained objective plus
        // persistent swap-gain cache) rides across every window boundary,
        // exactly as in the windowed loop.
        let mut replan_state = self.replan_state(&reference);
        let (mut placement, mut replicated): (Placement, Vec<LayerReplicas>) = match initial {
            Some(plan) => (plan.base.clone(), plan.replicas.clone()),
            None => (
                self.placement_for(mode).clone(),
                vec![Vec::new(); cfg.model.n_layers],
            ),
        };
        let mut carry = 0u64;
        let mut cur_window = 0usize;
        let mut pending_paths: Vec<Vec<u16>> = Vec::new();
        let mut drifts = Vec::new();
        let mut replans = Vec::new();
        let mut migrations = MigrationStats::default();

        // Event loop state.
        let mut events = EventQueue::new();
        for (i, &t) in arrivals.iter().enumerate() {
            events.push(t, EventKind::Arrival(i));
        }
        for (i, ev) in faults.events().iter().enumerate() {
            events.push(ev.time, EventKind::Fleet(i));
        }
        // Fleet state: which GPUs are up, the emergency-restore horizon
        // (steps before it share links with a restore copy), and which
        // live rank each in-flight slot was homed on when the current
        // step started (mirrors `run_with_batches` token homing, so a
        // loss disrupts exactly the requests the dead GPU was serving).
        let mut live_mask = vec![true; w];
        let mut emergency_until = 0.0f64;
        let mut step_live: Vec<usize> = (0..w).collect();
        let mut disruption = DisruptionStats::default();
        let mut completions: Vec<(f64, f64)> = Vec::with_capacity(n);
        let bytes_per_expert = (cfg.model.expert_params() * 2).max(1);
        let mut queue: VecDeque<usize> = VecDeque::new();
        let mut in_flight: Vec<usize> = Vec::new();
        let mut stepping = false;
        // An in-flight background weight copy: `(lands_at, placement,
        // replicas)` — the *stale* plan steps keep using until the copy
        // completes. `placement`/`replicated` already hold the new plan.
        let mut copying: Option<(f64, Placement, Vec<LayerReplicas>)> = None;
        let mut latencies: Vec<f64> = Vec::with_capacity(n);
        let mut makespan = 0.0f64;
        let mut queue_depth: Vec<(f64, usize)> = Vec::new();
        let mut occupancy = vec![0u64; max_size + 1];
        let mut steps = 0u64;
        let mut busy = 0.0f64;
        let mut dispatch = DispatchStats::default();

        while let Some(ev) = events.pop() {
            let clock = ev.time;
            match ev.kind {
                EventKind::Arrival(i) => {
                    queue.push_back(i);
                    queue_depth.push((clock, queue.len()));
                    if let BatchPolicy::SizeOrWait { max_wait, .. } = serving.batch {
                        events.push(clock + max_wait, EventKind::WaitDeadline(i));
                    }
                }
                // Deadlines carry no state of their own; they exist to
                // re-run the batch-opening check below.
                EventKind::WaitDeadline(_) => {}
                EventKind::StepDone => {
                    stepping = false;
                    // Completions and per-step realized paths.
                    let mut still = Vec::with_capacity(in_flight.len());
                    for &i in &in_flight {
                        let req = &mut requests[i];
                        let path = req.routes[req.steps_done]
                            .iter()
                            .map(|slots| slots[0])
                            .collect();
                        pending_paths.push(path);
                        req.steps_done += 1;
                        if req.steps_done == serving.decode_steps {
                            latencies.push(clock - req.arrival);
                            completions.push((clock, clock - req.arrival));
                            makespan = makespan.max(clock);
                        } else {
                            still.push(i);
                        }
                    }
                    in_flight = still;

                    // Window boundaries crossed while this step ran: fold
                    // the accumulated paths into the estimate once, then
                    // evaluate each ended window's drift/re-plan exactly
                    // as the windowed loop would.
                    let wnow = window_of(clock);
                    if wnow > cur_window && !pending_paths.is_empty() {
                        let delta = streaming.observe_delta(&RoutingTrace::new(
                            std::mem::take(&mut pending_paths),
                            e,
                        ));
                        replan_state.absorb(&delta);
                    }
                    while cur_window < wnow {
                        let ended = cur_window;
                        cur_window += 1;
                        let drift_now = streaming.divergence(&reference);
                        drifts.push(drift_now);
                        let due = (ended + 1).is_multiple_of(oc.replan_every)
                            && ended + 1 < drift.n_windows();
                        if due && drift_now > oc.drift_threshold && mode.uses_affinity() {
                            let stale = (placement.clone(), replicated.clone());
                            if let Some(exec) = self.replan_step(
                                mode,
                                drift_now,
                                &mut replan_state,
                                &mut placement,
                                &mut replicated,
                                &mut carry,
                            ) {
                                // A re-plan landing mid-outage may have
                                // picked replica targets on dead GPUs;
                                // those copies cannot exist (the shipped
                                // bytes were still charged — a documented
                                // overcharge).
                                if live_mask.iter().any(|&up| !up) {
                                    for lr in replicated.iter_mut() {
                                        for (_, units) in lr.iter_mut() {
                                            units.retain(|&u| live_mask[u]);
                                        }
                                        lr.retain(|(_, units)| !units.is_empty());
                                    }
                                }
                                // The weight exchange streams in the
                                // background: steps keep running on the
                                // stale plan (with link contention) and
                                // the new plan activates when the copy
                                // lands. A copy still in flight keeps its
                                // stale plan active and queues this one
                                // behind it.
                                let (start, sp, sr) = match copying.take() {
                                    Some((done, sp, sr)) if done > clock => (done, sp, sr),
                                    _ => (clock, stale.0, stale.1),
                                };
                                copying = Some((start + exec.migration_time, sp, sr));
                                migrations.absorb(&exec);
                                replans.push(exec.event(ended, drift_now));
                            }
                            reference = streaming.snapshot();
                        }
                    }
                }
                EventKind::Fleet(fi) => {
                    let fev = faults.events()[fi];
                    match fev.kind {
                        FaultKind::Down => {
                            live_mask[fev.gpu] = false;
                            disruption.faults.push(FaultMarker {
                                time: clock,
                                gpu: fev.gpu,
                                up: false,
                            });
                            // Requests the dead GPU was serving lose their
                            // in-progress step: back to the front of the
                            // queue (oldest first), step not counted.
                            if stepping {
                                let nl_step = step_live.len();
                                let mut keep = Vec::with_capacity(in_flight.len());
                                let mut lost = Vec::new();
                                for (j, &i) in in_flight.iter().enumerate() {
                                    if step_live[j % nl_step] == fev.gpu {
                                        lost.push(i);
                                    } else {
                                        keep.push(i);
                                    }
                                }
                                disruption.requests_disrupted += lost.len() as u64;
                                for &i in lost.iter().rev() {
                                    queue.push_front(i);
                                }
                                if let BatchPolicy::SizeOrWait { max_wait, .. } = serving.batch {
                                    for &i in &lost {
                                        events.push(clock + max_wait, EventKind::WaitDeadline(i));
                                    }
                                }
                                in_flight = keep;
                                queue_depth.push((clock, queue.len()));
                            }
                            // Evacuate the dead GPU's experts onto the
                            // survivors: where the replica subset still
                            // holds a live copy, the least-loaded holder
                            // is *promoted* to owner for free (failover);
                            // an expert whose only copies just died needs
                            // a priced emergency restore from a surviving
                            // checkpoint shard. The evacuated placement
                            // activates *immediately* — steps must not
                            // route to a dead GPU — so any in-flight
                            // background copy (whose stale plan may still
                            // route there) is cancelled.
                            let live_ranks: Vec<usize> = live_mask
                                .iter()
                                .enumerate()
                                .filter_map(|(r, &up)| up.then_some(r))
                                .collect();
                            // The dead GPU's replica copies are gone too:
                            // strip it from every subset before failover
                            // consults them.
                            for lr in replicated.iter_mut() {
                                for (_, units) in lr.iter_mut() {
                                    units.retain(|&u| u != fev.gpu);
                                }
                                lr.retain(|(_, units)| !units.is_empty());
                            }
                            let nl = cfg.model.n_layers;
                            let mut assign: Vec<Vec<usize>> = (0..nl)
                                .map(|l| (0..e).map(|x| placement.unit_of(l, x)).collect())
                                .collect();
                            let mut moves = Vec::new();
                            let mut free_moves = Vec::new();
                            for (l, row) in assign.iter_mut().enumerate() {
                                let mut load = vec![0usize; w];
                                for &u in row.iter() {
                                    load[u] += 1;
                                }
                                for x in 0..e {
                                    if row[x] != fev.gpu {
                                        continue;
                                    }
                                    let holder = replicated[l]
                                        .binary_search_by_key(&x, |r| r.0)
                                        .ok()
                                        .and_then(|i| {
                                            replicated[l][i]
                                                .1
                                                .iter()
                                                .copied()
                                                .min_by_key(|&r| (load[r], r))
                                        });
                                    load[fev.gpu] -= 1;
                                    match holder {
                                        Some(dst) => {
                                            // A surviving holder already has
                                            // the weights: promote it to
                                            // owner and retire its subset
                                            // membership.
                                            load[dst] += 1;
                                            row[x] = dst;
                                            free_moves.push(ExpertMove {
                                                layer: l,
                                                expert: x,
                                                from: fev.gpu,
                                                to: dst,
                                            });
                                            let i = replicated[l]
                                                .iter()
                                                .position(|r| r.0 == x)
                                                .expect("holder came from this entry");
                                            replicated[l][i].1.retain(|&u| u != dst);
                                            if replicated[l][i].1.is_empty() {
                                                replicated[l].remove(i);
                                            }
                                        }
                                        None => {
                                            let &dst = live_ranks
                                                .iter()
                                                .min_by_key(|&&r| (load[r], r))
                                                .expect("at least one live GPU");
                                            load[dst] += 1;
                                            row[x] = dst;
                                            // Deterministic surviving source
                                            // of the restore copy (a
                                            // checkpoint shard, not the dead
                                            // GPU).
                                            let src = live_ranks[(l + x) % live_ranks.len()];
                                            moves.push(ExpertMove {
                                                layer: l,
                                                expert: x,
                                                from: src,
                                                to: dst,
                                            });
                                        }
                                    }
                                }
                            }
                            copying = None;
                            placement = Placement::new_degraded(assign, w);
                            let plan = MigrationPlan {
                                bytes_per_expert,
                                moves,
                                free_moves,
                                replica_adds: Vec::new(),
                                replica_drops: Vec::new(),
                            };
                            if !plan.is_empty() {
                                let (time, _) = self.execute_migrations(&plan);
                                // Restores are mandatory: the byte budget
                                // is whatever the evacuation needs, and the
                                // copy overlaps serving (steps before
                                // `emergency_until` pay link contention).
                                let start = if emergency_until > clock {
                                    emergency_until
                                } else {
                                    clock
                                };
                                emergency_until = start + time;
                                disruption.emergency_replans += 1;
                                disruption.emergency_bytes += plan.total_bytes();
                            }
                        }
                        FaultKind::Up => {
                            live_mask[fev.gpu] = true;
                            disruption.faults.push(FaultMarker {
                                time: clock,
                                gpu: fev.gpu,
                                up: true,
                            });
                            // Re-home a fair share of each layer's experts
                            // back onto the rejoined GPU, pulling from the
                            // most-loaded survivors (lowest expert index
                            // first). Unlike a loss, nothing is on fire:
                            // the copy streams in the background through
                            // the same stale-plan mechanism a drift
                            // re-plan uses.
                            let stale = (placement.clone(), replicated.clone());
                            let nl = cfg.model.n_layers;
                            let mut assign: Vec<Vec<usize>> = (0..nl)
                                .map(|l| (0..e).map(|x| placement.unit_of(l, x)).collect())
                                .collect();
                            let mut moves = Vec::new();
                            for (l, row) in assign.iter_mut().enumerate() {
                                let mut load = vec![0usize; w];
                                for &u in row.iter() {
                                    load[u] += 1;
                                }
                                let target = e / w;
                                while load[fev.gpu] < target {
                                    let src = (0..w)
                                        .filter(|&r| r != fev.gpu && load[r] > 0)
                                        .min_by_key(|&r| (std::cmp::Reverse(load[r]), r))
                                        .expect("survivors hold every expert");
                                    let x = (0..e)
                                        .find(|&x| row[x] == src)
                                        .expect("loaded unit owns an expert");
                                    row[x] = fev.gpu;
                                    load[src] -= 1;
                                    load[fev.gpu] += 1;
                                    moves.push(ExpertMove {
                                        layer: l,
                                        expert: x,
                                        from: src,
                                        to: fev.gpu,
                                    });
                                }
                            }
                            placement = Placement::new_degraded(assign, w);
                            let plan = MigrationPlan {
                                bytes_per_expert,
                                moves,
                                free_moves: Vec::new(),
                                replica_adds: Vec::new(),
                                replica_drops: Vec::new(),
                            };
                            if !plan.is_empty() {
                                let (time, _) = self.execute_migrations(&plan);
                                let (start, sp, sr) = match copying.take() {
                                    Some((done, sp, sr)) if done > clock => (done, sp, sr),
                                    _ => (clock, stale.0, stale.1),
                                };
                                copying = Some((start + time, sp, sr));
                                disruption.emergency_replans += 1;
                                disruption.emergency_bytes += plan.total_bytes();
                            }
                        }
                    }
                }
            }

            // After every event: try to open/continue a batch.
            if stepping {
                continue;
            }
            if in_flight.is_empty() {
                // Opening a fresh batch is the policy's call.
                match queue.front() {
                    None => continue,
                    Some(&head) => {
                        let oldest_wait = clock - requests[head].arrival;
                        if !serving.batch.ready(queue.len(), oldest_wait) {
                            continue;
                        }
                    }
                }
            }
            // Continuous batching: top the pool up to the cap.
            while in_flight.len() < max_size {
                match queue.pop_front() {
                    Some(i) => in_flight.push(i),
                    None => break,
                }
            }
            queue_depth.push((clock, queue.len()));

            // One decode step of the pool through the engine: each
            // in-flight request contributes the token of its current step.
            let batch = TokenBatch {
                routes: in_flight
                    .iter()
                    .map(|&i| requests[i].routes[requests[i].steps_done].clone())
                    .collect(),
                domains: in_flight.iter().map(|&i| requests[i].domain).collect(),
            };
            let ctx_offset = in_flight
                .iter()
                .map(|&i| requests[i].steps_done)
                .max()
                .unwrap_or(0);
            if let Some((done, _, _)) = &copying {
                if clock >= *done {
                    copying = None;
                }
            }
            let (active_p, active_r) = match &copying {
                Some((_, sp, sr)) => (sp, sr),
                None => (&placement, &replicated),
            };
            // Dead ranks stay in the collectives with empty payloads
            // (bit-identical clocks at any thread width); the all-live
            // mask is elided so fault-free runs take the exact code path
            // they always did.
            let any_dead = live_mask.iter().any(|&up| !up);
            let report = self.run_with_batches(
                mode,
                active_p,
                active_r,
                &[batch],
                ctx_offset,
                if any_dead { Some(&live_mask) } else { None },
            );
            // A background copy — drift re-plan or emergency restore —
            // shares links with the step; the surcharge does not stack.
            let degraded = clock < emergency_until;
            let step_time = if copying.is_some() || degraded {
                report.total_time * (1.0 + MIGRATION_CONTENTION)
            } else {
                report.total_time
            };
            if degraded {
                disruption.steps_degraded += 1;
            }
            step_live = live_mask
                .iter()
                .enumerate()
                .filter_map(|(r, &up)| up.then_some(r))
                .collect();
            occupancy[in_flight.len()] += 1;
            steps += 1;
            busy += step_time;
            dispatch.merge(&report.dispatch);
            stepping = true;
            events.push(clock + step_time, EventKind::StepDone);
        }

        debug_assert_eq!(latencies.len(), n, "every request must complete");
        latencies.sort_by(f64::total_cmp);
        let last_arrival = arrivals.last().copied().unwrap_or(0.0);
        let offered_load = if last_arrival > 0.0 {
            n as f64 / last_arrival
        } else if n > 0 {
            f64::INFINITY
        } else {
            // An idle (0-request) run offered nothing.
            0.0
        };

        ServingReport {
            mode,
            latencies,
            offered_load,
            makespan,
            queue_depth,
            batch_occupancy: occupancy,
            steps,
            busy,
            dispatch,
            drift: drifts,
            replans,
            migrations,
            completions,
            disruption,
            window_duration: serving.window_duration,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exflow_model::presets::moe_gpt_m;
    use exflow_topology::ClusterSpec;

    use crate::engine::OnlineConfig;
    use crate::scenario::Scenario;

    fn engine(online: OnlineConfig) -> InferenceEngine {
        let mut model = moe_gpt_m(8);
        model.n_layers = 4;
        InferenceEngine::builder(model, ClusterSpec::new(2, 2).unwrap())
            .requests_per_gpu(8)
            .prompt_len(8)
            .profile_tokens(800)
            .online(online)
            .seed(11)
            .build()
    }

    fn adaptive() -> OnlineConfig {
        OnlineConfig {
            replan_every: 1,
            drift_threshold: 0.08,
            migration_budget_bytes: u64::MAX,
            decay: 0.3,
            ..OnlineConfig::default()
        }
    }

    fn static_cfg() -> OnlineConfig {
        OnlineConfig {
            drift_threshold: f64::INFINITY,
            decay: 0.3,
            ..OnlineConfig::default()
        }
    }

    fn serve(
        e: &InferenceEngine,
        mode: ParallelismMode,
        drift: &DriftSchedule,
        cfg: &ServingConfig,
    ) -> ServingReport {
        let scenario = Scenario::offline(mode)
            .with_drift(drift.clone())
            .with_serving(cfg.clone());
        e.run_scenario(&scenario).expect_serving()
    }

    fn scenario(e: &InferenceEngine, mode: ParallelismMode) -> (DriftSchedule, ServingConfig) {
        let schedule = DriftSchedule::piecewise(&e.config().routing_spec, 2, 6);
        let step = e.probe_step_time(mode, 8);
        assert!(step > 0.0);
        let n_requests = 40;
        let decode_steps = 2;
        let rate = 0.8 * 8.0 / (decode_steps as f64 * step);
        let horizon = n_requests as f64 / rate;
        let cfg = ServingConfig {
            arrival: ArrivalProcess::poisson(rate),
            n_requests,
            decode_steps,
            batch: BatchPolicy::SizeOrWait {
                max_size: 8,
                max_wait: 2.0 * step,
            },
            window_duration: horizon / 6.0,
        };
        (schedule, cfg)
    }

    #[test]
    fn serves_every_request_and_reports_sane_metrics() {
        let mode = ParallelismMode::ContextCoherentAffinity;
        let eng = engine(adaptive());
        let (schedule, cfg) = scenario(&eng, mode);
        let r = serve(&eng, mode, &schedule, &cfg);
        assert_eq!(r.n_requests(), cfg.n_requests);
        assert!(r.latencies.iter().all(|&l| l > 0.0));
        assert!(r.p50() <= r.p95() && r.p95() <= r.p99());
        assert!(r.goodput() > 0.0);
        assert!(r.goodput() <= r.offered_load);
        assert!(r.makespan > 0.0);
        assert!(r.steps > 0);
        // Step count is bounded by the one-token-per-request-per-step
        // arithmetic.
        let total_tokens = (cfg.n_requests * cfg.decode_steps) as u64;
        assert!(r.steps >= total_tokens / 8);
        assert!(r.steps <= total_tokens);
        assert_eq!(
            r.batch_occupancy.iter().sum::<u64>(),
            r.steps,
            "every step lands in the occupancy histogram"
        );
        assert_eq!(r.batch_occupancy[0], 0, "no empty batches");
        assert!(r.mean_batch_occupancy() > 1.0);
        assert_eq!(
            r.batch_occupancy
                .iter()
                .enumerate()
                .map(|(s, &c)| s as u64 * c)
                .sum::<u64>(),
            total_tokens,
            "occupancy-weighted steps account for every token"
        );
    }

    #[test]
    fn serving_is_deterministic() {
        let mode = ParallelismMode::ContextCoherentAffinity;
        let eng = engine(adaptive());
        let (schedule, cfg) = scenario(&eng, mode);
        let a = serve(&eng, mode, &schedule, &cfg);
        let b = serve(&eng, mode, &schedule, &cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn drifted_traffic_triggers_replans_that_overlap_with_serving() {
        let mode = ParallelismMode::ContextCoherentAffinity;
        let eng = engine(adaptive());
        let (schedule, cfg) = scenario(&eng, mode);
        let r = serve(&eng, mode, &schedule, &cfg);
        assert!(
            r.migrations.replans > 0,
            "piecewise drift must fire at least one re-plan"
        );
        assert!(r.migrations.time > 0.0);
        assert!(!r.drift.is_empty());
        assert!(r.replans.iter().all(|ev| ev.bytes_moved <= ev.budget_bytes));
    }

    #[test]
    fn static_baseline_never_replans() {
        let mode = ParallelismMode::ContextCoherentAffinity;
        let eng = engine(static_cfg());
        let (schedule, cfg) = scenario(&eng, mode);
        let r = serve(&eng, mode, &schedule, &cfg);
        assert_eq!(r.migrations.replans, 0);
        assert!(r.replans.is_empty());
        assert_eq!(r.n_requests(), cfg.n_requests);
    }

    #[test]
    fn greedy_policy_trades_occupancy_for_queueing() {
        let mode = ParallelismMode::ContextCoherentAffinity;
        let eng = engine(static_cfg());
        let (schedule, mut cfg) = scenario(&eng, mode);
        let waited = serve(&eng, mode, &schedule, &cfg);
        cfg.batch = BatchPolicy::Greedy { max_size: 8 };
        let greedy = serve(&eng, mode, &schedule, &cfg);
        assert_eq!(greedy.n_requests(), cfg.n_requests);
        // Greedy opens batches earlier, so it can only run more (or
        // equally many) steps at lower (or equal) mean occupancy.
        assert!(greedy.steps >= waited.steps);
        assert!(greedy.mean_batch_occupancy() <= waited.mean_batch_occupancy());
    }

    #[test]
    fn probe_step_time_grows_with_batch_size() {
        let eng = engine(static_cfg());
        let mode = ParallelismMode::ContextCoherentAffinity;
        let small = eng.probe_step_time(mode, 2);
        let large = eng.probe_step_time(mode, 32);
        assert!(small > 0.0);
        assert!(
            large > small,
            "bigger batches must cost more: {small} vs {large}"
        );
    }

    fn faulted(
        e: &InferenceEngine,
        mode: ParallelismMode,
        faults: &FaultSchedule,
        initial: Option<&ReplicationPlan>,
    ) -> ServingReport {
        let (schedule, cfg) = scenario(e, mode);
        e.run_serving_impl(mode, &schedule, &cfg, faults, initial)
    }

    #[test]
    fn gpu_loss_disrupts_then_every_request_still_completes() {
        let mode = ParallelismMode::ContextCoherentAffinity;
        let eng = engine(static_cfg());
        let (schedule, cfg) = scenario(&eng, mode);
        // Strike mid-run: about half the horizon in.
        let horizon = cfg.window_duration * 6.0;
        let faults = FaultSchedule::gpu_loss(4, 1, 0.5 * horizon);
        let r = eng.run_serving_impl(mode, &schedule, &cfg, &faults, None);
        assert_eq!(r.n_requests(), cfg.n_requests, "no request may be lost");
        assert_eq!(r.completions.len(), cfg.n_requests);
        assert_eq!(r.disruption.faults.len(), 1);
        assert!(!r.disruption.faults[0].up);
        assert_eq!(r.disruption.faults[0].gpu, 1);
        // No replicas: the evacuation is a priced emergency restore.
        assert_eq!(r.disruption.emergency_replans, 1);
        assert!(r.disruption.emergency_bytes > 0);
        assert!(r.disruption.steps_degraded > 0);
        assert!(r.pre_fault_p99().is_some());
        // The fault-free run is strictly different (and no slower).
        let clean = faulted(&eng, mode, &FaultSchedule::none(4), None);
        assert!(clean.disruption.emergency_replans == 0);
        assert!(clean.makespan <= r.makespan);
    }

    #[test]
    fn full_replication_makes_failover_free() {
        let mode = ParallelismMode::ContextCoherentAffinity;
        let eng = engine(static_cfg());
        let (schedule, cfg) = scenario(&eng, mode);
        let horizon = cfg.window_duration * 6.0;
        let faults = FaultSchedule::gpu_loss(4, 1, 0.5 * horizon);
        // Every expert of every layer replicated on every GPU: a loss
        // fails over without copying a single byte.
        let plan =
            ReplicationPlan::everywhere(eng.placement_for(mode).clone(), vec![(0..8).collect(); 4]);
        let r = eng.run_serving_impl(mode, &schedule, &cfg, &faults, Some(&plan));
        assert_eq!(r.n_requests(), cfg.n_requests);
        assert_eq!(r.disruption.emergency_replans, 1);
        assert_eq!(
            r.disruption.emergency_bytes, 0,
            "replica failover must not ship weights"
        );
    }

    #[test]
    fn rejoin_rehomes_and_is_recorded() {
        let mode = ParallelismMode::ContextCoherentAffinity;
        let eng = engine(static_cfg());
        let (schedule, cfg) = scenario(&eng, mode);
        let horizon = cfg.window_duration * 6.0;
        let faults = FaultSchedule::loss_and_rejoin(4, 2, 0.3 * horizon, 0.6 * horizon);
        let r = eng.run_serving_impl(mode, &schedule, &cfg, &faults, None);
        assert_eq!(r.n_requests(), cfg.n_requests);
        assert_eq!(r.disruption.faults.len(), 2);
        assert!(r.disruption.faults[1].up);
        // Loss evacuation + rejoin re-home both moved experts.
        assert_eq!(r.disruption.emergency_replans, 2);
    }

    #[test]
    fn faulted_run_is_deterministic() {
        let mode = ParallelismMode::ContextCoherentAffinity;
        let eng = engine(adaptive());
        let faults = FaultSchedule::loss_and_rejoin(4, 1, 2.0, 4.0);
        let a = faulted(&eng, mode, &faults, None);
        let b = faulted(&eng, mode, &faults, None);
        assert_eq!(a, b);
    }

    #[test]
    fn fault_on_an_idle_server_is_handled() {
        let mode = ParallelismMode::ContextCoherentAffinity;
        let eng = engine(static_cfg());
        let schedule = DriftSchedule::piecewise(&eng.config().routing_spec, 2, 6);
        let cfg = ServingConfig {
            arrival: ArrivalProcess::poisson(1.0),
            n_requests: 0,
            decode_steps: 1,
            batch: BatchPolicy::Greedy { max_size: 4 },
            window_duration: 1.0,
        };
        let faults = FaultSchedule::loss_and_rejoin(4, 3, 0.5, 2.5);
        let r = eng.run_serving_impl(mode, &schedule, &cfg, &faults, None);
        assert_eq!(r.n_requests(), 0);
        assert_eq!(r.disruption.requests_disrupted, 0);
        assert_eq!(r.disruption.faults.len(), 2);
        assert_eq!(r.disruption.emergency_replans, 2);
        // Degenerate metrics stay defined.
        assert_eq!(r.p50(), 0.0);
        assert_eq!(r.p99(), 0.0);
        assert_eq!(r.goodput(), 0.0);
        assert_eq!(r.offered_load, 0.0);
        assert!(r.pre_fault_p99().is_none());
        assert!(r.recovery_time().is_none());
    }

    #[test]
    #[should_panic(expected = "fault schedule must cover")]
    fn fleet_size_mismatch_is_rejected() {
        let mode = ParallelismMode::ContextCoherentAffinity;
        let eng = engine(static_cfg());
        let (schedule, cfg) = scenario(&eng, mode);
        let faults = FaultSchedule::gpu_loss(8, 1, 1.0);
        let _ = eng.run_serving_impl(mode, &schedule, &cfg, &faults, None);
    }

    #[test]
    #[should_panic(expected = "window duration")]
    fn zero_window_duration_is_rejected() {
        let eng = engine(static_cfg());
        let schedule = DriftSchedule::piecewise(&eng.config().routing_spec, 2, 6);
        let cfg = ServingConfig {
            arrival: ArrivalProcess::poisson(1.0),
            n_requests: 1,
            decode_steps: 1,
            batch: BatchPolicy::Greedy { max_size: 1 },
            window_duration: 0.0,
        };
        let _ = serve(&eng, ParallelismMode::Vanilla, &schedule, &cfg);
    }
}
