//! Request-level serving front-end: a deterministic discrete-event loop
//! over an arrival process, with per-request queueing and continuous
//! batching, feeding assembled decode batches through the engine's
//! dispatch/collectives path.
//!
//! A [`crate::Scenario::with_serving`] run consumes *requests*: each
//! arrives at a timestamp drawn from a seeded [`ArrivalProcess`], waits
//! in a FIFO queue until the [`BatchPolicy`] opens a batch, then generates
//! `decode_steps` tokens — one engine pass per step — under continuous
//! batching (finished requests leave the in-flight pool at step
//! boundaries, queued ones top it up). Virtual serving time advances by
//! each pass's simulated `total_time`, so queueing delay, batching
//! efficiency, and placement quality all land in the same clock.
//!
//! # Handler map
//!
//! The loop pops `(time, seq)`-ordered events into one `ServingState`;
//! each event kind has one handler, and `try_start_step` runs after
//! every event. The queue merges four streams that are each already in
//! that order (arrivals, fleet events, wait deadlines, the in-flight
//! step), so a pop costs the same however many requests are pending.
//!
//! | event | handler | what it may mutate |
//! | --- | --- | --- |
//! | `Arrival` | `on_arrival` | queue, queue-depth log, a wait deadline |
//! | `WaitDeadline` | none — it only re-runs `try_start_step` | — |
//! | `StepDone` | `on_step_done` | in-flight pool, completions, pending paths; per crossed window boundary the shared window-close, then `queue_copy` |
//! | `Fleet` down | `on_fleet_down` | live ranks, disrupted requests back to the queue, the live plan (at once), `copying` (cancelled), `emergency_until` |
//! | `Fleet` up | `on_fleet_up` | live ranks, the live plan, `queue_copy` |
//! | after each | `try_start_step` | pool top-up, one engine pass, step counters, the next `StepDone` |
//!
//! **Drift** ([`crate::Scenario::with_drift`]): virtual time is divided
//! into serving windows of `window_duration`; when a finished step's
//! clock has crossed a boundary, the realized expert paths fold into the
//! decayed streaming estimate and each ended window is closed by
//! `crate::adaptive` (drift signal, cadence and threshold check, budgeted
//! re-plan, re-anchor). The migration itself overlaps with
//! serving (`queue_copy`): expert weights stream over the interconnect
//! in the background while decode steps keep running on the *old*
//! placement, and the new placement activates only once the copy lands.
//! Overlap is not free — steps that run while a copy is in flight share
//! links with it and pay a [`MIGRATION_CONTENTION`] surcharge — so
//! re-placement cost still surfaces in the latency tail, as contention
//! plus deferred benefit rather than a dead stop.
//!
//! **Faults** compose on top: a seeded [`FaultSchedule`] injects GPU
//! loss, rejoin, and fleet scale events into the same event queue. On a
//! loss the engine *evacuates* the dead GPU's experts to the survivors
//! (`exflow_placement::online::plan_gpu_loss`) — for free where a
//! replica already holds a copy (failover), priced as an *emergency*
//! restore copy otherwise (mandatory, so its byte budget is whatever
//! the restore needs; it overlaps with serving and charges the same
//! [`MIGRATION_CONTENTION`] surcharge). In-flight requests homed on the
//! lost GPU are re-queued and counted in the report's
//! `DisruptionStats`. On a rejoin the engine re-homes experts back
//! onto the returned GPU (`plan_gpu_rejoin`) as a background copy. Dead
//! GPUs stay in the collectives with empty payloads, so every rank's
//! clock — and hence bit-identity across thread counts — is unaffected by
//! fleet churn.
//!
//! The whole run is a pure function of `(config, drift schedule, serving
//! config, fault schedule)`: the event queue pops events in `(time,
//! sequence)` order with total-order float comparison — what a min-heap
//! over the same pushes pops (`serving_oracle.rs`) — every random draw comes
//! from a seeded stream, and the engine passes themselves are
//! bit-identical at any thread width — so [`ServingReport`]s are too.

use std::collections::VecDeque;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use exflow_model::arrival::ArrivalProcess;
use exflow_model::{DriftSchedule, FaultKind, FaultSchedule, TokenBatch};
use exflow_placement::online::{plan_gpu_loss, plan_gpu_rejoin, MigrationPlan};
use exflow_placement::ReplicationPlan;

use crate::adaptive::AdaptiveState;
use crate::engine::{InferenceEngine, Plane};
use crate::modes::ParallelismMode;
use crate::report::{fnv1a, FaultMarker, ServingReport};

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
/// // With no wait, a batch opens as soon as any request is queued.
/// let no_wait = BatchPolicy::SizeOrWait { max_size: 4, max_wait: 0.0 };
/// assert!(no_wait.ready(1, 0.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BatchPolicy {
    /// Open once `max_size` requests are queued **or** the oldest queued
    /// request has waited `max_wait` virtual seconds, whichever first.
    SizeOrWait {
        /// Most requests one decode batch holds.
        max_size: usize,
        /// Longest the oldest queued request waits before a partial
        /// batch opens anyway; `0.0` opens one as soon as any request is
        /// queued (lowest queueing delay, worst batch occupancy).
        max_wait: f64,
    },
}

impl BatchPolicy {
    /// The batch-size cap.
    pub fn max_size(&self) -> usize {
        let BatchPolicy::SizeOrWait { max_size, .. } = *self;
        max_size
    }

    /// Should an idle server open a batch, given `queued` waiting
    /// requests whose oldest has waited `oldest_wait`?
    pub fn ready(&self, queued: usize, oldest_wait: f64) -> bool {
        if queued == 0 {
            return false;
        }
        let BatchPolicy::SizeOrWait { max_size, max_wait } = *self;
        queued >= max_size || oldest_wait >= max_wait
    }

    fn validate(&self) {
        let BatchPolicy::SizeOrWait { max_size, max_wait } = *self;
        assert!(max_size >= 1, "batch size cap must be >= 1");
        assert!(
            max_wait >= 0.0 && max_wait.is_finite(),
            "max_wait must be finite and >= 0"
        );
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
    /// re-plans happen when the clock crosses window boundaries, every
    /// `OnlineConfig::replan_every` windows.
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

/// One request's lifecycle state inside the event loop. Its tokens live
/// in [`ServingState::tokens`].
struct Request {
    arrival: f64,
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

/// Event-queue entry. The queue pops in `(time, seq)` order — total-order
/// float comparison, then insertion sequence — so the pop order is a
/// pure function of the pushes.
#[derive(Debug, Clone, Copy)]
struct Event {
    time: f64,
    seq: u64,
    kind: EventKind,
}

/// The serving loop's pending events, kept as the four streams they come
/// from, each already in `(time, seq)` order, so a pop merges four heads
/// and no heap is needed:
/// - arrivals, read off the sampled (sorted) arrival times, request `i`
///   numbered `i`;
/// - fleet events, read off the fault schedule's (sorted) times, event
///   `i` numbered `n + i` after the `n` arrivals;
/// - wait deadlines, first in first out: each is pushed at the loop's
///   clock plus the policy's one `max_wait`, and the clock never falls;
/// - the one in-flight step's `StepDone`.
///
/// Deadlines and steps take the next sequence number when pushed. So the
/// pops are exactly a `(time, seq)` min-heap's over the same pushes (the
/// test oracle holds the two to one sequence), and an assert guards each
/// stream's order.
#[derive(Default)]
struct EventQueue {
    arrivals: Vec<f64>,
    next_arrival: usize,
    fleet: Vec<f64>,
    next_fleet: usize,
    deadlines: VecDeque<Event>,
    step_done: Option<Event>,
    seq: u64,
}

impl EventQueue {
    fn new(arrivals: Vec<f64>, fleet: Vec<f64>) -> Self {
        let sorted = |times: &[f64]| times.is_sorted_by(|a, b| a.total_cmp(b).is_le());
        assert!(sorted(&arrivals), "arrivals must be time-sorted");
        assert!(sorted(&fleet), "fleet events must be time-sorted");
        let seq = (arrivals.len() + fleet.len()) as u64;
        EventQueue {
            arrivals,
            fleet,
            seq,
            ..EventQueue::default()
        }
    }

    fn next(&mut self, time: f64, kind: EventKind) -> Event {
        let seq = self.seq;
        self.seq += 1;
        Event { time, seq, kind }
    }

    fn push_deadline(&mut self, time: f64, i: usize) {
        let ev = self.next(time, EventKind::WaitDeadline(i));
        if let Some(last) = self.deadlines.back() {
            assert!(
                last.time.total_cmp(&time).is_le(),
                "wait deadlines must be pushed in time order"
            );
        }
        self.deadlines.push_back(ev);
    }

    fn push_step_done(&mut self, time: f64) {
        assert!(
            self.step_done.is_none(),
            "one decode step in flight at a time"
        );
        self.step_done = Some(self.next(time, EventKind::StepDone));
    }

    fn pop(&mut self) -> Option<Event> {
        let n = self.arrivals.len() as u64;
        let arrival = (self.arrivals.get(self.next_arrival)).map(|&time| Event {
            time,
            seq: self.next_arrival as u64,
            kind: EventKind::Arrival(self.next_arrival),
        });
        let fleet = (self.fleet.get(self.next_fleet)).map(|&time| Event {
            time,
            seq: n + self.next_fleet as u64,
            kind: EventKind::Fleet(self.next_fleet),
        });
        let heads = [
            arrival,
            fleet,
            self.deadlines.front().copied(),
            self.step_done,
        ];
        let (stream, first) = (heads.into_iter().enumerate())
            .filter_map(|(stream, head)| Some((stream, head?)))
            .min_by(|(_, a), (_, b)| a.time.total_cmp(&b.time).then(a.seq.cmp(&b.seq)))?;
        match stream {
            0 => self.next_arrival += 1,
            1 => self.next_fleet += 1,
            2 => {
                self.deadlines.pop_front();
            }
            _ => self.step_done = None,
        }
        Some(first)
    }
}

#[cfg(test)]
#[path = "serving_oracle.rs"]
mod oracle;

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
        let plan = ReplicationPlan::bare(self.placement_for(mode).clone());
        self.run_once(mode, &plan, &[batch]).total_time
    }

    /// One request-level serving run (the `run_scenario` serving path):
    /// serve `serving.n_requests` requests arriving per `serving.arrival`
    /// under continuous batching, interleaving drift-triggered budgeted
    /// re-placement with serving time, under a
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
        let mut state = ServingState::new(self, mode, drift, serving, faults, initial);
        while let Some(ev) = state.events.pop() {
            let clock = ev.time;
            match ev.kind {
                EventKind::Arrival(i) => state.on_arrival(clock, i),
                // Deadlines carry no state of their own; they exist to
                // re-run the batch-opening check below.
                EventKind::WaitDeadline(_) => {}
                EventKind::StepDone => state.on_step_done(clock),
                EventKind::Fleet(i) => {
                    let fault = faults.events()[i];
                    match fault.kind {
                        FaultKind::Down => state.on_fleet_down(clock, fault.gpu),
                        FaultKind::Up => state.on_fleet_up(clock, fault.gpu),
                    }
                }
            }
            state.try_start_step(clock);
        }
        state.finish()
    }
}

/// Everything the event loop carries between events. One handler per
/// [`EventKind`] mutates it; [`ServingState::try_start_step`] runs after
/// every event.
struct ServingState<'a> {
    engine: &'a InferenceEngine,
    serving: &'a ServingConfig,
    requests: Vec<Request>,
    /// Every request's decode tokens, one arena: token
    /// `i * decode_steps + step` is the one request `i` generates at
    /// `step`, with its route and the request's domain.
    tokens: TokenBatch,
    events: EventQueue,
    /// Streaming estimate, live plan and re-plan ledgers, seeded from the
    /// engine's profiled estimate.
    adaptive: AdaptiveState<'a>,
    /// What every step's pass keeps its tokens in: one arena for the run.
    plane: Plane,
    /// The current step's batch, refilled in place by `try_start_step`.
    step_batch: TokenBatch,
    cur_window: usize,
    /// Realized paths of steps finished since the last window close,
    /// token-major and laid end to end (`n_layers` experts per step).
    pending_paths: Vec<u16>,
    /// Live GPUs, ascending; replaced only on fleet events.
    live_ranks: Arc<[usize]>,
    /// `live_ranks` as of the current step's start (mirrors the pass's
    /// token homing, so a loss disrupts exactly the requests the dead GPU
    /// was serving).
    step_live: Arc<[usize]>,
    /// Steps before this instant share links with an emergency restore.
    emergency_until: f64,
    /// An in-flight background weight copy: when it lands, and the
    /// *stale* plan steps keep using until then (`adaptive.live` already
    /// holds the new one).
    copying: Option<(f64, Arc<ReplicationPlan>)>,
    queue: VecDeque<usize>,
    in_flight: Vec<usize>,
    stepping: bool,
    /// Accumulates in place; the adaptive ledgers join it in `finish`.
    report: ServingReport,
}

impl<'a> ServingState<'a> {
    fn new(
        engine: &'a InferenceEngine,
        mode: ParallelismMode,
        drift: &DriftSchedule,
        serving: &'a ServingConfig,
        faults: &FaultSchedule,
        initial: Option<&ReplicationPlan>,
    ) -> Self {
        serving.validate();
        let cfg = engine.config();
        assert_eq!(
            faults.n_units(),
            cfg.cluster.world_size(),
            "fault schedule must cover the provisioned fleet"
        );
        // An explicit starting plan (`Scenario::with_replication`)
        // overrides the engine-chosen placement.
        let start = match initial {
            Some(plan) => plan.clone(),
            None => ReplicationPlan::bare(engine.placement_for(mode).clone()),
        };
        let adaptive = AdaptiveState::new(engine, mode, drift, start);
        let n = serving.n_requests;
        let mut state = ServingState {
            engine,
            serving,
            requests: Vec::with_capacity(n),
            tokens: TokenBatch::empty(cfg.model.n_layers, cfg.model.gate.k()),
            events: EventQueue::default(),
            adaptive,
            plane: Plane::new(engine.config()),
            step_batch: TokenBatch::empty(cfg.model.n_layers, cfg.model.gate.k()),
            cur_window: 0,
            pending_paths: Vec::new(),
            live_ranks: Arc::clone(engine.all_ranks()),
            step_live: Arc::clone(engine.all_ranks()),
            emergency_until: 0.0,
            copying: None,
            queue: VecDeque::new(),
            in_flight: Vec::new(),
            stepping: false,
            report: ServingReport {
                mode,
                latencies: Vec::with_capacity(n),
                batch_occupancy: vec![0; serving.batch.max_size() + 1],
                completions: Vec::with_capacity(n),
                window_duration: serving.window_duration,
                ..ServingReport::default()
            },
        };

        // Seeded traffic: arrival timestamps from the arrival process,
        // then each request's domain and full decode route from the
        // routing model of the window it arrives in (its own seed stream,
        // disjoint from profiling and from the offline batches').
        let (n_layers, k) = (cfg.model.n_layers, cfg.model.gate.k());
        let mut route = Vec::with_capacity(n_layers * k);
        let arrivals = serving.arrival.sample(n, cfg.seed ^ 0xac71_0e55);
        for (i, &t) in arrivals.iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(
                cfg.seed ^ (i as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0x5e59,
            );
            let model = drift.model_at(state.window_of(t));
            let domain = cfg.corpus.sample_domain(&mut rng);
            for _ in 0..serving.decode_steps {
                route.clear();
                model.sample_route_into(&mut rng, domain, k, &mut route);
                state.tokens.push(&route, domain);
            }
            state.requests.push(Request {
                arrival: t,
                steps_done: 0,
            });
        }
        let fleet = faults.events().iter().map(|ev| ev.time).collect();
        state.events = EventQueue::new(arrivals, fleet);
        state
    }

    fn window_of(&self, t: f64) -> usize {
        ((t / self.serving.window_duration) as usize).min(self.adaptive.n_windows - 1)
    }

    /// Request `i` (re-)enters the queue at `clock`: its wait deadline
    /// re-runs the batch-opening check even if nothing else happens.
    fn arm_deadline(&mut self, clock: f64, i: usize) {
        let BatchPolicy::SizeOrWait { max_wait, .. } = self.serving.batch;
        self.events.push_deadline(clock + max_wait, i);
    }

    fn on_arrival(&mut self, clock: f64, i: usize) {
        self.queue.push_back(i);
        self.report.queue_depth.push((clock, self.queue.len()));
        self.arm_deadline(clock, i);
    }

    /// The in-flight batch finished a decode step: retire completed
    /// requests, bank the realized paths, and close every serving window
    /// the step ran across.
    fn on_step_done(&mut self, clock: f64) {
        self.stepping = false;
        let decode_steps = self.serving.decode_steps;
        let (requests, tokens) = (&mut self.requests, &self.tokens);
        let (report, pending) = (&mut self.report, &mut self.pending_paths);
        self.in_flight.retain(|&i| {
            let req = &mut requests[i];
            let token = i * decode_steps + req.steps_done;
            pending.extend((0..tokens.n_layers()).map(|layer| tokens.route(token, layer)[0]));
            req.steps_done += 1;
            if req.steps_done < decode_steps {
                return true;
            }
            report.latencies.push(clock - req.arrival);
            report.completions.push((clock, clock - req.arrival));
            report.makespan = report.makespan.max(clock);
            false
        });

        // Fold the accumulated paths into the estimate once, then
        // evaluate each ended window's drift/re-plan.
        let wnow = self.window_of(clock);
        if wnow > self.cur_window && !self.pending_paths.is_empty() {
            self.adaptive
                .ingest(std::mem::take(&mut self.pending_paths));
        }
        while self.cur_window < wnow {
            let ended = self.cur_window;
            self.cur_window += 1;
            let Some((copy_time, stale)) = self.adaptive.close_window(ended) else {
                continue;
            };
            // A re-plan landing mid-outage may have picked replica
            // targets on dead GPUs; those copies cannot exist (the
            // shipped bytes were still charged — a documented
            // overcharge).
            if self.live_ranks.len() < self.engine.all_ranks().len() {
                let live = &self.live_ranks;
                Arc::make_mut(&mut self.adaptive.live)
                    .retain_holders(|u| live.binary_search(&u).is_ok());
            }
            self.queue_copy(clock, copy_time, stale);
        }
    }

    /// Start a background weight copy towards `adaptive.live`: steps
    /// keep running on the `stale` plan (with link contention) and the
    /// new plan activates when the copy lands. A copy still in flight
    /// keeps *its* stale plan active and queues this one behind it.
    fn queue_copy(&mut self, clock: f64, copy_time: f64, stale: Arc<ReplicationPlan>) {
        let (start, stale) = match self.copying.take() {
            Some((done, older)) if done > clock => (done, older),
            _ => (clock, stale),
        };
        self.copying = Some((start + copy_time, stale));
    }

    /// Price a fleet event's mandatory copy — its byte budget is whatever
    /// the plan needs — and count it.
    fn price_fleet_copy(&mut self, plan: &MigrationPlan) -> f64 {
        let cfg = self.engine.config();
        self.report.disruption.emergency_replans += 1;
        self.report.disruption.emergency_bytes += plan.total_bytes();
        plan.priced(&cfg.cluster, &cfg.link_cost).time
    }

    fn mark_fault(&mut self, time: f64, gpu: usize, up: bool) {
        self.report
            .disruption
            .faults
            .push(FaultMarker { time, gpu, up });
    }

    /// GPU loss: re-queue what the dead GPU was serving and evacuate its
    /// experts onto the survivors.
    fn on_fleet_down(&mut self, clock: f64, gpu: usize) {
        self.live_ranks = self
            .live_ranks
            .iter()
            .copied()
            .filter(|&r| r != gpu)
            .collect();
        self.mark_fault(clock, gpu, false);
        // Requests the dead GPU was serving lose their in-progress step:
        // back to the front of the queue (oldest first), step not
        // counted.
        if self.stepping {
            let step_live = &self.step_live;
            let mut slot = 0;
            let mut lost = Vec::new();
            self.in_flight.retain(|&i| {
                let homed_on_dead = step_live[slot % step_live.len()] == gpu;
                slot += 1;
                if homed_on_dead {
                    lost.push(i);
                }
                !homed_on_dead
            });
            self.report.disruption.requests_disrupted += lost.len() as u64;
            for &i in lost.iter().rev() {
                self.queue.push_front(i);
            }
            for &i in &lost {
                self.arm_deadline(clock, i);
            }
            self.report.queue_depth.push((clock, self.queue.len()));
        }
        // The evacuated plan activates *immediately* — steps must not
        // route to a dead GPU — so any in-flight background copy (whose
        // stale plan may still route there) is cancelled.
        let (next, plan) = plan_gpu_loss(
            &self.adaptive.live,
            &self.live_ranks,
            gpu,
            self.adaptive.bytes_per_expert(),
        );
        self.adaptive.live = Arc::new(next);
        self.copying = None;
        if !plan.is_empty() {
            // The restore overlaps serving: steps before
            // `emergency_until` pay link contention.
            let copy_time = self.price_fleet_copy(&plan);
            self.emergency_until = self.emergency_until.max(clock) + copy_time;
        }
    }

    /// GPU rejoin: re-home a fair share of experts back onto it. Unlike a
    /// loss nothing is on fire, so the copy streams in the background
    /// through the same stale-plan mechanism a drift re-plan uses.
    fn on_fleet_up(&mut self, clock: f64, gpu: usize) {
        if let Err(at) = self.live_ranks.binary_search(&gpu) {
            let mut live = self.live_ranks.to_vec();
            live.insert(at, gpu);
            self.live_ranks = live.into();
        }
        self.mark_fault(clock, gpu, true);
        let (next, plan) =
            plan_gpu_rejoin(&self.adaptive.live, gpu, self.adaptive.bytes_per_expert());
        let stale = std::mem::replace(&mut self.adaptive.live, Arc::new(next));
        if !plan.is_empty() {
            let copy_time = self.price_fleet_copy(&plan);
            self.queue_copy(clock, copy_time, stale);
        }
    }

    /// After every event: open a batch if the policy allows (continuous
    /// batching tops a running pool up regardless) and run one decode
    /// step of it through the engine.
    fn try_start_step(&mut self, clock: f64) {
        if self.stepping {
            return;
        }
        if self.in_flight.is_empty() {
            // Opening a fresh batch is the policy's call.
            let Some(&head) = self.queue.front() else {
                return;
            };
            let oldest_wait = clock - self.requests[head].arrival;
            if !self.serving.batch.ready(self.queue.len(), oldest_wait) {
                return;
            }
        }
        while self.in_flight.len() < self.serving.batch.max_size() {
            match self.queue.pop_front() {
                Some(i) => self.in_flight.push(i),
                None => break,
            }
        }
        self.report.queue_depth.push((clock, self.queue.len()));

        // Each in-flight request contributes the token of its current
        // step.
        self.step_batch.clear();
        let mut ctx_offset = 0;
        for &i in &self.in_flight {
            let steps_done = self.requests[i].steps_done;
            let token = i * self.serving.decode_steps + steps_done;
            self.step_batch
                .push(self.tokens.token(token), self.tokens.domain(token));
            ctx_offset = ctx_offset.max(steps_done);
        }
        if matches!(self.copying, Some((done, _)) if clock >= done) {
            self.copying = None;
        }
        let active = match &self.copying {
            Some((_, stale)) => stale,
            None => &self.adaptive.live,
        };
        let step = self.engine.run_pass(
            self.report.mode,
            active,
            std::slice::from_ref(&self.step_batch),
            ctx_offset,
            &self.live_ranks,
            &mut self.plane,
        );
        // A background copy — drift re-plan or emergency restore —
        // shares links with the step; the surcharge does not stack.
        let degraded = clock < self.emergency_until;
        let step_time = if self.copying.is_some() || degraded {
            step.total_time * (1.0 + MIGRATION_CONTENTION)
        } else {
            step.total_time
        };
        if degraded {
            self.report.disruption.steps_degraded += 1;
        }
        self.step_live = Arc::clone(&self.live_ranks);
        self.report.batch_occupancy[self.in_flight.len()] += 1;
        self.report.steps += 1;
        self.report.busy += step_time;
        self.report.dispatch.merge(&step.dispatch);
        self.report.output_digest =
            fnv1a(self.report.output_digest, &step.output_digest.to_le_bytes());
        self.stepping = true;
        self.events.push_step_done(clock + step_time);
    }

    fn finish(self) -> ServingReport {
        let n = self.requests.len();
        let mut report = self.report;
        debug_assert_eq!(report.latencies.len(), n, "every request must complete");
        report.latencies.sort_by(f64::total_cmp);
        let last_arrival = self.requests.last().map_or(0.0, |r| r.arrival);
        report.offered_load = if last_arrival > 0.0 {
            n as f64 / last_arrival
        } else if n > 0 {
            f64::INFINITY
        } else {
            // An idle (0-request) run offered nothing.
            0.0
        };
        report.drift = self.adaptive.drift;
        report.replans = self.adaptive.replans;
        report.migrations = self.adaptive.migrations;
        report
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
    fn owner_moves_onto_held_copies_ship_nothing() {
        // Every expert is replicated everywhere and no replica memory is
        // budgeted: a re-plan moves owners only, each onto a unit that
        // already holds its copy.
        let mode = ParallelismMode::ContextCoherentAffinity;
        let eng = engine(adaptive());
        let (schedule, cfg) = scenario(&eng, mode);
        let plan =
            ReplicationPlan::everywhere(eng.placement_for(mode).clone(), vec![(0..8).collect(); 4]);
        let scenario = Scenario::offline(mode)
            .with_drift(schedule)
            .with_serving(cfg)
            .with_replication(plan);
        let r = eng.run_scenario(&scenario).expect_serving();
        // The second re-plan moves owners back onto units the first one
        // left holding the copy.
        assert!(r.migrations.replans >= 2, "drift must fire re-plans");
        assert!(r.replans.iter().all(|ev| ev.experts_moved > 0));
        for ev in &r.replans {
            assert_eq!(ev.bytes_moved, 0, "window {}: {ev:?}", ev.window);
        }
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
        cfg.batch = BatchPolicy::SizeOrWait {
            max_size: 8,
            max_wait: 0.0,
        };
        let greedy = serve(&eng, mode, &schedule, &cfg);
        assert_eq!(greedy.n_requests(), cfg.n_requests);
        // No wait opens batches earlier, so it can only run more (or
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
            batch: BatchPolicy::SizeOrWait {
                max_size: 4,
                max_wait: 0.0,
            },
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
            batch: BatchPolicy::SizeOrWait {
                max_size: 1,
                max_wait: 0.0,
            },
            window_duration: 0.0,
        };
        let _ = serve(&eng, ParallelismMode::Vanilla, &schedule, &cfg);
    }
}
