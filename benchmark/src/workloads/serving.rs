//! The two serving workloads, on the `table_serving` model (16 experts, 4
//! layers, narrow FFN, slow inter-node links).
//!
//! `serve-steady` runs three fixed Poisson rates on 2x4 GPUs over a
//! static placement: every decode step builds a world, spawns 8 rank
//! threads and regenerates the resident experts, so per-step overhead is
//! the whole story and placement does nothing.
//!
//! `serve-churn` uses the same layers the other way on 2x2 GPUs: a flash
//! crowd over drifting routing, online re-plans with migration overlap,
//! a GPU loss and rejoin, and finally the JSONL event round trip. A
//! step-path gain that costs the adaptive path, or a policy change that
//! moves the tail or the recovery, shows here and not in `serve-steady`.
//!
//! The host loop is closed (one scenario at a time); the *simulated*
//! arrivals are an open loop, with latency counted from each request's
//! scheduled arrival.

use exflow::core::{OnlineConfig, Parallelism, ParallelismMode, ServingReport};
use exflow::model::presets::moe_gpt_m;
use exflow::model::{AffinityModelSpec, DriftSchedule, ModelConfig};
use exflow::topology::{ClusterSpec, CostModel, LinkCost};
use exflow::{
    events_from_report, to_jsonl, ArrivalProcess, BatchPolicy, FaultSchedule, InferenceEngine,
    Scenario, ServingConfig, WindowEvent,
};

use crate::calibration as cal;
use crate::harness::{LayerValues, Outcome, Workload};
use crate::probes;
use crate::trace::Recorder;
use crate::workloads::replan::Replan;
use crate::workloads::{stream_seed, Stream};

const MODE: ParallelismMode = ParallelismMode::ContextCoherentAffinity;
const EXPERTS: usize = 16;
const LAYERS: usize = 4;
const D_FF: usize = 128;
const PROFILE_TOKENS: usize = 800;
const DECAY: f64 = 0.3;
/// Inter-node line rate: a quarter of wilkes3's, as in `table_serving`.
const INTER_NODE_BW: f64 = 12.5e9;

fn model() -> ModelConfig {
    let mut model = moe_gpt_m(EXPERTS);
    model.n_layers = LAYERS;
    model.d_ff = D_FF;
    model
}

fn engine(
    cluster: ClusterSpec,
    online: OnlineConfig,
    seed: u64,
    rec: &Recorder,
) -> InferenceEngine {
    let _s = rec.span("core.engine.build");
    let cost = CostModel::new(
        LinkCost::from_latency_bandwidth(0.3e-6, 1.5e12),
        LinkCost::from_latency_bandwidth(1.0e-6, 300.0e9),
        LinkCost::from_latency_bandwidth(3.5e-6, INTER_NODE_BW),
    )
    .with_alltoall_efficiency([1.0, 0.5, 0.16]);
    let spec =
        AffinityModelSpec::new(LAYERS, EXPERTS).with_seed(stream_seed(seed, Stream::Routing));
    InferenceEngine::builder(model(), cluster)
        .link_cost(cost)
        .routing_spec(spec)
        .requests_per_gpu(cal::MAX_BATCH / cluster.world_size())
        .prompt_len(4)
        .profile_tokens(PROFILE_TOKENS)
        .parallelism(Parallelism::new(1))
        .online(online)
        .seed(seed)
        .build()
}

/// Output checks every serving report must pass; returns unserved requests.
fn check(label: &str, r: &ServingReport, requests: usize, violations: &mut Vec<String>) -> u64 {
    if !(r.p50() <= r.p95() && r.p95() <= r.p99()) {
        violations.push(format!("{label}: latency percentiles are not monotone"));
    }
    if r.goodput() > r.offered_load {
        violations.push(format!(
            "{label}: goodput {} exceeds offered load {}",
            r.goodput(),
            r.offered_load
        ));
    }
    (requests - r.n_requests().min(requests)) as u64
}

/// Sim-clock numbers shared by both workloads, over one or more reports.
fn outcome(
    reports: &[&ServingReport],
    requests_each: usize,
    mut violations: Vec<String>,
    mut layer: LayerValues,
    headline: &ServingReport,
) -> Outcome {
    let mut failed = 0;
    for (i, r) in reports.iter().enumerate() {
        failed += check(&format!("scenario {i}"), r, requests_each, &mut violations);
    }
    let steps: u64 = reports.iter().map(|r| r.steps).sum();
    let busy: f64 = reports.iter().map(|r| r.busy).sum();
    let makespan: f64 = reports.iter().map(|r| r.makespan).sum();
    let dispatches: u64 = reports.iter().map(|r| r.dispatch.total).sum();
    let local: u64 = reports.iter().map(|r| r.dispatch.same_gpu).sum();
    let attempted = (reports.len() * requests_each) as u64;
    layer.extend([
        ("core.serving.decode_steps", steps as f64),
        (
            "core.serving.mean_batch_occupancy",
            headline.mean_batch_occupancy(),
        ),
        (
            "core.serving.max_queue_depth",
            reports
                .iter()
                .map(|r| r.max_queue_depth())
                .max()
                .unwrap_or(0) as f64,
        ),
        ("core.serving.busy_share", busy / makespan),
        ("core.serving.goodput_rps", headline.goodput()),
        (
            "sim.tokens_per_s",
            (attempted - failed) as f64 * cal::DECODE_STEPS as f64 / makespan,
        ),
        ("sim.p50_latency_s", headline.p50()),
        ("sim.p99_latency_s", headline.p99()),
        ("sim.latency_samples", headline.n_requests() as f64),
    ]);
    Outcome {
        steps,
        attempted,
        failed,
        sim_steps_per_s: steps as f64 / busy,
        sim_gpu_cross_share: 1.0 - local as f64 / dispatches as f64,
        violations,
        layer,
    }
}

fn probe(
    engine: &InferenceEngine,
    arrival: &ArrivalProcess,
    n_arrivals: usize,
    seed: u64,
    rec: &Recorder,
) -> LayerValues {
    let cfg = engine.config();
    let w = cfg.cluster.world_size();
    probes::substrate(
        &probes::SubstrateShape {
            cluster: cfg.cluster,
            cost: cfg.link_cost,
            // A full batch spread over the rank pairs, at least one token.
            pair_bytes: (cal::MAX_BATCH / (w * w)).max(1) * cfg.model.token_bytes() as usize,
            sim_dim: cfg.model.sim_dim,
            tokens_per_expert: (cal::MAX_BATCH / EXPERTS).max(1),
            arrival: arrival.clone(),
            n_arrivals,
        },
        seed,
        rec,
    );
    let mut layer = probes::engine_steps(engine, rec);
    layer.extend(Replan::shaped_like(engine, PROFILE_TOKENS).probe_sequence(seed, rec));
    layer
}

pub struct ServeSteady;

pub struct SteadyInputs {
    engine: InferenceEngine,
    scenarios: Vec<Scenario>,
}

impl Workload for ServeSteady {
    type Inputs = SteadyInputs;
    /// One report per rate, in `STEADY_RATES_RPS` order.
    type Report = Vec<ServingReport>;

    fn prepare(&self, seed: u64, rec: &Recorder) -> SteadyInputs {
        let static_placement = OnlineConfig {
            drift_threshold: f64::INFINITY,
            decay: DECAY,
            ..OnlineConfig::default()
        };
        let cluster = ClusterSpec::new(2, 4).expect("2x4 is a valid cluster");
        let scenarios = cal::STEADY_RATES_RPS
            .into_iter()
            .map(|rate| {
                let horizon = cal::STEADY_REQUESTS_PER_RATE as f64 / rate;
                Scenario::offline(MODE).with_serving(ServingConfig {
                    arrival: ArrivalProcess::poisson(rate),
                    n_requests: cal::STEADY_REQUESTS_PER_RATE,
                    decode_steps: cal::DECODE_STEPS,
                    batch: BatchPolicy::SizeOrWait {
                        max_size: cal::MAX_BATCH,
                        max_wait: cal::STEADY_MAX_WAIT_S,
                    },
                    window_duration: horizon / cal::STEADY_WINDOWS as f64,
                })
            })
            .collect();
        SteadyInputs {
            engine: engine(cluster, static_placement, seed, rec),
            scenarios,
        }
    }

    fn run(&self, inputs: &mut SteadyInputs, rec: &Recorder) -> Vec<ServingReport> {
        inputs
            .scenarios
            .iter()
            .map(|scenario| {
                let _s = rec.span("core.serving.run");
                inputs.engine.run_scenario(scenario).expect_serving()
            })
            .collect()
    }

    fn digest(&self, _inputs: &SteadyInputs, reports: &Vec<ServingReport>) -> Outcome {
        let mut violations = Vec::new();
        if reports.iter().any(|r| !r.replans.is_empty()) {
            violations.push("a static placement re-planned".to_string());
        }
        // Highest fixed rate whose tail meets the limit without a growing
        // backlog; 0 when even the lowest misses.
        let in_slo = |r: &ServingReport| {
            r.p99() <= cal::STEADY_P99_LIMIT_S
                && r.goodput() >= cal::STEADY_MIN_GOODPUT_SHARE * r.offered_load
        };
        let max_rate = reports
            .iter()
            .zip(cal::STEADY_RATES_RPS)
            .take_while(|(r, _)| in_slo(r))
            .map(|(_, rate)| rate)
            .last()
            .unwrap_or(0.0);
        let layer = vec![
            ("core.serving.p99_s_u50", reports[0].p99()),
            ("core.serving.p99_s_u80", reports[1].p99()),
            ("core.serving.p99_s_u95", reports[2].p99()),
            ("sim.max_rate_in_slo_rps", max_rate),
        ];
        let refs: Vec<&ServingReport> = reports.iter().collect();
        outcome(
            &refs,
            cal::STEADY_REQUESTS_PER_RATE,
            violations,
            layer,
            &reports[cal::STEADY_SLO_RATE],
        )
    }

    fn probe(&self, inputs: &SteadyInputs, seed: u64, rec: &Recorder) -> LayerValues {
        let arrival = ArrivalProcess::poisson(cal::STEADY_RATES_RPS[cal::STEADY_SLO_RATE]);
        probe(
            &inputs.engine,
            &arrival,
            cal::STEADY_REQUESTS_PER_RATE,
            seed,
            rec,
        )
    }

    fn engine_shape(&self) -> Option<(usize, usize)> {
        Some((8, EXPERTS * LAYERS))
    }
}

pub struct ServeChurn;

pub struct ChurnInputs {
    engine: InferenceEngine,
    scenario: Scenario,
}

#[derive(PartialEq)]
pub struct ChurnReport {
    serving: ServingReport,
    jsonl: String,
    windows: usize,
    roundtrip_failures: usize,
}

fn churn_arrival() -> ArrivalProcess {
    ArrivalProcess::flash_crowd(
        cal::CHURN_BASE_RATE_RPS,
        cal::CHURN_SPIKE_MULT,
        cal::CHURN_SPIKE_START_S,
        cal::CHURN_SPIKE_LEN_S,
    )
}

impl Workload for ServeChurn {
    type Inputs = ChurnInputs;
    type Report = ChurnReport;

    fn prepare(&self, seed: u64, rec: &Recorder) -> ChurnInputs {
        let payload = model().expert_params() * 2;
        let online = OnlineConfig {
            replan_every: 2,
            drift_threshold: 0.08,
            migration_budget_bytes: 8 * payload,
            replica_memory_bytes: 4 * payload,
            decay: DECAY,
            ..OnlineConfig::default()
        };
        let cluster = ClusterSpec::new(2, 2).expect("2x2 is a valid cluster");
        let engine = engine(cluster, online, seed, rec);
        let drift = DriftSchedule::piecewise(
            &engine.config().routing_spec,
            cal::CHURN_PHASES,
            cal::CHURN_WINDOWS,
        );
        let scenario = Scenario::offline(MODE)
            .with_drift(drift)
            .with_serving(ServingConfig {
                arrival: churn_arrival(),
                n_requests: cal::CHURN_REQUESTS,
                decode_steps: cal::DECODE_STEPS,
                batch: BatchPolicy::SizeOrWait {
                    max_size: cal::MAX_BATCH,
                    max_wait: cal::CHURN_MAX_WAIT_S,
                },
                window_duration: cal::CHURN_HORIZON_S / cal::CHURN_WINDOWS as f64,
            })
            .with_faults(FaultSchedule::loss_and_rejoin(
                cluster.world_size(),
                1,
                cal::CHURN_FAULT_DOWN_S,
                cal::CHURN_FAULT_UP_S,
            ));
        ChurnInputs { engine, scenario }
    }

    fn run(&self, inputs: &mut ChurnInputs, rec: &Recorder) -> ChurnReport {
        let serving = {
            let _s = rec.span("core.serving.run");
            inputs
                .engine
                .run_scenario(&inputs.scenario)
                .expect_serving()
        };
        let (events, jsonl) = {
            let _s = rec.span("core.events.export");
            let events = events_from_report(&serving);
            let jsonl = to_jsonl(&events);
            (events, jsonl)
        };
        let parsed = jsonl
            .lines()
            .map(|line| {
                let _s = rec.span("core.events.parse");
                WindowEvent::from_json(line)
            })
            .collect::<Vec<_>>();
        let roundtrip_failures = parsed.len().abs_diff(events.len())
            + parsed
                .iter()
                .zip(&events)
                .filter(|(parsed, event)| parsed.as_ref() != Ok(*event))
                .count();
        ChurnReport {
            serving,
            jsonl,
            windows: events.len(),
            roundtrip_failures,
        }
    }

    fn digest(&self, _inputs: &ChurnInputs, report: &ChurnReport) -> Outcome {
        let r = &report.serving;
        let mut violations = Vec::new();
        if report.roundtrip_failures > 0 {
            violations.push(format!(
                "{} of {} JSONL event lines did not round-trip",
                report.roundtrip_failures, report.windows
            ));
        }
        if r.replans.is_empty() {
            violations.push("piecewise drift fired no re-plan".to_string());
        }
        let recovery = r.recovery_time();
        if recovery.is_none() {
            violations.push("the latency tail never recovered from the GPU loss".to_string());
        }
        let layer = vec![
            ("core.serving.replans", r.migrations.replans as f64),
            (
                "core.serving.migrated_bytes",
                r.migrations.bytes.total() as f64,
            ),
            (
                "core.serving.replicas_added",
                r.migrations.replicas_added as f64,
            ),
            (
                "core.serving.requests_disrupted",
                r.disruption.requests_disrupted as f64,
            ),
            (
                "core.serving.steps_degraded",
                r.disruption.steps_degraded as f64,
            ),
            (
                "core.serving.emergency_bytes",
                r.disruption.emergency_bytes as f64,
            ),
            ("core.events.windows", report.windows as f64),
            (
                "core.events.roundtrip_failures",
                report.roundtrip_failures as f64,
            ),
            ("sim.recovery_s", recovery.unwrap_or(0.0)),
        ];
        outcome(&[r], cal::CHURN_REQUESTS, violations, layer, r)
    }

    fn probe(&self, inputs: &ChurnInputs, seed: u64, rec: &Recorder) -> LayerValues {
        probe(
            &inputs.engine,
            &churn_arrival(),
            cal::CHURN_REQUESTS,
            seed,
            rec,
        )
    }

    fn engine_shape(&self) -> Option<(usize, usize)> {
        Some((4, EXPERTS * LAYERS))
    }
}
