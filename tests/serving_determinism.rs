//! Workspace-level serving-determinism gate: a request-level serving run
//! with fixed seeds is a pure function of its [`Scenario`] — bit
//! identical across parallelism widths and gap backends, with or without
//! fleet faults and replication-aware re-planning, under piecewise or
//! smooth drift, and identical across re-plan cadences whenever no
//! migration fires — and its report obeys the structural serving
//! invariants (ordered latency quantiles, goodput bounded by offered
//! load) across randomized seeds, utilizations, and arrival processes.
//! Edge cases (zero-arrival windows, faults striking an empty queue) stay
//! well-formed.

use exflow::core::{
    events_from_report, BatchPolicy, InferenceEngine, OnlineConfig, ParallelismMode,
    ReplicationPlan, Scenario, ServingConfig, ServingReport,
};
use exflow::model::arrival::ArrivalProcess;
use exflow::model::drift::DriftSchedule;
use exflow::model::fault::FaultSchedule;
use exflow::model::presets::moe_gpt_m;
use exflow::model::DriftKind;
use exflow::placement::{GapBackend, Parallelism};
use exflow::topology::ClusterSpec;
use proptest::prelude::*;

const MODE: ParallelismMode = ParallelismMode::ContextCoherentAffinity;
const MAX_BATCH: usize = 16;
const DECODE_STEPS: usize = 4;
const WINDOWS: usize = 6;
/// World size of every engine below (`ClusterSpec::new(2, 2)`).
const WORLD: usize = 4;

fn engine(threads: usize, backend: GapBackend, seed: u64) -> InferenceEngine {
    let online = OnlineConfig {
        replan_every: 2,
        drift_threshold: 0.08,
        migration_budget_bytes: u64::MAX,
        decay: 0.3,
        ..OnlineConfig::default()
    };
    engine_with(online, threads, backend, seed)
}

fn engine_with(
    online: OnlineConfig,
    threads: usize,
    backend: GapBackend,
    seed: u64,
) -> InferenceEngine {
    let mut model = moe_gpt_m(8);
    model.n_layers = 4;
    InferenceEngine::builder(model, ClusterSpec::new(2, 2).unwrap())
        .requests_per_gpu(MAX_BATCH / 4)
        .prompt_len(4)
        .profile_tokens(400)
        .parallelism(Parallelism::new(threads))
        .gap_backend(backend)
        .online(online)
        .seed(seed)
        .build()
}

/// Replication-aware re-planning: a joint budget tight enough that
/// replica adds, drops, and owner moves all compete.
fn replicated() -> OnlineConfig {
    let bytes_per_expert = {
        let mut model = moe_gpt_m(8);
        model.n_layers = 4;
        model.expert_params() * 2
    };
    OnlineConfig {
        replan_every: 1,
        drift_threshold: 0.08,
        migration_budget_bytes: 12 * bytes_per_expert,
        decay: 0.3,
        replica_memory_bytes: 4 * bytes_per_expert,
    }
}

/// Drift schedule plus a serving config whose offered load sits near the
/// engine's full-batch capacity, so queueing, batching, and re-planning
/// all genuinely fire.
fn scenario(
    eng: &InferenceEngine,
    n_requests: usize,
    utilization: f64,
    arrival_kind: usize,
) -> (DriftSchedule, ServingConfig) {
    let drift = DriftSchedule::piecewise(&eng.config().routing_spec, 2, WINDOWS);
    let step = eng.probe_step_time(MODE, MAX_BATCH);
    let rate = utilization * MAX_BATCH as f64 / (DECODE_STEPS as f64 * step);
    let horizon = n_requests as f64 / rate;
    let arrival = match arrival_kind {
        0 => ArrivalProcess::poisson(rate),
        1 => ArrivalProcess::diurnal(rate, 0.5, horizon / 2.0),
        _ => ArrivalProcess::flash_crowd(rate / 1.3, 4.0, 0.7 * horizon, 0.1 * horizon),
    };
    let cfg = ServingConfig {
        arrival,
        n_requests,
        decode_steps: DECODE_STEPS,
        batch: BatchPolicy::SizeOrWait {
            max_size: MAX_BATCH,
            max_wait: 2.0 * step,
        },
        window_duration: horizon / WINDOWS as f64,
    };
    (drift, cfg)
}

fn serve(eng: &InferenceEngine, drift: &DriftSchedule, cfg: &ServingConfig) -> ServingReport {
    eng.run_scenario(
        &Scenario::offline(MODE)
            .with_drift(drift.clone())
            .with_serving(cfg.clone()),
    )
    .expect_serving()
}

fn serve_faulted(
    eng: &InferenceEngine,
    drift: &DriftSchedule,
    cfg: &ServingConfig,
    faults: &FaultSchedule,
) -> ServingReport {
    eng.run_scenario(
        &Scenario::offline(MODE)
            .with_drift(drift.clone())
            .with_serving(cfg.clone())
            .with_faults(faults.clone()),
    )
    .expect_serving()
}

/// Bit-level equality of the float surfaces two reports expose: string
/// equality of shortest-round-trip formatting is f64 bit equality, and
/// `assert_eq!` on the reports covers everything else.
fn assert_bit_identical(a: &ServingReport, b: &ServingReport, what: &str) {
    assert_eq!(a, b, "{what} diverged");
    for (x, y) in a.latencies.iter().zip(&b.latencies) {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: latency bits diverged");
    }
    assert_eq!(a.p99().to_bits(), b.p99().to_bits());
    assert_eq!(a.goodput().to_bits(), b.goodput().to_bits());
    for (x, y) in a.drift.iter().zip(&b.drift) {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: drift bits diverged");
    }
    for ((ta, la), (tb, lb)) in a.completions.iter().zip(&b.completions) {
        assert_eq!(ta.to_bits(), tb.to_bits(), "{what}: completion time bits");
        assert_eq!(
            la.to_bits(),
            lb.to_bits(),
            "{what}: completion latency bits"
        );
    }
}

#[test]
fn serving_runs_are_bit_identical_at_1_2_and_8_threads() {
    let seq = engine(1, GapBackend::Auto, 11);
    let (drift, cfg) = scenario(&seq, 96, 0.9, 0);
    let baseline = serve(&seq, &drift, &cfg);
    // The scenario must exercise the full pipeline for the invariance to
    // mean anything: drift detected, a re-plan executed, queueing real.
    assert!(baseline.migrations.replans > 0, "no re-plan fired");
    assert_eq!(baseline.n_requests(), cfg.n_requests);
    for threads in [2, 8] {
        let par = engine(threads, GapBackend::Auto, 11);
        let report = serve(&par, &drift, &cfg);
        assert_bit_identical(&report, &baseline, &format!("{threads} threads"));
    }
}

#[test]
fn serving_runs_are_gap_backend_invariant() {
    let dense = engine(1, GapBackend::Dense, 11);
    let (drift, cfg) = scenario(&dense, 96, 0.9, 0);
    let a = serve(&dense, &drift, &cfg);
    let sparse = engine(1, GapBackend::Sparse, 11);
    let b = serve(&sparse, &drift, &cfg);
    assert!(a.migrations.replans > 0, "no re-plan fired");
    assert_bit_identical(&a, &b, "gap backends");
}

#[test]
fn cadence_is_unobservable_when_no_migration_fires() {
    // An infinite drift threshold means no re-plan can ever fire; the
    // cadence knob must then be completely unobservable in the output.
    let quiet = |replan_every: usize| OnlineConfig {
        replan_every,
        drift_threshold: f64::INFINITY,
        decay: 0.3,
        ..OnlineConfig::default()
    };
    let reference_engine = engine_with(quiet(1), 1, GapBackend::Auto, 11);
    let (drift, cfg) = scenario(&reference_engine, 96, 0.9, 0);
    let reference = serve(&reference_engine, &drift, &cfg);
    assert!(reference.replans.is_empty());
    assert!(
        reference.drift.iter().any(|&d| d > 0.08),
        "the drift must be big enough to have fired a re-plan"
    );
    for cadence in [2, 3, 5] {
        let eng = engine_with(quiet(cadence), 1, GapBackend::Auto, 11);
        let report = serve(&eng, &drift, &cfg);
        assert_bit_identical(&report, &reference, &format!("cadence {cadence}"));
    }
}

#[test]
fn replication_aware_runs_are_bit_identical_at_1_2_and_8_threads() {
    let seq = engine_with(replicated(), 1, GapBackend::Auto, 11);
    let (drift, cfg) = scenario(&seq, 96, 0.9, 0);
    let baseline = serve(&seq, &drift, &cfg);
    // The scenario must exercise the replication pipeline for the
    // invariance to mean anything: replicas actually churn.
    assert!(baseline.migrations.replans > 0);
    assert!(
        baseline.migrations.replicas_added > 0,
        "the joint budget must buy at least one replica"
    );
    for threads in [2, 8] {
        let par = engine_with(replicated(), threads, GapBackend::Auto, 11);
        let report = serve(&par, &drift, &cfg);
        assert_bit_identical(
            &report,
            &baseline,
            &format!("replicated, {threads} threads"),
        );
    }
}

#[test]
fn replication_aware_runs_are_gap_backend_invariant() {
    let dense = engine_with(replicated(), 1, GapBackend::Dense, 11);
    let (drift, cfg) = scenario(&dense, 96, 0.9, 0);
    let a = serve(&dense, &drift, &cfg);
    let sparse = engine_with(replicated(), 1, GapBackend::Sparse, 11);
    let b = serve(&sparse, &drift, &cfg);
    assert!(a.migrations.replicas_added > 0, "no replica bought");
    assert_bit_identical(&a, &b, "replicated, gap backends");
}

#[test]
fn smooth_drift_schedules_are_deterministic_too() {
    let seq = engine(1, GapBackend::Auto, 11);
    let (_, cfg) = scenario(&seq, 96, 0.9, 0);
    let drift = DriftSchedule::smooth(&seq.config().routing_spec, WINDOWS);
    assert_eq!(drift.kind(), DriftKind::Smooth);
    let baseline = serve(&seq, &drift, &cfg);
    assert_bit_identical(&serve(&seq, &drift, &cfg), &baseline, "smooth, rerun");
    let par = engine(8, GapBackend::Auto, 11);
    assert_bit_identical(&serve(&par, &drift, &cfg), &baseline, "smooth, 8 threads");
}

#[test]
fn faulted_runs_are_bit_identical_at_1_2_and_8_threads() {
    let seq = engine(1, GapBackend::Auto, 11);
    let (drift, cfg) = scenario(&seq, 96, 0.9, 0);
    // A loss-and-rejoin cycle landing mid-run: down inside window 2, back
    // up inside window 4, so disruption, emergency re-placement, and
    // rehoming all fire while requests are in flight.
    let faults = FaultSchedule::loss_and_rejoin(
        WORLD,
        1,
        2.0 * cfg.window_duration,
        4.0 * cfg.window_duration,
    );
    let baseline = serve_faulted(&seq, &drift, &cfg, &faults);
    assert_eq!(baseline.n_requests(), cfg.n_requests, "requests lost");
    assert_eq!(baseline.disruption.faults.len(), 2, "both markers recorded");
    assert!(
        baseline.disruption.emergency_replans >= 1,
        "the loss must force an emergency re-placement"
    );
    for threads in [2, 8] {
        let par = engine(threads, GapBackend::Auto, 11);
        let report = serve_faulted(&par, &drift, &cfg, &faults);
        assert_bit_identical(&report, &baseline, &format!("faulted, {threads} threads"));
    }
}

#[test]
fn faulted_runs_are_gap_backend_invariant() {
    let dense = engine(1, GapBackend::Dense, 11);
    let (drift, cfg) = scenario(&dense, 96, 0.9, 0);
    let faults = FaultSchedule::loss_and_rejoin(
        WORLD,
        1,
        2.0 * cfg.window_duration,
        4.0 * cfg.window_duration,
    );
    let a = serve_faulted(&dense, &drift, &cfg, &faults);
    let sparse = engine(1, GapBackend::Sparse, 11);
    let b = serve_faulted(&sparse, &drift, &cfg, &faults);
    assert_eq!(a.disruption.faults.len(), 2, "both markers recorded");
    assert_bit_identical(&a, &b, "faulted, gap backends");
}

#[test]
fn a_64_gpu_fleet_is_bit_identical_at_every_width_and_backend() {
    // The paper's largest testbed: 16 nodes x 4 GPUs, two experts and two
    // in-flight tokens per GPU.
    const FLEET_BATCH: usize = 128;
    let fleet = |threads: usize, backend: GapBackend| {
        let mut model = moe_gpt_m(128);
        model.n_layers = 4;
        model.d_ff = 128;
        let bpe = model.expert_params() * 2;
        let online = OnlineConfig {
            replan_every: 2,
            drift_threshold: 0.08,
            decay: 0.3,
            // An unbounded E = 128 re-plan walks for seconds in the debug
            // profile; sixteen expert moves per re-plan keep the walks
            // short and still move experts.
            migration_budget_bytes: 16 * bpe,
            ..OnlineConfig::default()
        };
        InferenceEngine::builder(model, ClusterSpec::new(16, 4).unwrap())
            .requests_per_gpu(FLEET_BATCH / 64)
            .prompt_len(4)
            .profile_tokens(1600)
            .parallelism(Parallelism::new(threads))
            .gap_backend(backend)
            .online(online)
            .seed(11)
            .build()
    };
    let seq = fleet(1, GapBackend::Auto);
    let drift = DriftSchedule::piecewise(&seq.config().routing_spec, 2, WINDOWS);
    let step = seq.probe_step_time(MODE, FLEET_BATCH);
    let rate = 0.8 * FLEET_BATCH as f64 / (DECODE_STEPS as f64 * step);
    let n_requests = 384;
    let cfg = ServingConfig {
        arrival: ArrivalProcess::poisson(rate),
        n_requests,
        decode_steps: DECODE_STEPS,
        batch: BatchPolicy::SizeOrWait {
            max_size: FLEET_BATCH,
            max_wait: 2.0 * step,
        },
        window_duration: n_requests as f64 / rate / WINDOWS as f64,
    };
    let baseline = serve(&seq, &drift, &cfg);
    assert_eq!(baseline.n_requests(), n_requests, "requests lost");
    assert!(baseline.migrations.replans > 0, "no re-plan fired");
    for (threads, backend) in [
        (2, GapBackend::Auto),
        (8, GapBackend::Auto),
        (1, GapBackend::Dense),
        (1, GapBackend::Sparse),
    ] {
        let report = serve(&fleet(threads, backend), &drift, &cfg);
        let what = format!("64 GPUs, {threads} threads, {backend:?}");
        assert_bit_identical(&report, &baseline, &what);
    }
}

/// A quiet engine (drift never fires) so the seeded replication plan
/// survives untouched until the fault schedule strikes it.
fn quiet_engine(threads: usize, seed: u64) -> InferenceEngine {
    let mut model = moe_gpt_m(8);
    model.n_layers = 4;
    let online = OnlineConfig {
        drift_threshold: f64::INFINITY,
        decay: 0.3,
        ..OnlineConfig::default()
    };
    InferenceEngine::builder(model, ClusterSpec::new(2, 2).unwrap())
        .requests_per_gpu(MAX_BATCH / 4)
        .prompt_len(4)
        .profile_tokens(400)
        .parallelism(Parallelism::new(threads))
        .online(online)
        .seed(seed)
        .build()
}

/// A plan replicating every expert GPU `primary` owns onto exactly one
/// backup GPU, so `primary`'s loss fails over for free and `backup` then
/// holds the *only* copy of those experts.
fn single_backup_plan(eng: &InferenceEngine, primary: usize, backup: usize) -> ReplicationPlan {
    let base = eng.placement_for(MODE).clone();
    let replicas = (0..base.n_layers())
        .map(|l| {
            (0..8)
                .filter(|&x| base.unit_of(l, x) == primary)
                .map(|x| (x, vec![backup]))
                .collect()
        })
        .collect();
    ReplicationPlan { base, replicas }
}

fn serve_seeded(
    eng: &InferenceEngine,
    cfg: &ServingConfig,
    faults: &FaultSchedule,
    plan: &ReplicationPlan,
) -> ServingReport {
    eng.run_scenario(
        &Scenario::offline(MODE)
            .with_serving(cfg.clone())
            .with_faults(faults.clone())
            .with_replication(plan.clone()),
    )
    .expect_serving()
}

#[test]
fn losing_the_last_replica_holder_forces_a_priced_restore() {
    let eng = quiet_engine(1, 11);
    let (_, cfg) = scenario(&eng, 96, 0.9, 0);
    let (primary, backup) = (2usize, 1usize);
    let plan = single_backup_plan(&eng, primary, backup);

    // Losing the primary alone is absorbed by the backup's replicas:
    // an emergency re-plan fires, but it ships zero bytes.
    let one = FaultSchedule::gpu_loss(WORLD, primary, 2.0 * cfg.window_duration);
    let r1 = serve_seeded(&eng, &cfg, &one, &plan);
    assert_eq!(r1.disruption.emergency_replans, 1);
    assert_eq!(
        r1.disruption.emergency_bytes, 0,
        "every lost expert had a live replica; failover must be free"
    );

    // Then losing the backup — now the only holder of those experts —
    // cannot silently fail over: the restore must ship real bytes.
    let two = FaultSchedule::double_loss(
        WORLD,
        primary,
        backup,
        2.0 * cfg.window_duration,
        4.0 * cfg.window_duration,
    );
    let r2 = serve_seeded(&eng, &cfg, &two, &plan);
    assert_eq!(r2.disruption.emergency_replans, 2);
    assert!(
        r2.disruption.emergency_bytes > 0,
        "the sole-holder loss must trigger an emergency restore, not a silent failover"
    );
    assert_eq!(r2.n_requests(), cfg.n_requests, "requests lost");
}

#[test]
fn disruption_stats_are_bit_identical_across_thread_widths() {
    let seq = quiet_engine(1, 11);
    let (_, cfg) = scenario(&seq, 96, 0.9, 0);
    let plan = single_backup_plan(&seq, 2, 1);
    let faults = FaultSchedule::double_loss(
        WORLD,
        2,
        1,
        2.0 * cfg.window_duration,
        4.0 * cfg.window_duration,
    );
    let baseline = serve_seeded(&seq, &cfg, &faults, &plan);
    assert!(baseline.disruption.emergency_bytes > 0, "restore must fire");
    for threads in [2, 8] {
        let par = quiet_engine(threads, 11);
        let plan = single_backup_plan(&par, 2, 1);
        let report = serve_seeded(&par, &cfg, &faults, &plan);
        assert_bit_identical(&report, &baseline, &format!("seeded, {threads} threads"));
        assert_eq!(
            report.disruption, baseline.disruption,
            "{threads} threads: DisruptionStats diverged"
        );
        assert_eq!(
            report.recovery_time().map(f64::to_bits),
            baseline.recovery_time().map(f64::to_bits),
            "{threads} threads: recovery_time bits diverged"
        );
    }
}

#[test]
fn zero_arrival_windows_keep_the_report_well_formed() {
    // Slice the horizon so finely that many serving windows contain no
    // arrival and no completion: quantiles, goodput, and the JSONL event
    // stream must all stay well-defined.
    let eng = engine(1, GapBackend::Auto, 11);
    let (drift, mut cfg) = scenario(&eng, 16, 0.4, 0);
    cfg.window_duration /= 16.0;
    let r = serve(&eng, &drift, &cfg);
    assert_eq!(r.n_requests(), cfg.n_requests);
    assert!(r.p50() > 0.0 && r.p50() <= r.p95() && r.p95() <= r.p99());
    assert!(r.goodput().is_finite() && r.goodput() <= r.offered_load);
    let events = events_from_report(&r);
    assert!(
        events.len() > cfg.n_requests,
        "windows must outnumber requests"
    );
    assert!(
        events.iter().any(|e| e.completed == 0),
        "at least one window must be empty"
    );
    assert_eq!(
        events.iter().map(|e| e.completed).sum::<u64>(),
        cfg.n_requests as u64,
        "every completion lands in exactly one window"
    );
}

#[test]
fn a_fault_striking_an_empty_queue_is_benign() {
    // No requests at all: the loss and rejoin still execute (markers and
    // an emergency re-plan are recorded) but nothing is disrupted and
    // every quantile stays at its empty-run definition.
    let eng = engine(1, GapBackend::Auto, 11);
    let (drift, mut cfg) = scenario(&eng, 16, 0.4, 0);
    cfg.n_requests = 0;
    let faults = FaultSchedule::loss_and_rejoin(
        WORLD,
        2,
        0.5 * cfg.window_duration,
        1.5 * cfg.window_duration,
    );
    let r = serve_faulted(&eng, &drift, &cfg, &faults);
    assert_eq!(r.n_requests(), 0);
    assert_eq!(r.disruption.requests_disrupted, 0);
    assert_eq!(r.disruption.faults.len(), 2);
    assert!(r.disruption.emergency_replans >= 1);
    assert_eq!(r.p50(), 0.0);
    assert_eq!(r.p99(), 0.0);
    assert_eq!(r.goodput(), 0.0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn quantiles_are_ordered_and_goodput_is_bounded(
        seed in 0u64..1000,
        utilization in 0.4f64..1.1,
        arrival_kind in 0usize..3,
    ) {
        let eng = engine(1, GapBackend::Auto, seed);
        let (drift, cfg) = scenario(&eng, 48, utilization, arrival_kind);
        let r = serve(&eng, &drift, &cfg);
        prop_assert_eq!(r.n_requests(), cfg.n_requests);
        prop_assert!(r.p50() > 0.0);
        prop_assert!(r.p50() <= r.p95());
        prop_assert!(r.p95() <= r.p99());
        // Completions cannot outpace arrivals: the last completion is
        // strictly after the last arrival, so goodput < offered load.
        prop_assert!(r.goodput() <= r.offered_load);
        prop_assert!(r.busy <= r.makespan);
        prop_assert!(r.mean_batch_occupancy() <= MAX_BATCH as f64);
    }
}
