//! Workspace-level online-determinism gate: a drifting serving run that
//! re-plans at every window boundary it can (cadence 1, unbounded
//! migration budget) is a pure function of (config, drift schedule) —
//! bit identical across parallelism widths and gap backends. The wider
//! serving contracts (faults, replication-aware re-planning, cadence,
//! smooth drift) live in `serving_determinism.rs`.

use exflow::core::{
    BatchPolicy, InferenceEngine, OnlineConfig, ParallelismMode, Scenario, ServingConfig,
    ServingReport,
};
use exflow::model::arrival::ArrivalProcess;
use exflow::model::drift::DriftSchedule;
use exflow::model::presets::moe_gpt_m;
use exflow::placement::{GapBackend, Parallelism};
use exflow::topology::ClusterSpec;

const MODE: ParallelismMode = ParallelismMode::ContextCoherentAffinity;
const MAX_BATCH: usize = 16;
const DECODE_STEPS: usize = 4;
const WINDOWS: usize = 6;

fn engine(threads: usize, backend: GapBackend) -> InferenceEngine {
    let mut model = moe_gpt_m(8);
    model.n_layers = 5;
    InferenceEngine::builder(model, ClusterSpec::new(2, 2).unwrap())
        .requests_per_gpu(MAX_BATCH / 4)
        .prompt_len(4)
        .profile_tokens(800)
        .parallelism(Parallelism::new(threads))
        .gap_backend(backend)
        .online(OnlineConfig {
            replan_every: 1,
            drift_threshold: 0.08,
            migration_budget_bytes: u64::MAX,
            decay: 0.3,
            ..OnlineConfig::default()
        })
        .seed(11)
        .build()
}

/// Piecewise drift over a Poisson stream offered at 90% of the engine's
/// full-batch capacity, split into `WINDOWS` serving windows.
fn serve(eng: &InferenceEngine, drift: &DriftSchedule) -> ServingReport {
    let step = eng.probe_step_time(MODE, MAX_BATCH);
    let rate = 0.9 * MAX_BATCH as f64 / (DECODE_STEPS as f64 * step);
    let n_requests = 96;
    let cfg = ServingConfig {
        arrival: ArrivalProcess::poisson(rate),
        n_requests,
        decode_steps: DECODE_STEPS,
        batch: BatchPolicy::SizeOrWait {
            max_size: MAX_BATCH,
            max_wait: 2.0 * step,
        },
        window_duration: n_requests as f64 / rate / WINDOWS as f64,
    };
    eng.run_scenario(
        &Scenario::offline(MODE)
            .with_drift(drift.clone())
            .with_serving(cfg),
    )
    .expect_serving()
}

fn drift(eng: &InferenceEngine) -> DriftSchedule {
    DriftSchedule::piecewise(&eng.config().routing_spec, 2, WINDOWS)
}

#[test]
fn online_runs_are_bit_identical_at_1_2_and_8_threads() {
    let seq = engine(1, GapBackend::Auto);
    let schedule = drift(&seq);
    let baseline = serve(&seq, &schedule);
    // The scenario must exercise the full pipeline: drift detected,
    // migrations executed.
    assert!(baseline.migrations.replans > 0);
    for threads in [2, 8] {
        let report = serve(&engine(threads, GapBackend::Auto), &schedule);
        assert_eq!(report, baseline, "{threads} threads diverged");
        // PartialEq covers them, but make the bit-level contract on the
        // float surfaces explicit.
        assert_eq!(report.makespan.to_bits(), baseline.makespan.to_bits());
        for (a, b) in report.latencies.iter().zip(&baseline.latencies) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        for (a, b) in report.drift.iter().zip(&baseline.drift) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}

#[test]
fn online_runs_are_gap_backend_invariant() {
    let dense = engine(1, GapBackend::Dense);
    let schedule = drift(&dense);
    let a = serve(&dense, &schedule);
    let b = serve(&engine(1, GapBackend::Sparse), &schedule);
    assert!(a.migrations.replans > 0);
    assert_eq!(a, b, "gap backends diverged");
}
