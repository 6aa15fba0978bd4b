//! Workspace-level online-determinism gate: an online serving run with
//! fixed seeds is a pure function of (config, drift schedule) — bit
//! identical across parallelism widths and gap backends (with or without
//! replication-aware re-planning), and identical across re-plan cadences
//! whenever the cadence never actually fires a migration.

use exflow::core::{InferenceEngine, OnlineConfig, ParallelismMode, Scenario};
use exflow::model::drift::DriftSchedule;
use exflow::model::presets::moe_gpt_m;
use exflow::model::DriftKind;
use exflow::placement::{GapBackend, Parallelism};
use exflow::topology::ClusterSpec;

fn engine(threads: usize, online: OnlineConfig, backend: GapBackend) -> InferenceEngine {
    let mut model = moe_gpt_m(8);
    model.n_layers = 5;
    InferenceEngine::builder(model, ClusterSpec::new(2, 2).unwrap())
        .requests_per_gpu(32)
        .n_iterations(2)
        .prompt_len(8)
        .profile_tokens(800)
        .parallelism(Parallelism::new(threads))
        .gap_backend(backend)
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

/// Replication-aware variant: a joint budget tight enough that replica
/// adds, drops, and owner moves all compete.
fn replicated() -> OnlineConfig {
    let bytes_per_expert = {
        let mut model = moe_gpt_m(8);
        model.n_layers = 5;
        model.expert_params() * 2
    };
    OnlineConfig {
        replan_every: 1,
        drift_threshold: 0.08,
        migration_budget_bytes: 12 * bytes_per_expert,
        decay: 0.3,
        replica_memory_bytes: 4 * bytes_per_expert,
        ..OnlineConfig::default()
    }
}

fn drift(engine: &InferenceEngine) -> DriftSchedule {
    DriftSchedule::piecewise(&engine.config().routing_spec, 2, 6)
}

#[test]
fn online_runs_are_bit_identical_at_1_2_and_8_threads() {
    let seq = engine(1, adaptive(), GapBackend::Auto);
    let schedule = drift(&seq);
    let baseline = seq
        .run_scenario(
            &Scenario::offline(ParallelismMode::ContextCoherentAffinity)
                .with_drift(schedule.clone()),
        )
        .expect_online();
    // The scenario must exercise the full pipeline: drift detected,
    // migrations executed.
    assert!(baseline.migrations.replans > 0);
    for threads in [2, 8] {
        let par = engine(threads, adaptive(), GapBackend::Auto);
        let report = par
            .run_scenario(
                &Scenario::offline(ParallelismMode::ContextCoherentAffinity)
                    .with_drift(schedule.clone()),
            )
            .expect_online();
        assert_eq!(report, baseline, "{threads} threads diverged");
        // PartialEq covers them, but make the bit-level contract on the
        // float surfaces explicit.
        assert_eq!(
            report.total_time().to_bits(),
            baseline.total_time().to_bits()
        );
        for (a, b) in report.drift.iter().zip(&baseline.drift) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}

#[test]
fn online_runs_are_gap_backend_invariant() {
    let dense = engine(1, adaptive(), GapBackend::Dense);
    let schedule = drift(&dense);
    let a = dense
        .run_scenario(
            &Scenario::offline(ParallelismMode::ContextCoherentAffinity)
                .with_drift(schedule.clone()),
        )
        .expect_online();
    let sparse = engine(1, adaptive(), GapBackend::Sparse);
    let b = sparse
        .run_scenario(
            &Scenario::offline(ParallelismMode::ContextCoherentAffinity)
                .with_drift(schedule.clone()),
        )
        .expect_online();
    assert!(a.migrations.replans > 0);
    assert_eq!(a, b, "gap backends diverged");
}

#[test]
fn cadence_is_unobservable_when_no_migration_fires() {
    // An infinite drift threshold means no re-plan can ever fire; the
    // cadence knob must then be completely unobservable in the output.
    let quiet = |replan_every: usize| OnlineConfig {
        replan_every,
        drift_threshold: f64::INFINITY,
        migration_budget_bytes: u64::MAX,
        decay: 0.3,
        ..OnlineConfig::default()
    };
    let reference_engine = engine(1, quiet(1), GapBackend::Auto);
    let schedule = drift(&reference_engine);
    let reference = reference_engine
        .run_scenario(
            &Scenario::offline(ParallelismMode::ContextCoherentAffinity)
                .with_drift(schedule.clone()),
        )
        .expect_online();
    assert_eq!(reference.migrations.replans, 0);
    assert!(reference.replans.is_empty());
    for cadence in [2, 3, 5] {
        let report = engine(1, quiet(cadence), GapBackend::Auto)
            .run_scenario(
                &Scenario::offline(ParallelismMode::ContextCoherentAffinity)
                    .with_drift(schedule.clone()),
            )
            .expect_online();
        assert_eq!(report, reference, "cadence {cadence} leaked into the run");
    }
}

#[test]
fn replication_aware_runs_are_bit_identical_at_1_2_and_8_threads() {
    let seq = engine(1, replicated(), GapBackend::Auto);
    let schedule = drift(&seq);
    let baseline = seq
        .run_scenario(
            &Scenario::offline(ParallelismMode::ContextCoherentAffinity)
                .with_drift(schedule.clone()),
        )
        .expect_online();
    // The scenario must exercise the replication pipeline for the
    // invariance to mean anything: replicas actually churn.
    assert!(baseline.migrations.replans > 0);
    assert!(
        baseline.migrations.replicas_added > 0,
        "the joint budget must buy at least one replica"
    );
    for threads in [2, 8] {
        let par = engine(threads, replicated(), GapBackend::Auto);
        let report = par
            .run_scenario(
                &Scenario::offline(ParallelismMode::ContextCoherentAffinity)
                    .with_drift(schedule.clone()),
            )
            .expect_online();
        assert_eq!(report, baseline, "{threads} threads diverged");
        assert_eq!(
            report.total_time().to_bits(),
            baseline.total_time().to_bits()
        );
        for (a, b) in report.drift.iter().zip(&baseline.drift) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}

#[test]
fn replication_aware_runs_are_gap_backend_invariant() {
    let dense = engine(1, replicated(), GapBackend::Dense);
    let schedule = drift(&dense);
    let a = dense
        .run_scenario(
            &Scenario::offline(ParallelismMode::ContextCoherentAffinity)
                .with_drift(schedule.clone()),
        )
        .expect_online();
    let sparse = engine(1, replicated(), GapBackend::Sparse);
    let b = sparse
        .run_scenario(
            &Scenario::offline(ParallelismMode::ContextCoherentAffinity)
                .with_drift(schedule.clone()),
        )
        .expect_online();
    assert!(a.migrations.replans > 0);
    assert_eq!(a, b, "gap backends diverged on a replication-aware run");
}

#[test]
fn smooth_drift_schedules_are_deterministic_too() {
    let e = engine(1, adaptive(), GapBackend::Auto);
    let schedule = DriftSchedule::smooth(&e.config().routing_spec, 6);
    assert_eq!(schedule.kind(), DriftKind::Smooth);
    let a = e
        .run_scenario(
            &Scenario::offline(ParallelismMode::ContextCoherentAffinity)
                .with_drift(schedule.clone()),
        )
        .expect_online();
    let b = e
        .run_scenario(
            &Scenario::offline(ParallelismMode::ContextCoherentAffinity)
                .with_drift(schedule.clone()),
        )
        .expect_online();
    assert_eq!(a, b);
}
