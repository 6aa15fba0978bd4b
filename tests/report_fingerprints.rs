//! Cross-commit report fingerprints: the determinism suites compare a
//! commit with *itself* (thread widths, gap backends); this one pins an
//! FNV-1a hash over the bits of every numeric field of one report per
//! engine path, so a refactor that claims bit-identity is held to the
//! numbers an earlier commit produced. A fingerprint may only change in a
//! PR that says which simulated behaviour changed and why.

use exflow::core::{
    BatchPolicy, InferenceEngine, InferenceReport, MigrationStats, OnlineConfig, ParallelismMode,
    ReplanEvent, ReplicationPlan, Scenario, ServingConfig, ServingReport,
};
use exflow::model::arrival::ArrivalProcess;
use exflow::model::drift::DriftSchedule;
use exflow::model::fault::FaultSchedule;
use exflow::model::presets::moe_gpt_m;
use exflow::model::GateKind;
use exflow::topology::collective_cost::BytesByClass;
use exflow::topology::ClusterSpec;

const MODE: ParallelismMode = ParallelismMode::ContextCoherentAffinity;

/// FNV-1a over little-endian `u64` words; floats enter as `to_bits()`.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn f(&mut self, x: f64) {
        self.u(x.to_bits());
    }

    fn bytes(&mut self, b: &BytesByClass) {
        self.u(b.local);
        self.u(b.intra_node);
        self.u(b.inter_node);
    }

    fn inference(&mut self, r: &InferenceReport) {
        self.f(r.total_time);
        let b = &r.breakdown;
        for x in [
            b.gating,
            b.attention,
            b.expert_ffn,
            b.alltoall,
            b.allgather,
            b.imbalance,
        ] {
            self.f(x);
        }
        self.u(r.tokens_processed);
        self.u(r.dispatch.total);
        self.u(r.dispatch.same_gpu);
        self.u(r.dispatch.same_node);
        self.bytes(&r.alltoall_bytes);
        self.bytes(&r.allgather_bytes);
    }

    fn replans(&mut self, events: &[ReplanEvent], totals: &MigrationStats) {
        self.u(events.len() as u64);
        for ev in events {
            self.u(ev.window as u64);
            self.f(ev.drift);
            self.u(ev.experts_moved);
            self.u(ev.replicas_added);
            self.u(ev.replicas_dropped);
            self.u(ev.bytes_moved);
            self.u(ev.budget_bytes);
            self.f(ev.migration_time);
            self.bytes(&ev.bytes_by_class);
            self.u(ev.solver_cost.considered);
            self.u(u64::from(ev.solver_cost.truncated));
        }
        self.u(totals.replans);
        self.u(totals.experts_moved);
        self.u(totals.replicas_added);
        self.u(totals.replicas_dropped);
        self.bytes(&totals.bytes);
        self.f(totals.time);
    }

    /// How the solver answered its candidates, not what it decided: the
    /// `evaluated` / `reused` split is pinned apart from the main
    /// fingerprints so a solver-internals change can move it alone.
    fn solver_work(events: &[ReplanEvent]) -> u64 {
        let mut h = Fnv::new();
        for ev in events {
            h.u(ev.solver_cost.evaluated);
            h.u(ev.solver_cost.reused);
        }
        h.0
    }

    fn floats(&mut self, xs: &[f64]) {
        self.u(xs.len() as u64);
        for &x in xs {
            self.f(x);
        }
    }

    fn serving(&mut self, r: &ServingReport) {
        self.floats(&r.latencies);
        self.f(r.offered_load);
        self.f(r.makespan);
        self.u(r.queue_depth.len() as u64);
        for &(t, depth) in &r.queue_depth {
            self.f(t);
            self.u(depth as u64);
        }
        self.u(r.batch_occupancy.len() as u64);
        for &c in &r.batch_occupancy {
            self.u(c);
        }
        self.u(r.steps);
        self.f(r.busy);
        self.u(r.dispatch.total);
        self.u(r.dispatch.same_gpu);
        self.u(r.dispatch.same_node);
        self.floats(&r.drift);
        self.replans(&r.replans, &r.migrations);
        self.u(r.completions.len() as u64);
        for &(t, latency) in &r.completions {
            self.f(t);
            self.f(latency);
        }
        let d = &r.disruption;
        self.u(d.requests_disrupted);
        self.u(d.steps_degraded);
        self.u(d.emergency_replans);
        self.u(d.emergency_bytes);
        self.u(d.faults.len() as u64);
        for m in &d.faults {
            self.f(m.time);
            self.u(m.gpu as u64);
            self.u(u64::from(m.up));
        }
        self.f(r.window_duration);
    }
}

/// The replication-aware config of `tests/serving_determinism.rs`: a joint
/// budget tight enough that replica adds, drops and owner moves compete.
fn replicated_online(n_layers: usize) -> OnlineConfig {
    let mut model = moe_gpt_m(8);
    model.n_layers = n_layers;
    let bytes_per_expert = model.expert_params() * 2;
    OnlineConfig {
        replan_every: 1,
        drift_threshold: 0.08,
        migration_budget_bytes: 12 * bytes_per_expert,
        decay: 0.3,
        replica_memory_bytes: 4 * bytes_per_expert,
        ..OnlineConfig::default()
    }
}

#[test]
fn serving_report_fingerprint_is_pinned() {
    const MAX_BATCH: usize = 16;
    const DECODE_STEPS: usize = 4;
    const WINDOWS: usize = 6;
    let mut model = moe_gpt_m(8);
    model.n_layers = 4;
    let engine = InferenceEngine::builder(model, ClusterSpec::new(2, 2).unwrap())
        .requests_per_gpu(MAX_BATCH / 4)
        .prompt_len(4)
        .profile_tokens(400)
        .online(replicated_online(4))
        .seed(11)
        .build();
    let drift = DriftSchedule::piecewise(&engine.config().routing_spec, 2, WINDOWS);
    let step = engine.probe_step_time(MODE, MAX_BATCH);
    let n_requests = 96;
    let rate = 0.9 * MAX_BATCH as f64 / (DECODE_STEPS as f64 * step);
    let horizon = n_requests as f64 / rate;
    let cfg = ServingConfig {
        arrival: ArrivalProcess::flash_crowd(rate / 1.3, 4.0, 0.4 * horizon, 0.1 * horizon),
        n_requests,
        decode_steps: DECODE_STEPS,
        batch: BatchPolicy::SizeOrWait {
            max_size: MAX_BATCH,
            max_wait: 2.0 * step,
        },
        window_duration: horizon / WINDOWS as f64,
    };
    // GPU 1 drops inside window 1 and returns inside window 3. Its layer-0
    // and layer-1 experts start with one backup copy on GPU 2, so the loss
    // mixes free promotions with priced restores.
    let faults =
        FaultSchedule::loss_and_rejoin(4, 1, 1.5 * cfg.window_duration, 3.5 * cfg.window_duration);
    let base = engine.placement_for(MODE).clone();
    let replicas = (0..base.n_layers())
        .map(|l| {
            (0..8)
                .filter(|&x| l < 2 && base.unit_of(l, x) == 1)
                .map(|x| (x, vec![2]))
                .collect()
        })
        .collect();
    let plan = ReplicationPlan { base, replicas };
    let report = engine
        .run_scenario(
            &Scenario::offline(MODE)
                .with_drift(drift)
                .with_serving(cfg.clone())
                .with_faults(faults)
                .with_replication(plan),
        )
        .expect_serving();
    assert_eq!(report.n_requests(), n_requests, "requests lost");
    assert!(report.migrations.replans > 0, "no drift re-plan fired");
    assert_eq!(
        report.disruption.faults.len(),
        2,
        "loss and rejoin recorded"
    );
    assert_eq!(report.disruption.emergency_replans, 2);
    assert!(report.disruption.emergency_bytes > 0, "no priced restore");
    assert!(report.disruption.steps_degraded > 0);
    let mut h = Fnv::new();
    h.serving(&report);
    assert_eq!(
        h.0, 0x5a85_56ea_6f92_6f1b,
        "ServingReport fingerprint moved: {:#018x}",
        h.0
    );
    let work = Fnv::solver_work(&report.replans);
    assert_eq!(
        work, 0x76ca_793a_cf5f_17dc,
        "serving_solver_work fingerprint moved: {work:#018x}"
    );
    assert_eq!(
        report.output_digest, 0xaa59_28dd_3838_7722,
        "serving output_digest moved: {:#018x}",
        report.output_digest
    );
}

#[test]
fn offline_top2_replicated_fingerprint_is_pinned() {
    let mut model = moe_gpt_m(8).with_gate(GateKind::Top2);
    model.n_layers = 6;
    let engine = InferenceEngine::builder(model, ClusterSpec::new(2, 2).unwrap())
        .requests_per_gpu(16)
        .n_iterations(2)
        .prompt_len(16)
        .profile_tokens(1500)
        .seed(11)
        .build();
    let plan =
        ReplicationPlan::most_popular(engine.objective(), engine.placement_for(MODE).clone(), 3);
    assert!(plan.replicas.iter().any(|lr| !lr.is_empty()));
    let report = engine
        .run_scenario(&Scenario::offline(MODE).with_replication(plan))
        .expect_offline();
    let mut h = Fnv::new();
    h.inference(&report);
    assert_eq!(
        h.0, 0x08e9_b4f2_5891_8e36,
        "InferenceReport fingerprint moved: {:#018x}",
        h.0
    );
    assert_eq!(
        report.output_digest, 0x1abb_b4b1_9821_c382,
        "offline top-2 output_digest moved: {:#018x}",
        report.output_digest
    );
}
