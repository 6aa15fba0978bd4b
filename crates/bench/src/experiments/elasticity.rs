//! `table_elasticity` — fault tolerance at the request level: the same
//! Poisson arrival sample served through a mid-run GPU loss (and a
//! loss-and-rejoin cycle) by two fleets that differ only in replication.
//!
//! The unreplicated fleet must emergency-restore the dead GPU's experts
//! over inter-node links (priced, contending with serving steps); the
//! fully replicated fleet fails over to live copies for free. The table
//! reports what that buys where it matters: disrupted requests, degraded
//! steps, emergency bytes shipped, and how long the latency tail takes
//! to return to its pre-fault p99 (`recovery`, `-` when the tail never
//! recovers within the run).

use exflow_core::json::Json;
use exflow_core::{
    EngineBuilder, InferenceEngine, OnlineConfig, ParallelismMode, Scenario, ServingReport,
};
use exflow_model::{ArrivalProcess, FaultKind, FaultSchedule};
use exflow_placement::ReplicationPlan;

use crate::experiments::common::{
    calibrate_serving, serving_builder, Workload, SERVING_DECAY, SERVING_EXPERTS,
};
use crate::fmt::{render_table, us};
use crate::table::{num, nums, text, Bars};

/// Offered load of the `table_elasticity` cells as a fraction of
/// full-*fleet* capacity. Deliberately below `table_serving`'s 96 %:
/// after one of the four GPUs dies the surviving fleet runs at 4/3 of
/// this figure, which must stay under saturation or the latency tail
/// never returns to its pre-fault level and "recovery time" stops
/// existing for either fleet.
const ELASTICITY_UTILIZATION: f64 = 0.6;

/// Requests per `table_elasticity` cell — enough completions on both
/// sides of the fault for the pre-fault p99 and the rolling recovery
/// window (`exflow_core::RECOVERY_WINDOW`) to be meaningful.
const ELASTICITY_REQUESTS: usize = 500;

/// When the GPU loss strikes, as a fraction of the arrival horizon.
const ELASTICITY_FAULT_AT: f64 = 0.4;

/// When the lost GPU rejoins (in the loss+rejoin scenario), as a
/// fraction of the arrival horizon.
const ELASTICITY_REJOIN_AT: f64 = 0.6;

/// MoE layers of the serving model in every `table_elasticity` cell.
const LAYERS: usize = 4;

/// The parallelism mode every cell serves in.
const MODE: ParallelismMode = ParallelismMode::ContextCoherentAffinity;

/// The `table_elasticity` sweep: one Poisson arrival sample served
/// through a mid-run GPU loss (and, in the second cell, a later rejoin)
/// by two fleets that differ only in replication — none (lost experts
/// must be emergency-restored over the wire) vs full (failover is a
/// free ownership flip) — recording disrupted requests, degraded steps,
/// emergency migration bytes, and tail-recovery time per cell, all
/// deterministic virtual-time facts. The arrival rate is calibrated so the
/// *surviving* fleet stays below saturation (`ELASTICITY_UTILIZATION`),
/// which is what makes "time until the rolling p99 returns to its
/// pre-fault level" well-defined. Both fleets serve on one engine, built
/// at one solver thread on the default gap backend;
/// `tests::the_faulted_fleet_serves_the_same_report_at_every_width_and_backend`
/// holds the no-replica fleet's faulted report to the same bits at 1, 2
/// and 8 threads on the dense backend and at one on CSR. Errors (instead
/// of panicking) if a fleet served short or the loss disrupted nothing,
/// or if a loss without a rejoin costs the replicated fleet any emergency
/// bytes.
pub fn sweep(w: &Workload) -> Result<Vec<Json>, String> {
    let n_requests = ELASTICITY_REQUESTS;
    let eng = fleet(w).build();
    // The replicated fleet starts from the same profiled placement with
    // every expert replicated everywhere, so any lost expert has a live
    // copy. `everywhere` materializes the actual non-owner subsets, so
    // the memory figure below counts real copies, not a world-size
    // fan-out assumption.
    let full_replication = ReplicationPlan::everywhere(
        eng.placement_for(MODE).clone(),
        vec![(0..SERVING_EXPERTS).collect(); LAYERS],
    );

    let mut rows = Vec::new();
    for (fault, plain_scenario) in faulted(&eng)? {
        let name = fault.name().to_string();
        let repl_scenario = plain_scenario
            .clone()
            .with_replication(full_replication.clone());
        let plain = eng.run_scenario(&plain_scenario).expect_serving();
        let repl = eng.run_scenario(&repl_scenario).expect_serving();

        for (fleet, r) in [("no-replicas", &plain), ("replicated", &repl)] {
            if r.n_requests() != n_requests {
                return Err(format!(
                    "{name}/{fleet}: served {} of {n_requests} requests",
                    r.n_requests()
                ));
            }
            if r.disruption.requests_disrupted == 0 {
                return Err(format!(
                    "{name}/{fleet}: the loss disrupted nothing — the fault landed too late"
                ));
            }
        }
        // The loss evacuation is free under full replication; a rejoin
        // re-home still ships weights back to the returning GPU on both
        // fleets, so only the loss-only cell pins zero emergency bytes.
        let has_rejoin = fault.events().iter().any(|ev| ev.kind == FaultKind::Up);
        if !has_rejoin && repl.disruption.emergency_bytes != 0 {
            return Err(format!(
                "{name}: full replication still copied {} emergency bytes",
                repl.disruption.emergency_bytes
            ));
        }

        // Recovery times are `-1` when the fleet's rolling tail never
        // returned to its pre-fault p99 within the run.
        let recovery = |r: &ServingReport| r.recovery_time().unwrap_or(-1.0);
        rows.push(Json::obj(vec![
            // Fault-schedule label (`gpu-loss`, `gpu-loss+rejoin`).
            ("fault", name.as_str().into()),
            // Requests served per cell.
            ("requests", n_requests.into()),
            // Virtual time of the GPU loss.
            ("fault_time", fault.first_down_time().unwrap_or(0.0).into()),
            // p99 request latency of the no-replica fleet, whole run.
            ("plain_p99", plain.p99().into()),
            // In-flight requests the loss re-queued, no-replica fleet.
            (
                "plain_disrupted",
                plain.disruption.requests_disrupted.into(),
            ),
            // Decode steps served under emergency-migration contention,
            // no-replica fleet.
            (
                "plain_steps_degraded",
                plain.disruption.steps_degraded.into(),
            ),
            // Bytes the emergency re-placements copied, no-replica fleet.
            (
                "plain_emergency_bytes",
                plain.disruption.emergency_bytes.into(),
            ),
            // Virtual time from the loss until the rolling p99 recovered,
            // or `-1` if it never did.
            ("plain_recovery", recovery(&plain).into()),
            // p99 request latency of the fully replicated fleet, whole run.
            ("repl_p99", repl.p99().into()),
            // In-flight requests the loss re-queued, replicated fleet.
            ("repl_disrupted", repl.disruption.requests_disrupted.into()),
            // Decode steps served under emergency-migration contention,
            // replicated fleet.
            ("repl_steps_degraded", repl.disruption.steps_degraded.into()),
            // Bytes the emergency re-placements copied, replicated fleet
            // (zero without a rejoin: every lost expert has a live replica).
            (
                "repl_emergency_bytes",
                repl.disruption.emergency_bytes.into(),
            ),
            // Virtual time from the loss until the rolling p99 recovered,
            // or `-1` if it never did.
            ("repl_recovery", recovery(&repl).into()),
            // Worst-case extra replica copies any GPU holds in the
            // replicated fleet's starting plan — counted from the
            // materialized subsets, not a world-size fan-out assumption.
            (
                "repl_extra_copies",
                full_replication.extra_copies_per_gpu().into(),
            ),
        ]));
    }
    Ok(rows)
}

/// The builder of both fleets' engine: a static (never drift-replanning)
/// policy, so the only re-placements in these cells are the emergency
/// ones the fault layer itself triggers, and the recovery clock measures
/// elasticity, not drift adaptation.
fn fleet(w: &Workload) -> EngineBuilder {
    let oc = OnlineConfig {
        drift_threshold: f64::INFINITY,
        decay: SERVING_DECAY,
        ..OnlineConfig::default()
    };
    serving_builder(LAYERS, oc, w.seed)
}

/// Each fault schedule and the scenario that serves one Poisson arrival
/// sample through it, calibrated on the fleet's engine `eng`.
fn faulted(eng: &InferenceEngine) -> Result<Vec<(FaultSchedule, Scenario)>, String> {
    let world = eng.config().cluster.world_size();
    let (rate, horizon, config) =
        calibrate_serving(eng, MODE, ELASTICITY_UTILIZATION, ELASTICITY_REQUESTS)?;
    let cfg = config(ArrivalProcess::poisson(rate));
    let faults = [
        FaultSchedule::gpu_loss(world, 1, ELASTICITY_FAULT_AT * horizon),
        FaultSchedule::loss_and_rejoin(
            world,
            1,
            ELASTICITY_FAULT_AT * horizon,
            ELASTICITY_REJOIN_AT * horizon,
        ),
    ];
    let scenario = |fault: FaultSchedule| {
        let serving = Scenario::offline(MODE).with_serving(cfg.clone());
        (fault.clone(), serving.with_faults(fault))
    };
    Ok(faults.into_iter().map(scenario).collect())
}

/// Under every fault schedule the replicated fleet must recover its
/// latency tail (recovery >= 0) strictly faster than the unreplicated
/// fleet (which may never recover at all, encoded as -1), and replica
/// failover must save emergency wire traffic over restoring from a
/// checkpoint shard.
pub(crate) fn bars(rows: &[Json], bars: &mut Bars) {
    for f in rows {
        let fault = text(f, "fault");
        let [plain_rec, repl_rec] = nums(f, ["plain_recovery", "repl_recovery"]);
        let faster = repl_rec >= 0.0 && (plain_rec < 0.0 || repl_rec < plain_rec);
        if !faster {
            bars.fail(format!(
                "elasticity on {fault}: replicated fleet recovery {repl_rec} vs \
                 unreplicated {plain_rec} — replication must buy strictly faster recovery"
            ));
        }
        let [plain_bytes, repl_bytes] = nums(f, ["plain_emergency_bytes", "repl_emergency_bytes"]);
        if repl_bytes >= plain_bytes {
            bars.fail(format!(
                "elasticity on {fault}: replication shipped {repl_bytes} emergency bytes vs \
                 {plain_bytes} without — failover must save wire traffic"
            ));
        }
    }
}

/// The rows as the printed table: one line per (fault, fleet).
pub fn render(rows: &[Json]) -> String {
    let headers = [
        "fault",
        "fleet",
        "p99 us",
        "disrupted",
        "degraded",
        "emerg MB",
        "recovery us",
    ];
    let mut body: Vec<Vec<String>> = Vec::new();
    for r in rows {
        for (fleet, prefix) in [("no-repl", "plain"), ("repl", "repl")] {
            // `-1` = the tail never recovered, rendered as `-`.
            let recovery = num(r, &format!("{prefix}_recovery"));
            body.push(vec![
                text(r, "fault"),
                fleet.to_string(),
                us(num(r, &format!("{prefix}_p99"))),
                text(r, &format!("{prefix}_disrupted")),
                text(r, &format!("{prefix}_steps_degraded")),
                format!("{:.2}", num(r, &format!("{prefix}_emergency_bytes")) / 1e6),
                if recovery < 0.0 {
                    "-".to_string()
                } else {
                    us(recovery)
                },
            ]);
        }
    }
    let mut out = format!(
        "table_elasticity: GPU loss and recovery under continuous serving\n\
         (latencies and recovery in virtual microseconds; `no-repl` restores the\n \
         dead GPU's experts over the wire, `repl` holds a live copy of every\n \
         expert and fails over for free; recovery = time until the rolling p99\n \
         over the last 32 completions returns to the pre-fault p99, `-` = never)\n\n\
         {}\n",
        render_table(&headers, &body)
    );
    if let Some(r) = rows.first() {
        out.push_str(&format!(
            "\n({} requests per cell; the fault lands at t = {} virtual us)\n",
            text(r, "requests"),
            us(num(r, "fault_time"))
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use exflow_placement::GapBackend;

    use super::*;
    use crate::experiments::common::{assert_invariant, build_at, FIXTURE, PAPER};

    /// The no-replica fleet's whole faulted `ServingReport`, in every cell
    /// of the sweep at `w`, is the same at every checked width and backend
    /// as on the engine the sweep builds: the fleet that actually
    /// exercises emergency re-placement.
    fn faulted_reports_are_the_same_at_every_width_and_backend(w: &Workload) {
        let fleet = fleet(w);
        for (fault, scenario) in faulted(&fleet.clone().build()).unwrap() {
            let serve = |threads, backend| {
                let eng = build_at(&fleet, threads, backend);
                eng.run_scenario(&scenario).expect_serving()
            };
            let what = format!("{}: faulted serving report", fault.name());
            assert_invariant(&what, &serve(1, GapBackend::Auto), serve);
        }
    }

    #[test]
    fn the_faulted_fleet_serves_the_same_report_at_every_width_and_backend() {
        faulted_reports_are_the_same_at_every_width_and_backend(&FIXTURE);
    }

    #[test]
    #[ignore = "paper size: CI runs it on the release profile"]
    fn the_paper_faulted_fleet_serves_the_same_report_at_every_width_and_backend() {
        faulted_reports_are_the_same_at_every_width_and_backend(&PAPER);
    }
}
