//! `table_serving` — the request-level serving front-end: p50/p95/p99
//! request latency, goodput, and re-placement activity for the static
//! incumbent vs budgeted-online vs replication-aware placements, under
//! three arrival processes (Poisson, diurnal, flash-crowd).
//!
//! This is the tail-latency counterpart of `table_online`: the offline
//! tables show how much *step time* affinity placement saves; this table
//! shows what that buys (or costs, once migration stalls are priced in)
//! at the *request* level, where queueing near saturation amplifies
//! per-step differences into p99 gaps. The budgeted-online policy spends
//! the full migration-byte budget on owner moves; the replication-aware
//! policy gets half the migration bytes plus a per-GPU replica-memory
//! budget, and its joint solve decides whether replica fan-out (which
//! costs `n_units - 1` payloads per replica) ever beats direct moves on
//! these slow inter-node links.

use exflow_core::json::Json;
use exflow_core::{InferenceEngine, OnlineConfig, ParallelismMode, Scenario, ServingReport};
use exflow_model::{ArrivalProcess, DriftSchedule};

use crate::experiments::common::{
    calibrate_serving, ratio, serving_builder, serving_model, Workload, SERVING_DECAY,
    SERVING_DECODE_STEPS, SERVING_MAX_BATCH, SERVING_UTILIZATION, SERVING_WINDOWS,
};
use crate::fmt::{render_table, speedup, us};
use crate::table::{num, text, Bars};

/// Expert moves one serving re-plan may migrate, in expert payloads.
/// Migration stalls the server, so the budget trades re-placement
/// quality against tail-latency spikes; the serving model's narrow
/// experts (`SERVING_D_FF`) keep one full-budget stall small.
const SERVING_BUDGET_MOVES: u64 = 16;

/// Extra replica payloads per GPU in the replication-aware serving
/// policy.
const SERVING_REPLICA_SLOTS: u64 = 4;

/// Drift threshold of the serving re-placement policies.
const SERVING_DRIFT_THRESHOLD: f64 = 0.08;

/// MoE layers of the serving model in every `table_serving` cell.
const LAYERS: usize = 4;

/// Requests each `table_serving` cell serves.
const REQUESTS: usize = 1400;

/// The parallelism mode every cell serves in.
const MODE: ParallelismMode = ParallelismMode::ContextCoherentAffinity;

/// The `table_serving` sweep: Poisson, diurnal, and flash-crowd arrival
/// processes served end-to-end through the request-level front-end
/// (`Scenario::with_serving`) under static / budgeted-online /
/// replication-aware placements, recording p50/p95/p99 request latency,
/// goodput, re-plan counts, and migrated bytes per cell. All three
/// policies see the *same* arrival sample and routing draws, so the tails
/// differ only through placement quality and migration stalls; every
/// figure is a virtual-time fact. The cell runs at `SERVING_UTILIZATION`
/// (96%) of full-batch capacity. Each policy's engine is built once, at
/// one solver thread on the default gap backend;
/// `tests::the_online_policy_serves_the_same_report_at_every_width_and_backend`
/// holds the budgeted-online report to the same bits at 1, 2 and 8
/// threads on the dense backend and at one on CSR. Errors (instead of
/// panicking) if a policy dropped a request, saw another arrival sample,
/// or never re-planned.
pub fn sweep(w: &Workload) -> Result<Vec<Json>, String> {
    cells(LAYERS, REQUESTS, w)?.collect()
}

/// The online configs of the three policies on a `layers`-deep model: the
/// static incumbent, budgeted-online and replication-aware re-placement.
fn policies(layers: usize) -> [OnlineConfig; 3] {
    let bytes_per_expert = serving_model(layers).expert_params() * 2;
    let static_oc = OnlineConfig {
        drift_threshold: f64::INFINITY,
        decay: SERVING_DECAY,
        ..OnlineConfig::default()
    };
    let online_oc = OnlineConfig {
        replan_every: 2,
        drift_threshold: SERVING_DRIFT_THRESHOLD,
        migration_budget_bytes: SERVING_BUDGET_MOVES * bytes_per_expert,
        decay: SERVING_DECAY,
        ..OnlineConfig::default()
    };
    let repl_oc = OnlineConfig {
        migration_budget_bytes: SERVING_BUDGET_MOVES / 2 * bytes_per_expert,
        replica_memory_bytes: SERVING_REPLICA_SLOTS * bytes_per_expert,
        ..online_oc
    };
    [static_oc, online_oc, repl_oc]
}

/// Each arrival process's name and drifting serving scenario, Poisson
/// first, with `n_requests` requests calibrated on the static incumbent's
/// engine `eng`.
fn arrivals(eng: &InferenceEngine, n_requests: usize) -> Result<Vec<(String, Scenario)>, String> {
    let drift = DriftSchedule::piecewise(&eng.config().routing_spec, 2, SERVING_WINDOWS);
    let (rate, horizon, config) = calibrate_serving(eng, MODE, SERVING_UTILIZATION, n_requests)?;
    // The flash crowd compresses the same mean load: a quiet base rate
    // with a 4x spike over 10% of the horizon.
    let arrivals = [
        ArrivalProcess::poisson(rate),
        ArrivalProcess::diurnal(rate, 0.5, horizon / 2.0),
        ArrivalProcess::flash_crowd(rate / 1.3, 4.0, 0.7 * horizon, 0.1 * horizon),
    ];
    let scenario = |arrival: ArrivalProcess| {
        let scenario = Scenario::offline(MODE).with_drift(drift.clone());
        (
            arrival.name().to_string(),
            scenario.with_serving(config(arrival)),
        )
    };
    Ok(arrivals.into_iter().map(scenario).collect())
}

/// The cells of [`sweep`] at `w` for a `layers`-deep model serving
/// `n_requests` requests, one per arrival process (Poisson first), each
/// run when the iterator reaches it.
pub(crate) fn cells(
    layers: usize,
    n_requests: usize,
    w: &Workload,
) -> Result<impl Iterator<Item = Result<Json, String>>, String> {
    let [static_eng, online_eng, repl_eng] =
        policies(layers).map(|oc| serving_builder(layers, oc, w.seed).build());

    let cells = arrivals(&static_eng, n_requests)?.into_iter();
    Ok(cells.map(move |(name, scenario)| {
        let [stat, online, repl]: [ServingReport; 3] = [&static_eng, &online_eng, &repl_eng]
            .map(|eng| eng.run_scenario(&scenario).expect_serving());

        for (policy, r) in [
            ("static", &stat),
            ("online", &online),
            ("replicated", &repl),
        ] {
            if r.n_requests() != n_requests {
                return Err(format!(
                    "{name}/{policy}: served {} of {n_requests} requests",
                    r.n_requests()
                ));
            }
            if r.offered_load.to_bits() != stat.offered_load.to_bits() {
                return Err(format!(
                    "{name}/{policy}: policies saw different arrival samples"
                ));
            }
        }
        if online.migrations.replans == 0 {
            return Err(format!(
                "{name}: piecewise drift fired no budgeted-online re-plans"
            ));
        }

        Ok(Json::obj(vec![
            // Arrival-process label (`poisson`, `diurnal`, `flash-crowd`).
            ("arrival", name.as_str().into()),
            // Requests served per cell.
            ("requests", n_requests.into()),
            // Decode steps (generated tokens) per request.
            ("decode_steps", SERVING_DECODE_STEPS.into()),
            // Serving windows of the drift schedule.
            ("windows", SERVING_WINDOWS.into()),
            // Batch-size cap of the continuous-batching policy.
            ("max_batch", SERVING_MAX_BATCH.into()),
            // Requests per unit virtual time the arrival process offered.
            ("offered_load", stat.offered_load.into()),
            // p50 request latency under the static incumbent.
            ("static_p50", stat.p50().into()),
            // p95 request latency under the static incumbent.
            ("static_p95", stat.p95().into()),
            // p99 request latency under the static incumbent.
            ("static_p99", stat.p99().into()),
            // Completed requests per unit virtual time, static incumbent.
            ("static_goodput", stat.goodput().into()),
            // p50 request latency under budgeted-online re-placement.
            ("online_p50", online.p50().into()),
            // p95 request latency under budgeted-online re-placement.
            ("online_p95", online.p95().into()),
            // p99 request latency under budgeted-online re-placement.
            ("online_p99", online.p99().into()),
            // Completed requests per unit virtual time, budgeted-online.
            ("online_goodput", online.goodput().into()),
            // Re-plans the budgeted-online policy executed.
            ("online_replans", online.migrations.replans.into()),
            // Bytes the budgeted-online policy migrated, whole run.
            (
                "online_migrated_bytes",
                online.migrations.bytes.total().into(),
            ),
            // Virtual time the budgeted-online policy's weight copies
            // occupied the links (`MigrationStats::time`): the surcharge
            // its p99 may carry over the static incumbent's.
            ("online_migration_time", online.migrations.time.into()),
            // p50 request latency under replication-aware re-placement.
            ("repl_p50", repl.p50().into()),
            // p95 request latency under replication-aware re-placement.
            ("repl_p95", repl.p95().into()),
            // p99 request latency under replication-aware re-placement.
            ("repl_p99", repl.p99().into()),
            // Completed requests per unit virtual time, replication-aware.
            ("repl_goodput", repl.goodput().into()),
            // Replica copies the replication-aware policy created, whole
            // run.
            ("repl_replicas_added", repl.migrations.replicas_added.into()),
            // Virtual time the replication-aware policy's copies occupied
            // the links.
            ("repl_migration_time", repl.migrations.time.into()),
        ]))
    }))
}

/// What `ServingReport::migrations` documents, as a bar: weight copies
/// overlap with serving but contend for links and defer the new plan's
/// benefit, so under every arrival process an adaptive policy's p99 may
/// exceed the static incumbent's by no more than the migration time it
/// reports — and where the arrival process is non-stationary (`diurnal`,
/// `flash-crowd`) it must beat the static tail outright. No policy may
/// report more goodput than the load it was offered.
pub(crate) fn bars(rows: &[Json], bars: &mut Bars) {
    for f in rows {
        let arrival = text(f, "arrival");
        let (static_p99, offered) = (num(f, "static_p99"), num(f, "offered_load"));
        for policy in ["online", "repl"] {
            let p99 = num(f, &format!("{policy}_p99"));
            let surcharge = num(f, &format!("{policy}_migration_time"));
            if p99 > static_p99 + surcharge {
                bars.fail(format!(
                    "serving tail on {arrival}: {policy} p99 {p99} exceeds the static \
                     incumbent's {static_p99} by more than its {surcharge} of migration time"
                ));
            }
            let non_stationary = matches!(arrival.as_str(), "diurnal" | "flash-crowd");
            if non_stationary && p99 >= static_p99 {
                bars.fail(format!(
                    "serving tail on {arrival}: {policy} p99 {p99} does not beat the static \
                     incumbent's {static_p99} under non-stationary arrivals"
                ));
            }
        }
        for policy in ["static", "online", "repl"] {
            let goodput = num(f, &format!("{policy}_goodput"));
            if goodput > offered {
                bars.fail(format!(
                    "serving goodput on {arrival}: {policy} reports {goodput} over \
                     the offered load {offered}"
                ));
            }
        }
    }
}

/// The rows as the printed table: one line per (arrival, policy).
pub fn render(rows: &[Json]) -> String {
    let headers = [
        "arrival", "policy", "p50 us", "p95 us", "p99 us", "x static", "goodput", "replans",
    ];
    let mut body: Vec<Vec<String>> = Vec::new();
    for r in rows {
        for policy in ["static", "online", "repl"] {
            let p99 = num(r, &format!("{policy}_p99"));
            body.push(vec![
                text(r, "arrival"),
                policy.to_string(),
                us(num(r, &format!("{policy}_p50"))),
                us(num(r, &format!("{policy}_p95"))),
                us(p99),
                // Static p99 over this policy's p99: > 1 exactly when the
                // adaptive policy improves the tail over never re-placing.
                speedup(ratio(num(r, "static_p99"), p99)),
                // Requests per virtual second.
                format!("{:.0}", num(r, &format!("{policy}_goodput"))),
                if policy == "static" {
                    "0".to_string()
                } else {
                    text(r, "online_replans")
                },
            ]);
        }
    }
    let mut out = format!(
        "table_serving: request-level tail latency under non-stationary arrivals\n\
         (latencies in virtual microseconds; goodput in completed requests per\n \
         virtual second; `x static` = static p99 over this policy's p99, > 1.00\n \
         exactly when adaptive re-placement protects the tail; online spends the\n \
         full migration-byte budget, repl gets half the bytes plus replica memory)\n\n\
         {}\n",
        render_table(&headers, &body)
    );
    if let Some(r) = rows.first() {
        out.push_str(&format!(
            "\n({} requests per cell, {} decode steps each, batch cap {}, {} serving windows)\n",
            text(r, "requests"),
            text(r, "decode_steps"),
            text(r, "max_batch"),
            text(r, "windows")
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use exflow_placement::GapBackend;

    use super::*;
    use crate::experiments::common::{assert_invariant, build_at, FIXTURE, PAPER};

    /// The budgeted-online policy's whole `ServingReport`, in every cell
    /// of the sweep at `w`, is the same at every checked width and backend
    /// as on the engine the sweep builds.
    fn online_reports_are_the_same_at_every_width_and_backend(w: &Workload) {
        let [static_oc, online_oc, _] = policies(LAYERS);
        let eng = serving_builder(LAYERS, static_oc, w.seed).build();
        let online = serving_builder(LAYERS, online_oc, w.seed);
        for (name, scenario) in arrivals(&eng, REQUESTS).unwrap() {
            let serve = |threads, backend| {
                let eng = build_at(&online, threads, backend);
                eng.run_scenario(&scenario).expect_serving()
            };
            let what = format!("{name}: serving report");
            assert_invariant(&what, &serve(1, GapBackend::Auto), serve);
        }
    }

    #[test]
    fn the_online_policy_serves_the_same_report_at_every_width_and_backend() {
        online_reports_are_the_same_at_every_width_and_backend(&FIXTURE);
    }

    #[test]
    #[ignore = "paper size: CI runs it on the release profile"]
    fn the_paper_online_policy_serves_the_same_report_at_every_width_and_backend() {
        online_reports_are_the_same_at_every_width_and_backend(&PAPER);
    }
}
