//! `table_online` — the online serving mode under routing drift: static
//! incumbent placement vs from-scratch oracle re-solves vs byte-budgeted
//! incremental re-placement, on the drift presets of
//! `exflow_model::drift`.
//!
//! This artifact goes beyond the paper (whose placements are computed
//! once, offline) and quantifies the claim that makes ExFlow the natural
//! candidate for online adaptation: because placements need no
//! retraining, re-optimizing them against a streaming affinity estimate
//! recovers most of a full re-solve's cross-traffic reduction while
//! migrating a bounded number of expert weights.

use exflow_affinity::StreamingAffinity;
use exflow_core::json::Json;
use exflow_model::presets::moe_gpt_m;
use exflow_model::routing::AffinityModelSpec;
use exflow_model::DriftSchedule;
use exflow_placement::local_search::solve_local_search_with;
use exflow_placement::objective::measure_trace_locality;
use exflow_placement::online::MigrationPlan;
use exflow_placement::{
    solve_budgeted_toward_metered, split_seed, CostMeter, Objective, Parallelism,
};

use crate::experiments::common::{
    on_both_backends, over_byte_budget, score_on_both_backends, window_trace, within_byte_budget,
    Workload, CHECKED_WIDTHS, ONLINE_DECAY, ONLINE_EXPERTS, ONLINE_REPLAN_EVERY, ONLINE_UNITS,
};
use crate::fmt::pct;
use crate::table::{int, num, nums, render_section, text, Bars};

/// Expert moves one `table_online` re-plan may migrate (the byte budget
/// is this many expert weight payloads). An oracle re-solve after a full
/// structure flip relocates most of the `E x L` expert slots; this budget
/// is well under half of that.
const ONLINE_BUDGET_MOVES: u64 = 40;

/// Local-search restarts of the oracle re-solve.
const ONLINE_ORACLE_RESTARTS: usize = 2;

/// Budgeted incremental re-placement must recover at least this fraction
/// of the oracle re-solve's cross-traffic reduction on every
/// `table_online` scenario (the acceptance bar of the online subsystem).
pub const MIN_ONLINE_RECOVERY: f64 = 0.8;

/// Serve one drift scenario under the three policies. Every solve is
/// verified invariant: the oracle re-solve across thread counts (1 vs
/// each of the [`CHECKED_WIDTHS`]), the budgeted re-solve and the final
/// cross mass across gap backends. Cross counts are measured on the
/// realized window traces.
fn scenario(
    drift: &DriftSchedule,
    layers: usize,
    window_tokens: usize,
    seed: u64,
) -> Result<Json, String> {
    let e = ONLINE_EXPERTS;
    let bytes_per_expert = moe_gpt_m(e).expert_params() * 2;
    let budget_bytes = ONLINE_BUDGET_MOVES * bytes_per_expert;
    let windows = drift.n_windows();

    // Profile window 0's routing and solve the shared initial placement —
    // exactly what all three policies start from.
    let mut streaming = StreamingAffinity::new(layers, e, ONLINE_DECAY);
    streaming.observe(&window_trace(drift, 0, window_tokens, 1, seed ^ 0x0ff1));
    let initial = solve_local_search_with(
        &Objective::from_snapshot(&streaming.snapshot()),
        ONLINE_UNITS,
        ONLINE_ORACLE_RESTARTS,
        seed,
        Parallelism::single(),
    );
    let static_placement = initial.clone();
    let mut oracle_placement = initial.clone();
    let mut budgeted_placement = initial;

    let (mut static_cross, mut oracle_cross, mut budgeted_cross) = (0u64, 0u64, 0u64);
    let mut migrated_bytes = 0u64;
    let mut replans = 0usize;

    for window in 0..windows {
        let trace = window_trace(drift, window, window_tokens, 1, seed);
        for (placement, acc) in [
            (&static_placement, &mut static_cross),
            (&oracle_placement, &mut oracle_cross),
            (&budgeted_placement, &mut budgeted_cross),
        ] {
            let loc = measure_trace_locality(&trace, placement);
            *acc += loc.transitions - loc.local;
        }
        streaming.observe(&trace);

        if (window + 1).is_multiple_of(ONLINE_REPLAN_EVERY) && window + 1 < windows {
            let snapshot = streaming.snapshot();
            // Oracle: from-scratch re-solve on the live estimate,
            // thread-count invariance verified.
            let live = Objective::from_snapshot(&snapshot);
            let oracle = |parallelism: Parallelism| {
                solve_local_search_with(
                    &live,
                    ONLINE_UNITS,
                    ONLINE_ORACLE_RESTARTS,
                    split_seed(seed, 0x0c0de ^ window as u64),
                    parallelism,
                )
            };
            oracle_placement = oracle(Parallelism::single());
            for threads in CHECKED_WIDTHS {
                if oracle_placement != oracle(Parallelism::new(threads)) {
                    return Err(format!(
                        "{}: oracle re-solve diverged across thread counts (1 vs {threads}) \
                         at window {window}",
                        drift.name()
                    ));
                }
            }

            // Budgeted incremental: walk toward the same oracle-quality
            // solution under the byte budget (the budget caps migration
            // traffic, not solver compute). Gap-backend invariance is
            // verified on the walk.
            let max_moves = budget_bytes / bytes_per_expert;
            let toward = |objective: &Objective| {
                solve_budgeted_toward_metered(
                    objective,
                    &budgeted_placement,
                    &oracle_placement,
                    max_moves,
                    &mut CostMeter::unlimited(),
                    None,
                )
            };
            let next = on_both_backends(&snapshot, toward, |_, _| {
                format!(
                    "{}: budgeted re-solve diverged across gap backends at window {window}",
                    drift.name()
                )
            })?;
            let plan = MigrationPlan::between(&budgeted_placement, &next, bytes_per_expert);
            within_byte_budget(&format!("{}:", drift.name()), window, &plan, budget_bytes)?;
            if !plan.is_empty() {
                migrated_bytes += plan.total_bytes();
                replans += 1;
            }
            budgeted_placement = next;
        }
    }

    // The reported objective: the budgeted placement scored on the final
    // live estimate, bit-compared across backends.
    let cross_mass = score_on_both_backends(
        &streaming.snapshot(),
        &format!("{}: final cross mass", drift.name()),
        |objective| objective.cross_mass(&budgeted_placement),
    )?;

    let (stat, oracle, budgeted) = (
        static_cross as f64,
        oracle_cross as f64,
        budgeted_cross as f64,
    );
    // Cross counts are realized cross-unit layer transitions summed over
    // every serving window — integers, so any drift across thread counts
    // or backends is unambiguous.
    Ok(Json::obj(vec![
        // Drift preset name (`piecewise-2phase`, `smooth`, ...).
        ("scenario", drift.name().into()),
        // Experts per layer.
        ("experts", e.into()),
        // MoE layers.
        ("layers", layers.into()),
        // Serving windows.
        ("windows", windows.into()),
        // Windows between re-plans.
        ("replan_every", ONLINE_REPLAN_EVERY.into()),
        // Byte budget of one budgeted re-plan.
        ("budget_bytes", budget_bytes.into()),
        // Bytes the budgeted policy actually migrated, whole run.
        ("migrated_bytes", migrated_bytes.into()),
        // Budgeted re-plans that moved at least one expert.
        ("replans", replans.into()),
        // Cross-unit transitions under the never-re-placed incumbent.
        ("static_cross", static_cross.into()),
        // Cross-unit transitions under from-scratch oracle re-solves.
        ("oracle_cross", oracle_cross.into()),
        // Cross-unit transitions under budgeted incremental re-placement.
        ("budgeted_cross", budgeted_cross.into()),
        // Fraction of the oracle's cross-traffic reduction the budgeted
        // policy recovers.
        ("recovery", Json::Fixed(recovery(stat, oracle, budgeted), 4)),
        // Final cross mass of the budgeted placement on the live estimate
        // (bit-identical across backends — verified).
        ("cross_mass", cross_mass.into()),
    ]))
}

/// Fraction of the oracle's cross-traffic reduction the budgeted policy
/// recovers: `(static - budgeted) / (static - oracle)`. 1.0 when the
/// scenario gives the oracle nothing to improve.
pub(crate) fn recovery(static_cross: f64, oracle_cross: f64, budgeted_cross: f64) -> f64 {
    if static_cross <= oracle_cross {
        return 1.0;
    }
    (static_cross - budgeted_cross) / (static_cross - oracle_cross)
}

/// The `table_online` sweep: the non-stationary drift presets served
/// under three re-placement policies (static incumbent, oracle re-solve,
/// byte-budgeted incremental), recording realized cross-unit transition
/// counts, migrated bytes, and the recovery fraction — verified
/// bit-identical across thread counts and gap backends. Errors (instead of
/// panicking) if any invariance check fails.
pub fn sweep(w: &Workload) -> Result<Vec<Json>, String> {
    let layers = 5;
    let windows = 12;
    let window_tokens = 1500;
    let spec = AffinityModelSpec::new(layers, ONLINE_EXPERTS).with_seed(w.seed ^ 0x07_11_13);
    DriftSchedule::presets(&spec, windows)
        .iter()
        .enumerate()
        .map(|(i, drift)| {
            let seed = split_seed(w.seed, 0xd1f7 ^ i as u64);
            scenario(drift, layers, window_tokens, seed)
        })
        .collect()
}

/// Budgeted incremental re-placement must recover >= 80% of the oracle's
/// cross-traffic reduction, and must never migrate more than its byte
/// budget per re-plan.
pub(crate) fn bars(rows: &[Json], bars: &mut Bars) {
    for f in rows {
        let scenario = text(f, "scenario");
        // Recompute recovery from the exact integer cross counts rather
        // than trusting the 4-decimal-rounded `recovery` field (0.79997
        // would serialize as "0.8000" and sneak past the bar).
        let [stat, oracle, budgeted] = nums(f, ["static_cross", "oracle_cross", "budgeted_cross"]);
        let recovered = recovery(stat, oracle, budgeted);
        if recovered < MIN_ONLINE_RECOVERY {
            bars.fail(format!(
                "online recovery on {scenario} is {recovered:.4}, below the \
                 {MIN_ONLINE_RECOVERY:.1} acceptance bar"
            ));
        }
        if let Some(over) = over_byte_budget(f, "") {
            bars.fail(format!("online migration on {scenario}{over}"));
        }
    }
}

/// The rows as the printed table.
pub fn render(rows: &[Json]) -> String {
    render_section(
        "table_online: re-placement policies under routing drift\n\
         (cross = realized cross-GPU layer transitions, lower is better;\n \
         recovery = share of the oracle's reduction the budgeted policy keeps)",
        &[
            ("scenario", &|r| text(r, "scenario")),
            ("windows", &|r| text(r, "windows")),
            ("static", &|r| text(r, "static_cross")),
            ("oracle", &|r| text(r, "oracle_cross")),
            ("budgeted", &|r| text(r, "budgeted_cross")),
            ("recovery", &|r| pct(num(r, "recovery"))),
            ("migrated", &|r| {
                format!("{} MiB", int(r, "migrated_bytes") >> 20)
            }),
            ("budget/replan", &|r| {
                format!("{} MiB", int(r, "budget_bytes") >> 20)
            }),
        ],
        rows,
    )
}
