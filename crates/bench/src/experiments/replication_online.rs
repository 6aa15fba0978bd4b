//! `table_replication_online` — the replication-aware online mode: static
//! incumbent vs owner-moves-only re-placement vs the joint replica +
//! owner-move policy, at equal migration bytes, on the drift presets of
//! `exflow_model::drift` (plus one `large_zoo()` sparse instance).
//!
//! This quantifies the trade-off the paper's Table I frames offline —
//! ExFlow's zero-replica placement vs replication's extra memory — in the
//! online setting: when migration traffic is scarce, how much locality
//! does a bounded per-GPU replica memory budget buy on top of the same
//! migration bytes?

use exflow_affinity::StreamingAffinity;
use exflow_core::json::Json;
use exflow_model::presets::{large_zoo, moe_gpt_m};
use exflow_model::routing::AffinityModelSpec;
use exflow_model::DriftSchedule;
use exflow_placement::objective::measure_trace_locality;
use exflow_placement::online::MigrationPlan;
use exflow_placement::{
    replicated_cross_mass, solve_budgeted_metered, solve_budgeted_replicated_metered, split_seed,
    Objective, ReplicaPolicy, ReplicationBudget, ReplicationPlan,
};

use crate::experiments::common::{
    greedy_incumbent, on_both_backends, over_byte_budget, ratio, score_on_both_backends,
    window_trace, within_byte_budget, within_slot_budget, Workload, N_UNITS_LARGE, ONLINE_DECAY,
    ONLINE_EXPERTS, ONLINE_REPLAN_EVERY, ONLINE_UNITS,
};
use crate::fmt::pct;
use crate::table::{num, nums, render_section, text, Bars};

/// Expert moves one `table_replication_online` re-plan may migrate (joint
/// and owner-moves-only policies get exactly this many payloads of
/// migration traffic, so the comparison is at equal bytes). Deliberately
/// tighter than `table_online`'s 40: the joint mode's edge is what it
/// buys when migration traffic is scarce.
const REPLICATION_BUDGET_MOVES: u64 = 16;

/// Extra replica payloads each GPU may hold in the joint policy (the
/// `replica_memory_bytes` axis of the joint budget, in expert payloads).
const REPLICATION_SLOTS: u64 = 8;

/// Serve one drift scenario under static / owner-moves-only / joint
/// replication-aware re-placement. Both adaptive policies get the same
/// per-re-plan migration byte budget; the joint policy additionally gets
/// `replica_slots` expert payloads of per-GPU replica memory. Every joint
/// re-solve and the final cross mass are verified invariant across gap
/// backends, and both policies are verified budget-compliant. Cross
/// counts are measured on the realized window traces.
fn scenario(
    drift: &DriftSchedule,
    e: usize,
    units: usize,
    layers: usize,
    replan_every: usize,
    window_tokens: usize,
    seed: u64,
) -> Result<Json, String> {
    let bytes_per_expert = moe_gpt_m(e).expert_params() * 2;
    let budget_bytes = REPLICATION_BUDGET_MOVES * bytes_per_expert;
    let joint_budget = ReplicationBudget {
        replica_memory_bytes: REPLICATION_SLOTS * bytes_per_expert,
        migration_budget_bytes: budget_bytes,
    };
    let windows = drift.n_windows();
    let scenario = format!("{}/E{e}", drift.name());

    // Profile window 0 and solve the shared initial placement (greedy +
    // bounded polish: deterministic and cheap enough for E = 256).
    let mut streaming = StreamingAffinity::new(layers, e, ONLINE_DECAY);
    streaming.observe(&window_trace(drift, 0, window_tokens, 1, seed ^ 0x0ff1));
    let initial = greedy_incumbent(&Objective::from_snapshot(&streaming.snapshot()), units);
    let static_placement = initial.clone();
    let mut owner_placement = initial.clone();
    let mut joint_plan = ReplicationPlan::bare(initial);

    let (mut static_cross, mut owner_cross, mut joint_cross) = (0u64, 0u64, 0u64);
    let (mut owner_migrated, mut joint_migrated) = (0u64, 0u64);
    let (mut owner_replans, mut joint_replans) = (0usize, 0usize);
    let (mut replicas_added, mut replicas_dropped) = (0u64, 0u64);

    for window in 0..windows {
        let trace = window_trace(drift, window, window_tokens, 1, seed);
        for (placement, acc) in [
            (&static_placement, &mut static_cross),
            (&owner_placement, &mut owner_cross),
        ] {
            let loc = measure_trace_locality(&trace, placement);
            *acc += loc.transitions - loc.local;
        }
        let loc = joint_plan.trace_locality(&trace);
        joint_cross += loc.transitions - loc.local;
        streaming.observe(&trace);

        if (window + 1).is_multiple_of(replan_every) && window + 1 < windows {
            // Owner-moves-only: the whole migration budget buys
            // relocations.
            let owner = |objective: &Objective| {
                let moves = REPLICATION_BUDGET_MOVES;
                solve_budgeted_metered(objective, &owner_placement, moves, u64::MAX, None).0
            };
            // Joint: replica adds/drops race owner moves under the same
            // migration budget plus the replica memory budget.
            let joint = |objective: &Objective| {
                solve_budgeted_replicated_metered(
                    objective,
                    &joint_plan,
                    bytes_per_expert,
                    &joint_budget,
                    &ReplicaPolicy::Everywhere,
                    u64::MAX,
                    None,
                )
                .0
            };
            let (owner_next, joint_next) = on_both_backends(
                &streaming.snapshot(),
                |objective| (owner(objective), joint(objective)),
                |dense, sparse| {
                    let policy = if dense.0 != sparse.0 {
                        "owner"
                    } else {
                        "joint"
                    };
                    format!(
                        "{scenario}: {policy} re-solve diverged across gap backends at window {window}"
                    )
                },
            )?;

            let plan = MigrationPlan::between(&owner_placement, &owner_next, bytes_per_expert);
            within_byte_budget(&format!("{scenario}: owner"), window, &plan, budget_bytes)?;
            if !plan.is_empty() {
                owner_migrated += plan.total_bytes();
                owner_replans += 1;
            }
            owner_placement = owner_next;

            let plan =
                MigrationPlan::between_replicated(&joint_plan, &joint_next, bytes_per_expert);
            let who = format!("{scenario}: joint");
            within_byte_budget(&who, window, &plan, budget_bytes)?;
            within_slot_budget(&who, window, &joint_next, REPLICATION_SLOTS)?;
            if !plan.is_empty() {
                joint_migrated += plan.total_bytes();
                joint_replans += 1;
                replicas_added += plan.n_replica_adds() as u64;
                replicas_dropped += plan.n_replica_drops() as u64;
            }
            joint_plan = joint_next;
        }
    }

    // The reported objective: the joint plan scored on the final live
    // estimate, bit-compared across backends.
    let cross_mass = score_on_both_backends(
        &streaming.snapshot(),
        &format!("{scenario}: final replicated cross mass"),
        |objective| replicated_cross_mass(objective, &joint_plan),
    )?;

    // Fraction of the static incumbent's cross traffic a policy
    // eliminated: `(static - cross) / static` (0 when the static run had
    // none).
    let recovery = |cross: u64| {
        let eliminated = static_cross as f64 - cross as f64;
        Json::Fixed(ratio(eliminated, static_cross as f64), 4)
    };
    // Cross counts are realized cross-unit layer transitions on the window
    // traces — the joint policy's counts honor replica availability
    // (`ReplicationPlan::trace_locality`).
    Ok(Json::obj(vec![
        // Drift preset plus the instance size (`piecewise-2phase/E16`, ...).
        ("scenario", scenario.as_str().into()),
        // Experts per layer.
        ("experts", e.into()),
        // MoE layers.
        ("layers", layers.into()),
        // GPUs the instance is placed across.
        ("units", units.into()),
        // Serving windows.
        ("windows", windows.into()),
        // Windows between re-plans.
        ("replan_every", replan_every.into()),
        // Migration byte budget of one re-plan (identical for both
        // adaptive policies).
        ("budget_bytes", budget_bytes.into()),
        // Per-GPU replica memory budget of the joint policy, in expert
        // payloads.
        ("replica_slots", REPLICATION_SLOTS.into()),
        // Bytes the owner-moves-only policy migrated, whole run.
        ("owner_migrated_bytes", owner_migrated.into()),
        // Bytes the joint policy migrated (owner moves + replica fan-out).
        ("joint_migrated_bytes", joint_migrated.into()),
        // Owner-policy re-plans that moved at least one expert.
        ("owner_replans", owner_replans.into()),
        // Joint-policy re-plans that changed anything.
        ("joint_replans", joint_replans.into()),
        // Replica copies the joint policy created, whole run.
        ("replicas_added", replicas_added.into()),
        // Replica copies the joint policy retired, whole run.
        ("replicas_dropped", replicas_dropped.into()),
        // Worst-case extra replica copies any GPU holds at the end of the
        // joint run (must stay within `replica_slots`).
        ("extra_copies", joint_plan.extra_copies_per_gpu().into()),
        // Cross-unit transitions under the never-re-placed incumbent.
        ("static_cross", static_cross.into()),
        // Cross-unit transitions under owner-moves-only re-placement.
        ("owner_cross", owner_cross.into()),
        // Cross-unit transitions under the joint policy.
        ("joint_cross", joint_cross.into()),
        // Locality recovery of the owner-moves-only policy.
        ("owner_recovery", recovery(owner_cross)),
        // Locality recovery of the joint policy.
        ("joint_recovery", recovery(joint_cross)),
        // Final replication-aware cross mass of the joint plan on the live
        // estimate (bit-identical across backends — verified).
        ("cross_mass", cross_mass.into()),
    ]))
}

/// The `table_replication_online` sweep: the 3 drift presets at `E = 16`,
/// then one `large_zoo()` sparse instance (`E = 256`, top-1) where the
/// CSR objective backend carries the re-solves, under static /
/// owner-moves-only / joint replication-aware re-placement. At equal
/// migration bytes the joint policy may additionally spend a per-GPU
/// replica memory budget; the sweep records cross counts, replica churn,
/// and budget compliance — verified invariant across gap backends. Errors
/// (instead of panicking) if any invariance or budget check fails.
pub fn sweep(w: &Workload) -> Result<Vec<Json>, String> {
    let layers = 5;
    let windows = 10;
    let window_tokens = 1500;
    let spec = AffinityModelSpec::new(layers, ONLINE_EXPERTS).with_seed(w.seed ^ 0x05_17_19);
    let mut rows: Vec<Json> = DriftSchedule::presets(&spec, windows)
        .iter()
        .enumerate()
        .map(|(i, drift)| {
            scenario(
                drift,
                ONLINE_EXPERTS,
                ONLINE_UNITS,
                layers,
                ONLINE_REPLAN_EVERY,
                window_tokens,
                split_seed(w.seed, 0x5e71 ^ i as u64),
            )
        })
        .collect::<Result<_, _>>()?;

    // One large sparse instance: E = 256 top-1 from the large zoo, few
    // windows (each re-solve walks a 256-expert swap neighborhood).
    let large = &large_zoo()[0];
    let large_layers = 2;
    let large_windows = 4;
    let large_spec =
        AffinityModelSpec::new(large_layers, large.n_experts).with_seed(w.seed ^ 0x23_29_31);
    let large_drift = DriftSchedule::piecewise(&large_spec, 2, large_windows);
    rows.push(scenario(
        &large_drift,
        large.n_experts,
        N_UNITS_LARGE,
        large_layers,
        1,
        2000,
        split_seed(w.seed, 0x5e71 ^ 0xbeef),
    )?);
    Ok(rows)
}

/// The joint policy must respect both budget axes on every scenario
/// (replica memory in slots, migration bytes per re-plan), never lose to
/// owner-moves-only in realized cross traffic, and strictly beat it on at
/// least one scenario — that is the memory-for-migration-bytes trade-off
/// the subsystem exists to buy.
pub(crate) fn bars(rows: &[Json], bars: &mut Bars) {
    let mut joint_dominates_somewhere = rows.is_empty();
    for f in rows {
        let scenario = text(f, "scenario");
        let [extra, slots] = nums(f, ["extra_copies", "replica_slots"]);
        if extra > slots {
            bars.fail(format!(
                "replication memory on {scenario}: {extra} extra copies over the \
                 {slots}-slot per-GPU budget"
            ));
        }
        for policy in ["owner", "joint"] {
            if let Some(over) = over_byte_budget(f, &format!("{policy}_")) {
                bars.fail(format!(
                    "replication migration ({policy}) on {scenario}{over}"
                ));
            }
        }
        let [owner, joint] = nums(f, ["owner_cross", "joint_cross"]);
        if joint > owner {
            bars.fail(format!(
                "replication on {scenario}: joint policy crossed {joint} vs owner-moves-only \
                 {owner} at equal migration bytes"
            ));
        }
        joint_dominates_somewhere |= joint < owner;
    }
    if !joint_dominates_somewhere {
        bars.fail(
            "replication: the joint policy beats owner-moves-only on no scenario \
             (the replica memory budget bought nothing)"
                .to_string(),
        );
    }
}

/// The rows as the printed table.
pub fn render(rows: &[Json]) -> String {
    render_section(
        "table_replication_online: joint replica + owner-move re-placement under drift\n\
         (cross = realized cross-GPU layer transitions, lower is better; recovery =\n \
         share of the static incumbent's cross traffic a policy eliminated; owner\n \
         and joint spend identical migration bytes — joint also holds <= `slots`\n \
         replica payloads per GPU)",
        &[
            ("scenario", &|r| text(r, "scenario")),
            ("windows", &|r| text(r, "windows")),
            ("static", &|r| text(r, "static_cross")),
            ("owner", &|r| text(r, "owner_cross")),
            ("joint", &|r| text(r, "joint_cross")),
            ("owner rec", &|r| pct(num(r, "owner_recovery"))),
            ("joint rec", &|r| pct(num(r, "joint_recovery"))),
            ("slots", &|r| text(r, "replica_slots")),
            ("extra", &|r| text(r, "extra_copies")),
            ("replicas +/-", &|r| {
                let (added, dropped) = (text(r, "replicas_added"), text(r, "replicas_dropped"));
                format!("+{added}/-{dropped}")
            }),
        ],
        rows,
    )
}
