//! `table_online` — the online serving mode under routing drift: five
//! re-placement policies race on the same windows of each drift preset of
//! `exflow_model::drift`. The static incumbent never moves and the oracle
//! re-solves from scratch: both are reference columns. The three adaptive
//! policies are the re-plan step serving runs ([`exflow_core::replan`]),
//! each under its own budget on a 2-node x 2-GPU cluster: the budgeted
//! policy moves owners under a byte budget, and owner-moves-only and the
//! joint replica + owner-move policy re-plan under one tighter byte
//! budget, joint also holding a few replica payloads per GPU, one copy per
//! node.
//!
//! This artifact goes beyond the paper (whose placements are computed
//! once, offline) and quantifies two claims. Because placements need no
//! retraining, re-optimizing them against a streaming affinity estimate
//! recovers most of a full re-solve's cross-traffic reduction while
//! migrating a bounded number of expert weights. And the trade the
//! paper's Table I frames offline — ExFlow's zero replicas against
//! replication's extra memory — holds online: when migration traffic is
//! scarce, a bounded replica memory buys locality that owner moves alone
//! do not.

use exflow_affinity::StreamingAffinity;
use exflow_core::json::Json;
use exflow_core::{replan, OnlineConfig};
use exflow_model::presets::moe_gpt_m;
use exflow_model::routing::AffinityModelSpec;
use exflow_model::DriftSchedule;
use exflow_placement::local_search::solve_local_search_with;
use exflow_placement::{split_seed, Objective, Parallelism, ReplicationPlan};
use exflow_topology::ClusterSpec;

use crate::experiments::common::{
    on_both_backends, over_byte_budget, ratio, score_on_both_backends, window_trace,
    within_byte_budget, within_slot_budget, Workload, CHECKED_WIDTHS, ONLINE_DECAY, ONLINE_EXPERTS,
    ONLINE_REPLAN_EVERY,
};
use crate::fmt::pct;
use crate::table::{int, num, nums, render_section, text, Bars};

/// Expert moves one `table_online` re-plan may migrate (the byte budget
/// is this many expert weight payloads). An oracle re-solve after a full
/// structure flip relocates most of the `E x L` expert slots; this budget
/// is well under half of that.
const ONLINE_BUDGET_MOVES: u64 = 40;

/// Expert moves one owner-moves-only or joint re-plan may migrate: both
/// get exactly this many payloads of migration traffic, so they race at
/// equal bytes. Deliberately tighter than [`ONLINE_BUDGET_MOVES`]: the
/// joint policy's edge is what it buys when migration traffic is scarce.
const TIGHT_BUDGET_MOVES: u64 = 16;

/// Extra replica payloads each GPU may hold under the joint policy (the
/// `replica_memory_bytes` axis of its budget, in expert payloads).
const REPLICA_SLOTS: u64 = 8;

/// Local-search restarts of the oracle re-solve.
const ONLINE_ORACLE_RESTARTS: usize = 2;

/// The adaptive policies, in the order they re-plan.
const POLICIES: [&str; 3] = ["budgeted", "owner", "joint"];

/// Budgeted incremental re-placement must recover at least this fraction
/// of the oracle re-solve's cross-traffic reduction on every
/// `table_online` scenario (the acceptance bar of the online subsystem).
pub const MIN_ONLINE_RECOVERY: f64 = 0.8;

/// Serve one drift scenario under the five policies, all from the same
/// initial placement and on the same window traces. Every solve is
/// verified invariant: the oracle re-solve across thread counts (1 vs
/// each of the [`CHECKED_WIDTHS`]), the three served re-plans and the
/// final cross mass across gap backends. Every re-plan is held to its
/// byte budget, and the joint one to its replica slots. Cross counts are
/// measured on the realized window traces, each hop going where
/// `ReplicationPlan::serve` sends it.
fn scenario(
    drift: &DriftSchedule,
    layers: usize,
    window_tokens: usize,
    seed: u64,
) -> Result<Json, String> {
    let e = ONLINE_EXPERTS;
    let name = drift.name();
    // Two nodes of two GPUs, so a joint copy fans out one per node.
    let cluster = ClusterSpec::new(2, 2).expect("2 nodes of 2 GPUs is a valid cluster");
    let units = cluster.world_size();
    let bytes_per_expert = moe_gpt_m(e).expert_params() * 2;
    let served = |moves: u64, slots: u64| OnlineConfig {
        migration_budget_bytes: moves * bytes_per_expert,
        replica_memory_bytes: slots * bytes_per_expert,
        ..OnlineConfig::default()
    };
    // Budgeted, owner-moves-only and joint, in `POLICIES` order.
    let configs = [
        served(ONLINE_BUDGET_MOVES, 0),
        served(TIGHT_BUDGET_MOVES, 0),
        served(TIGHT_BUDGET_MOVES, REPLICA_SLOTS),
    ];
    let windows = drift.n_windows();

    // Profile window 0's routing and solve the shared initial placement —
    // exactly what all five policies start from.
    let mut streaming = StreamingAffinity::new(layers, e, ONLINE_DECAY);
    streaming.observe(&window_trace(drift, 0, window_tokens, 1, seed ^ 0x0ff1));
    let initial = ReplicationPlan::bare(solve_local_search_with(
        &Objective::from_snapshot(&streaming.snapshot()),
        units,
        ONLINE_ORACLE_RESTARTS,
        seed,
        Parallelism::single(),
    ));
    let mut oracle_plan = initial.clone();
    let mut plans = [(); 3].map(|_| initial.clone());

    let (mut static_cross, mut oracle_cross, mut cross) = (0u64, 0u64, [0u64; 3]);
    // Bytes migrated and re-plans that moved anything, per adaptive policy.
    let mut tally = [(0u64, 0usize); 3];
    let (mut replicas_added, mut replicas_dropped) = (0u64, 0u64);

    for window in 0..windows {
        let trace = window_trace(drift, window, window_tokens, 1, seed);
        let crossed = |plan: &ReplicationPlan| {
            let loc = plan.trace_locality(&trace, &cluster);
            loc.transitions - loc.local
        };
        static_cross += crossed(&initial);
        oracle_cross += crossed(&oracle_plan);
        for (acc, plan) in cross.iter_mut().zip(&plans) {
            *acc += crossed(plan);
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
                    units,
                    ONLINE_ORACLE_RESTARTS,
                    split_seed(seed, 0x0c0de ^ window as u64),
                    parallelism,
                )
            };
            let oracle_placement = oracle(Parallelism::single());
            for threads in CHECKED_WIDTHS {
                if oracle_placement != oracle(Parallelism::new(threads)) {
                    return Err(format!(
                        "{name}: oracle re-solve diverged across thread counts (1 vs {threads}) \
                         at window {window}"
                    ));
                }
            }
            oracle_plan = ReplicationPlan::bare(oracle_placement);

            // The served re-plan step under each policy's budget (the
            // budget caps migration traffic, not solver compute), with
            // gap-backend invariance verified on all three.
            let step = |objective: &Objective| {
                std::array::from_fn::<_, 3, _>(|i| {
                    replan(
                        objective,
                        &plans[i],
                        &configs[i],
                        cluster,
                        bytes_per_expert,
                        None,
                    )
                })
            };
            let steps = on_both_backends(&snapshot, step, |dense, sparse| {
                let i = (0..3).find(|&i| dense[i] != sparse[i]).unwrap_or(0);
                format!(
                    "{name}: {} re-plan diverged across gap backends at window {window}",
                    POLICIES[i]
                )
            })?;

            for (i, (next, plan, _)) in steps.into_iter().enumerate() {
                let who = format!("{name}: {}", POLICIES[i]);
                let budget = configs[i].migration_budget_bytes;
                within_byte_budget(&who, window, &plan, budget)?;
                if !plan.is_empty() {
                    tally[i].0 += plan.total_bytes();
                    tally[i].1 += 1;
                }
                if configs[i].replica_memory_bytes > 0 {
                    within_slot_budget(&who, window, &next, REPLICA_SLOTS)?;
                    replicas_added += plan.n_replica_adds() as u64;
                    replicas_dropped += plan.n_replica_drops() as u64;
                }
                plans[i] = next;
            }
        }
    }
    let [budgeted, _, joint] = &plans;
    let [budgeted_tally, owner_tally, joint_tally] = tally;
    let [budgeted_cross, owner_cross, joint_cross] = cross;

    // The reported objective: the budgeted placement scored on the final
    // live estimate, bit-compared across backends.
    let cross_mass = score_on_both_backends(
        &streaming.snapshot(),
        &format!("{name}: final cross mass"),
        |objective| objective.cross_mass(&budgeted.base),
    )?;
    let recovered = recovery(
        static_cross as f64,
        oracle_cross as f64,
        budgeted_cross as f64,
    );
    // Cross counts are realized cross-unit layer transitions summed over
    // every serving window — integers, so any drift across thread counts
    // or backends is unambiguous.
    Ok(Json::obj(vec![
        // Drift preset name (`piecewise-2phase`, `smooth`, ...).
        ("scenario", name.into()),
        // Experts per layer.
        ("experts", e.into()),
        // MoE layers.
        ("layers", layers.into()),
        // Serving windows.
        ("windows", windows.into()),
        // Windows between re-plans.
        ("replan_every", ONLINE_REPLAN_EVERY.into()),
        // Byte budget of one budgeted re-plan.
        ("budget_bytes", configs[0].migration_budget_bytes.into()),
        // Bytes the budgeted policy actually migrated, whole run.
        ("migrated_bytes", budgeted_tally.0.into()),
        // Budgeted re-plans that moved at least one expert.
        ("replans", budgeted_tally.1.into()),
        // Cross-unit transitions under the never-re-placed incumbent.
        ("static_cross", static_cross.into()),
        // Cross-unit transitions under from-scratch oracle re-solves.
        ("oracle_cross", oracle_cross.into()),
        // Cross-unit transitions under budgeted incremental re-placement.
        ("budgeted_cross", budgeted_cross.into()),
        // Fraction of the oracle's cross-traffic reduction the budgeted
        // policy recovers.
        ("recovery", Json::Fixed(recovered, 4)),
        // Final cross mass of the budgeted placement on the live estimate
        // (bit-identical across backends — verified).
        ("cross_mass", cross_mass.into()),
        // Byte budget of one owner-moves-only or joint re-plan (the same
        // for both, so they race at equal migration bytes).
        (
            "tight_budget_bytes",
            configs[1].migration_budget_bytes.into(),
        ),
        // Per-GPU replica memory budget of the joint policy, in expert
        // payloads.
        ("replica_slots", REPLICA_SLOTS.into()),
        // Bytes the owner-moves-only policy migrated, whole run.
        ("owner_migrated_bytes", owner_tally.0.into()),
        // Bytes the joint policy migrated (owner moves + replica fan-out).
        ("joint_migrated_bytes", joint_tally.0.into()),
        // Owner-moves-only re-plans that moved at least one expert.
        ("owner_replans", owner_tally.1.into()),
        // Joint re-plans that changed anything.
        ("joint_replans", joint_tally.1.into()),
        // Replica copies the joint policy created, whole run.
        ("replicas_added", replicas_added.into()),
        // Replica copies the joint policy retired, whole run.
        ("replicas_dropped", replicas_dropped.into()),
        // Worst-case extra replica copies any GPU holds at the end of the
        // joint run (must stay within `replica_slots`).
        ("extra_copies", joint.extra_copies_per_gpu().into()),
        // Cross-unit transitions under owner-moves-only re-placement.
        ("owner_cross", owner_cross.into()),
        // Cross-unit transitions under the joint policy.
        ("joint_cross", joint_cross.into()),
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
/// under five re-placement policies racing on the same windows (static
/// incumbent, oracle re-solve, and the served re-plan step as
/// byte-budgeted owner moves and, at a tighter byte budget,
/// owner-moves-only and joint replica + owner-move re-placement), recording realized cross-unit transition counts,
/// migrated bytes, replica churn and the recovery fraction — verified
/// bit-identical across thread counts and gap backends, and within every
/// byte and slot budget. Errors (instead of panicking) if any invariance
/// or budget check fails.
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
/// cross-traffic reduction. Every adaptive policy must stay within its
/// byte budget per re-plan, and the joint policy within its replica
/// slots. At equal migration bytes the joint policy must never cross more
/// than owner-moves-only, and must cross less on at least one scenario —
/// that is the memory-for-migration-bytes trade it exists to buy.
pub(crate) fn bars(rows: &[Json], bars: &mut Bars) {
    let mut joint_dominates_somewhere = rows.is_empty();
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
        if let Some(over) = over_byte_budget(f, "", "budget_bytes") {
            bars.fail(format!("online migration on {scenario}{over}"));
        }
        for policy in ["owner", "joint"] {
            if let Some(over) = over_byte_budget(f, &format!("{policy}_"), "tight_budget_bytes") {
                bars.fail(format!(
                    "replication migration ({policy}) on {scenario}{over}"
                ));
            }
        }
        let [extra, slots] = nums(f, ["extra_copies", "replica_slots"]);
        if extra > slots {
            bars.fail(format!(
                "replication memory on {scenario}: {extra} extra copies over the \
                 {slots}-slot per-GPU budget"
            ));
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
    // Share of the static incumbent's cross traffic a policy removed.
    let cut = |r: &Json, policy: &str| {
        let [stat, cross] = nums(r, ["static_cross", &format!("{policy}_cross")]);
        pct(ratio(stat - cross, stat))
    };
    let mib = |r: &Json, field: &str| format!("{} MiB", int(r, field) >> 20);
    render_section(
        "table_online: re-placement policies under routing drift\n\
         (cross = realized cross-GPU layer transitions, lower is better;\n \
         recovery = share of the oracle's reduction the budgeted policy keeps;\n \
         owner and joint spend the same tighter budget, and joint also holds\n \
         <= `slots` extra replica payloads per GPU; cut = share of static's cross removed)",
        &[
            ("scenario", &|r| text(r, "scenario")),
            ("windows", &|r| text(r, "windows")),
            ("static", &|r| text(r, "static_cross")),
            ("oracle", &|r| text(r, "oracle_cross")),
            ("budgeted", &|r| text(r, "budgeted_cross")),
            ("recovery", &|r| pct(num(r, "recovery"))),
            ("migrated", &|r| mib(r, "migrated_bytes")),
            ("budget/replan", &|r| mib(r, "budget_bytes")),
            ("owner", &|r| text(r, "owner_cross")),
            ("joint", &|r| text(r, "joint_cross")),
            ("owner cut", &|r| cut(r, "owner")),
            ("joint cut", &|r| cut(r, "joint")),
            ("tight/replan", &|r| mib(r, "tight_budget_bytes")),
            ("extra/slots", &|r| {
                format!("{}/{}", text(r, "extra_copies"), text(r, "replica_slots"))
            }),
            ("replicas +/-", &|r| {
                let (added, dropped) = (text(r, "replicas_added"), text(r, "replicas_dropped"));
                format!("+{added}/-{dropped}")
            }),
        ],
        rows,
    )
}
