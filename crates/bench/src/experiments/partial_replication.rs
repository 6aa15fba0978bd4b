//! `table_partial_replication` — what replicating onto a *chosen subset*
//! of GPUs buys over the all-GPUs fan-out at equal memory.
//!
//! Each cell replays a drifting trace through the budgeted replicated
//! solver twice from the same incumbent at every re-plan: once under the
//! one-replica-per-node subset policy and once under the full fan-out.
//! Partial replication's candidate set strictly contains full's, so the
//! summed solver cross mass can never be worse — the table shows by how
//! much it is *better*, alongside the fan-out bytes each policy paid.
//! The trailing engine columns run the top-2 context-coherent serving
//! loop with replica-aware meeting-point dispatch and record whether the
//! gate arity actually exercised replicas (the regression this artifact
//! guards against is top-2 models silently falling back to owner-only
//! dispatch).

use exflow_affinity::StreamingAffinity;
use exflow_core::json::Json;
use exflow_core::{InferenceEngine, OnlineConfig, ParallelismMode, Scenario};
use exflow_model::presets::moe_gpt_m;
use exflow_model::routing::AffinityModelSpec;
use exflow_model::{ArrivalProcess, DriftSchedule, GateKind};
use exflow_placement::online::MigrationPlan;
use exflow_placement::{
    replicated_cross_mass, solve_budgeted_replicated_metered, split_seed, GapBackend, Objective,
    Parallelism, ReplicaPolicy, ReplicationBudget, ReplicationPlan,
};
use exflow_topology::ClusterSpec;

use crate::experiments::common::{
    at_widths, calibrate_serving, greedy_incumbent, on_both_backends, over_byte_budget,
    window_trace, within_byte_budget, within_slot_budget, Bits, Workload, N_UNITS_LARGE,
    ONLINE_DECAY, ONLINE_UNITS, SERVING_D_FF, SERVING_UTILIZATION, SERVING_WINDOWS,
};
use crate::table::{num, nums, render_section, text, Bars};

/// Expert moves one `table_partial_replication` re-plan may migrate —
/// identical for the partial and everywhere policies, so the race is at
/// equal traffic.
const PARTIAL_BUDGET_MOVES: u64 = 12;

/// Extra replica payloads each GPU may hold in every
/// `table_partial_replication` cell — identical for both policies, so the
/// race is at equal memory. Partial fan-out ships fewer copies per
/// replicated expert, which is exactly the edge the sweep measures.
const PARTIAL_REPLICA_SLOTS: u64 = 4;

/// Measure one `table_partial_replication` cell. Every re-plan races the
/// one-per-node and everywhere fan-out policies from the *same* shared
/// incumbent at equal budgets; the partial winner becomes the next
/// incumbent. The engine leg serves drifting requests through the
/// context-coherent serving loop under the subset policy and verifies
/// bit-identity at 1/2/8 solver threads and across gap backends.
fn cell(e: usize, gate: GateKind, seed: u64) -> Result<Json, String> {
    let k = gate.k();
    let scenario = format!("E{e}/top{k}");
    let (units, cluster, layers, windows, window_tokens) = if e <= 16 {
        (ONLINE_UNITS, ClusterSpec::new(2, 2).unwrap(), 4, 6, 1500)
    } else {
        (N_UNITS_LARGE, ClusterSpec::new(2, 4).unwrap(), 2, 3, 2000)
    };
    let bytes_per_expert = moe_gpt_m(e).expert_params() * 2;
    let budget_bytes = PARTIAL_BUDGET_MOVES * bytes_per_expert;
    let budget = ReplicationBudget {
        replica_memory_bytes: PARTIAL_REPLICA_SLOTS * bytes_per_expert,
        migration_budget_bytes: budget_bytes,
    };
    let partial_policy = ReplicaPolicy::OnePerNode(cluster);

    let spec = AffinityModelSpec::new(layers, e).with_seed(seed ^ 0x9a_7d_11);
    let drift = DriftSchedule::piecewise(&spec, 2, windows);

    let mut streaming = StreamingAffinity::new(layers, e, ONLINE_DECAY);
    streaming.observe(&window_trace(&drift, 0, window_tokens, k, seed ^ 0x0ff1));
    let initial = greedy_incumbent(&Objective::from_snapshot(&streaming.snapshot()), units);
    let mut incumbent = ReplicationPlan::bare(initial);

    let mut realized_cross = 0u64;
    let (mut partial_cm, mut full_cm) = (0.0f64, 0.0f64);
    let (mut partial_migrated, mut full_migrated) = (0u64, 0u64);
    let mut partial_replans = 0usize;
    let mut replicas_added = 0u64;
    let mut full_extra_copies = 0u64;

    for window in 0..windows {
        let trace = window_trace(&drift, window, window_tokens, k, seed);
        let loc = incumbent.trace_locality(&trace, &cluster);
        realized_cross += loc.transitions - loc.local;
        streaming.observe(&trace);

        if window + 1 < windows {
            let snapshot = streaming.snapshot();
            let solve_both = |policy: &ReplicaPolicy| -> Result<(ReplicationPlan, f64), String> {
                let solve = |objective: &Objective| {
                    let bpe = bytes_per_expert;
                    let (next, _) = solve_budgeted_replicated_metered(
                        objective,
                        &incumbent,
                        bpe,
                        &budget,
                        policy,
                        u64::MAX,
                        None,
                    );
                    let cm = Bits(replicated_cross_mass(objective, &next));
                    (next, cm)
                };
                let (next, Bits(cm)) = on_both_backends(&snapshot, solve, |dense, sparse| {
                    let what = if dense.0 != sparse.0 {
                        format!("{policy:?} solve")
                    } else {
                        "replicated cross mass".to_string()
                    };
                    format!("{scenario}: {what} diverged across gap backends at window {window}")
                })?;
                Ok((next, cm))
            };

            let (partial_next, cm_p) = solve_both(&partial_policy)?;
            let (full_next, cm_f) = solve_both(&ReplicaPolicy::Everywhere)?;
            if cm_p > cm_f {
                return Err(format!(
                    "{scenario}: partial fan-out lost to full at equal memory at window \
                     {window} ({cm_p} vs {cm_f})"
                ));
            }
            partial_cm += cm_p;
            full_cm += cm_f;

            let who = format!("{scenario}:");
            for (next, migrated) in [
                (&partial_next, &mut partial_migrated),
                (&full_next, &mut full_migrated),
            ] {
                let diff = MigrationPlan::between_replicated(&incumbent, next, bytes_per_expert);
                within_byte_budget(&who, window, &diff, budget_bytes)?;
                within_slot_budget(&who, window, next, PARTIAL_REPLICA_SLOTS)?;
                *migrated += diff.total_bytes();
            }
            let diff =
                MigrationPlan::between_replicated(&incumbent, &partial_next, bytes_per_expert);
            if !diff.is_empty() {
                partial_replans += 1;
                replicas_added += diff.n_replica_adds() as u64;
            }
            full_extra_copies = full_next.extra_copies_per_gpu() as u64;
            incumbent = partial_next;
        }
    }

    // The engine leg: the context-coherent serving loop (256 requests,
    // Poisson arrivals at the serving cells' load, batch cap and decode
    // steps) dispatching with the meeting-point rule under the
    // one-per-node policy, verified bit-identical at 1/2/8 solver threads
    // and across gap backends.
    let cc_engine = |threads: usize, backend: GapBackend| {
        let mut model = moe_gpt_m(e).with_gate(gate);
        model.n_layers = if e <= 16 { 4 } else { 2 };
        model.d_ff = SERVING_D_FF;
        let engine_bpe = model.expert_params() * 2;
        InferenceEngine::builder(model, ClusterSpec::new(2, 2).unwrap())
            .prompt_len(4)
            .profile_tokens(400)
            .parallelism(Parallelism::new(threads))
            .gap_backend(backend)
            .online(OnlineConfig {
                replan_every: 1,
                drift_threshold: 0.08,
                migration_budget_bytes: PARTIAL_BUDGET_MOVES * engine_bpe,
                decay: 0.3,
                replica_memory_bytes: PARTIAL_REPLICA_SLOTS * engine_bpe,
                ..OnlineConfig::default()
            })
            .seed(seed ^ 0x77_aa_01)
            .build()
    };
    let mode = ParallelismMode::ContextCoherentAffinity;
    let probe = cc_engine(1, GapBackend::Dense);
    let (rate, _, config) = calibrate_serving(&probe, mode, SERVING_UTILIZATION, 256)?;
    let drift = DriftSchedule::piecewise(&probe.config().routing_spec, 2, SERVING_WINDOWS);
    let cc_scenario = Scenario::offline(mode)
        .with_drift(drift)
        .with_serving(config(ArrivalProcess::poisson(rate)));
    let cc_run = |threads, backend| cc_engine(threads, backend).run_scenario(&cc_scenario);
    let baseline = at_widths(&format!("{scenario}: CC serving run"), cc_run)?.expect_serving();

    Ok(Json::obj(vec![
        // Cell label (`E16/top1`, `E256/top2`, ...).
        ("scenario", scenario.as_str().into()),
        // Experts per layer.
        ("experts", e.into()),
        // Gating fan-out the window traces are sampled with.
        ("k", k.into()),
        // MoE layers of the placement instance.
        ("layers", layers.into()),
        // GPUs the instance is placed across.
        ("units", units.into()),
        // Serving windows.
        ("windows", windows.into()),
        // Extra replica payloads each GPU may hold (both policies).
        ("replica_slots", PARTIAL_REPLICA_SLOTS.into()),
        // Migration byte budget of one re-plan (both policies).
        ("budget_bytes", budget_bytes.into()),
        // Re-plans where the partial policy changed the plan.
        ("partial_replans", partial_replans.into()),
        // Replica copies the partial policy created, summed over re-plans
        // (each ships only to its chosen subset).
        ("replicas_added", replicas_added.into()),
        // Bytes the partial-policy re-plans actually migrated.
        ("partial_migrated_bytes", partial_migrated.into()),
        // Bytes the everywhere-policy solves would have migrated from the
        // same incumbents.
        ("full_migrated_bytes", full_migrated.into()),
        // Final worst-case extra copies per GPU under the partial policy.
        (
            "partial_extra_copies",
            incumbent.extra_copies_per_gpu().into(),
        ),
        // Worst-case extra copies per GPU of the last everywhere solve.
        ("full_extra_copies", full_extra_copies.into()),
        // Replicated cross mass of the partial solves, summed over
        // re-plans (bit-identical across gap backends — verified).
        ("partial_cross_mass", partial_cm.into()),
        // Replicated cross mass of the everywhere solves from the same
        // incumbents, summed over re-plans.
        ("full_cross_mass", full_cm.into()),
        // Realized cross-unit transitions of the partial trajectory on the
        // window traces, each hop served where `ReplicationPlan::serve` sends it.
        ("realized_cross", realized_cross.into()),
        // Replica copies the context-coherent serving run created under
        // the one-per-node policy (top-2 rows must not fall back to zero).
        (
            "cc_replicas_added",
            baseline.migrations.replicas_added.into(),
        ),
        // GPU-local dispatch fraction of that serving run.
        (
            "cc_local_fraction",
            Json::Fixed(baseline.dispatch.gpu_local_fraction(), 6),
        ),
    ]))
}

/// The `table_partial_replication` sweep: partial vs full replica fan-out
/// at `E ∈ {16, 256} × top-1/top-2`, one `cell` per grid
/// point. Errors (instead of panicking) if any cell fails its
/// invariance or budget checks. The table's bar — some context-coherent
/// top-2 cell buys a replica — is the regression the sweep exists to
/// catch: top-2 models silently falling back to owner-moves-only
/// re-planning.
pub fn sweep(w: &Workload) -> Result<Vec<Json>, String> {
    let grid = [
        (16usize, GateKind::Top1),
        (16, GateKind::Top2),
        (256, GateKind::Top1),
        (256, GateKind::Top2),
    ];
    grid.iter()
        .map(|&(e, gate)| {
            let stream = w.seed ^ ((e as u64) << 24) ^ gate.k() as u64;
            cell(e, gate, split_seed(stream, 0x9a47))
        })
        .collect()
}

/// On every cell the subset policy — which races the full fan-out from
/// the same incumbent at the same memory and migration budgets — must
/// never lose to full replication in solver cross mass, both policies
/// must respect the per-GPU slot and per-re-plan byte budgets, and at
/// least one top-2 CC engine row must actually place replicas (the
/// regression the sweep exists to catch is top-2 models silently falling
/// back to owner-only serving).
pub(crate) fn bars(rows: &[Json], bars: &mut Bars) {
    let mut top2_uses_replicas = rows.is_empty();
    for f in rows {
        let scenario = text(f, "scenario");
        let [partial, full] = nums(f, ["partial_cross_mass", "full_cross_mass"]);
        if partial > full {
            bars.fail(format!(
                "partial replication on {scenario}: subset policy crossed {partial} vs full \
                 fan-out's {full} at equal memory"
            ));
        }
        let slots = num(f, "replica_slots");
        for policy in ["partial", "full"] {
            let extra = num(f, &format!("{policy}_extra_copies"));
            if extra > slots {
                bars.fail(format!(
                    "partial replication on {scenario}: {policy} policy holds {extra} \
                     extra copies over the {slots}-slot per-GPU budget"
                ));
            }
        }
        if let Some(over) = over_byte_budget(f, "partial_", "budget_bytes") {
            bars.fail(format!("partial replication on {scenario}{over}"));
        }
        top2_uses_replicas |= num(f, "k") == 2.0 && num(f, "cc_replicas_added") > 0.0;
    }
    if !top2_uses_replicas {
        bars.fail(
            "partial replication: no top-2 CC row placed a replica \
             (top-2 dispatch fell back to owner-only serving)"
                .to_string(),
        );
    }
}

/// The rows as the printed table.
pub fn render(rows: &[Json]) -> String {
    let mib = |r: &Json, key: &str| format!("{:.1}", num(r, key) / (1 << 20) as f64);
    let table = render_section(
        "table_partial_replication: subset vs full replica fan-out at equal memory\n\
         (both policies race from the same incumbent at the same slot and byte\n \
         budgets; `partial`/`full cross` sum the solver objective over every\n \
         re-plan, `cc repl` counts replicas the top-2 CC serving engine placed\n \
         under replica-aware meeting-point dispatch)",
        &[
            ("scenario", &|r| text(r, "scenario")),
            ("k", &|r| text(r, "k")),
            ("windows", &|r| text(r, "windows")),
            ("replans", &|r| text(r, "partial_replans")),
            ("repl added", &|r| text(r, "replicas_added")),
            ("partial cross", &|r| {
                format!("{:.4}", num(r, "partial_cross_mass"))
            }),
            ("full cross", &|r| {
                format!("{:.4}", num(r, "full_cross_mass"))
            }),
            ("partial MiB", &|r| mib(r, "partial_migrated_bytes")),
            ("full MiB", &|r| mib(r, "full_migrated_bytes")),
            ("copies p/f", &|r| {
                let (partial, full) = (
                    text(r, "partial_extra_copies"),
                    text(r, "full_extra_copies"),
                );
                format!("{partial}/{full}")
            }),
            ("cc repl", &|r| text(r, "cc_replicas_added")),
            ("cc local", &|r| {
                format!("{:.3}", num(r, "cc_local_fraction"))
            }),
        ],
        rows,
    );
    let losses = rows
        .iter()
        .filter(|r| num(r, "partial_cross_mass") > num(r, "full_cross_mass"))
        .count();
    format!(
        "{table}\n\
         ({losses} of {} rows where the subset policy loses to the full fan-out; \
         the perf-gate requires 0)\n",
        rows.len()
    )
}
