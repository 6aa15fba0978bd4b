//! `table_replan_latency` — what a re-plan costs at scale, with and
//! without incremental objective maintenance.
//!
//! Every drift window is re-planned twice from the same incumbent by the
//! re-plan step serving runs ([`exflow_core::replan`], owner moves only):
//! once against a cold [`Objective`] rebuilt from the full streaming
//! snapshot, and once against the delta-maintained live objective with a
//! held [`SwapGainCache`] buffer. The two
//! paths must land on bit-identical placements and cross masses for
//! identical solver work, so the table records *cost* as operation
//! counts: swap candidates considered, how many of them needed an exact
//! gain evaluation (`evaluated`) against how many the attraction table
//! decided alone (`reused`). What a re-plan costs on the host clock is
//! `benchmark/`'s `replan-e512` workload.

use exflow_affinity::StreamingAffinity;
use exflow_core::json::Json;
use exflow_core::{replan, OnlineConfig};
use exflow_model::presets::large_zoo;
use exflow_model::routing::AffinityModelSpec;
use exflow_model::{DriftSchedule, ModelConfig};
use exflow_placement::{Objective, ReplicationPlan, SwapGainCache};

use crate::experiments::common::{
    cluster_for, greedy_incumbent, ratio, window_trace, Workload, N_UNITS_LARGE, ONLINE_DECAY,
};
use crate::sweep::par_map;
use crate::table::{num, nums, render_section, text, Bars};

/// Expert moves one `table_replan_latency` re-plan may relocate. Each
/// accepted move costs the budgeted descent one full candidate rescan,
/// so this also sets how many rescans the rebuild path pays per re-plan
/// — the cost the incremental path's cache collapses to `O(dirty)`.
const REPLAN_LATENCY_MOVES: u64 = 40;

/// Tokens per `table_replan_latency` window. Deliberately
/// lean: the sweep studies solver latency on *sparse* instances, where a
/// swap's dirty set (the swapped experts plus their structural
/// neighbors) is a small fraction of the `E(E-1)` candidate space — the
/// regime the cache's `O(dirty)` rescan contract targets.
const REPLAN_LATENCY_TOKENS: usize = 800;

/// Layers of every `table_replan_latency` instance. Two layers (one gap)
/// keep the `E = 512` cells affordable while still exercising both the
/// successor (CSR-row) and predecessor (CSC-column) invalidation paths.
const REPLAN_LATENCY_LAYERS: usize = 2;

/// On every `E = 512` `table_replan_latency` cell the re-plan's attraction
/// table must decide all but one in this many considered swap candidates
/// without an exact gain evaluation (`considered / evaluated`; the
/// acceptance bar of the incremental re-plan engine). Like the sparse
/// bar, this is an operation count, so it holds on any runner. The sweep
/// measures 26 703x and 40 166x; the bar leaves a tenfold margin below that.
pub const MIN_REPLAN_SCAN_REDUCTION_512: f64 = 2500.0;

/// Measure one `table_replan_latency` cell: drift one large-expert
/// instance through a window stream and re-plan after every window along
/// two lockstep paths sharing one incumbent —
///
/// * **rebuild**: `Objective::from_snapshot` on the live estimate (paid
///   every re-plan), then the re-plan step building its attraction table
///   locally;
/// * **incremental**: `Objective::apply_snapshot_delta` with the
///   window's `SnapshotDelta`, then the same step in a persistent
///   [`SwapGainCache`] buffer.
///
/// Every re-plan verifies the two objectives are equal, both paths pick
/// the same placement for the same `ReplanCost`, and — at the end — score
/// bit-identical cross mass. Any divergence is an `Err`:
/// it would mean incremental maintenance broke the determinism contract
/// and the JSON must not be published.
fn cell(cfg: &ModelConfig, seed: u64) -> Result<Json, String> {
    let e = cfg.n_experts;
    let k = cfg.gate.k();
    let layers = REPLAN_LATENCY_LAYERS;
    let windows = 3;
    let window_tokens = REPLAN_LATENCY_TOKENS;
    let spec = AffinityModelSpec::new(layers, e).with_seed(seed);
    let drift = DriftSchedule::piecewise(&spec, 2, windows);

    // Window 0 profiles the instance; both paths start from the same
    // snapshot-built objective and the same greedy-plus-polish incumbent.
    let mut streaming = StreamingAffinity::new(layers, e, ONLINE_DECAY);
    streaming.observe(&window_trace(&drift, 0, window_tokens, 1, seed ^ 0x0ff1));
    let mut live = Objective::from_snapshot(&streaming.snapshot());
    let mut cache = SwapGainCache::for_objective(&live);
    let mut plan = ReplicationPlan::bare(greedy_incumbent(&live, N_UNITS_LARGE));
    let cluster = cluster_for(N_UNITS_LARGE);
    let bytes_per_expert = cfg.expert_params() * 2;
    let oc = OnlineConfig {
        migration_budget_bytes: REPLAN_LATENCY_MOVES * bytes_per_expert,
        ..OnlineConfig::default()
    };
    let step =
        |objective: &Objective, plan: &ReplicationPlan, cache: Option<&mut SwapGainCache>| {
            replan(objective, plan, &oc, cluster, bytes_per_expert, cache)
        };

    let mut replans = 0usize;
    let (mut considered, mut evaluated_rebuild) = (0u64, 0u64);
    let (mut evaluated_incremental, mut reused) = (0u64, 0u64);

    for window in 1..windows {
        let trace = window_trace(&drift, window, window_tokens, 1, seed);
        let delta = streaming.observe_delta(&trace);

        // Rebuild path: pay the full objective reconstruction, then the
        // solve on a local table.
        let rebuilt = Objective::from_snapshot(&streaming.snapshot());
        let (next_rebuild, moved, cost_rebuild) = step(&rebuilt, &plan, None);

        // Incremental path: splice the window delta into the persistent
        // objective, then the solve in the held buffer.
        live.apply_snapshot_delta(&delta);
        let (next_incremental, _, cost_incremental) = step(&live, &plan, Some(&mut cache));

        if live != rebuilt {
            return Err(format!(
                "{}: delta-maintained objective diverged from the rebuild at window {window}",
                cfg.name
            ));
        }
        if next_incremental != next_rebuild {
            return Err(format!(
                "{}: cached incremental re-plan diverged from the rebuild at window {window}",
                cfg.name
            ));
        }
        if cost_rebuild != cost_incremental {
            return Err(format!(
                "{}: solver work differs at window {window}: {cost_rebuild:?} on a local \
                 table vs {cost_incremental:?} in the held buffer",
                cfg.name
            ));
        }
        considered += cost_rebuild.considered;
        evaluated_rebuild += cost_rebuild.evaluated;
        evaluated_incremental += cost_incremental.evaluated;
        reused += cost_incremental.reused;
        if !moved.is_empty() {
            replans += 1;
        }
        plan = next_rebuild;
    }

    let cm_rebuild = Objective::from_snapshot(&streaming.snapshot()).cross_mass(&plan.base);
    let cm_incremental = live.cross_mass(&plan.base);
    if cm_rebuild.to_bits() != cm_incremental.to_bits() {
        return Err(format!(
            "{}: final cross mass diverged: rebuild {cm_rebuild} vs incremental {cm_incremental}",
            cfg.name
        ));
    }

    Ok(Json::obj(vec![
        // Large-zoo preset name.
        ("preset", cfg.name.as_str().into()),
        // Experts per layer.
        ("experts", e.into()),
        // Gating fan-out the instance was sampled with.
        ("k", k.into()),
        // Layers of the drifting instance.
        ("layers", layers.into()),
        // Serving windows (window 0 profiles; every later window re-plans).
        ("windows", windows.into()),
        // Re-plans that actually moved at least one expert.
        ("replans", replans.into()),
        // Expert-move budget of each re-plan.
        ("max_moves", REPLAN_LATENCY_MOVES.into()),
        // Swap candidates the scan loops looked at, summed over every
        // re-plan — identical on both paths (verified; the meter charges
        // every candidate alike).
        ("considered", considered.into()),
        // Candidates the rebuild path decided by an exact `swap_delta`
        // call (both paths run the same table-driven solver: equals
        // `evaluated_incremental`, verified).
        ("evaluated_rebuild", evaluated_rebuild.into()),
        // Candidates the incremental path decided by an exact `swap_delta`
        // call.
        ("evaluated_incremental", evaluated_incremental.into()),
        // Candidates the incremental path's attraction table decided alone
        // (`considered - evaluated_incremental`).
        ("reused", reused.into()),
        // Candidates considered per exact gain evaluation paid — how much
        // of the scan the attraction table answers, which the acceptance
        // bar gates at `E = 512`.
        (
            "scan_reduction",
            Json::Fixed(ratio(considered as f64, evaluated_incremental as f64), 3),
        ),
        // Final cross mass of the rebuild path's placement on its
        // objective (bit-identical to the incremental path's — verified).
        ("cross_mass_rebuild", cm_rebuild.into()),
        // Final cross mass of the incremental path's placement on its
        // delta-maintained objective.
        ("cross_mass_incremental", cm_incremental.into()),
    ]))
}

/// The `table_replan_latency` sweep over the large-expert zoo
/// (`E = 256/512`, top-1 and top-2): what a re-plan costs in solver work
/// with and without incremental objective maintenance, one `cell` per
/// preset. Errors if any cell's paths diverge.
pub fn sweep(w: &Workload) -> Result<Vec<Json>, String> {
    let cells = par_map(large_zoo(), |cfg| {
        let stream = w.seed ^ ((cfg.n_experts as u64) << 20) ^ cfg.gate.k() as u64 ^ 0x9e37;
        cell(&cfg, stream)
    });
    cells.into_iter().collect()
}

/// The delta-maintained objective must land bit-identical to the cold
/// rebuild (the shortest-round-trip cross masses parse back to the bits
/// the sweep held), and at E = 512 the re-plan must consider at least
/// [`MIN_REPLAN_SCAN_REDUCTION_512`] candidates per exact gain evaluation.
/// The bar is checked on the exact integer counters rather than the
/// 3-decimal-rounded `scan_reduction` field (and a re-plan that needed no
/// exact evaluation at all passes it).
pub(crate) fn bars(rows: &[Json], bars: &mut Bars) {
    for f in rows {
        let preset = text(f, "preset");
        let [rebuild, incremental] = nums(f, ["cross_mass_rebuild", "cross_mass_incremental"]);
        if rebuild.to_bits() != incremental.to_bits() {
            bars.fail(format!(
                "replan-latency on {preset}: incremental cross mass {} diverged from the \
                 rebuild's {} — incremental maintenance must be bit-identical",
                text(f, "cross_mass_incremental"),
                text(f, "cross_mass_rebuild")
            ));
        }
        let [considered, evaluated] = nums(f, ["considered", "evaluated_incremental"]);
        if num(f, "experts") == 512.0 && considered < MIN_REPLAN_SCAN_REDUCTION_512 * evaluated {
            bars.fail(format!(
                "replan-latency on {preset} considered {considered} candidates for {evaluated} \
                 exact evaluations, below the {MIN_REPLAN_SCAN_REDUCTION_512:.0}x acceptance bar"
            ));
        }
    }
}

/// The rows as the printed table.
pub fn render(rows: &[Json]) -> String {
    let mut out = render_section(
        "table_replan_latency: rebuild vs incremental re-plan cost at scale\n\
         (both paths take the same budgeted moves from the same incumbent and\n \
         must produce bit-identical placements; `evaluated` = candidates that\n \
         needed an exact gain evaluation, `reused` = candidates the attraction\n \
         table decided alone, so the reduction column (considered / evaluated)\n \
         is an exact operation-count contrast, not a timing)",
        &[
            ("preset", &|r| text(r, "preset")),
            ("windows", &|r| text(r, "windows")),
            ("replans", &|r| text(r, "replans")),
            ("considered", &|r| text(r, "considered")),
            ("eval rebuild", &|r| text(r, "evaluated_rebuild")),
            ("eval incr", &|r| text(r, "evaluated_incremental")),
            ("reused", &|r| text(r, "reused")),
            ("reduction", &|r| {
                format!("{:.2}x", num(r, "scan_reduction"))
            }),
        ],
        rows,
    );
    if let Some(r) = rows.first() {
        out.push_str(&format!(
            "\n(cross masses bit-identical on every row; {} budgeted moves per re-plan)\n",
            text(r, "max_moves")
        ));
    }
    out
}
