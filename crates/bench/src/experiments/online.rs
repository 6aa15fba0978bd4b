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

use exflow_core::json::Json;

use crate::fmt::pct;
use crate::table::{int, num, render_section, text};

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
