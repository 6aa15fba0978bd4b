//! `table_replan_latency` — what a re-plan costs at scale, with and
//! without incremental objective maintenance.
//!
//! Every drift window is re-planned twice from the same incumbent: once
//! against a cold [`Objective`](exflow_placement::Objective) rebuilt from
//! the full streaming snapshot, and once against the delta-maintained
//! live objective with a held
//! [`SwapGainCache`](exflow_placement::SwapGainCache) buffer. The two
//! paths must land on bit-identical placements and cross masses for
//! identical solver work, so the table records *cost* as operation
//! counts: swap candidates considered, how many of them needed an exact
//! gain evaluation (`evaluated`) against how many the attraction table
//! decided alone (`reused`). What a re-plan costs on the host clock is
//! `benchmark/`'s `replan-e512` workload.

use exflow_core::json::Json;

use crate::table::{num, render_section, text};

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
