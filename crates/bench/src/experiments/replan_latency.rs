//! `table_replan_latency` — what a re-plan costs at scale, with and
//! without incremental objective maintenance.
//!
//! Every drift window is re-planned twice from the same incumbent: once
//! against a cold [`Objective`](exflow_placement::Objective) rebuilt from
//! the full streaming snapshot, and once against the delta-maintained
//! live objective with a held
//! [`SwapGainCache`](exflow_placement::SwapGainCache) buffer. The two
//! paths must land on bit-identical placements and cross masses for
//! identical solver work, so the table records *cost*: swap candidates
//! considered, how many of them needed an exact gain evaluation
//! (`evaluated`) against how many the attraction table decided alone
//! (`reused`), and the wall time of each path.

use crate::fmt::render_table;
use crate::summary::{replan_latency_table, ReplanLatencyRow};
use crate::Scale;

/// Regenerate the table rows (delegates to the `bench_summary` sweep so
/// the printed numbers are exactly the gated ones).
pub fn run(scale: Scale) -> Vec<ReplanLatencyRow> {
    replan_latency_table(scale, 20_240_522).expect("re-plan latency sweep invariance must hold")
}

/// Print the table.
pub fn print(scale: Scale) {
    println!("table_replan_latency: rebuild vs incremental re-plan cost at scale");
    println!("(both paths take the same budgeted moves from the same incumbent and");
    println!(" must produce bit-identical placements; `evaluated` = candidates that");
    println!(" needed an exact gain evaluation, `reused` = candidates the attraction");
    println!(" table decided alone, so the reduction column (considered / evaluated)");
    println!(" is an exact operation-count contrast, not a timing)\n");
    let rows = run(scale);
    let headers = vec![
        "preset",
        "windows",
        "replans",
        "considered",
        "eval rebuild",
        "eval incr",
        "reused",
        "reduction",
        "rebuild ms",
        "incr ms",
    ];
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.preset.clone(),
                r.windows.to_string(),
                r.replans.to_string(),
                r.considered.to_string(),
                r.evaluated_rebuild.to_string(),
                r.evaluated_incremental.to_string(),
                r.reused.to_string(),
                format!("{:.2}x", r.scan_reduction()),
                format!("{:.1}", r.wall_ms_rebuild),
                format!("{:.1}", r.wall_ms_incremental),
            ]
        })
        .collect();
    println!("{}", render_table(&headers, &body));
    if let Some(r) = rows.first() {
        println!(
            "\n(cross masses bit-identical on every row; {} budgeted moves per re-plan)",
            r.max_moves
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The sweep itself (bit-equality, counter identities, the bar at
    // E = 512) is exercised by `summary::tests`; re-running it here
    // would double the most expensive cell of the suite, so this module
    // only checks the presentation-layer arithmetic.
    #[test]
    fn scan_reduction_is_the_exact_counter_ratio() {
        let row = ReplanLatencyRow {
            preset: "MoE-GPT-XXL/512e-24L-top1".into(),
            n_experts: 512,
            k: 1,
            layers: 2,
            windows: 4,
            replans: 3,
            max_moves: 40,
            considered: 8_000_000,
            evaluated_rebuild: 1_000,
            evaluated_incremental: 1_000,
            reused: 7_999_000,
            wall_ms_rebuild: 900.0,
            wall_ms_incremental: 120.0,
            cross_mass_rebuild: 0.625,
            cross_mass_incremental: 0.625,
        };
        assert_eq!(row.scan_reduction(), 8000.0);
        let starved = ReplanLatencyRow {
            evaluated_incremental: 0,
            ..row
        };
        assert_eq!(starved.scan_reduction(), 0.0);
    }
}
