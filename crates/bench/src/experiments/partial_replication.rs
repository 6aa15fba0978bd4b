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

use exflow_core::json::Json;

use crate::table::{num, render_section, text};

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
