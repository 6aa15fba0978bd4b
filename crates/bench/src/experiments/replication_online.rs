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

use exflow_core::json::Json;

use crate::fmt::{pct, render_table};
use crate::table::{num, text};

/// The rows as the printed table.
pub fn render(rows: &[Json]) -> String {
    let headers = [
        "scenario",
        "windows",
        "static",
        "owner",
        "joint",
        "owner rec",
        "joint rec",
        "slots",
        "extra",
        "replicas +/-",
    ];
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                text(r, "scenario"),
                text(r, "windows"),
                text(r, "static_cross"),
                text(r, "owner_cross"),
                text(r, "joint_cross"),
                pct(num(r, "owner_recovery")),
                pct(num(r, "joint_recovery")),
                text(r, "replica_slots"),
                text(r, "extra_copies"),
                format!(
                    "+{}/-{}",
                    text(r, "replicas_added"),
                    text(r, "replicas_dropped")
                ),
            ]
        })
        .collect();
    format!(
        "table_replication_online: joint replica + owner-move re-placement under drift\n\
         (cross = realized cross-GPU layer transitions, lower is better; recovery =\n \
         share of the static incumbent's cross traffic a policy eliminated; owner\n \
         and joint spend identical migration bytes — joint also holds <= `slots`\n \
         replica payloads per GPU)\n\n\
         {}\n",
        render_table(&headers, &body)
    )
}
