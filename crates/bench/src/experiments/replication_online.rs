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

use crate::fmt::pct;
use crate::table::{num, render_section, text};

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
