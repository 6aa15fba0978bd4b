//! `table_elasticity` — fault tolerance at the request level: the same
//! Poisson arrival sample served through a mid-run GPU loss (and a
//! loss-and-rejoin cycle) by two fleets that differ only in replication.
//!
//! The unreplicated fleet must emergency-restore the dead GPU's experts
//! over inter-node links (priced, contending with serving steps); the
//! fully replicated fleet fails over to live copies for free. The table
//! reports what that buys where it matters: disrupted requests, degraded
//! steps, emergency bytes shipped, and how long the latency tail takes
//! to return to its pre-fault p99 (`recovery`, `-` when the tail never
//! recovers within the run).

use exflow_core::json::Json;

use crate::fmt::{render_table, us};
use crate::table::{num, text};

/// The rows as the printed table: one line per (fault, fleet).
pub fn render(rows: &[Json]) -> String {
    let headers = [
        "fault",
        "fleet",
        "p99 us",
        "disrupted",
        "degraded",
        "emerg MB",
        "recovery us",
    ];
    let mut body: Vec<Vec<String>> = Vec::new();
    for r in rows {
        for (fleet, prefix) in [("no-repl", "plain"), ("repl", "repl")] {
            // `-1` = the tail never recovered, rendered as `-`.
            let recovery = num(r, &format!("{prefix}_recovery"));
            body.push(vec![
                text(r, "fault"),
                fleet.to_string(),
                us(num(r, &format!("{prefix}_p99"))),
                text(r, &format!("{prefix}_disrupted")),
                text(r, &format!("{prefix}_steps_degraded")),
                format!("{:.2}", num(r, &format!("{prefix}_emergency_bytes")) / 1e6),
                if recovery < 0.0 {
                    "-".to_string()
                } else {
                    us(recovery)
                },
            ]);
        }
    }
    let mut out = format!(
        "table_elasticity: GPU loss and recovery under continuous serving\n\
         (latencies and recovery in virtual microseconds; `no-repl` restores the\n \
         dead GPU's experts over the wire, `repl` holds a live copy of every\n \
         expert and fails over for free; recovery = time until the rolling p99\n \
         over the last 32 completions returns to the pre-fault p99, `-` = never)\n\n\
         {}\n",
        render_table(&headers, &body)
    );
    if let Some(r) = rows.first() {
        out.push_str(&format!(
            "\n({} requests per cell; the fault lands at t = {} virtual us)\n",
            text(r, "requests"),
            us(num(r, "fault_time"))
        ));
    }
    out
}
