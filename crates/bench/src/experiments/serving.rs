//! `table_serving` — the request-level serving front-end: p50/p95/p99
//! request latency, goodput, and re-placement activity for the static
//! incumbent vs budgeted-online vs replication-aware placements, under
//! three arrival processes (Poisson, diurnal, flash-crowd).
//!
//! This is the tail-latency counterpart of `table_online`: the offline
//! tables show how much *step time* affinity placement saves; this table
//! shows what that buys (or costs, once migration stalls are priced in)
//! at the *request* level, where queueing near saturation amplifies
//! per-step differences into p99 gaps. The budgeted-online policy spends
//! the full migration-byte budget on owner moves; the replication-aware
//! policy gets half the migration bytes plus a per-GPU replica-memory
//! budget, and its joint solve decides whether replica fan-out (which
//! costs `n_units - 1` payloads per replica) ever beats direct moves on
//! these slow inter-node links.

use exflow_core::json::Json;

use crate::fmt::{render_table, speedup, us};
use crate::summary::ratio;
use crate::table::{num, text};

/// The rows as the printed table: one line per (arrival, policy).
pub fn render(rows: &[Json]) -> String {
    let headers = [
        "arrival", "policy", "p50 us", "p95 us", "p99 us", "x static", "goodput", "replans",
    ];
    let mut body: Vec<Vec<String>> = Vec::new();
    for r in rows {
        for policy in ["static", "online", "repl"] {
            let p99 = num(r, &format!("{policy}_p99"));
            body.push(vec![
                text(r, "arrival"),
                policy.to_string(),
                us(num(r, &format!("{policy}_p50"))),
                us(num(r, &format!("{policy}_p95"))),
                us(p99),
                // Static p99 over this policy's p99: > 1 exactly when the
                // adaptive policy improves the tail over never re-placing.
                speedup(ratio(num(r, "static_p99"), p99)),
                // Requests per virtual second.
                format!("{:.0}", num(r, &format!("{policy}_goodput"))),
                if policy == "static" {
                    "0".to_string()
                } else {
                    text(r, "online_replans")
                },
            ]);
        }
    }
    let mut out = format!(
        "table_serving: request-level tail latency under non-stationary arrivals\n\
         (latencies in virtual microseconds; goodput in completed requests per\n \
         virtual second; `x static` = static p99 over this policy's p99, > 1.00\n \
         exactly when adaptive re-placement protects the tail; online spends the\n \
         full migration-byte budget, repl gets half the bytes plus replica memory)\n\n\
         {}\n",
        render_table(&headers, &body)
    );
    if let Some(r) = rows.first() {
        out.push_str(&format!(
            "\n({} requests per cell, {} decode steps each, batch cap {}, {} serving windows)\n",
            text(r, "requests"),
            text(r, "decode_steps"),
            text(r, "max_batch"),
            text(r, "windows")
        ));
    }
    out
}
