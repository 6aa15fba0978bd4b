//! The CI perf-gate: compare a fresh bench summary against the committed
//! baseline (`BENCH_BASELINE.json`).
//!
//! Objectives (`cross_mass`, `nnz`, ...) are deterministic facts — they
//! are printed with shortest round-trip formatting, so *token* inequality
//! in the JSON is *bit* inequality of the value, and any mismatch is a
//! hard failure (the baseline must be regenerated deliberately, never
//! drift silently). Wall-clock numbers are machine-dependent measurements:
//! regressions beyond [`WALL_REGRESSION_WARN`] only produce warnings for
//! the job summary, because CI runners are noisy.
//!
//! Both documents are parsed with the workspace's one JSON layer
//! (`exflow_core::json`), and everything the gate checks is listed in one
//! place: the [`SECTIONS`] table names, per array section of the summary,
//! the fields that identify a row, the fields compared bit for bit, the
//! wall-clock fields that only warn, and the acceptance bars the fresh
//! rows must clear on their own. Adding a section or a gated field is one
//! table entry.

use exflow_core::json::Json;

use crate::summary::SCHEMA;

/// Fractional wall-clock regression beyond which a warning is emitted
/// (fresh > 1.25x baseline).
pub const WALL_REGRESSION_WARN: f64 = 1.25;

/// Wall measurements shorter than this (milliseconds) are never compared:
/// at micro scale the noise floor dwarfs any real regression.
pub const WALL_FLOOR_MS: f64 = 5.0;

/// The sparse backend must beat dense by at least this factor on the
/// `E = 512`, top-1 cell (the acceptance bar of the sparse backend).
pub const MIN_SPARSE_SPEEDUP_512: f64 = 2.0;

/// Budgeted incremental re-placement must recover at least this fraction
/// of the oracle re-solve's cross-traffic reduction on every
/// `table_online` scenario (the acceptance bar of the online subsystem).
pub const MIN_ONLINE_RECOVERY: f64 = 0.8;

/// On every `E = 512` `table_replan_latency` cell the re-plan's attraction
/// table must decide all but one in this many considered swap candidates
/// without an exact gain evaluation (`considered / evaluated`; the
/// acceptance bar of the incremental re-plan engine). Like the sparse
/// bar, this is an operation-count — not wall-clock — contrast, so it
/// holds on 1-core runners too. The quick sweep measures 26 703x and
/// 40 166x; the bar leaves a tenfold margin below that.
pub const MIN_REPLAN_SCAN_REDUCTION_512: f64 = 2500.0;

/// Outcome of a baseline comparison.
#[derive(Debug, Clone, Default)]
pub struct GateReport {
    /// Hard failures: objective drift, schema/coverage mismatches, a
    /// fresh run below an acceptance bar.
    pub drifts: Vec<String>,
    /// Soft findings: wall-clock regressions beyond the noise allowance.
    pub warnings: Vec<String>,
}

impl GateReport {
    /// Whether the gate passes (warnings allowed, drifts not).
    pub fn ok(&self) -> bool {
        self.drifts.is_empty()
    }

    /// Render as markdown for the CI job summary.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        if self.ok() {
            out.push_str("### perf-gate: PASS\n\n");
        } else {
            out.push_str("### perf-gate: FAIL (objective drift)\n\n");
            for d in &self.drifts {
                out.push_str(&format!("- :x: {d}\n"));
            }
        }
        if self.warnings.is_empty() {
            out.push_str("No wall-time regressions beyond the noise allowance.\n");
        } else {
            out.push_str("#### Wall-time regressions (warning only)\n\n");
            for w in &self.warnings {
                out.push_str(&format!("- :warning: {w}\n"));
            }
        }
        out
    }
}

/// What the gate checks on one array section of the summary document.
pub struct Section {
    /// JSON key of the array section.
    pub key: &'static str,
    /// Section name in messages: rows are `<name> row <id>`, drifted
    /// fields `<field> drift on <name>/<id>`.
    pub name: &'static str,
    /// Fields that together identify a row (joined with `/` in messages).
    pub id: &'static [&'static str],
    /// Name drift messages use instead of the field name (Table II's one
    /// gated field is simply "the objective").
    pub drift_name: Option<&'static str>,
    /// Deterministic fields, bit-compared against the baseline row.
    pub exact: &'static [&'static str],
    /// Wall-clock fields that only warn, with the suffix naming each in
    /// the warning.
    pub warn_wall: &'static [(&'static str, &'static str)],
    /// Acceptance bars the fresh run's rows must clear on their own,
    /// whatever the baseline says.
    pub bars: fn(&[Json], &mut Vec<String>),
}

/// Every array section of the summary, in document order: the single
/// list of what the perf-gate gates.
pub const SECTIONS: &[Section] = &[
    Section {
        key: "rows",
        name: "table2",
        id: &["model", "solver"],
        drift_name: Some("objective"),
        exact: &["cross_mass"],
        warn_wall: &[("wall_ms", "")],
        bars: |_, _| {},
    },
    Section {
        key: "sparse_rows",
        name: "sparse",
        id: &["preset"],
        drift_name: None,
        exact: &["cross_mass", "nnz"],
        warn_wall: &[
            ("wall_ms_dense", " (dense)"),
            ("wall_ms_sparse", " (sparse)"),
        ],
        bars: sparse_bars,
    },
    Section {
        key: "online_rows",
        name: "online",
        id: &["scenario"],
        drift_name: None,
        exact: &[
            "static_cross",
            "oracle_cross",
            "budgeted_cross",
            "migrated_bytes",
            "cross_mass",
        ],
        warn_wall: &[],
        bars: online_bars,
    },
    Section {
        key: "replication_online_rows",
        name: "replication",
        id: &["scenario"],
        drift_name: None,
        exact: &[
            "static_cross",
            "owner_cross",
            "joint_cross",
            "owner_migrated_bytes",
            "joint_migrated_bytes",
            "replicas_added",
            "replicas_dropped",
            "extra_copies",
            "cross_mass",
        ],
        warn_wall: &[],
        bars: replication_bars,
    },
    Section {
        key: "serving_rows",
        name: "serving",
        id: &["arrival"],
        drift_name: None,
        exact: &[
            "offered_load",
            "static_p50",
            "static_p95",
            "static_p99",
            "static_goodput",
            "online_p50",
            "online_p95",
            "online_p99",
            "online_goodput",
            "online_replans",
            "online_migrated_bytes",
            "repl_p50",
            "repl_p95",
            "repl_p99",
            "repl_goodput",
            "repl_replicas_added",
        ],
        warn_wall: &[],
        bars: serving_bars,
    },
    Section {
        key: "elasticity_rows",
        name: "elasticity",
        id: &["fault"],
        drift_name: None,
        exact: &[
            "fault_time",
            "plain_p99",
            "plain_disrupted",
            "plain_steps_degraded",
            "plain_emergency_bytes",
            "plain_recovery",
            "repl_p99",
            "repl_disrupted",
            "repl_steps_degraded",
            "repl_emergency_bytes",
            "repl_recovery",
            "repl_extra_copies",
        ],
        warn_wall: &[],
        bars: elasticity_bars,
    },
    Section {
        key: "replan_latency_rows",
        name: "replan-latency",
        id: &["preset"],
        drift_name: None,
        exact: &[
            "replans",
            "considered",
            "evaluated_rebuild",
            "evaluated_incremental",
            "reused",
            "cross_mass_rebuild",
            "cross_mass_incremental",
        ],
        warn_wall: &[
            ("wall_ms_rebuild", " (re-plan, rebuild)"),
            ("wall_ms_incremental", " (re-plan, incremental)"),
        ],
        bars: replan_latency_bars,
    },
    Section {
        key: "partial_replication_rows",
        name: "partial-replication",
        id: &["scenario"],
        drift_name: None,
        exact: &[
            "partial_replans",
            "replicas_added",
            "partial_migrated_bytes",
            "full_migrated_bytes",
            "partial_extra_copies",
            "full_extra_copies",
            "partial_cross_mass",
            "full_cross_mass",
            "realized_cross",
            "cc_replicas_added",
            "cc_local_fraction",
        ],
        warn_wall: &[],
        bars: partial_replication_bars,
    },
];

/// A field's value as message text: strings unquoted, numbers as their
/// exact token, nothing for an absent field.
fn text(row: &Json, key: &str) -> String {
    match row.get(key) {
        Some(Json::Str(s)) => s.clone(),
        Some(v) => v.write().unwrap_or_default(),
        None => String::new(),
    }
}

/// A numeric field, or NaN when the row lacks it — NaN satisfies no
/// comparison, so a bar over an absent field never reports a bogus
/// violation (coverage of the gated fields is the bit-compare's job).
fn num(row: &Json, key: &str) -> f64 {
    row.get(key).and_then(Json::as_f64).unwrap_or(f64::NAN)
}

fn warn_wall(warnings: &mut Vec<String>, what: &str, base: f64, fresh: f64) {
    if base >= WALL_FLOOR_MS && fresh > WALL_REGRESSION_WARN * base {
        warnings.push(format!(
            "{what}: wall {fresh:.1} ms vs baseline {base:.1} ms ({:.0}% regression)",
            (fresh / base - 1.0) * 100.0
        ));
    }
}

/// The rows of one array section; a document without the section is a
/// drift (both documents carry the same schema, so neither may lack it).
fn rows_of<'a>(doc: &'a Json, key: &str, which: &str, drifts: &mut Vec<String>) -> &'a [Json] {
    let rows = doc.get(key).and_then(Json::as_arr);
    if rows.is_none() {
        drifts.push(format!("section {key} missing from the {which} document"));
    }
    rows.unwrap_or_default()
}

/// Compare a fresh summary JSON against the committed baseline JSON. Both
/// must carry the current schema tag ([`SCHEMA`]): an older (or newer)
/// baseline is not partially compared, it is rejected with a "regenerate
/// the baseline" drift.
pub fn compare(baseline: &str, fresh: &str) -> GateReport {
    let mut report = GateReport::default();
    let mut parse = |which: &str, text: &str| {
        let doc = Json::parse(text);
        if let Err(err) = &doc {
            let drift = format!("the {which} document does not parse: {err}");
            report.drifts.push(drift);
        }
        doc.ok()
    };
    let (base_doc, fresh_doc) = (parse("baseline", baseline), parse("fresh", fresh));
    let (Some(base_doc), Some(fresh_doc)) = (base_doc, fresh_doc) else {
        return report;
    };
    if text(&fresh_doc, "schema") != SCHEMA {
        let drift = format!("schema mismatch: the fresh document must be {SCHEMA}");
        report.drifts.push(drift);
        return report;
    }
    if text(&base_doc, "schema") != SCHEMA {
        report.drifts.push(format!(
            "schema mismatch: the baseline is {:?}, not {SCHEMA} — regenerate the committed \
             baseline with bench_summary",
            text(&base_doc, "schema")
        ));
        return report;
    }

    for section in SECTIONS {
        let base_rows = rows_of(&base_doc, section.key, "baseline", &mut report.drifts);
        let fresh_rows = rows_of(&fresh_doc, section.key, "fresh", &mut report.drifts);
        let id_of = |row: &Json| {
            let parts: Vec<String> = section.id.iter().map(|key| text(row, key)).collect();
            parts.join("/")
        };
        for b in base_rows {
            let id = id_of(b);
            let Some(f) = fresh_rows.iter().find(|f| id_of(f) == id) else {
                let drift = format!("{} row {id} missing from fresh run", section.name);
                report.drifts.push(drift);
                continue;
            };
            for &fact in section.exact {
                if b.get(fact) != f.get(fact) {
                    report.drifts.push(format!(
                        "{} drift on {}/{id}: baseline {} vs fresh {}",
                        section.drift_name.unwrap_or(fact),
                        section.name,
                        text(b, fact),
                        text(f, fact)
                    ));
                }
            }
            for &(field, suffix) in section.warn_wall {
                let what = format!("{id}{suffix}");
                warn_wall(&mut report.warnings, &what, num(b, field), num(f, field));
            }
        }
        for f in fresh_rows {
            let id = id_of(f);
            if !base_rows.iter().any(|b| id_of(b) == id) {
                report.drifts.push(format!(
                    "{} row {id} not in baseline (regenerate the committed JSON)",
                    section.name
                ));
            }
        }
        (section.bars)(fresh_rows, &mut report.drifts);
    }

    for (field, what) in [
        ("wall_ms_jobs1", "whole sweep (jobs=1)"),
        ("wall_ms_jobsN", "whole sweep (jobs=N)"),
    ] {
        let (base, fresh) = (num(&base_doc, field), num(&fresh_doc, field));
        warn_wall(&mut report.warnings, what, base, fresh);
    }
    report
}

/// The sparse backend must hold its >= 2x win on the E=512 top-1 cell.
/// This is algorithmic (not thread-parallel) speedup, so it holds on
/// 1-core runners too.
fn sparse_bars(rows: &[Json], drifts: &mut Vec<String>) {
    for f in rows {
        let speedup = num(f, "speedup");
        if num(f, "experts") == 512.0 && num(f, "k") == 1.0 && speedup < MIN_SPARSE_SPEEDUP_512 {
            drifts.push(format!(
                "sparse backend speedup on {} is {speedup:.2}x, below the \
                 {MIN_SPARSE_SPEEDUP_512:.1}x acceptance bar",
                text(f, "preset")
            ));
        }
    }
}

/// `" moved M bytes across R re-plans, over the B-byte per-re-plan
/// budget"` when the policy whose fields start with `prefix` migrated more
/// than its budget allows.
fn over_byte_budget(f: &Json, prefix: &str) -> Option<String> {
    let migrated = num(f, &format!("{prefix}migrated_bytes"));
    let (budget, replans) = (num(f, "budget_bytes"), num(f, &format!("{prefix}replans")));
    (migrated > budget * replans).then(|| {
        format!(
            " moved {migrated} bytes across {replans} re-plans, over the {budget}-byte \
             per-re-plan budget"
        )
    })
}

/// Budgeted incremental re-placement must recover >= 80% of the oracle's
/// cross-traffic reduction, and must never migrate more than its byte
/// budget per re-plan.
fn online_bars(rows: &[Json], drifts: &mut Vec<String>) {
    for f in rows {
        let scenario = text(f, "scenario");
        // Recompute recovery from the exact integer cross counts rather
        // than trusting the 4-decimal-rounded `recovery` field (0.79997
        // would serialize as "0.8000" and sneak past the bar).
        let (stat, oracle) = (num(f, "static_cross"), num(f, "oracle_cross"));
        let recovery = if stat <= oracle {
            1.0
        } else {
            (stat - num(f, "budgeted_cross")) / (stat - oracle)
        };
        if recovery < MIN_ONLINE_RECOVERY {
            drifts.push(format!(
                "online recovery on {scenario} is {recovery:.4}, below the \
                 {MIN_ONLINE_RECOVERY:.1} acceptance bar"
            ));
        }
        if let Some(over) = over_byte_budget(f, "") {
            drifts.push(format!("online migration on {scenario}{over}"));
        }
    }
}

/// The joint policy must respect both budget axes on every scenario
/// (replica memory in slots, migration bytes per re-plan), never lose to
/// owner-moves-only in realized cross traffic, and strictly beat it on at
/// least one scenario — that is the memory-for-migration-bytes trade-off
/// the subsystem exists to buy.
fn replication_bars(rows: &[Json], drifts: &mut Vec<String>) {
    let mut joint_dominates_somewhere = rows.is_empty();
    for f in rows {
        let scenario = text(f, "scenario");
        let (extra, slots) = (num(f, "extra_copies"), num(f, "replica_slots"));
        if extra > slots {
            drifts.push(format!(
                "replication memory on {scenario}: {extra} extra copies over the \
                 {slots}-slot per-GPU budget"
            ));
        }
        for policy in ["owner", "joint"] {
            if let Some(over) = over_byte_budget(f, &format!("{policy}_")) {
                drifts.push(format!(
                    "replication migration ({policy}) on {scenario}{over}"
                ));
            }
        }
        let (owner, joint) = (num(f, "owner_cross"), num(f, "joint_cross"));
        if joint > owner {
            drifts.push(format!(
                "replication on {scenario}: joint policy crossed {joint} vs owner-moves-only \
                 {owner} at equal migration bytes"
            ));
        }
        joint_dominates_somewhere |= joint < owner;
    }
    if !joint_dominates_somewhere {
        drifts.push(
            "replication: the joint policy beats owner-moves-only on no scenario \
             (the replica memory budget bought nothing)"
                .to_string(),
        );
    }
}

/// Under every arrival process the adaptive policies — which pay for
/// their re-placements with real migration stalls in serving time — must
/// never worsen the p99 latency tail over the static incumbent, and no
/// policy may report more goodput than the load it was offered.
fn serving_bars(rows: &[Json], drifts: &mut Vec<String>) {
    for f in rows {
        let arrival = text(f, "arrival");
        let (static_p99, offered) = (num(f, "static_p99"), num(f, "offered_load"));
        for policy in ["online", "repl"] {
            let p99 = num(f, &format!("{policy}_p99"));
            if p99 > static_p99 {
                drifts.push(format!(
                    "serving tail on {arrival}: {policy} p99 {p99} worse than the \
                     static incumbent's {static_p99} at equal budget"
                ));
            }
        }
        for policy in ["static", "online", "repl"] {
            let goodput = num(f, &format!("{policy}_goodput"));
            if goodput > offered {
                drifts.push(format!(
                    "serving goodput on {arrival}: {policy} reports {goodput} over \
                     the offered load {offered}"
                ));
            }
        }
    }
}

/// Under every fault schedule the replicated fleet must recover its
/// latency tail (recovery >= 0) strictly faster than the unreplicated
/// fleet (which may never recover at all, encoded as -1), and replica
/// failover must save emergency wire traffic over restoring from a
/// checkpoint shard.
fn elasticity_bars(rows: &[Json], drifts: &mut Vec<String>) {
    for f in rows {
        let fault = text(f, "fault");
        let (plain_rec, repl_rec) = (num(f, "plain_recovery"), num(f, "repl_recovery"));
        let faster = repl_rec >= 0.0 && (plain_rec < 0.0 || repl_rec < plain_rec);
        if !faster {
            drifts.push(format!(
                "elasticity on {fault}: replicated fleet recovery {repl_rec} vs \
                 unreplicated {plain_rec} — replication must buy strictly faster recovery"
            ));
        }
        let (plain_bytes, repl_bytes) = (
            num(f, "plain_emergency_bytes"),
            num(f, "repl_emergency_bytes"),
        );
        if repl_bytes >= plain_bytes {
            drifts.push(format!(
                "elasticity on {fault}: replication shipped {repl_bytes} emergency bytes vs \
                 {plain_bytes} without — failover must save wire traffic"
            ));
        }
    }
}

/// The delta-maintained objective must land bit-identical to the cold
/// rebuild (token equality of the shortest-round-trip cross masses *is*
/// bit equality), and at E = 512 the re-plan must consider at least
/// [`MIN_REPLAN_SCAN_REDUCTION_512`] candidates per exact gain evaluation.
/// The bar is checked on the exact integer counters rather than the
/// 3-decimal-rounded `scan_reduction` field (and a re-plan that needed no
/// exact evaluation at all passes it).
fn replan_latency_bars(rows: &[Json], drifts: &mut Vec<String>) {
    for f in rows {
        let preset = text(f, "preset");
        if f.get("cross_mass_rebuild") != f.get("cross_mass_incremental") {
            drifts.push(format!(
                "replan-latency on {preset}: incremental cross mass {} diverged from the \
                 rebuild's {} — incremental maintenance must be bit-identical",
                text(f, "cross_mass_incremental"),
                text(f, "cross_mass_rebuild")
            ));
        }
        let (considered, evaluated) = (num(f, "considered"), num(f, "evaluated_incremental"));
        if num(f, "experts") == 512.0 && considered < MIN_REPLAN_SCAN_REDUCTION_512 * evaluated {
            drifts.push(format!(
                "replan-latency on {preset} considered {considered} candidates for {evaluated} \
                 exact evaluations, below the {MIN_REPLAN_SCAN_REDUCTION_512:.0}x acceptance bar"
            ));
        }
    }
}

/// On every cell the subset policy — which races the full fan-out from
/// the same incumbent at the same memory and migration budgets — must
/// never lose to full replication in solver cross mass, both policies
/// must respect the per-GPU slot and per-re-plan byte budgets, and at
/// least one top-2 CC engine row must actually place replicas (the
/// regression the sweep exists to catch is top-2 models silently falling
/// back to owner-only serving).
fn partial_replication_bars(rows: &[Json], drifts: &mut Vec<String>) {
    let mut top2_uses_replicas = rows.is_empty();
    for f in rows {
        let scenario = text(f, "scenario");
        let (partial, full) = (num(f, "partial_cross_mass"), num(f, "full_cross_mass"));
        if partial > full {
            drifts.push(format!(
                "partial replication on {scenario}: subset policy crossed {partial} vs full \
                 fan-out's {full} at equal memory"
            ));
        }
        let slots = num(f, "replica_slots");
        for policy in ["partial", "full"] {
            let extra = num(f, &format!("{policy}_extra_copies"));
            if extra > slots {
                drifts.push(format!(
                    "partial replication on {scenario}: {policy} policy holds {extra} \
                     extra copies over the {slots}-slot per-GPU budget"
                ));
            }
        }
        if let Some(over) = over_byte_budget(f, "partial_") {
            drifts.push(format!("partial replication on {scenario}{over}"));
        }
        top2_uses_replicas |= num(f, "k") == 2.0 && num(f, "cc_replicas_added") > 0.0;
    }
    if !top2_uses_replicas {
        drifts.push(
            "partial replication: no top-2 CC row placed a replica \
             (top-2 dispatch fell back to owner-only serving)"
                .to_string(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::summary::fixture::summary;

    #[test]
    fn identical_documents_pass() {
        let json = summary(0.25, 100.0, 100.0).to_json();
        let report = compare(&json, &json);
        assert!(report.ok(), "{:?}", report.drifts);
        assert!(report.warnings.is_empty(), "{:?}", report.warnings);
        assert!(report.to_markdown().contains("PASS"));
    }

    #[test]
    fn objective_drift_fails() {
        let base = summary(0.25, 100.0, 100.0).to_json();
        let fresh = summary(0.25000000001, 100.0, 100.0).to_json();
        let report = compare(&base, &fresh);
        assert!(!report.ok());
        assert!(report.drifts[0].contains("objective drift"));
        assert!(report.to_markdown().contains("FAIL"));
    }

    #[test]
    fn one_ulp_of_drift_is_detected() {
        let x = 0.1f64;
        let bumped = f64::from_bits(x.to_bits() + 1);
        let base = summary(x, 100.0, 100.0).to_json();
        let fresh = summary(bumped, 100.0, 100.0).to_json();
        assert!(!compare(&base, &fresh).ok(), "1-ulp drift must fail");
    }

    #[test]
    fn wall_regression_only_warns() {
        let base = summary(0.25, 100.0, 100.0).to_json();
        let fresh = summary(0.25, 200.0, 100.0).to_json();
        let report = compare(&base, &fresh);
        assert!(report.ok());
        assert!(
            report.warnings.iter().any(|w| w.contains("whole sweep")),
            "{:?}",
            report.warnings
        );
    }

    #[test]
    fn wall_improvements_are_silent() {
        let base = summary(0.25, 100.0, 100.0).to_json();
        let fresh = summary(0.25, 50.0, 100.0).to_json();
        let report = compare(&base, &fresh);
        assert!(report.ok() && report.warnings.is_empty());
    }

    #[test]
    fn nnz_drift_fails() {
        let base = summary(0.25, 100.0, 100.0);
        let mut fresh = base.clone();
        fresh.sparse_rows[0].nnz += 1;
        let report = compare(&base.to_json(), &fresh.to_json());
        assert!(!report.ok());
        assert!(report.drifts[0].contains("nnz drift"));
    }

    #[test]
    fn slow_sparse_backend_fails_the_bar() {
        let base = summary(0.25, 100.0, 100.0).to_json();
        // Dense wall 15 ms vs sparse 10 ms: only 1.5x on the 512 cell.
        let fresh = summary(0.25, 100.0, 15.0).to_json();
        let report = compare(&base, &fresh);
        assert!(!report.ok());
        assert!(
            report.drifts.iter().any(|d| d.contains("acceptance bar")),
            "{:?}",
            report.drifts
        );
    }

    #[test]
    fn missing_and_extra_rows_fail() {
        let base = summary(0.25, 100.0, 100.0);
        let mut fresh = base.clone();
        fresh.rows[0].solver = "renamed".into();
        let report = compare(&base.to_json(), &fresh.to_json());
        assert!(!report.ok());
        assert!(report.drifts.iter().any(|d| d.contains("missing")));
        assert!(report.drifts.iter().any(|d| d.contains("not in baseline")));
    }

    #[test]
    fn v1_baseline_is_rejected() {
        let fresh = summary(0.25, 100.0, 100.0).to_json();
        let old = fresh.replace("exflow-bench-summary/v8", "exflow-bench-summary/v1");
        let report = compare(&old, &fresh);
        assert!(!report.ok());
        assert!(report.drifts[0].contains("schema"));
    }

    #[test]
    fn any_other_baseline_schema_is_rejected_with_a_regenerate_drift() {
        let fresh = summary(0.25, 100.0, 100.0).to_json();
        for tag in [
            "exflow-bench-summary/v2",
            "exflow-bench-summary/v9",
            "other",
        ] {
            let report = compare(&fresh.replace(SCHEMA, tag), &fresh);
            assert_eq!(report.drifts.len(), 1, "{:?}", report.drifts);
            assert!(report.drifts[0].contains("regenerate") && report.drifts[0].contains(tag));
        }
    }

    #[test]
    fn stale_fresh_document_is_rejected() {
        let base = summary(0.25, 100.0, 100.0).to_json();
        let fresh = base.replace(SCHEMA, "exflow-bench-summary/v1");
        let report = compare(&base, &fresh);
        assert!(!report.ok());
        assert!(report.drifts[0].contains("must be exflow-bench-summary/v8"));
    }

    #[test]
    fn unparseable_and_truncated_documents_fail() {
        let json = summary(0.25, 100.0, 100.0).to_json();
        let report = compare(&json[..json.len() / 2], &json);
        assert!(report.drifts[0].contains("baseline document does not parse"));
        // A document that lost a whole section is a drift, not a skip.
        let report = compare(&json.replace("\"serving_rows\"", "\"other_rows\""), &json);
        assert!(
            report
                .drifts
                .iter()
                .any(|d| d.contains("section serving_rows missing from the baseline")),
            "{:?}",
            report.drifts
        );
    }

    #[test]
    fn wall_warnings_are_labeled_in_the_markdown() {
        let base = summary(0.25, 100.0, 100.0).to_json();
        let fresh = summary(0.25, 200.0, 100.0).to_json();
        let md = compare(&base, &fresh).to_markdown();
        assert!(md.contains("Wall-time regressions"));
    }

    #[test]
    fn replication_cross_drift_fails() {
        let base = summary(0.25, 100.0, 100.0);
        let mut fresh = base.clone();
        fresh.replication_online_rows[0].joint_cross -= 1;
        let report = compare(&base.to_json(), &fresh.to_json());
        assert!(!report.ok());
        assert!(
            report
                .drifts
                .iter()
                .any(|d| d.contains("joint_cross drift")),
            "{:?}",
            report.drifts
        );
    }

    #[test]
    fn replication_memory_violation_fails() {
        let base = summary(0.25, 100.0, 100.0);
        let mut fresh = base.clone();
        fresh.replication_online_rows[0].extra_copies =
            fresh.replication_online_rows[0].replica_slots + 1;
        let report = compare(&base.to_json(), &fresh.to_json());
        assert!(
            report
                .drifts
                .iter()
                .any(|d| d.contains("slot per-GPU budget") || d.contains("-slot per-GPU budget")),
            "{:?}",
            report.drifts
        );
    }

    #[test]
    fn replication_migration_violation_fails() {
        let base = summary(0.25, 100.0, 100.0);
        let mut fresh = base.clone();
        fresh.replication_online_rows[0].joint_migrated_bytes = fresh.replication_online_rows[0]
            .budget_bytes
            * fresh.replication_online_rows[0].joint_replans as u64
            + 1;
        let report = compare(&base.to_json(), &fresh.to_json());
        assert!(
            report
                .drifts
                .iter()
                .any(|d| d.contains("replication migration (joint)")),
            "{:?}",
            report.drifts
        );
    }

    #[test]
    fn joint_policy_losing_to_owner_moves_fails() {
        let base = summary(0.25, 100.0, 100.0);
        let mut fresh = base.clone();
        fresh.replication_online_rows[0].joint_cross =
            fresh.replication_online_rows[0].owner_cross + 100;
        let report = compare(&base.to_json(), &fresh.to_json());
        assert!(
            report
                .drifts
                .iter()
                .any(|d| d.contains("at equal migration bytes")),
            "{:?}",
            report.drifts
        );
    }

    #[test]
    fn joint_policy_tying_everywhere_fails_the_domination_bar() {
        let base = summary(0.25, 100.0, 100.0);
        let mut fresh = base.clone();
        fresh.replication_online_rows[0].joint_cross = fresh.replication_online_rows[0].owner_cross;
        let report = compare(&base.to_json(), &fresh.to_json());
        assert!(
            report
                .drifts
                .iter()
                .any(|d| d.contains("the replica memory budget bought nothing")),
            "{:?}",
            report.drifts
        );
    }

    #[test]
    fn serving_latency_drift_fails() {
        let base = summary(0.25, 100.0, 100.0);
        let mut fresh = base.clone();
        fresh.serving_rows[0].online_p99 += 1e-9;
        let report = compare(&base.to_json(), &fresh.to_json());
        assert!(!report.ok());
        assert!(
            report
                .drifts
                .iter()
                .any(|d| d.contains("online_p99 drift on serving/poisson")),
            "{:?}",
            report.drifts
        );
    }

    #[test]
    fn serving_tail_regression_fails_the_bar() {
        let base = summary(0.25, 100.0, 100.0);
        let mut fresh = base.clone();
        // Online p99 worse than static: the whole point of paying
        // migration stalls is lost, and the gate must say so even though
        // the baseline (bit-compare) would also catch the change.
        fresh.serving_rows[0].online_p99 = fresh.serving_rows[0].static_p99 + 1.0;
        let report = compare(&base.to_json(), &fresh.to_json());
        assert!(
            report
                .drifts
                .iter()
                .any(|d| d.contains("serving tail on poisson")),
            "{:?}",
            report.drifts
        );
    }

    #[test]
    fn serving_goodput_over_offered_load_fails() {
        let base = summary(0.25, 100.0, 100.0);
        let mut fresh = base.clone();
        fresh.serving_rows[0].repl_goodput = fresh.serving_rows[0].offered_load * 2.0;
        let report = compare(&base.to_json(), &fresh.to_json());
        assert!(
            report
                .drifts
                .iter()
                .any(|d| d.contains("serving goodput on poisson")),
            "{:?}",
            report.drifts
        );
    }

    #[test]
    fn serving_missing_arrival_fails() {
        let base = summary(0.25, 100.0, 100.0);
        let mut fresh = base.clone();
        fresh.serving_rows[0].arrival = "renamed".into();
        let report = compare(&base.to_json(), &fresh.to_json());
        assert!(!report.ok());
        assert!(report.drifts.iter().any(|d| d.contains("serving row")));
        assert!(report.drifts.iter().any(|d| d.contains("not in baseline")));
    }

    #[test]
    fn elasticity_recovery_drift_fails() {
        let base = summary(0.25, 100.0, 100.0);
        let mut fresh = base.clone();
        fresh.elasticity_rows[0].repl_recovery += 1e-9;
        let report = compare(&base.to_json(), &fresh.to_json());
        assert!(!report.ok());
        assert!(
            report
                .drifts
                .iter()
                .any(|d| d.contains("repl_recovery drift on elasticity/gpu-loss")),
            "{:?}",
            report.drifts
        );
    }

    #[test]
    fn slow_replicated_recovery_fails_the_bar() {
        let base = summary(0.25, 100.0, 100.0);
        for repl_recovery in [-1.0, 9.0] {
            // Never recovering, or recovering slower than the
            // unreplicated fleet's 8.25, both fail.
            let mut fresh = base.clone();
            fresh.elasticity_rows[0].repl_recovery = repl_recovery;
            let report = compare(&base.to_json(), &fresh.to_json());
            assert!(
                report
                    .drifts
                    .iter()
                    .any(|d| d.contains("strictly faster recovery")),
                "repl_recovery {repl_recovery}: {:?}",
                report.drifts
            );
        }
    }

    #[test]
    fn failover_saving_no_wire_traffic_fails_the_bar() {
        let base = summary(0.25, 100.0, 100.0);
        let mut fresh = base.clone();
        fresh.elasticity_rows[0].repl_emergency_bytes =
            fresh.elasticity_rows[0].plain_emergency_bytes;
        let report = compare(&base.to_json(), &fresh.to_json());
        assert!(
            report
                .drifts
                .iter()
                .any(|d| d.contains("failover must save wire traffic")),
            "{:?}",
            report.drifts
        );
    }

    #[test]
    fn elasticity_missing_fault_fails() {
        let base = summary(0.25, 100.0, 100.0);
        let mut fresh = base.clone();
        fresh.elasticity_rows[0].fault = "renamed".into();
        let report = compare(&base.to_json(), &fresh.to_json());
        assert!(!report.ok());
        assert!(report.drifts.iter().any(|d| d.contains("elasticity row")));
        assert!(report.drifts.iter().any(|d| d.contains("not in baseline")));
    }

    #[test]
    fn partial_cross_drift_fails() {
        let base = summary(0.25, 100.0, 100.0);
        let mut fresh = base.clone();
        fresh.partial_replication_rows[0].partial_cross_mass += 1e-12;
        let report = compare(&base.to_json(), &fresh.to_json());
        assert!(!report.ok());
        assert!(
            report
                .drifts
                .iter()
                .any(|d| d.contains("partial_cross_mass drift on partial-replication")),
            "{:?}",
            report.drifts
        );
    }

    #[test]
    fn partial_losing_to_full_fails_the_bar() {
        let base = summary(0.25, 100.0, 100.0);
        let mut fresh = base.clone();
        fresh.partial_replication_rows[0].partial_cross_mass =
            fresh.partial_replication_rows[0].full_cross_mass + 0.1;
        let report = compare(&base.to_json(), &fresh.to_json());
        assert!(
            report.drifts.iter().any(|d| d.contains("at equal memory")),
            "{:?}",
            report.drifts
        );
    }

    #[test]
    fn top2_falling_back_to_owner_only_fails_the_bar() {
        let base = summary(0.25, 100.0, 100.0);
        let mut fresh = base.clone();
        fresh.partial_replication_rows[0].cc_replicas_added = 0;
        let report = compare(&base.to_json(), &fresh.to_json());
        assert!(
            report
                .drifts
                .iter()
                .any(|d| d.contains("fell back to owner-only serving")),
            "{:?}",
            report.drifts
        );
    }

    #[test]
    fn partial_memory_violation_fails() {
        let base = summary(0.25, 100.0, 100.0);
        let mut fresh = base.clone();
        fresh.partial_replication_rows[0].partial_extra_copies =
            fresh.partial_replication_rows[0].replica_slots + 1;
        let report = compare(&base.to_json(), &fresh.to_json());
        assert!(
            report
                .drifts
                .iter()
                .any(|d| d.contains("partial policy holds")),
            "{:?}",
            report.drifts
        );
    }

    #[test]
    fn partial_migration_violation_fails() {
        let base = summary(0.25, 100.0, 100.0);
        let mut fresh = base.clone();
        fresh.partial_replication_rows[0].partial_migrated_bytes =
            fresh.partial_replication_rows[0].budget_bytes
                * fresh.partial_replication_rows[0].partial_replans as u64
                + 1;
        let report = compare(&base.to_json(), &fresh.to_json());
        assert!(
            report
                .drifts
                .iter()
                .any(|d| d.contains("per-re-plan budget") && d.contains("partial replication")),
            "{:?}",
            report.drifts
        );
    }

    #[test]
    fn repl_extra_copies_drift_fails() {
        let base = summary(0.25, 100.0, 100.0);
        let mut fresh = base.clone();
        fresh.elasticity_rows[0].repl_extra_copies += 1;
        let report = compare(&base.to_json(), &fresh.to_json());
        assert!(
            report
                .drifts
                .iter()
                .any(|d| d.contains("repl_extra_copies drift")),
            "{:?}",
            report.drifts
        );
    }

    #[test]
    fn replan_counter_drift_fails() {
        let base = summary(0.25, 100.0, 100.0);
        let mut fresh = base.clone();
        fresh.replan_latency_rows[0].evaluated_incremental += 1;
        let report = compare(&base.to_json(), &fresh.to_json());
        assert!(!report.ok());
        assert!(
            report
                .drifts
                .iter()
                .any(|d| d.contains("evaluated_incremental drift on replan-latency")),
            "{:?}",
            report.drifts
        );
    }

    #[test]
    fn incremental_cross_mass_divergence_fails_the_bar() {
        let base = summary(0.25, 100.0, 100.0);
        let mut fresh = base.clone();
        fresh.replan_latency_rows[0].cross_mass_incremental += 1e-12;
        let report = compare(&base.to_json(), &fresh.to_json());
        assert!(
            report
                .drifts
                .iter()
                .any(|d| d.contains("diverged from the rebuild")),
            "{:?}",
            report.drifts
        );
    }

    #[test]
    fn low_replan_scan_reduction_fails_the_bar() {
        let base = summary(0.25, 100.0, 100.0);
        let mut fresh = base.clone();
        // 8M considered, 8k of them evaluated exactly: only 1000x on the
        // 512 cell.
        fresh.replan_latency_rows[0].evaluated_incremental = 8_000;
        fresh.replan_latency_rows[0].reused = 7_992_000;
        let report = compare(&base.to_json(), &fresh.to_json());
        assert!(
            report.drifts.iter().any(|d| d.contains("below the")),
            "{:?}",
            report.drifts
        );
    }

    #[test]
    fn replan_missing_preset_fails() {
        let base = summary(0.25, 100.0, 100.0);
        let mut fresh = base.clone();
        fresh.replan_latency_rows[0].preset = "renamed".into();
        let report = compare(&base.to_json(), &fresh.to_json());
        assert!(!report.ok());
        assert!(
            report
                .drifts
                .iter()
                .any(|d| d.contains("replan-latency row") && d.contains("missing")),
            "{:?}",
            report.drifts
        );
        assert!(report.drifts.iter().any(|d| d.contains("not in baseline")));
    }

    #[test]
    fn online_cross_drift_fails() {
        let base = summary(0.25, 100.0, 100.0);
        let mut fresh = base.clone();
        fresh.online_rows[0].budgeted_cross += 1;
        let report = compare(&base.to_json(), &fresh.to_json());
        assert!(!report.ok());
        assert!(
            report
                .drifts
                .iter()
                .any(|d| d.contains("budgeted_cross drift")),
            "{:?}",
            report.drifts
        );
    }

    #[test]
    fn online_missing_scenario_fails() {
        let base = summary(0.25, 100.0, 100.0);
        let mut fresh = base.clone();
        fresh.online_rows[0].scenario = "renamed".into();
        let report = compare(&base.to_json(), &fresh.to_json());
        assert!(!report.ok());
        assert!(report.drifts.iter().any(|d| d.contains("missing")));
        assert!(report.drifts.iter().any(|d| d.contains("not in baseline")));
    }

    #[test]
    fn low_online_recovery_fails_the_bar() {
        let base = summary(0.25, 100.0, 100.0);
        let mut fresh = base.clone();
        // static 5000, oracle 3000: budgeted 4000 recovers only 50%.
        fresh.online_rows[0].budgeted_cross = 4000;
        let report = compare(&base.to_json(), &fresh.to_json());
        assert!(
            report.drifts.iter().any(|d| d.contains("acceptance bar")),
            "{:?}",
            report.drifts
        );
    }

    #[test]
    fn online_budget_violation_fails() {
        let base = summary(0.25, 100.0, 100.0);
        let mut fresh = base.clone();
        fresh.online_rows[0].migrated_bytes =
            fresh.online_rows[0].budget_bytes * fresh.online_rows[0].replans as u64 + 1;
        let report = compare(&base.to_json(), &fresh.to_json());
        assert!(
            report
                .drifts
                .iter()
                .any(|d| d.contains("per-re-plan budget")),
            "{:?}",
            report.drifts
        );
    }
}
