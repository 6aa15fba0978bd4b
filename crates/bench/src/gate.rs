//! The CI gate (`repro --check`): compare the fresh summary document
//! against the committed baseline (`BENCH_BASELINE.json`).
//!
//! Everything a sweep emits is a deterministic fact, printed with shortest
//! round-trip formatting (or a fixed number of decimals), so *token*
//! inequality in the JSON is *bit* inequality of the value, and any
//! mismatch is a hard failure (the baseline must be regenerated
//! deliberately, never drift silently). No field is a measurement: host
//! time is `benchmark/`'s business.
//!
//! Both documents are parsed with the workspace's one JSON layer
//! (`exflow_core::json`). Per [`TABLES`] entry the rule is: the `id`
//! fields find the row, **everything else is bit-compared** (a fresh row
//! whose field list is not its baseline row's is a drift), and the fresh
//! rows must clear the entry's `bars` — one of the functions below — on
//! their own.

use exflow_core::json::Json;

use crate::summary::{online_recovery, SCHEMA};
use crate::table::{shown, Table, TABLES};

/// On the `E = 512`, top-1 cell the CSR backend must store (and a
/// `swap_delta` pass walk) at most one in this many of the dense backend's
/// cells: `density <= 1 / MIN_SPARSE_SPEEDUP_512` (the acceptance bar of
/// the sparse backend; 0.006443 today, one in 155).
pub const MIN_SPARSE_SPEEDUP_512: f64 = 2.0;

/// Budgeted incremental re-placement must recover at least this fraction
/// of the oracle re-solve's cross-traffic reduction on every
/// `table_online` scenario (the acceptance bar of the online subsystem).
pub const MIN_ONLINE_RECOVERY: f64 = 0.8;

/// On every `E = 512` `table_replan_latency` cell the re-plan's attraction
/// table must decide all but one in this many considered swap candidates
/// without an exact gain evaluation (`considered / evaluated`; the
/// acceptance bar of the incremental re-plan engine). Like the sparse
/// bar, this is an operation count, so it holds on any runner. The sweep
/// measures 26 703x and 40 166x; the bar leaves a tenfold margin below that.
pub const MIN_REPLAN_SCAN_REDUCTION_512: f64 = 2500.0;

/// Outcome of a baseline comparison.
#[derive(Debug, Clone, Default)]
pub struct GateReport {
    /// Failures: a drifted fact, schema/coverage mismatches, a fresh run
    /// below an acceptance bar.
    pub drifts: Vec<String>,
}

impl GateReport {
    /// Whether the gate passes.
    pub fn ok(&self) -> bool {
        self.drifts.is_empty()
    }

    /// Render as markdown for the CI job summary.
    pub fn to_markdown(&self) -> String {
        if self.ok() {
            return "### repro --check: PASS\n".to_string();
        }
        let mut out = "### repro --check: FAIL\n\n".to_string();
        for d in &self.drifts {
            out.push_str(&format!("- :x: {d}\n"));
        }
        out
    }
}

/// A field's value as message text: strings unquoted, numbers as their
/// exact token, nothing for an absent field.
pub(crate) fn text(row: &Json, key: &str) -> String {
    row.get(key).map(shown).unwrap_or_default()
}

/// A row's `(key, value)` pairs; a row that is not an object has none.
fn fields(row: &Json) -> &[(String, Json)] {
    match row {
        Json::Obj(fields) => fields,
        _ => &[],
    }
}

/// The row's `id` fields, joined with `/`.
fn id_of(table: &Table, row: &Json) -> String {
    let parts: Vec<String> = table.id.iter().map(|key| text(row, key)).collect();
    parts.join("/")
}

/// What a table's `bars` function reads rows and reports through.
pub struct Bars<'a> {
    table: &'a Table,
    drifts: &'a mut Vec<String>,
}

impl<'a> Bars<'a> {
    /// Bars of `table`, reporting into `drifts`.
    pub fn new(table: &'a Table, drifts: &'a mut Vec<String>) -> Self {
        Bars { table, drifts }
    }

    /// A numeric field. A row that lacks it is a drift of its own — a bar
    /// that cannot read its input must not pass silently — and reads as
    /// NaN, which satisfies no ordering comparison, so a threshold bar over
    /// it does not add a violation quoting a number nobody measured.
    pub fn num(&mut self, row: &Json, key: &str) -> f64 {
        let value = row.get(key).and_then(Json::as_f64);
        value.unwrap_or_else(|| {
            let (name, id) = (self.table.name, id_of(self.table, row));
            let drift = format!("{name} row {id} lacks field {key}");
            if !self.drifts.contains(&drift) {
                self.drifts.push(drift);
            }
            f64::NAN
        })
    }

    /// Report a violated bar.
    pub fn fail(&mut self, drift: String) {
        self.drifts.push(drift);
    }

    /// Several numeric fields of one row, each read like [`Bars::num`].
    pub fn nums<const N: usize>(&mut self, row: &Json, keys: [&str; N]) -> [f64; N] {
        keys.map(|key| self.num(row, key))
    }

    /// A bar over `row`: if `violated`, report `<table> <row id>: <what>`.
    /// State the violation as an ordering comparison, so an absent field
    /// (NaN, already a drift of its own) adds no second one.
    pub fn fail_if(&mut self, row: &Json, violated: bool, what: String) {
        if violated {
            let (name, id) = (self.table.name, id_of(self.table, row));
            self.drifts.push(format!("{name} {id}: {what}"));
        }
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
             baseline with repro --out",
            text(&base_doc, "schema")
        ));
        return report;
    }

    for table in TABLES {
        let base_rows = rows_of(&base_doc, table.key, "baseline", &mut report.drifts);
        let fresh_rows = rows_of(&fresh_doc, table.key, "fresh", &mut report.drifts);
        for b in base_rows {
            let id = id_of(table, b);
            let Some(f) = fresh_rows.iter().find(|f| id_of(table, f) == id) else {
                let drift = format!("{} row {id} missing from fresh run", table.name);
                report.drifts.push(drift);
                continue;
            };
            let keys = |row| -> Vec<&str> { fields(row).iter().map(|(k, _)| &**k).collect() };
            let (base_keys, fresh_keys) = (keys(b), keys(f));
            if base_keys != fresh_keys {
                let lacks = base_keys.iter().filter(|k| !fresh_keys.contains(k));
                let adds = fresh_keys.iter().filter(|k| !base_keys.contains(k));
                report.drifts.push(format!(
                    "{} row {id}: the fresh fields are not the baseline's, in order (lacks {:?}, \
                     adds {:?}) — regenerate the committed JSON",
                    table.name,
                    lacks.collect::<Vec<_>>(),
                    adds.collect::<Vec<_>>()
                ));
            }
            for (key, base) in fields(b) {
                // A field the fresh row lacks is named by the drift above.
                let Some(fresh) = f.get(key) else { continue };
                if base != fresh {
                    report.drifts.push(format!(
                        "{} drift on {}/{id}: baseline {} vs fresh {}",
                        table.drift_name.unwrap_or(key),
                        table.name,
                        text(b, key),
                        text(f, key)
                    ));
                }
            }
        }
        for f in fresh_rows {
            let id = id_of(table, f);
            if !base_rows.iter().any(|b| id_of(table, b) == id) {
                report.drifts.push(format!(
                    "{} row {id} not in baseline (regenerate the committed JSON)",
                    table.name
                ));
            }
        }
        (table.bars)(fresh_rows, &mut Bars::new(table, &mut report.drifts));
    }
    report
}

/// The sparse backend's win on the E=512 top-1 cell, as the count it is:
/// the CSR backend stores at most `1 / MIN_SPARSE_SPEEDUP_512` of the
/// dense backend's cells.
pub(crate) fn sparse_bars(rows: &[Json], bars: &mut Bars) {
    for f in rows {
        let density = bars.num(f, "density");
        if bars.num(f, "experts") == 512.0
            && bars.num(f, "k") == 1.0
            && density * MIN_SPARSE_SPEEDUP_512 > 1.0
        {
            bars.fail(format!(
                "sparse backend on {} stores {density} of the dense cells, above the \
                 1/{MIN_SPARSE_SPEEDUP_512:.0} acceptance bar",
                text(f, "preset")
            ));
        }
    }
}

/// `" moved M bytes across R re-plans, over the B-byte per-re-plan
/// budget"` when the policy whose fields start with `prefix` migrated more
/// than its budget allows.
fn over_byte_budget(bars: &mut Bars, f: &Json, prefix: &str) -> Option<String> {
    let migrated = bars.num(f, &format!("{prefix}migrated_bytes"));
    let (budget, replans) = (
        bars.num(f, "budget_bytes"),
        bars.num(f, &format!("{prefix}replans")),
    );
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
pub(crate) fn online_bars(rows: &[Json], bars: &mut Bars) {
    for f in rows {
        let scenario = text(f, "scenario");
        // Recompute recovery from the exact integer cross counts rather
        // than trusting the 4-decimal-rounded `recovery` field (0.79997
        // would serialize as "0.8000" and sneak past the bar).
        let recovery = online_recovery(
            bars.num(f, "static_cross"),
            bars.num(f, "oracle_cross"),
            bars.num(f, "budgeted_cross"),
        );
        if recovery < MIN_ONLINE_RECOVERY {
            bars.fail(format!(
                "online recovery on {scenario} is {recovery:.4}, below the \
                 {MIN_ONLINE_RECOVERY:.1} acceptance bar"
            ));
        }
        if let Some(over) = over_byte_budget(bars, f, "") {
            bars.fail(format!("online migration on {scenario}{over}"));
        }
    }
}

/// The joint policy must respect both budget axes on every scenario
/// (replica memory in slots, migration bytes per re-plan), never lose to
/// owner-moves-only in realized cross traffic, and strictly beat it on at
/// least one scenario — that is the memory-for-migration-bytes trade-off
/// the subsystem exists to buy.
pub(crate) fn replication_bars(rows: &[Json], bars: &mut Bars) {
    let mut joint_dominates_somewhere = rows.is_empty();
    for f in rows {
        let scenario = text(f, "scenario");
        let (extra, slots) = (bars.num(f, "extra_copies"), bars.num(f, "replica_slots"));
        if extra > slots {
            bars.fail(format!(
                "replication memory on {scenario}: {extra} extra copies over the \
                 {slots}-slot per-GPU budget"
            ));
        }
        for policy in ["owner", "joint"] {
            if let Some(over) = over_byte_budget(bars, f, &format!("{policy}_")) {
                bars.fail(format!(
                    "replication migration ({policy}) on {scenario}{over}"
                ));
            }
        }
        let (owner, joint) = (bars.num(f, "owner_cross"), bars.num(f, "joint_cross"));
        if joint > owner {
            bars.fail(format!(
                "replication on {scenario}: joint policy crossed {joint} vs owner-moves-only \
                 {owner} at equal migration bytes"
            ));
        }
        joint_dominates_somewhere |= joint < owner;
    }
    if !joint_dominates_somewhere {
        bars.fail(
            "replication: the joint policy beats owner-moves-only on no scenario \
             (the replica memory budget bought nothing)"
                .to_string(),
        );
    }
}

/// What `ServingReport::migrations` documents, as a bar: weight copies
/// overlap with serving but contend for links and defer the new plan's
/// benefit, so under every arrival process an adaptive policy's p99 may
/// exceed the static incumbent's by no more than the migration time it
/// reports — and where the arrival process is non-stationary (`diurnal`,
/// `flash-crowd`) it must beat the static tail outright. No policy may
/// report more goodput than the load it was offered.
pub(crate) fn serving_bars(rows: &[Json], bars: &mut Bars) {
    for f in rows {
        let arrival = text(f, "arrival");
        let (static_p99, offered) = (bars.num(f, "static_p99"), bars.num(f, "offered_load"));
        for policy in ["online", "repl"] {
            let p99 = bars.num(f, &format!("{policy}_p99"));
            let surcharge = bars.num(f, &format!("{policy}_migration_time"));
            if p99 > static_p99 + surcharge {
                bars.fail(format!(
                    "serving tail on {arrival}: {policy} p99 {p99} exceeds the static \
                     incumbent's {static_p99} by more than its {surcharge} of migration time"
                ));
            }
            let non_stationary = matches!(arrival.as_str(), "diurnal" | "flash-crowd");
            if non_stationary && p99 >= static_p99 {
                bars.fail(format!(
                    "serving tail on {arrival}: {policy} p99 {p99} does not beat the static \
                     incumbent's {static_p99} under non-stationary arrivals"
                ));
            }
        }
        for policy in ["static", "online", "repl"] {
            let goodput = bars.num(f, &format!("{policy}_goodput"));
            if goodput > offered {
                bars.fail(format!(
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
pub(crate) fn elasticity_bars(rows: &[Json], bars: &mut Bars) {
    for f in rows {
        let fault = text(f, "fault");
        let (plain_rec, repl_rec) = (bars.num(f, "plain_recovery"), bars.num(f, "repl_recovery"));
        let faster = repl_rec >= 0.0 && (plain_rec < 0.0 || repl_rec < plain_rec);
        if !faster {
            bars.fail(format!(
                "elasticity on {fault}: replicated fleet recovery {repl_rec} vs \
                 unreplicated {plain_rec} — replication must buy strictly faster recovery"
            ));
        }
        let (plain_bytes, repl_bytes) = (
            bars.num(f, "plain_emergency_bytes"),
            bars.num(f, "repl_emergency_bytes"),
        );
        if repl_bytes >= plain_bytes {
            bars.fail(format!(
                "elasticity on {fault}: replication shipped {repl_bytes} emergency bytes vs \
                 {plain_bytes} without — failover must save wire traffic"
            ));
        }
    }
}

/// The delta-maintained objective must land bit-identical to the cold
/// rebuild (the shortest-round-trip cross masses parse back to the bits
/// the sweep held), and at E = 512 the re-plan must consider at least
/// [`MIN_REPLAN_SCAN_REDUCTION_512`] candidates per exact gain evaluation.
/// The bar is checked on the exact integer counters rather than the
/// 3-decimal-rounded `scan_reduction` field (and a re-plan that needed no
/// exact evaluation at all passes it).
pub(crate) fn replan_latency_bars(rows: &[Json], bars: &mut Bars) {
    for f in rows {
        let preset = text(f, "preset");
        let rebuild = bars.num(f, "cross_mass_rebuild");
        if rebuild.to_bits() != bars.num(f, "cross_mass_incremental").to_bits() {
            bars.fail(format!(
                "replan-latency on {preset}: incremental cross mass {} diverged from the \
                 rebuild's {} — incremental maintenance must be bit-identical",
                text(f, "cross_mass_incremental"),
                text(f, "cross_mass_rebuild")
            ));
        }
        let (considered, evaluated) = (
            bars.num(f, "considered"),
            bars.num(f, "evaluated_incremental"),
        );
        if bars.num(f, "experts") == 512.0 && considered < MIN_REPLAN_SCAN_REDUCTION_512 * evaluated
        {
            bars.fail(format!(
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
pub(crate) fn partial_replication_bars(rows: &[Json], bars: &mut Bars) {
    let mut top2_uses_replicas = rows.is_empty();
    for f in rows {
        let scenario = text(f, "scenario");
        let (partial, full) = (
            bars.num(f, "partial_cross_mass"),
            bars.num(f, "full_cross_mass"),
        );
        if partial > full {
            bars.fail(format!(
                "partial replication on {scenario}: subset policy crossed {partial} vs full \
                 fan-out's {full} at equal memory"
            ));
        }
        let slots = bars.num(f, "replica_slots");
        for policy in ["partial", "full"] {
            let extra = bars.num(f, &format!("{policy}_extra_copies"));
            if extra > slots {
                bars.fail(format!(
                    "partial replication on {scenario}: {policy} policy holds {extra} \
                     extra copies over the {slots}-slot per-GPU budget"
                ));
            }
        }
        if let Some(over) = over_byte_budget(bars, f, "partial_") {
            bars.fail(format!("partial replication on {scenario}{over}"));
        }
        top2_uses_replicas |= bars.num(f, "k") == 2.0 && bars.num(f, "cc_replicas_added") > 0.0;
    }
    if !top2_uses_replicas {
        bars.fail(
            "partial replication: no top-2 CC row placed a replica \
             (top-2 dispatch fell back to owner-only serving)"
                .to_string(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::summary::fixture::{summary, Summary};

    #[test]
    fn identical_documents_pass() {
        let json = summary(0.25).to_json();
        let report = compare(&json, &json);
        assert!(report.ok(), "{:?}", report.drifts);
        assert!(report.to_markdown().contains("PASS"));
    }

    #[test]
    fn objective_drift_fails() {
        let base = summary(0.25).to_json();
        let fresh = summary(0.25000000001).to_json();
        let report = compare(&base, &fresh);
        assert!(!report.ok());
        assert!(report.drifts[0].contains("objective drift"));
        assert!(report.to_markdown().contains("FAIL"));
    }

    #[test]
    fn one_ulp_of_drift_is_detected() {
        let x = 0.1f64;
        let bumped = f64::from_bits(x.to_bits() + 1);
        let base = summary(x).to_json();
        let fresh = summary(bumped).to_json();
        assert!(!compare(&base, &fresh).ok(), "1-ulp drift must fail");
    }

    #[test]
    fn nnz_drift_fails() {
        let base = summary(0.25);
        let mut fresh = base.clone();
        let nnz = fresh.int("sparse_rows", "nnz");
        fresh.set("sparse_rows", "nnz", nnz + 1);
        let report = compare(&base.to_json(), &fresh.to_json());
        assert!(!report.ok());
        assert!(report.drifts[0].contains("nnz drift"));
    }

    #[test]
    fn slow_sparse_backend_fails_the_bar() {
        let base = summary(0.25);
        // The CSR backend stores 0.6 of the dense cells on the 512 cell.
        let mut fresh = base.clone();
        fresh.set("sparse_rows", "density", Json::Fixed(0.6, 6));
        let report = compare(&base.to_json(), &fresh.to_json());
        assert!(!report.ok());
        assert!(
            report.drifts.iter().any(|d| d.contains("acceptance bar")),
            "{:?}",
            report.drifts
        );
    }

    #[test]
    fn missing_and_extra_rows_fail() {
        // A beyond-paper table and a paper entry alike.
        for (key, field, name) in [("rows", "solver", "table2"), ("fig10", "model", "fig10")] {
            let base = summary(0.25);
            let mut fresh = base.clone();
            fresh.set(key, field, "renamed");
            let report = compare(&base.to_json(), &fresh.to_json());
            let has =
                |a: &str, b: &str| report.drifts.iter().any(|d| d.contains(a) && d.contains(b));
            assert!(
                has(&format!("{name} row"), "missing"),
                "{:?}",
                report.drifts
            );
            assert!(has(&format!("{name} row"), "not in baseline"));
        }
    }

    #[test]
    fn v1_baseline_is_rejected() {
        let fresh = summary(0.25).to_json();
        let old = fresh.replace(SCHEMA, "exflow-bench-summary/v1");
        let report = compare(&old, &fresh);
        assert!(!report.ok());
        assert!(report.drifts[0].contains("schema"));
    }

    #[test]
    fn any_other_baseline_schema_is_rejected_with_a_regenerate_drift() {
        let fresh = summary(0.25).to_json();
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
        let base = summary(0.25).to_json();
        let fresh = base.replace(SCHEMA, "exflow-bench-summary/v1");
        let report = compare(&base, &fresh);
        assert!(!report.ok());
        assert!(report.drifts[0].contains(&format!("must be {SCHEMA}")));
    }

    #[test]
    fn unparseable_and_truncated_documents_fail() {
        let json = summary(0.25).to_json();
        let report = compare(&json[..json.len() / 2], &json);
        assert!(report.drifts[0].contains("baseline document does not parse"));
        // A document that lost a whole section is a drift, not a skip.
        for key in ["serving_rows", "fig7"] {
            let report = compare(
                &json.replace(&format!("\"{key}\""), "\"other_rows\""),
                &json,
            );
            let missing = format!("section {key} missing from the baseline");
            assert!(
                report.drifts.iter().any(|d| d.contains(&missing)),
                "{:?}",
                report.drifts
            );
        }
    }

    #[test]
    fn replication_cross_drift_fails() {
        let base = summary(0.25);
        let mut fresh = base.clone();
        let joint = fresh.int("replication_online_rows", "joint_cross");
        fresh.set("replication_online_rows", "joint_cross", joint - 1);
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
        let base = summary(0.25);
        let mut fresh = base.clone();
        let slots = fresh.int("replication_online_rows", "replica_slots");
        fresh.set("replication_online_rows", "extra_copies", slots + 1);
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
        let base = summary(0.25);
        let mut fresh = base.clone();
        let key = "replication_online_rows";
        let allowed = fresh.int(key, "budget_bytes") * fresh.int(key, "joint_replans");
        fresh.set(key, "joint_migrated_bytes", allowed + 1);
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
        let base = summary(0.25);
        let mut fresh = base.clone();
        let owner = fresh.int("replication_online_rows", "owner_cross");
        fresh.set("replication_online_rows", "joint_cross", owner + 100);
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
        let base = summary(0.25);
        let mut fresh = base.clone();
        let owner = fresh.int("replication_online_rows", "owner_cross");
        fresh.set("replication_online_rows", "joint_cross", owner);
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
        let base = summary(0.25);
        let mut fresh = base.clone();
        let p99 = fresh.num("serving_rows", "online_p99");
        fresh.set("serving_rows", "online_p99", p99 + 1e-9);
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
        let base = summary(0.25);
        let mut fresh = base.clone();
        // Online p99 worse than static: the whole point of paying
        // migration stalls is lost, and the gate must say so even though
        // the baseline (bit-compare) would also catch the change.
        let static_p99 = fresh.num("serving_rows", "static_p99");
        fresh.set("serving_rows", "online_p99", static_p99 + 1.0);
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
    fn the_serving_tail_may_carry_its_migration_time_and_no_more() {
        let table = crate::table::fixture::table("serving_rows");
        let violations = |doc: &Summary| table.violations(doc.section("serving_rows"));
        // The 5-layer / 1 800-request Poisson cell the stricter bar
        // (p99 <= static p99, everywhere) failed on: online ends 1.6 us
        // above the static tail after 357 us of migration.
        let mut fresh = summary(0.25);
        fresh.set("serving_rows", "static_p99", 1534.8e-6);
        fresh.set("serving_rows", "online_p99", 1536.4e-6);
        fresh.set("serving_rows", "online_migration_time", 357e-6);
        fresh.set("serving_rows", "repl_p99", 1534.8e-6);
        assert_eq!(violations(&fresh), Vec::<String>::new());
        // An excess above the migration time is a violation...
        fresh.set("serving_rows", "online_migration_time", 1e-6);
        let found = violations(&fresh);
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].contains("by more than its 0.000001 of migration time"));
        // ...and under non-stationary arrivals so is any tie or loss.
        fresh.set("serving_rows", "online_migration_time", 357e-6);
        fresh.set("serving_rows", "arrival", "diurnal");
        let found = violations(&fresh);
        assert_eq!(found.len(), 2, "{found:?}");
        assert!(found.iter().all(|v| v.contains("non-stationary arrivals")));
    }

    #[test]
    fn serving_goodput_over_offered_load_fails() {
        let base = summary(0.25);
        let mut fresh = base.clone();
        let offered = fresh.num("serving_rows", "offered_load");
        fresh.set("serving_rows", "repl_goodput", offered * 2.0);
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
        let base = summary(0.25);
        let mut fresh = base.clone();
        fresh.set("serving_rows", "arrival", "renamed");
        let report = compare(&base.to_json(), &fresh.to_json());
        assert!(!report.ok());
        assert!(report.drifts.iter().any(|d| d.contains("serving row")));
        assert!(report.drifts.iter().any(|d| d.contains("not in baseline")));
    }

    #[test]
    fn elasticity_recovery_drift_fails() {
        let base = summary(0.25);
        let mut fresh = base.clone();
        let recovery = fresh.num("elasticity_rows", "repl_recovery");
        fresh.set("elasticity_rows", "repl_recovery", recovery + 1e-9);
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
        let base = summary(0.25);
        for repl_recovery in [-1.0, 9.0] {
            // Never recovering, or recovering slower than the
            // unreplicated fleet's 8.25, both fail.
            let mut fresh = base.clone();
            fresh.set("elasticity_rows", "repl_recovery", repl_recovery);
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
        let base = summary(0.25);
        let mut fresh = base.clone();
        let plain = fresh.int("elasticity_rows", "plain_emergency_bytes");
        fresh.set("elasticity_rows", "repl_emergency_bytes", plain);
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
        let base = summary(0.25);
        let mut fresh = base.clone();
        fresh.set("elasticity_rows", "fault", "renamed");
        let report = compare(&base.to_json(), &fresh.to_json());
        assert!(!report.ok());
        assert!(report.drifts.iter().any(|d| d.contains("elasticity row")));
        assert!(report.drifts.iter().any(|d| d.contains("not in baseline")));
    }

    #[test]
    fn partial_cross_drift_fails() {
        let base = summary(0.25);
        let mut fresh = base.clone();
        let partial = fresh.num("partial_replication_rows", "partial_cross_mass");
        fresh.set(
            "partial_replication_rows",
            "partial_cross_mass",
            partial + 1e-12,
        );
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
        let base = summary(0.25);
        let mut fresh = base.clone();
        let full = fresh.num("partial_replication_rows", "full_cross_mass");
        fresh.set("partial_replication_rows", "partial_cross_mass", full + 0.1);
        let report = compare(&base.to_json(), &fresh.to_json());
        assert!(
            report.drifts.iter().any(|d| d.contains("at equal memory")),
            "{:?}",
            report.drifts
        );
    }

    #[test]
    fn top2_falling_back_to_owner_only_fails_the_bar() {
        let base = summary(0.25);
        let mut fresh = base.clone();
        fresh.set("partial_replication_rows", "cc_replicas_added", 0u64);
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
        let base = summary(0.25);
        let mut fresh = base.clone();
        let slots = fresh.int("partial_replication_rows", "replica_slots");
        fresh.set(
            "partial_replication_rows",
            "partial_extra_copies",
            slots + 1,
        );
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
        let base = summary(0.25);
        let mut fresh = base.clone();
        let key = "partial_replication_rows";
        let allowed = fresh.int(key, "budget_bytes") * fresh.int(key, "partial_replans");
        fresh.set(key, "partial_migrated_bytes", allowed + 1);
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
        let base = summary(0.25);
        let mut fresh = base.clone();
        let copies = fresh.int("elasticity_rows", "repl_extra_copies");
        fresh.set("elasticity_rows", "repl_extra_copies", copies + 1);
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
        let base = summary(0.25);
        let mut fresh = base.clone();
        let evaluated = fresh.int("replan_latency_rows", "evaluated_incremental");
        fresh.set(
            "replan_latency_rows",
            "evaluated_incremental",
            evaluated + 1,
        );
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
        let base = summary(0.25);
        let mut fresh = base.clone();
        let cm = fresh.num("replan_latency_rows", "cross_mass_incremental");
        fresh.set("replan_latency_rows", "cross_mass_incremental", cm + 1e-12);
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
        let base = summary(0.25);
        let mut fresh = base.clone();
        // 8M considered, 8k of them evaluated exactly: only 1000x on the
        // 512 cell.
        fresh.set("replan_latency_rows", "evaluated_incremental", 8_000u64);
        fresh.set("replan_latency_rows", "reused", 7_992_000u64);
        let report = compare(&base.to_json(), &fresh.to_json());
        assert!(
            report.drifts.iter().any(|d| d.contains("below the")),
            "{:?}",
            report.drifts
        );
    }

    #[test]
    fn replan_missing_preset_fails() {
        let base = summary(0.25);
        let mut fresh = base.clone();
        fresh.set("replan_latency_rows", "preset", "renamed");
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
        let base = summary(0.25);
        let mut fresh = base.clone();
        let budgeted = fresh.int("online_rows", "budgeted_cross");
        fresh.set("online_rows", "budgeted_cross", budgeted + 1);
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
        let base = summary(0.25);
        let mut fresh = base.clone();
        fresh.set("online_rows", "scenario", "renamed");
        let report = compare(&base.to_json(), &fresh.to_json());
        assert!(!report.ok());
        assert!(report.drifts.iter().any(|d| d.contains("missing")));
        assert!(report.drifts.iter().any(|d| d.contains("not in baseline")));
    }

    #[test]
    fn low_online_recovery_fails_the_bar() {
        let base = summary(0.25);
        let mut fresh = base.clone();
        // static 5000, oracle 3000: budgeted 4000 recovers only 50%.
        fresh.set("online_rows", "budgeted_cross", 4000u64);
        let report = compare(&base.to_json(), &fresh.to_json());
        assert!(
            report.drifts.iter().any(|d| d.contains("acceptance bar")),
            "{:?}",
            report.drifts
        );
    }

    #[test]
    fn online_budget_violation_fails() {
        let base = summary(0.25);
        let mut fresh = base.clone();
        let allowed =
            fresh.int("online_rows", "budget_bytes") * fresh.int("online_rows", "replans");
        fresh.set("online_rows", "migrated_bytes", allowed + 1);
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

    #[test]
    fn a_bar_that_cannot_read_its_field_is_a_drift_not_a_pass() {
        // 99 extra copies over an 8-slot budget fails the memory bar...
        let mut doc = summary(0.25);
        doc.set("replication_online_rows", "extra_copies", 99u64);
        let json = doc.to_json();
        assert!(!compare(&json, &json).ok());
        // ...and must keep failing when both documents lose the budget
        // the bar compares against.
        doc.strip("replication_online_rows", "replica_slots");
        let json = doc.to_json();
        let report = compare(&json, &json);
        let lacks = "replication row piecewise-2phase/E16 lacks field replica_slots";
        assert_eq!(report.drifts, [lacks]);

        // The same for a paper entry: full ExFlow below plain coherence
        // fails fig10's bar, with or without the column it is held against.
        let mut doc = summary(0.25);
        doc.set("fig10", "exflow_affinity", 1.25);
        let json = doc.to_json();
        let report = compare(&json, &json);
        let below = "fig10 MoE-GPT-M/8e-24L/8: affinity 1.25 below no-affinity 1.375";
        assert_eq!(report.drifts, [below]);
        doc.strip("fig10", "exflow_no_affinity");
        let json = doc.to_json();
        let report = compare(&json, &json);
        let lacks = "fig10 row MoE-GPT-M/8e-24L/8 lacks field exflow_no_affinity";
        assert_eq!(report.drifts, [lacks]);
    }

    #[test]
    fn a_missing_selector_field_cannot_hide_a_slow_sparse_cell() {
        // A dense-ish cell that no longer says it is the E = 512 cell.
        let mut doc = summary(0.25);
        doc.set("sparse_rows", "density", Json::Fixed(0.6, 6));
        doc.strip("sparse_rows", "experts");
        let json = doc.to_json();
        let report = compare(&json, &json);
        let lacks = "sparse row MoE-GPT-XXL/512e-24L-top1 lacks field experts";
        assert_eq!(report.drifts, [lacks]);
    }

    #[test]
    fn a_fresh_row_that_drops_or_adds_a_column_is_a_drift() {
        // A column no bar reads, of a beyond-paper table and of a paper
        // entry.
        for (key, field, row) in [
            ("online_rows", "windows", "online row piecewise-2phase"),
            ("table1", "layers", "table1 row ExFlow"),
        ] {
            let base = summary(0.25);
            let mut dropped = base.clone();
            dropped.strip(key, field);
            let report = compare(&base.to_json(), &dropped.to_json());
            assert_eq!(report.drifts.len(), 1, "{:?}", report.drifts);
            assert!(report.drifts[0].contains(row));
            assert!(report.drifts[0].contains(&format!("lacks [\"{field}\"], adds []")));
            // The same pair the other way round: the fresh row adds a column.
            let report = compare(&dropped.to_json(), &base.to_json());
            assert_eq!(report.drifts.len(), 1, "{:?}", report.drifts);
            assert!(report.drifts[0].contains(&format!("lacks [], adds [\"{field}\"]")));
        }
    }

    #[test]
    fn every_field_that_is_not_an_id_is_compared() {
        // `windows` and the rounded `recovery` are in no bar and were in
        // no per-column list: only the compare-everything rule sees them.
        let base = summary(0.25);
        for (field, value) in [
            ("windows", Json::U64(7)),
            ("recovery", Json::Fixed(0.91, 4)),
        ] {
            let mut fresh = base.clone();
            fresh.set("online_rows", field, value);
            let report = compare(&base.to_json(), &fresh.to_json());
            let drift = format!("{field} drift on online/piecewise-2phase");
            assert_eq!(report.drifts.len(), 1, "{:?}", report.drifts);
            assert!(report.drifts[0].contains(&drift), "{:?}", report.drifts);
        }
        // A paper row is gated the same way, and the drift names the
        // table, the row and the field.
        let mut fresh = base.clone();
        fresh.set("fig7", "affinity_local", 0.56);
        let report = compare(&base.to_json(), &fresh.to_json());
        let drift = "affinity_local drift on fig7/4: baseline 0.55 vs fresh 0.56";
        assert_eq!(report.drifts, [drift]);
    }
}
