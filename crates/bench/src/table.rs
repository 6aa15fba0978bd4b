//! What a bench-summary table is, decided once: [`TABLES`] lists every
//! array section of the summary document, and everything that handles
//! tables iterates it — `summary::run` sweeps them, `BenchSummary::to_json`
//! emits them, `gate::compare` gates them, `repro` prints the ones that
//! name an artifact, and `bench_summary` prints them all.
//!
//! A row is an insertion-ordered `Json` object built once, in the literal
//! that ends its sweep; that literal (one commented line per key) is the
//! only declaration of the table's columns. A new table is one entry here
//! plus its three functions.

use exflow_core::json::Json;

use crate::experiments::{
    elasticity, online, partial_replication, replan_latency, replication_online, serving,
};
use crate::fmt::render_table;
use crate::gate::{self, Bars};
use crate::summary;

/// One array section of the summary document.
pub struct Table {
    /// JSON key of the section (`"online_rows"`).
    pub key: &'static str,
    /// Name in gate messages: rows are `<name> row <id>`, drifted fields
    /// `<field> drift on <name>/<id>`.
    pub name: &'static str,
    /// The `repro` artifact that prints this table, if it has one.
    pub artifact: Option<&'static str>,
    /// Fields that together identify a row (joined with `/` in messages).
    pub id: &'static [&'static str],
    /// Wall-clock fields: machine-dependent, so a regression only warns.
    /// Each comes with the suffix naming it in the warning.
    pub wall: &'static [(&'static str, &'static str)],
    /// Ratios of wall-clock fields: never compared. Every field a row
    /// holds that is in none of `id`, `wall` and `unjudged` is a
    /// deterministic fact, bit-compared against the baseline row.
    pub unjudged: &'static [&'static str],
    /// Name drift messages use instead of the field name (Table II's one
    /// judged field is simply "the objective").
    pub drift_name: Option<&'static str>,
    /// The sweep: `(jobs, seed)` to rows, or the invariance check that
    /// failed. Rows are invariant in `jobs` (verified in-sweep).
    pub sweep: fn(usize, u64) -> Result<Vec<Json>, String>,
    /// Acceptance bars a run's rows must clear on their own, whatever the
    /// baseline says. Each bar is stated here and nowhere else.
    pub bars: fn(&[Json], &mut Bars),
    /// The rows as the plain-text table `repro` and `bench_summary` print.
    pub render: fn(&[Json]) -> String,
}

impl Table {
    /// The drifts `rows` earn from this table's own bars (none = cleared).
    pub fn violations(&self, rows: &[Json]) -> Vec<String> {
        let mut drifts = Vec::new();
        (self.bars)(rows, &mut Bars::new(self, &mut drifts));
        drifts
    }
}

/// Every array section of the summary, in document order.
pub const TABLES: &[Table] = &[
    Table {
        key: "rows",
        name: "table2",
        artifact: None,
        id: &["model", "solver"],
        wall: &[("wall_ms", "")],
        unjudged: &[],
        drift_name: Some("objective"),
        sweep: summary::solver_table,
        bars: |_, _| {},
        render: render_columns,
    },
    Table {
        key: "sparse_rows",
        name: "sparse",
        artifact: None,
        id: &["preset"],
        wall: &[
            ("wall_ms_dense", " (dense)"),
            ("wall_ms_sparse", " (sparse)"),
        ],
        unjudged: &["speedup"],
        drift_name: None,
        sweep: summary::sparse_table,
        bars: gate::sparse_bars,
        render: render_columns,
    },
    Table {
        key: "online_rows",
        name: "online",
        artifact: Some("table_online"),
        id: &["scenario"],
        wall: &[],
        unjudged: &[],
        drift_name: None,
        sweep: summary::online_table,
        bars: gate::online_bars,
        render: online::render,
    },
    Table {
        key: "replication_online_rows",
        name: "replication",
        artifact: Some("table_replication_online"),
        id: &["scenario"],
        wall: &[],
        unjudged: &[],
        drift_name: None,
        sweep: summary::replication_online_table,
        bars: gate::replication_bars,
        render: replication_online::render,
    },
    Table {
        key: "serving_rows",
        name: "serving",
        artifact: Some("table_serving"),
        id: &["arrival"],
        wall: &[],
        unjudged: &[],
        drift_name: None,
        sweep: summary::serving_table,
        bars: gate::serving_bars,
        render: serving::render,
    },
    Table {
        key: "elasticity_rows",
        name: "elasticity",
        artifact: Some("table_elasticity"),
        id: &["fault"],
        wall: &[],
        unjudged: &[],
        drift_name: None,
        sweep: summary::elasticity_table,
        bars: gate::elasticity_bars,
        render: elasticity::render,
    },
    Table {
        key: "replan_latency_rows",
        name: "replan-latency",
        artifact: Some("table_replan_latency"),
        id: &["preset"],
        wall: &[
            ("wall_ms_rebuild", " (re-plan, rebuild)"),
            ("wall_ms_incremental", " (re-plan, incremental)"),
        ],
        unjudged: &[],
        drift_name: None,
        sweep: summary::replan_latency_table,
        bars: gate::replan_latency_bars,
        render: replan_latency::render,
    },
    Table {
        key: "partial_replication_rows",
        name: "partial-replication",
        artifact: Some("table_partial_replication"),
        id: &["scenario"],
        wall: &[],
        unjudged: &[],
        drift_name: None,
        sweep: summary::partial_replication_table,
        bars: gate::partial_replication_bars,
        render: partial_replication::render,
    },
];

fn field<'a>(row: &'a Json, key: &str) -> &'a Json {
    row.get(key)
        .unwrap_or_else(|| panic!("no field {key:?} in the row its sweep built"))
}

/// A value as table-cell or message text: strings unquoted, numbers as
/// their exact token.
pub(crate) fn shown(value: &Json) -> String {
    match value {
        Json::Str(s) => s.clone(),
        other => other.write().unwrap_or_default(),
    }
}

/// A field of a freshly swept row as a table cell. The three accessors
/// here are for renderers, which read rows their own sweep just built — so
/// an absent field is a bug and panics (the gate, which reads documents
/// from disk, goes through [`Bars`] instead).
pub fn text(row: &Json, key: &str) -> String {
    shown(field(row, key))
}

/// A numeric field, unrounded: a `Json::Fixed` column still holds the
/// exact value in a freshly swept row.
pub fn num(row: &Json, key: &str) -> f64 {
    let value = field(row, key).as_f64();
    value.unwrap_or_else(|| panic!("field {key:?} is not a number"))
}

/// An exact unsigned integer field (byte counts are shifted, not divided).
pub fn int(row: &Json, key: &str) -> u64 {
    let value = field(row, key).as_u64();
    value.unwrap_or_else(|| panic!("field {key:?} is not an unsigned integer"))
}

/// Every column of the rows, headed by its key: how a table without a
/// `repro` artifact of its own prints.
pub fn render_columns(rows: &[Json]) -> String {
    let Some(Json::Obj(first)) = rows.first() else {
        return String::new();
    };
    let headers: Vec<&str> = first.iter().map(|(key, _)| key.as_str()).collect();
    let cells = |row| headers.iter().map(|key| text(row, key)).collect();
    let body: Vec<Vec<String>> = rows.iter().map(cells).collect();
    render_table(&headers, &body)
}
