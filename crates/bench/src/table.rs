//! What a table is, decided once: [`TABLES`] lists every artifact whose
//! output is rows — the paper's tables and figures, then the beyond-paper
//! `table_*` sweeps — and everything that handles rows iterates it.
//! `repro` sweeps the entries of the artifacts it is asked for, holds each
//! to its bars and prints it; `repro --out PATH all` keeps every entry's
//! rows and `summary::document` writes them as the array sections of the
//! summary document, which CI byte-compares with the committed baseline.
//!
//! A row is an insertion-ordered `Json` object built once, in the literal
//! that ends its sweep; that literal (one commented line per key) is the
//! only declaration of the table's columns. A new table is one entry here
//! plus its three functions.

use exflow_core::json::Json;

use crate::experiments::common::Workload;
use crate::experiments::{
    ablations, elasticity, fig10, fig11, fig12, fig13, fig2, fig6, fig7, fig8, fig9, online,
    partial_replication, replan_latency, replication_online, serving, table1, table3,
};
use crate::fmt::render_table;
use crate::gate::{self, Bars};
use crate::summary;
use crate::sweep::SweepPool;

/// How an entry's rows are produced. Rows are invariant in the `--jobs`
/// width either way.
#[derive(Clone, Copy)]
pub enum Sweep {
    /// A paper artifact: rows at a [`Workload`] (non-test code has one,
    /// `PAPER`), cells fanned across the installed sweep pool. Its seeds
    /// are the artifact's own.
    Paper(fn(&Workload) -> Vec<Json>),
    /// A beyond-paper table at its one gated size: `(jobs, seed)` to rows,
    /// or the in-sweep invariance check that failed. `jobs` is the solver
    /// width the sweep verifies thread-count invariance at; cells it hands
    /// to `par_map` fan across the installed pool like a paper entry's.
    Seeded(fn(usize, u64) -> Result<Vec<Json>, String>),
}

/// One array section of the summary document.
pub struct Table {
    /// JSON key of the section (`"online_rows"`).
    pub key: &'static str,
    /// Name in bar violations: `<name> <id>: <what>`.
    pub name: &'static str,
    /// The `repro` artifact that prints this table. Entries that share an
    /// artifact are adjacent and print in order.
    pub artifact: &'static str,
    /// Fields that together identify a row (joined with `/` in
    /// violations). Every other field a row holds is a deterministic fact.
    pub id: &'static [&'static str],
    /// The sweep that produces the rows.
    pub sweep: Sweep,
    /// Acceptance bars a run's rows must clear on their own. Each bar is
    /// stated here and nowhere else.
    pub bars: fn(&[Json], &mut Bars),
    /// The rows as the plain text `repro` prints.
    pub render: fn(&[Json]) -> String,
}

impl Table {
    /// Sweep the entry with its cells fanned across `jobs` workers: a
    /// paper artifact at `w`, a beyond-paper table at `(jobs, seed)`.
    pub fn rows(&self, w: &Workload, jobs: usize, seed: u64) -> Result<Vec<Json>, String> {
        SweepPool::new(jobs).install(|| match self.sweep {
            Sweep::Paper(sweep) => Ok(sweep(w)),
            Sweep::Seeded(sweep) => sweep(jobs, seed),
        })
    }

    /// The violations `rows` earn from this table's own bars (none =
    /// cleared).
    pub fn violations(&self, rows: &[Json]) -> Vec<String> {
        let mut violations = Vec::new();
        (self.bars)(rows, &mut Bars::new(self, &mut violations));
        violations
    }
}

/// A paper artifact's entry, keyed and named by its `repro` artifact.
const fn paper(
    name: &'static str,
    id: &'static [&'static str],
    sweep: fn(&Workload) -> Vec<Json>,
    bars: fn(&[Json], &mut Bars),
    render: fn(&[Json]) -> String,
) -> Table {
    Table {
        key: name,
        name,
        artifact: name,
        id,
        sweep: Sweep::Paper(sweep),
        bars,
        render,
    }
}

/// One of the five tables the `ablations` artifact prints.
const fn ablation(
    name: &'static str,
    id: &'static [&'static str],
    sweep: fn(&Workload) -> Vec<Json>,
    bars: fn(&[Json], &mut Bars),
    render: fn(&[Json]) -> String,
) -> Table {
    Table {
        artifact: "ablations",
        ..paper(name, id, sweep, bars, render)
    }
}

/// Every array section of the summary, in document order: the paper's
/// artifacts in the paper's order, then the beyond-paper tables.
pub const TABLES: &[Table] = &[
    paper(
        "table1",
        &["system"],
        table1::sweep,
        table1::bars,
        table1::render,
    ),
    paper(
        "table3",
        &["corpus"],
        |_| table3::sweep(),
        table3::bars,
        table3::render,
    ),
    paper(
        "fig6",
        &["model", "gpus"],
        fig6::sweep,
        fig6::bars,
        fig6::render,
    ),
    paper("fig7", &["gpus"], fig7::sweep, fig7::bars, fig7::render),
    paper("fig8", &["nodes"], fig8::sweep, fig8::bars, fig8::render),
    paper("fig9", &["nodes"], fig9::sweep, fig9::bars, fig9::render),
    paper(
        "fig10",
        &["model", "gpus"],
        fig10::sweep,
        fig10::bars,
        fig10::render,
    ),
    paper(
        "fig11",
        &["experts", "iteration"],
        |_| fig11::sweep(),
        fig11::bars,
        fig11::render,
    ),
    paper(
        "fig12",
        &["phase", "experts", "iteration"],
        |_| fig12::sweep(),
        fig12::bars,
        fig12::render,
    ),
    paper(
        "fig13",
        &["experts", "tokens"],
        fig13::sweep,
        fig13::bars,
        fig13::render,
    ),
    paper(
        "fig14",
        &["from_layer", "to_layer"],
        |_| fig2::gap_sweep(),
        fig2::gap_bars,
        fig2::render_gaps,
    ),
    ablation(
        "ablation_solvers",
        &["solver"],
        |_| ablations::solver_sweep(),
        ablations::solver_bars,
        ablations::render_solvers,
    ),
    ablation(
        "ablation_staged",
        &["strategy"],
        |_| ablations::staged_sweep(),
        ablations::staged_bars,
        ablations::render_staged,
    ),
    ablation(
        "ablation_kappa",
        &["kappa"],
        |_| ablations::kappa_sweep(),
        ablations::kappa_bars,
        ablations::render_kappa,
    ),
    ablation(
        "ablation_replication",
        &["strategy"],
        |_| ablations::replication_sweep(),
        ablations::replication_bars,
        ablations::render_replication,
    ),
    ablation(
        "ablation_gating",
        &["gate", "mode"],
        ablations::gating_sweep,
        ablations::gating_bars,
        ablations::render_gating,
    ),
    Table {
        key: "rows",
        name: "table2",
        artifact: "table_solvers",
        id: &["model", "solver"],
        sweep: Sweep::Seeded(summary::solver_table),
        bars: |_, _| {},
        render: render_columns,
    },
    Table {
        key: "sparse_rows",
        name: "sparse",
        artifact: "table_sparse",
        id: &["preset"],
        sweep: Sweep::Seeded(summary::sparse_table),
        bars: gate::sparse_bars,
        render: render_columns,
    },
    Table {
        key: "online_rows",
        name: "online",
        artifact: "table_online",
        id: &["scenario"],
        sweep: Sweep::Seeded(summary::online_table),
        bars: gate::online_bars,
        render: online::render,
    },
    Table {
        key: "replication_online_rows",
        name: "replication",
        artifact: "table_replication_online",
        id: &["scenario"],
        sweep: Sweep::Seeded(summary::replication_online_table),
        bars: gate::replication_bars,
        render: replication_online::render,
    },
    Table {
        key: "serving_rows",
        name: "serving",
        artifact: "table_serving",
        id: &["arrival"],
        sweep: Sweep::Seeded(summary::serving_table),
        bars: gate::serving_bars,
        render: serving::render,
    },
    Table {
        key: "elasticity_rows",
        name: "elasticity",
        artifact: "table_elasticity",
        id: &["fault"],
        sweep: Sweep::Seeded(summary::elasticity_table),
        bars: gate::elasticity_bars,
        render: elasticity::render,
    },
    Table {
        key: "replan_latency_rows",
        name: "replan-latency",
        artifact: "table_replan_latency",
        id: &["preset"],
        sweep: Sweep::Seeded(summary::replan_latency_table),
        bars: gate::replan_latency_bars,
        render: replan_latency::render,
    },
    Table {
        key: "partial_replication_rows",
        name: "partial-replication",
        artifact: "table_partial_replication",
        id: &["scenario"],
        sweep: Sweep::Seeded(summary::partial_replication_table),
        bars: gate::partial_replication_bars,
        render: partial_replication::render,
    },
];

fn field<'a>(row: &'a Json, key: &str) -> &'a Json {
    row.get(key)
        .unwrap_or_else(|| panic!("no field {key:?} in the row its sweep built"))
}

/// A field of a freshly swept row as table-cell or message text: strings
/// unquoted, numbers as their exact token. The three accessors here are
/// for renders and bars, which read rows their own sweep just built — so
/// an absent field is a bug and panics.
pub fn text(row: &Json, key: &str) -> String {
    match field(row, key) {
        Json::Str(s) => s.clone(),
        other => other.write().unwrap_or_default(),
    }
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
/// render of its own prints.
pub fn render_columns(rows: &[Json]) -> String {
    let Some(Json::Obj(first)) = rows.first() else {
        return String::new();
    };
    let headers: Vec<&str> = first.iter().map(|(key, _)| key.as_str()).collect();
    let cells = |row| headers.iter().map(|key| text(row, key)).collect();
    let body: Vec<Vec<String>> = rows.iter().map(cells).collect();
    render_table(&headers, &body)
}

/// One printed column: its header, and the cell a row shows under it.
pub type Column<'a> = (&'a str, &'a dyn Fn(&Json) -> String);

/// One section of a printed artifact: `title`, a blank line, the rows as
/// an aligned table of `columns`, a blank line.
pub fn render_section(title: &str, columns: &[Column], rows: &[Json]) -> String {
    let headers: Vec<&str> = columns.iter().map(|&(header, _)| header).collect();
    let cells = |row| columns.iter().map(|(_, cell)| cell(row)).collect();
    let body: Vec<Vec<String>> = rows.iter().map(cells).collect();
    format!("{title}\n\n{}\n", render_table(&headers, &body))
}

/// The first row whose `field` is the string `label`, if any.
pub(crate) fn find<'a>(rows: &'a [Json], field: &str, label: &str) -> Option<&'a Json> {
    let holds = |row: &&Json| row.get(field).and_then(Json::as_str) == Some(label);
    rows.iter().find(holds)
}

/// The runs of consecutive rows that agree on every one of `fields`: a
/// sweep's per-model series.
pub(crate) fn series<'a>(rows: &'a [Json], fields: &'a [&str]) -> impl Iterator<Item = &'a [Json]> {
    rows.chunk_by(move |a, b| fields.iter().all(|field| a.get(field) == b.get(field)))
}

/// Every entry's rows at the test size — paper artifacts on the `FIXTURE`
/// workload, beyond-paper tables at their one size — swept once per test
/// binary, and the helper the per-artifact bar tests share.
#[cfg(test)]
pub(crate) mod fixture {
    use std::sync::OnceLock;

    use super::*;
    use crate::experiments::common::FIXTURE;

    /// The seed the beyond-paper sweeps run at under test.
    const SEED: u64 = 7;

    pub(crate) fn table(key: &str) -> &'static Table {
        let found = TABLES.iter().find(|table| table.key == key);
        found.unwrap_or_else(|| panic!("no table {key}"))
    }

    /// Sweep `table` on the fixture at `jobs` workers.
    pub(crate) fn sweep(table: &Table, jobs: usize) -> Vec<Json> {
        let rows = table.rows(&FIXTURE, jobs, SEED);
        rows.unwrap_or_else(|err| panic!("{}: {err}", table.key))
    }

    /// Section `key`'s fixture rows (swept at two workers, once).
    pub(crate) fn rows(key: &str) -> &'static [Json] {
        static ROWS: [OnceLock<Vec<Json>>; TABLES.len()] =
            [const { OnceLock::new() }; TABLES.len()];
        let index = TABLES.iter().position(|table| table.key == key);
        let index = index.unwrap_or_else(|| panic!("no table {key}"));
        ROWS[index].get_or_init(|| sweep(&TABLES[index], 2))
    }

    /// Overwrite `field` of `row`, which must hold it.
    pub(crate) fn set(row: &mut Json, field: &str, value: Json) {
        let Json::Obj(fields) = row else {
            panic!("a row is an object")
        };
        let found = fields.iter_mut().find(|(key, _)| key == field);
        found.unwrap_or_else(|| panic!("no {field} in the row")).1 = value;
    }

    /// Section `key`'s fixture rows clear its bars, and stop clearing them
    /// — with a violation containing `needle` — once each `(row, field,
    /// value)` of `edits` is written over them.
    pub(crate) fn assert_trips(key: &str, edits: &[(usize, &str, Json)], needle: &str) {
        let table = table(key);
        let mut rows = rows(key).to_vec();
        assert_eq!(table.violations(&rows), Vec::<String>::new(), "{key}");
        for (row, field, value) in edits {
            set(&mut rows[*row], field, value.clone());
        }
        let violations = table.violations(&rows);
        assert!(
            violations.iter().any(|v| v.contains(needle)),
            "{key}: no violation mentions {needle:?}: {violations:?}"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn is_paper(table: &Table) -> bool {
        matches!(table.sweep, Sweep::Paper(_))
    }

    #[test]
    fn keys_and_names_are_unique_and_shared_artifacts_are_adjacent() {
        for (i, table) in TABLES.iter().enumerate() {
            for earlier in &TABLES[..i] {
                assert_ne!(table.key, earlier.key);
                assert_ne!(table.name, earlier.name);
            }
            // An artifact renders its entries as one run of TABLES, so a
            // rendered section belongs to exactly one place in `repro all`.
            let artifact = table.artifact;
            let first = TABLES.iter().position(|t| t.artifact == artifact);
            let run = &TABLES[first.unwrap()..=i];
            assert!(
                run.iter().all(|t| t.artifact == artifact),
                "{artifact}: its entries are not adjacent"
            );
        }
        // The paper's artifacts lead, in one block.
        let paper = TABLES.iter().take_while(|t| is_paper(t)).count();
        assert!(paper > 0 && !TABLES[paper..].iter().any(is_paper));
    }

    #[test]
    fn the_readme_schema_lists_every_section_in_table_order() {
        let mut rest = include_str!("../../../README.md");
        for table in TABLES {
            let section = format!("  \"{}\": [", table.key);
            let at = rest.find(&section);
            let at = at.unwrap_or_else(|| panic!("README lacks {section} after the one before"));
            rest = &rest[at + section.len()..];
        }
    }

    #[test]
    fn paper_entries_sweep_the_same_rows_at_any_width_and_clear_their_bars() {
        // And the Table II sweep, whose grid fans across the pool like a
        // paper entry's: no field is a measurement, so whole rows compare.
        for table in TABLES.iter().filter(|t| is_paper(t) || t.key == "rows") {
            let rows = fixture::rows(table.key);
            assert!(
                !rows.is_empty(),
                "{}: the fixture sweep is empty",
                table.key
            );
            assert_eq!(fixture::sweep(table, 1), rows, "{}: jobs 1 vs 2", table.key);
            assert_eq!(
                table.violations(rows),
                Vec::<String>::new(),
                "{}",
                table.key
            );
        }
    }
}
