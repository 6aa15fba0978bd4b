//! `repro` — regenerate every table and figure of the ExFlow paper.
//!
//! ```text
//! cargo run --release -p exflow-bench --bin repro -- all
//! cargo run --release -p exflow-bench --bin repro -- fig10
//! cargo run --release -p exflow-bench --bin repro -- --jobs 8 table1 fig7
//! cargo run --release -p exflow-bench --bin repro -- --jobs 4 --out BENCH.fresh.json all
//! ```
//!
//! Every artifact has one size (the paper's artifacts the paper's).
//! `--jobs N` fans experiment sweep points across N worker threads;
//! artifacts, and the document, are byte-identical for every N.
//!
//! `all` sweeps every `exflow_bench::table::TABLES` entry, so with it —
//! and only with it — `--out PATH` writes the rows as the summary document
//! (schema `exflow-bench-summary/v10`, documented in the README). CI
//! byte-compares that document with the committed `BENCH_BASELINE.json`;
//! regenerate the baseline deliberately with `--out BENCH_BASELINE.json all`.
//!
//! Exit codes: 0 on success; 1 if any artifact fails to regenerate (its
//! sweep's in-run verification or its bars included) or the document cannot
//! be written; 2 on usage errors (no targets, unknown artifact name, bad
//! `--jobs`, `--out` without `all`).

use exflow_bench::cli::{self, Command};
use exflow_bench::summary::{self, BASELINE_SEED};

fn print_usage() {
    eprintln!("usage: repro [--jobs N] [--out PATH] <artifact>... | all");
    eprintln!("artifacts: {}", cli::artifact_names().join(", "));
}

fn main() {
    let command = cli::parse(std::env::args().skip(1)).unwrap_or_else(|err| {
        eprintln!("error: {err}");
        print_usage();
        std::process::exit(2)
    });
    let Command::Run { jobs, targets, out } = command else {
        return print_usage();
    };
    let mut ok = true;
    let mut sections = Vec::new();
    for target in targets {
        println!("==============================================================");
        let run = cli::runner(&target).expect("parse validates against the dispatch table");
        // Catch panics so one failing artifact doesn't abort the rest and
        // the documented exit code (1, not the panic's 101) is honored.
        match std::panic::catch_unwind(|| run.run(jobs)) {
            Ok(swept) => sections.extend(swept),
            Err(_) => {
                eprintln!("error: artifact {target} failed to regenerate");
                ok = false;
            }
        }
    }
    // `parse` lets `--out` through only with `all`: every entry was swept,
    // in `TABLES` order.
    if let Some(path) = out.filter(|_| ok) {
        let json = summary::document(BASELINE_SEED, sections);
        if let Err(err) = cli::deliver(&json, &path) {
            eprintln!("error: {err}");
            ok = false;
        }
    }
    if !ok {
        std::process::exit(1);
    }
}
