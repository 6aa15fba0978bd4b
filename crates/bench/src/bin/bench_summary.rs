//! `bench_summary` — the fixed-seed solver micro-benchmark behind the
//! repo's perf trajectory (`BENCH_BASELINE.json`, with the per-PR history
//! under `crates/bench/history/`), and the CI perf-gate.
//!
//! Runs every sweep of `exflow_bench::table::TABLES` (each table's
//! paragraph is the doc comment of its sweep function in
//! `exflow_bench::summary`), prints each table to stderr through the same
//! `render` that `repro` uses, and writes the machine-readable summary
//! JSON (schema `exflow-bench-summary/v9`, documented in the README).
//!
//! ```text
//! cargo run --release -p exflow-bench --bin bench_summary -- \
//!     --jobs 4 --out BENCH.fresh.json --check BENCH_BASELINE.json
//! ```
//!
//! With `--check BASELINE`, the fresh summary is compared against the
//! committed baseline by `exflow_bench::gate::compare` (its module doc
//! states the rules: everything a row holds is bit-compared unless its
//! `TABLES` entry says it is wall-clock, and each table's acceptance bars
//! must hold). The markdown verdict goes to stdout (CI appends it to the
//! job summary). Regenerate the baseline deliberately with
//! `--jobs 4 --seed 20240522 --out BENCH_BASELINE.json`.
//!
//! Exit codes: 0 on success, 1 if a verification/gate check fails or the
//! output cannot be written, 2 on usage errors (consistent with `repro`).

use exflow_bench::cli::parse_jobs;
use exflow_bench::table::TABLES;
use exflow_bench::{gate, summary};

struct Args {
    jobs: usize,
    seed: u64,
    out: Option<String>,
    check: Option<String>,
}

fn print_usage() {
    eprintln!("usage: bench_summary [--jobs N] [--seed S] [--out PATH] [--check BASELINE]");
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut args = Args {
        jobs: 4,
        seed: summary::BASELINE_SEED,
        out: None,
        check: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "-h" | "--help" => return Ok(None),
            "--jobs" => {
                let value = it.next().ok_or("missing value for --jobs")?;
                args.jobs = parse_jobs(&value).map_err(|e| e.to_string())?;
            }
            "--seed" => {
                let value = it.next().ok_or("missing value for --seed")?;
                args.seed = value
                    .parse()
                    .map_err(|_| format!("invalid --seed value: {value}"))?;
            }
            "--out" => {
                args.out = Some(it.next().ok_or("missing value for --out")?);
            }
            "--check" => {
                args.check = Some(it.next().ok_or("missing value for --check")?);
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok(Some(args))
}

fn main() {
    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => {
            print_usage();
            return;
        }
        Err(msg) => {
            eprintln!("error: {msg}");
            print_usage();
            std::process::exit(2);
        }
    };

    let summary = match summary::run(args.jobs, args.seed) {
        Ok(s) => s,
        Err(msg) => {
            eprintln!("error: {msg}");
            std::process::exit(1);
        }
    };

    for (table, (_, rows)) in TABLES.iter().zip(&summary.tables) {
        eprintln!("\n[{}]\n{}", table.key, (table.render)(rows));
    }

    let json = summary.to_json();
    match &args.out {
        Some(path) => {
            if let Err(err) = std::fs::write(path, &json) {
                eprintln!("error: cannot write {path}: {err}");
                std::process::exit(1);
            }
            eprintln!("wrote {path}");
        }
        None => print!("{json}"),
    }

    if let Some(baseline_path) = &args.check {
        let baseline = match std::fs::read_to_string(baseline_path) {
            Ok(s) => s,
            Err(err) => {
                eprintln!("error: cannot read baseline {baseline_path}: {err}");
                std::process::exit(1);
            }
        };
        let report = gate::compare(&baseline, &json);
        // Markdown on stdout: CI pipes it into the job summary.
        print!("{}", report.to_markdown());
        if !report.ok() {
            eprintln!(
                "error: perf-gate failed against {baseline_path} ({} drift(s))",
                report.drifts.len()
            );
            std::process::exit(1);
        }
    }
}
