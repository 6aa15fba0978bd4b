//! `bench_summary` — the fixed-seed solver micro-benchmark behind the
//! repo's perf trajectory (`BENCH_BASELINE.json`, with the per-PR history
//! under `crates/bench/history/`), and the CI perf-gate.
//!
//! Sweeps the Table II model zoo × the solver roster (timing the whole
//! sweep at `--jobs 1` and at `--jobs N`, verified bit-identical across
//! widths), the `table_sparse` large-expert sweep (dense vs CSR objective
//! backend, verified identical across backends), the `table_online`
//! drift sweep (static vs oracle vs budgeted re-placement, verified
//! invariant across thread counts and backends), and the
//! `table_replication_online` sweep (static vs owner-moves-only vs the
//! joint replica + owner-move policy under the joint budget, verified
//! invariant across backends), and the `table_serving` request-level
//! sweep (static vs budgeted-online vs replication-aware placements under
//! Poisson/diurnal/flash-crowd arrivals, verified invariant across thread
//! counts and backends), and the `table_elasticity` fault sweep (an
//! unreplicated vs a fully replicated fleet through a mid-run GPU loss,
//! verified invariant across thread counts and backends), and the
//! `table_replan_latency` sweep (cold-rebuild vs delta-maintained
//! re-planning at `E = 256/512`, verified to land bit-identical
//! placements and cross masses), and the `table_partial_replication`
//! sweep (subset vs full replica fan-out from the same incumbent at
//! `E = 16/256` × top-1/top-2, verified invariant across backends and
//! thread counts), and writes the machine-readable summary
//! JSON (schema `exflow-bench-summary/v8`, documented in the README).
//!
//! ```text
//! cargo run --release -p exflow-bench --bin bench_summary -- \
//!     --quick --jobs 4 --out BENCH.fresh.json --check BENCH_BASELINE.json
//! ```
//!
//! With `--check BASELINE`, the fresh summary is compared against the
//! committed baseline by `exflow_bench::gate::compare`. The baseline must
//! carry the current schema tag — an older one is rejected with a
//! "regenerate the baseline" failure, never partially compared. What is
//! gated is listed in one place, the `gate::SECTIONS` table: per section,
//! the deterministic fields that are bit-compared against the baseline
//! (any mismatch, missing row, or extra row is a hard failure), the
//! acceptance bars the fresh rows must clear on their own, and the
//! wall-time fields whose regressions beyond 25% are only reported as
//! warnings in the markdown printed to stdout (CI appends it to the job
//! summary). Regenerate the baseline deliberately with
//! `--quick --jobs 4 --seed 20240522 --out BENCH_BASELINE.json`.
//!
//! Exit codes: 0 on success, 1 if a verification/gate check fails or the
//! output cannot be written, 2 on usage errors (consistent with `repro`).

use exflow_bench::cli::parse_jobs;
use exflow_bench::table::TABLES;
use exflow_bench::Scale;
use exflow_bench::{gate, summary};

struct Args {
    scale: Scale,
    jobs: usize,
    seed: u64,
    out: Option<String>,
    check: Option<String>,
}

fn print_usage() {
    eprintln!(
        "usage: bench_summary [--quick|--full] [--jobs N] [--seed S] [--out PATH] [--check BASELINE]"
    );
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut args = Args {
        scale: Scale::Quick,
        jobs: 4,
        seed: summary::BASELINE_SEED,
        out: None,
        check: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "-h" | "--help" => return Ok(None),
            "--quick" => args.scale = Scale::Quick,
            "--full" => args.scale = Scale::Full,
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

    let summary = match summary::run(args.scale, args.jobs, args.seed) {
        Ok(s) => s,
        Err(msg) => {
            eprintln!("error: {msg}");
            std::process::exit(1);
        }
    };

    eprintln!(
        "sweep: jobs=1 {:.0} ms, jobs={} {:.0} ms, speedup {:.2}x, objectives bit-identical",
        summary.wall_ms_jobs1,
        summary.jobs,
        summary.wall_ms_jobs_n,
        summary.speedup()
    );
    for (table, (_, rows)) in TABLES.iter().zip(&summary.tables) {
        eprintln!("\n{}", (table.render)(rows));
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
