//! The repository's performance benchmark: two clocks, four workloads,
//! layers probed from outside. See `benchmark/README.md`.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     [--workload W] [--seed N] [--seconds S] [--trace [0|1]] [--self-check] [--print-spec]
//! ```
//!
//! Every run prints each metric by name with its unit and clock, then —
//! as the last line of standard output — one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. The exit code is 0 only
//! when every output check held and no operation failed.

mod affinity;
mod calibration;
mod harness;
mod probes;
mod spec;
mod stats;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::process::{Command, ExitCode};

use harness::{measure, Options, RunResult};
use spec::{Clock, END_TO_END, RUN_SECONDS, WORKLOADS};
use workloads::offline::OfflineFig10;
use workloads::replan::Replan;
use workloads::serving::{ServeChurn, ServeSteady};

struct Cli {
    workload: Option<String>,
    opts: Options,
    self_check: bool,
    print_spec: bool,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        opts: Options {
            seed: calibration::DEFAULT_SEED,
            seconds: RUN_SECONDS as f64,
            trace: false,
            cpus: String::new(),
        },
        self_check: false,
        print_spec: false,
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                if !WORKLOADS.iter().any(|w| w.0 == name) {
                    return Err(format!("unknown workload {name}"));
                }
                cli.workload = Some(name);
            }
            "--seed" => {
                cli.opts.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".to_string());
                }
                cli.opts.seconds = s;
            }
            // `--trace` alone switches tracing on; the driver passes 0 or 1.
            "--trace" => {
                cli.opts.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--self-check" => cli.self_check = true,
            "--print-spec" => cli.print_spec = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(cli)
}

fn run_workload(name: &str, opts: &Options) -> RunResult {
    match name {
        "offline-fig10" => measure("offline-fig10", &OfflineFig10, opts),
        "serve-steady" => measure("serve-steady", &ServeSteady, opts),
        "serve-churn" => measure("serve-churn", &ServeChurn, opts),
        "replan-e512" => measure("replan-e512", &Replan::e512(), opts),
        other => unreachable!("workload names are validated at parse time: {other}"),
    }
}

/// The driver's result line. `f64`'s `Display` prints the shortest
/// decimal that round-trips, never an exponent, so it is valid JSON with
/// every digit measured.
fn result_json(r: &RunResult) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        r.correct(),
        r.attempted,
        r.failed
    );
    for (i, (m, v)) in r.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        write!(
            out,
            "{sep}\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
            m.name, m.unit
        )
        .expect("writing to a String cannot fail");
    }
    out.push_str("}}");
    out
}

fn print_result(r: &RunResult, opts: &Options) {
    println!(
        "== {} (seed {}, {}) ==",
        r.workload,
        opts.seed,
        if opts.trace {
            "traced run: per-layer metrics"
        } else {
            "untraced run: end-to-end metrics"
        }
    );
    for (m, v) in &r.metrics {
        println!(
            "{:<44} {:>22} {:<6} [{}, {} is better]",
            m.name,
            v,
            m.unit,
            m.clock.label(),
            m.better.label()
        );
    }
    for violation in &r.violations {
        println!("VIOLATION: {violation}");
    }
    println!("note: {}", r.note);
    println!(
        "operations: {} attempted, {} failed; outputs {}",
        r.attempted,
        r.failed,
        if r.correct() { "correct" } else { "INCORRECT" }
    );
    println!("{}", result_json(r));
}

fn passed(r: &RunResult) -> bool {
    r.correct() && r.failed == 0
}

/// One workload in a process of its own, as the driver runs it: peak RSS
/// is a per-process high-water mark, and heap one workload leaves behind
/// would otherwise be charged to the next.
fn child(workload: &str, opts: &Options) -> Result<Command, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if opts.trace { "1" } else { "0" }]);
    Ok(cmd)
}

/// What `--self-check` reads back from a child's result line: whether it
/// passed, and the end-to-end values in `END_TO_END` order.
fn parse_result_line(line: &str) -> Option<(bool, Vec<f64>)> {
    let passed = line.contains("\"correct\": true") && line.contains("\"failed\": 0,");
    let values = END_TO_END
        .iter()
        .map(|(m, _)| {
            let key = format!("\"{}\": {{\"value\": ", m.name);
            let rest = &line[line.find(&key)? + key.len()..];
            rest[..rest.find(',')?].parse().ok()
        })
        .collect::<Option<Vec<f64>>>()?;
    Some((passed, values))
}

/// Two full sets of untraced runs: sim metrics must be bit-equal, host
/// metrics inside their bound. A host metric outside it is reported as
/// unresolved — the spread is wider than the bound, so a later change
/// could not be judged on it — never as unchanged.
fn self_check(opts: &Options) -> Result<bool, String> {
    let opts = Options {
        trace: false,
        ..opts.clone()
    };
    let set = || -> Result<Vec<(bool, Vec<f64>)>, String> {
        WORKLOADS
            .iter()
            .map(|(name, _)| {
                let out = child(name, &opts)?
                    .output()
                    .map_err(|e| format!("cannot run {name}: {e}"))?;
                let stdout = String::from_utf8_lossy(&out.stdout);
                let parsed = stdout.lines().last().and_then(parse_result_line);
                parsed.ok_or_else(|| format!("{name} printed no result line"))
            })
            .collect()
    };
    let (first, second) = (set()?, set()?);
    let mut ok = true;
    println!(
        "{:<14} {:<20} {:>18} {:>18} {:>9} {:>6}  verdict",
        "workload", "metric", "run 1", "run 2", "gap", "bound"
    );
    for (((name, _), (passed_a, a)), (passed_b, b)) in WORKLOADS.iter().zip(&first).zip(&second) {
        ok &= passed_a & passed_b;
        for ((va, vb), (m, bound)) in a.iter().zip(b).zip(END_TO_END) {
            let gap = (vb - va).abs() / va.abs();
            let (holds, verdict) = match m.clock {
                Clock::Sim if va.to_bits() == vb.to_bits() => (true, "bit-equal"),
                Clock::Sim => (false, "DIVERGED: sim metrics must be bit-equal"),
                Clock::Host if gap <= *bound => (true, "within bound"),
                Clock::Host => (false, "UNRESOLVED: spread exceeds the bound"),
            };
            ok &= holds;
            println!(
                "{name:<14} {:<20} {va:>18.6} {vb:>18.6} {:>8.2}% {:>5.0}%  {verdict}",
                m.name,
                gap * 100.0,
                bound * 100.0
            );
        }
    }
    Ok(ok)
}

/// Every workload in turn, each child printing its own result.
fn run_all(opts: &Options) -> Result<bool, String> {
    let mut ok = true;
    for (name, _) in WORKLOADS {
        let status = child(name, opts)?
            .status()
            .map_err(|e| format!("cannot run {name}: {e}"))?;
        ok &= status.success();
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if cli.print_spec {
        print!("{}", spec::render_benchmark_json());
        return ExitCode::SUCCESS;
    }
    let ok = match &cli.workload {
        _ if cli.self_check => self_check(&cli.opts),
        None => run_all(&cli.opts),
        Some(name) => {
            cli.opts.cpus = match affinity::pin_to_one_cpu() {
                Ok(p) => format!("pinned to CPU {} of {} allowed", p.cpu, p.allowed_cpus),
                Err(e) => format!("NOT pinned to one CPU ({e}): expect host times to drift"),
            };
            let result = run_workload(name, &cli.opts);
            print_result(&result, &cli.opts);
            Ok(passed(&result))
        }
    };
    match ok {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{Better, Metric};

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn driver_arguments_parse() {
        let cli = parse_cli(&args(
            "--workload serve-churn --seed 9 --seconds 2.5 --trace 1",
        ))
        .unwrap();
        assert_eq!(cli.workload.as_deref(), Some("serve-churn"));
        assert_eq!(
            (cli.opts.seed, cli.opts.seconds, cli.opts.trace),
            (9, 2.5, true)
        );
        assert!(!parse_cli(&args("--trace 0")).unwrap().opts.trace);
        // The bare flag of the README still works, also before another flag.
        assert!(parse_cli(&args("--trace --seed 3")).unwrap().opts.trace);
        assert_eq!(
            parse_cli(&args("")).unwrap().opts.seed,
            calibration::DEFAULT_SEED
        );
        assert!(parse_cli(&args("--workload nope")).is_err());
        assert!(parse_cli(&args("--seconds 0")).is_err());
        assert!(parse_cli(&args("--seed")).is_err());
        assert!(parse_cli(&args("--frobnicate")).is_err());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let metric = |name| Metric {
            name,
            unit: "s",
            better: Better::Lower,
            clock: Clock::Host,
        };
        let r = RunResult {
            workload: "w",
            attempted: 10,
            failed: 0,
            metrics: vec![(metric("setup_s"), 0.8127), (metric("steps_per_s"), 1.0e-7)],
            violations: vec![],
            note: String::new(),
        };
        assert_eq!(
            result_json(&r),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}, \
             \"steps_per_s\": {\"value\": 0.0000001, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn self_check_reads_back_what_a_child_prints() {
        let values: Vec<f64> = (1..=END_TO_END.len()).map(|i| i as f64 / 7.0).collect();
        let mut r = RunResult {
            workload: "w",
            attempted: 10,
            failed: 0,
            metrics: END_TO_END
                .iter()
                .map(|(m, _)| *m)
                .zip(values.clone())
                .collect(),
            violations: vec![],
            note: String::new(),
        };
        assert_eq!(
            parse_result_line(&result_json(&r)),
            Some((true, values.clone()))
        );
        r.failed = 3;
        assert_eq!(parse_result_line(&result_json(&r)), Some((false, values)));
        assert_eq!(parse_result_line("{\"correct\": true}"), None);
    }
}
