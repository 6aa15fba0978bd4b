//! Argument parsing and artifact dispatch for the `repro` binary, factored
//! out so the exit-code contract is unit-testable: usage errors (no targets,
//! unknown artifact, `--out` without `all`) are detected *before* any
//! experiment runs and exit with status 2; failures while running — an
//! artifact, a bar, an unwritable document — exit with status 1.
//!
//! [`artifacts`] is the single source of truth for artifact names: `parse`
//! validates against it and `runner` dispatches from it, so the two cannot
//! drift apart. Every artifact whose output is rows comes from [`TABLES`];
//! the three that are not rows are plain printers.

use crate::experiments::common::PAPER;
use crate::experiments::{events, fig2, table2};
use crate::sweep::MAX_JOBS;
use crate::table::{Section, TABLES};

/// What regenerates an artifact.
#[derive(Clone, Copy)]
pub enum Runner {
    /// An artifact that is not rows: its module's `print()`.
    Print(fn()),
    /// Every [`TABLES`] entry that names this artifact, in order, swept at
    /// the paper's workload so the printed numbers are exactly the gated
    /// ones.
    Rows(&'static str),
}

impl Runner {
    /// Regenerate and print the artifact, and hand back the sections it
    /// swept (none for a printer). Panics if it cannot be regenerated: a
    /// sweep's invariance check failed, or its rows miss one of the
    /// table's own acceptance bars.
    pub fn run(self, jobs: usize) -> Vec<Section> {
        let artifact = match self {
            Runner::Print(print) => {
                print();
                return Vec::new();
            }
            Runner::Rows(artifact) => artifact,
        };
        let swept = TABLES
            .iter()
            .filter(|t| t.artifact == artifact)
            .map(|table| {
                let rows = table
                    .rows(&PAPER, jobs)
                    .unwrap_or_else(|err| panic!("{} sweep: {err}", table.name));
                let violations = table.violations(&rows);
                assert!(violations.is_empty(), "{} bars: {violations:?}", table.name);
                print!("{}", (table.render)(&rows));
                (table.key, rows)
            });
        swept.collect()
    }
}

/// What `--out` does with the complete document `repro all` built: write
/// it to `path`. `Err` is why the run must exit 1.
pub fn deliver(json: &str, path: &str) -> Result<(), String> {
    std::fs::write(path, json).map_err(|err| format!("cannot write {path}: {err}"))?;
    eprintln!("wrote {path}");
    Ok(())
}

/// A named artifact entry: `(name, runner)`.
pub type Artifact = (&'static str, Runner);

/// The artifacts that are not rows, each with the row artifact it precedes
/// in `all` order (`None`: after every table).
const PRINTERS: [(Artifact, Option<&str>); 3] = [
    (("table2", Runner::Print(table2::print)), Some("table3")),
    (("fig2", Runner::Print(fig2::print)), Some("fig6")),
    (("render-events", Runner::Print(events::print)), None),
];

/// Accepted aliases: the paper's Figs. 15/16 are gap-sweep variants of the
/// same experiment as Fig. 14.
const ALIASES: [Artifact; 2] = [
    ("fig15", Runner::Rows("fig14")),
    ("fig16", Runner::Rows("fig14")),
];

/// Every artifact the `repro` binary can regenerate, with its runner, in
/// `all` order: the artifacts [`TABLES`] names, in its order (the paper's,
/// then the beyond-paper tables), with the printers slotted in.
pub fn artifacts() -> Vec<Artifact> {
    fn printers(before: Option<&'static str>) -> impl Iterator<Item = Artifact> {
        let placed = PRINTERS
            .iter()
            .filter(move |(_, follows)| *follows == before);
        placed.map(|&(artifact, _)| artifact)
    }
    let mut out: Vec<Artifact> = Vec::new();
    for artifact in TABLES.iter().map(|table| table.artifact) {
        if out.iter().all(|&(name, _)| name != artifact) {
            out.extend(printers(Some(artifact)));
            out.push((artifact, Runner::Rows(artifact)));
        }
    }
    out.extend(printers(None));
    out
}

/// All artifact names (without aliases), for usage text.
pub fn artifact_names() -> Vec<&'static str> {
    artifacts().into_iter().map(|(name, _)| name).collect()
}

/// Look up the runner for a validated artifact name or alias.
pub fn runner(name: &str) -> Option<Runner> {
    let mut known = artifacts().into_iter().chain(ALIASES);
    known.find(|&(n, _)| n == name).map(|(_, runner)| runner)
}

/// A parsed invocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    /// Print usage and exit successfully (`-h`/`--help`).
    Help,
    /// Run the given artifacts.
    Run {
        /// Worker threads for experiment sweeps (`--jobs N`, default 1).
        jobs: usize,
        /// Validated artifact names, in execution order.
        targets: Vec<String>,
        /// Where to write the complete document (`--out PATH`).
        out: Option<String>,
    },
}

/// A usage error; the process should print usage and exit with status 2.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UsageError {
    /// No artifact names were given.
    NoTargets,
    /// An argument named no known artifact or flag.
    UnknownArtifact(String),
    /// `--jobs` got a missing, non-numeric, zero, or absurd value.
    InvalidJobs(String),
    /// `--out` got no path.
    MissingPath,
    /// `--out` writes the complete document, and the targets are not
    /// exactly `all`.
    NeedsAll,
}

impl std::fmt::Display for UsageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UsageError::NoTargets => write!(f, "no artifacts requested"),
            UsageError::UnknownArtifact(name) => write!(f, "unknown artifact: {name}"),
            UsageError::InvalidJobs(value) => {
                write!(f, "invalid --jobs value: {value} (expected 1..={MAX_JOBS})")
            }
            UsageError::MissingPath => write!(f, "missing path for --out"),
            UsageError::NeedsAll => write!(
                f,
                "--out writes the complete document: the one target must be `all`"
            ),
        }
    }
}

fn is_artifact(name: &str) -> bool {
    runner(name).is_some()
}

/// Validate a `--jobs` value: an integer in `1..=MAX_JOBS`. `0` (which
/// real tools treat as "auto") is rejected here on purpose — this
/// workspace keeps widths explicit so runs are reproducible by
/// construction — as are absurd widths that would spawn a thread storm.
fn parse_jobs(value: &str) -> Result<usize, UsageError> {
    match value.parse::<usize>() {
        Ok(n) if (1..=MAX_JOBS).contains(&n) => Ok(n),
        _ => Err(UsageError::InvalidJobs(value.to_string())),
    }
}

/// Parse CLI arguments (without the program name). Unknown artifacts, bad
/// `--jobs` values and `--out` without `all` are rejected here, up front,
/// so a typo cannot burn minutes of sweep time before failing.
pub fn parse<I, S>(args: I) -> Result<Command, UsageError>
where
    I: IntoIterator<Item = S>,
    S: AsRef<str>,
{
    let mut jobs = 1usize;
    let mut targets: Vec<String> = Vec::new();
    let mut out = None;
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_ref() {
            "-h" | "--help" => return Ok(Command::Help),
            "--out" => {
                let path = it.next().ok_or(UsageError::MissingPath)?;
                out = Some(path.as_ref().to_string());
            }
            "--jobs" => {
                let value = it
                    .next()
                    .ok_or_else(|| UsageError::InvalidJobs("<missing>".to_string()))?;
                jobs = parse_jobs(value.as_ref())?;
            }
            other if other.starts_with("--jobs=") => {
                jobs = parse_jobs(&other["--jobs=".len()..])?;
            }
            "all" => targets.extend(artifact_names().into_iter().map(String::from)),
            other if is_artifact(other) => targets.push(other.to_string()),
            other => return Err(UsageError::UnknownArtifact(other.to_string())),
        }
    }
    if targets.is_empty() {
        return Err(UsageError::NoTargets);
    }
    if out.is_some() && targets != artifact_names() {
        return Err(UsageError::NeedsAll);
    }
    Ok(Command::Run { jobs, targets, out })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_targets_and_defaults_to_one_job() {
        let cmd = parse(["table2", "fig6"]).unwrap();
        assert_eq!(
            cmd,
            Command::Run {
                jobs: 1,
                targets: vec!["table2".to_string(), "fig6".to_string()],
                out: None,
            }
        );
    }

    #[test]
    fn the_retired_size_flags_are_usage_errors() {
        // Every artifact has one size; a stale flag must not be read as
        // an artifact, nor silently ignored.
        for size in ["quick", "full"] {
            let flag = format!("--{size}");
            assert_eq!(
                parse([flag.as_str(), "table1"]),
                Err(UsageError::UnknownArtifact(flag))
            );
        }
    }

    #[test]
    fn parses_jobs_in_both_spellings() {
        for args in [
            vec!["--jobs", "4", "table1"],
            vec!["--jobs=4", "table1"],
            vec!["table1", "--jobs", "4"],
        ] {
            match parse(args.clone()).unwrap() {
                Command::Run { jobs, .. } => assert_eq!(jobs, 4, "{args:?}"),
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn the_document_flags_parse_with_all_and_only_with_all() {
        match parse(["--jobs=4", "--out", "f.json", "all"]).unwrap() {
            Command::Run { jobs, out, .. } => {
                assert_eq!(jobs, 4);
                assert_eq!(out.as_deref(), Some("f.json"));
            }
            other => panic!("unexpected {other:?}"),
        }
        // A partial document is never written: anything but `all` alone is
        // a usage error (the binary exits 2 before any sweep).
        for targets in [
            vec!["fig7"],
            vec!["table_serving", "fig10"],
            vec!["all", "fig7"],
        ] {
            let args = ["--out", "x.json"].into_iter().chain(targets);
            assert_eq!(parse(args), Err(UsageError::NeedsAll));
        }
        assert_eq!(parse(["--out", "x.json"]), Err(UsageError::NoTargets));
        assert_eq!(parse(["all", "--out"]), Err(UsageError::MissingPath));
        // The retired baseline flag is not read as an artifact.
        assert_eq!(
            parse(["--check", "b.json", "all"]),
            Err(UsageError::UnknownArtifact("--check".to_string()))
        );
    }

    #[test]
    fn an_unwritable_out_is_a_failure_not_a_usage_error() {
        // What the binary turns into exit 1.
        let json = crate::table::document(1, Vec::new());
        let dir = std::env::temp_dir().join(format!("exflow-repro-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let written = dir.join("fresh.json");
        let written = written.to_str().unwrap();
        assert_eq!(deliver(&json, written), Ok(()));
        assert_eq!(std::fs::read_to_string(written).unwrap(), json);

        let missing = dir.join("no-such-dir").join("x.json");
        let err = deliver(&json, missing.to_str().unwrap()).unwrap_err();
        assert!(err.starts_with("cannot write"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn invalid_jobs_values_are_usage_errors() {
        // Zero, absurd, non-numeric, negative, and missing values all
        // fail parse (the binary exits 2), never reaching any sweep.
        for bad in ["0", "100000", "four", "-2", "4.5", ""] {
            assert_eq!(
                parse(["--jobs", bad, "table1"]),
                Err(UsageError::InvalidJobs(bad.to_string())),
                "--jobs {bad} should be rejected"
            );
        }
        assert_eq!(
            parse(["table1", "--jobs"]),
            Err(UsageError::InvalidJobs("<missing>".to_string()))
        );
        assert_eq!(
            parse(["--jobs=0", "table1"]),
            Err(UsageError::InvalidJobs("0".to_string()))
        );
        // The boundary itself is accepted.
        assert!(parse_jobs(&crate::sweep::MAX_JOBS.to_string()).is_ok());
        assert!(parse_jobs(&(crate::sweep::MAX_JOBS + 1).to_string()).is_err());
    }

    #[test]
    fn all_expands_to_every_artifact() {
        match parse(["all"]).unwrap() {
            Command::Run { targets, .. } => assert_eq!(targets, artifact_names()),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn unknown_artifact_is_a_usage_error() {
        assert_eq!(
            parse(["fig99"]),
            Err(UsageError::UnknownArtifact("fig99".to_string()))
        );
        // Even when mixed with valid targets or flags.
        assert_eq!(
            parse(["--jobs", "2", "table1", "tabel2"]),
            Err(UsageError::UnknownArtifact("tabel2".to_string()))
        );
    }

    #[test]
    fn no_targets_is_a_usage_error() {
        assert_eq!(parse::<_, &str>([]), Err(UsageError::NoTargets));
        assert_eq!(parse(["--jobs", "2"]), Err(UsageError::NoTargets));
    }

    #[test]
    fn help_wins_regardless_of_other_args() {
        assert_eq!(parse(["table1", "--help"]), Ok(Command::Help));
    }

    #[test]
    fn aliases_are_accepted() {
        assert!(parse(["fig15", "fig16"]).is_ok());
    }

    #[test]
    fn every_parseable_artifact_has_a_runner() {
        // The dispatch table is shared, so anything parse accepts must
        // resolve to a runner — including every alias.
        let aliases = ALIASES.map(|(name, _)| name);
        for name in artifact_names().into_iter().chain(aliases) {
            assert!(parse([name]).is_ok(), "{name} should parse");
            assert!(runner(name).is_some(), "{name} should dispatch");
        }
    }

    #[test]
    fn artifact_names_and_their_order_are_pinned() {
        // The usage text and the `all` order: the paper's artifacts (row
        // artifacts in `TABLES` order, `table2` and `fig2` slotted in), the
        // six beyond-paper tables, the event stream.
        assert_eq!(
            artifact_names().join(" "),
            "table1 table2 table3 fig2 fig6 fig7 fig8 fig9 fig10 fig11 fig12 fig13 fig14 \
             ablations table_solvers table_sparse table_online table_serving table_elasticity \
             table_replan_latency render-events"
        );
    }
}
