//! `exflow-detlint` — the in-tree determinism & safety static-analysis
//! pass.
//!
//! Every number this reproduction reports rests on one contract: solver,
//! online, serving, and fault runs are **bit-identical at 1/2/8 threads
//! and across the dense and CSR backends**. The dynamic side of that
//! contract lives in the determinism test suites; this crate is the
//! static side — a dependency-free lexer + rule engine that rejects
//! nondeterminism *hazards* at lint time, on every code path, exercised
//! by a test or not.
//!
//! The rules (see [`rules::RuleId`]):
//!
//! | rule | contract |
//! |------|----------|
//! | D001 | no `HashMap`/`HashSet` in deterministic (non-test) paths |
//! | D002 | no wall-clock reads |
//! | D003 | no unseeded/ambient RNG anywhere |
//! | D004 | no unordered parallel float reduction |
//! | D005 | every `unsafe` carries a `// SAFETY:` comment |
//! | D006 | no reason-less `#[allow(...)]` of workspace-policed lints |
//! | D007 | no `partial_cmp(..).unwrap()` / `.expect(..)`; `total_cmp` orders floats |
//!
//! Escape hatches: inline `// detlint: allow(D00x) <reason>` suppressions
//! (reason mandatory — D000 otherwise) and the committed
//! `detlint.baseline` file for grandfathered findings. The crate builds
//! from `std` alone so it lints the workspace before any shim compiles,
//! and `scripts/audit-deps.sh` asserts it stays dependency-free.

pub mod baseline;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod walk;

use baseline::Baseline;
use report::ScanOutcome;
use rules::Finding;
use std::path::Path;

/// Scan a set of files (absolute paths) and fold the per-file reports
/// into one outcome, applying `baseline` if given.
pub fn run_scan(
    root: &Path,
    files: &[std::path::PathBuf],
    baseline: Option<&mut Baseline>,
) -> std::io::Result<ScanOutcome> {
    let mut findings: Vec<Finding> = Vec::new();
    let mut suppressed = 0usize;
    for path in files {
        let source = std::fs::read_to_string(path)?;
        let rel = walk::rel_str(root, path);
        let mut report = rules::scan_and_check(&rel, &source);
        suppressed += report.suppressed;
        findings.append(&mut report.findings);
    }
    let mut outcome = ScanOutcome {
        suppressed,
        files_scanned: files.len(),
        ..ScanOutcome::default()
    };
    match baseline {
        Some(b) => {
            let (active, baselined) = b.partition(findings);
            outcome.active = active;
            outcome.baselined = baselined;
            outcome.stale = b.stale().into_iter().cloned().collect();
        }
        None => outcome.active = findings,
    }
    Ok(outcome)
}
