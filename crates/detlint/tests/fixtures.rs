//! Self-test over the fixture corpus: every `_fire` fixture fires exactly
//! on its `//~ D00X`-marked lines, every `_pass` fixture is clean, and the
//! suppression/baseline escape hatches behave.

use exflow_detlint::baseline::Baseline;
use exflow_detlint::rules::{scan_and_check, RuleId};
use std::path::PathBuf;

fn fixture_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fixtures")
}

fn read_fixture(name: &str) -> String {
    let path = fixture_dir().join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// Parse the `//~ D00X` expectation markers: (1-based line, rule).
fn expectations(src: &str) -> Vec<(usize, RuleId)> {
    let mut out = Vec::new();
    for (i, line) in src.lines().enumerate() {
        if let Some(pos) = line.find("//~") {
            let code = line[pos + 3..].trim();
            let rule = RuleId::parse(code)
                .unwrap_or_else(|| panic!("bad expectation marker on line {}: {code}", i + 1));
            out.push((i + 1, rule));
        }
    }
    out
}

fn check_fire(name: &str) {
    let src = read_fixture(name);
    let expected = expectations(&src);
    assert!(!expected.is_empty(), "{name}: no //~ markers");
    let rel = format!("crates/detlint/fixtures/{name}");
    let report = scan_and_check(&rel, &src);
    let got: Vec<(usize, RuleId)> = report.findings.iter().map(|f| (f.line, f.rule)).collect();
    assert_eq!(
        got, expected,
        "{name}: findings differ from //~ markers\nfindings: {:#?}",
        report.findings
    );
}

fn check_pass(name: &str) {
    let src = read_fixture(name);
    let rel = format!("crates/detlint/fixtures/{name}");
    let report = scan_and_check(&rel, &src);
    assert!(
        report.findings.is_empty(),
        "{name}: expected clean, got {:#?}",
        report.findings
    );
}

#[test]
fn every_fire_fixture_fires_exactly_where_marked() {
    for rule in ["d001", "d002", "d003", "d004", "d005", "d006", "d007"] {
        check_fire(&format!("{rule}_fire.rs"));
    }
}

#[test]
fn every_pass_fixture_is_clean() {
    for rule in ["d001", "d002", "d003", "d004", "d005", "d006", "d007"] {
        check_pass(&format!("{rule}_pass.rs"));
    }
}

#[test]
fn pass_fixtures_record_their_suppressions() {
    let src = read_fixture("d001_pass.rs");
    let report = scan_and_check("crates/detlint/fixtures/d001_pass.rs", &src);
    assert_eq!(
        report.suppressed, 2,
        "both justified HashMap uses suppressed"
    );
}

#[test]
fn baseline_grandfathers_fire_fixture_findings() {
    let src = read_fixture("d001_fire.rs");
    let rel = "crates/detlint/fixtures/d001_fire.rs";
    let report = scan_and_check(rel, &src);
    assert!(!report.findings.is_empty());

    // Write every finding into a baseline, re-scan: all absorbed.
    let text = Baseline::render(&report.findings);
    let mut b = Baseline::parse(&text).unwrap();
    let again = scan_and_check(rel, &src);
    let n = again.findings.len();
    let (active, baselined) = b.partition(again.findings);
    assert!(
        active.is_empty(),
        "baseline must absorb everything: {active:#?}"
    );
    assert_eq!(baselined.len(), n);
    assert!(b.stale().is_empty());
}

#[test]
fn committed_baseline_is_empty() {
    // The satellite contract: the tree ships with every finding fixed or
    // inline-justified, so the committed baseline holds zero entries.
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .unwrap()
        .to_path_buf();
    let text = std::fs::read_to_string(root.join("detlint.baseline")).unwrap();
    let b = Baseline::parse(&text).unwrap();
    assert!(b.is_empty(), "detlint.baseline must stay empty");
}

#[test]
fn whole_tree_scan_is_clean() {
    // The acceptance bar, as a test: walking the real tree with the
    // committed baseline yields zero active findings.
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .unwrap()
        .to_path_buf();
    let files = exflow_detlint::walk::collect_default(&root).unwrap();
    let text = std::fs::read_to_string(root.join("detlint.baseline")).unwrap();
    let mut baseline = Baseline::parse(&text).unwrap();
    let outcome = exflow_detlint::run_scan(&root, &files, Some(&mut baseline)).unwrap();
    assert!(
        outcome.is_clean(),
        "tree has active findings:\n{}",
        outcome.render_text()
    );
}
