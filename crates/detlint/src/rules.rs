//! The determinism & safety rules (D001–D007) and the engine that applies
//! them to a scanned file.
//!
//! Every rule is lexical and module-scoped: the engine sees the
//! [`ScannedFile`] channels plus two pieces of context — the file's path
//! relative to the workspace root (D004 exempts `shims/rayon`, which
//! implements the ordered idiom it demands) and whether a line sits
//! inside a `#[cfg(test)]` region (test-only assertions may use unordered
//! collections for membership checks without touching any shipped result).
//!
//! Findings can be silenced two ways, both auditable:
//!
//! * inline — `// detlint: allow(D001) <reason>` on the finding line, or
//!   on a comment-only line directly above it. A missing reason is itself
//!   a finding (D000), so suppressions cannot be silent.
//! * baseline — a committed `detlint.baseline` entry (see
//!   [`crate::baseline`]) for grandfathered findings.

use crate::lexer::{find_token, has_ident, ScanLine, ScannedFile};

/// Identifier of a detlint rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RuleId {
    /// Malformed suppression comment (unknown rule id or missing reason).
    D000,
    /// Unordered `HashMap`/`HashSet` in a deterministic (non-test) path.
    D001,
    /// Wall-clock read.
    D002,
    /// Unseeded / ambient RNG.
    D003,
    /// Unordered parallel float reduction.
    D004,
    /// `unsafe` without an explanatory `// SAFETY:` comment.
    D005,
    /// `#[allow(...)]` of a workspace-policed lint without a reason.
    D006,
    /// `partial_cmp(..)` unwrapped with `.unwrap()` / `.expect(..)`.
    D007,
}

impl RuleId {
    /// Every real rule, in code order (D000 is engine-internal and not
    /// suppressible, so it is not listed).
    pub const ALL: [RuleId; 7] = [
        RuleId::D001,
        RuleId::D002,
        RuleId::D003,
        RuleId::D004,
        RuleId::D005,
        RuleId::D006,
        RuleId::D007,
    ];

    /// The rule code as written in suppressions and reports.
    pub fn code(self) -> &'static str {
        match self {
            RuleId::D000 => "D000",
            RuleId::D001 => "D001",
            RuleId::D002 => "D002",
            RuleId::D003 => "D003",
            RuleId::D004 => "D004",
            RuleId::D005 => "D005",
            RuleId::D006 => "D006",
            RuleId::D007 => "D007",
        }
    }

    /// Parse a rule code (as written inside `allow(...)`).
    pub fn parse(s: &str) -> Option<RuleId> {
        match s.trim() {
            "D001" => Some(RuleId::D001),
            "D002" => Some(RuleId::D002),
            "D003" => Some(RuleId::D003),
            "D004" => Some(RuleId::D004),
            "D005" => Some(RuleId::D005),
            "D006" => Some(RuleId::D006),
            "D007" => Some(RuleId::D007),
            _ => None,
        }
    }

    /// One-line summary used by `--list-rules` and the markdown report.
    pub fn summary(self) -> &'static str {
        match self {
            RuleId::D000 => "malformed `// detlint: allow(...)` suppression",
            RuleId::D001 => {
                "no HashMap/HashSet in deterministic paths — iteration order is \
                 nondeterministic; use BTreeMap/BTreeSet or a sorted collect"
            }
            RuleId::D002 => "no wall-clock reads (Instant::now / SystemTime::now)",
            RuleId::D003 => "no unseeded/ambient RNG (thread_rng, from_entropy)",
            RuleId::D004 => {
                "no unordered parallel float reduction (par_iter + sum/fold/...); \
                 use the index-ordered idiom the rayon shim guarantees"
            }
            RuleId::D005 => "every `unsafe` carries an explanatory `// SAFETY:` comment",
            RuleId::D006 => {
                "no `#[allow(...)]` of workspace-policed lints (unsafe_code, \
                 missing_docs, clippy::*) without a reason comment"
            }
            RuleId::D007 => {
                "no `partial_cmp(..).unwrap()` / `.expect(..)` — it panics on NaN; \
                 order floats with `total_cmp`"
            }
        }
    }
}

impl std::fmt::Display for RuleId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.code())
    }
}

/// One finding: a rule violated at a specific line of a specific file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The violated rule.
    pub rule: RuleId,
    /// Path relative to the workspace root, forward slashes.
    pub path: String,
    /// 1-based source line.
    pub line: usize,
    /// Human-readable diagnosis.
    pub message: String,
    /// The offending source line, trimmed.
    pub snippet: String,
}

impl Finding {
    /// Stable identity used by the baseline: rule + path + trimmed line
    /// content, so a finding survives unrelated line-number drift but a
    /// changed line must be re-triaged.
    pub fn fingerprint(&self) -> u64 {
        fnv1a64(format!("{}|{}|{}", self.rule.code(), self.path, self.snippet.trim()).as_bytes())
    }
}

/// 64-bit FNV-1a — tiny, dependency-free, stable across runs/platforms.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Result of checking one file.
#[derive(Debug, Default)]
pub struct FileReport {
    /// Findings that survived inline suppression (baseline matching
    /// happens later, in the driver).
    pub findings: Vec<Finding>,
    /// Count of findings silenced by a well-formed inline suppression.
    pub suppressed: usize,
}

/// Check one scanned file against every applicable rule.
pub fn check_file(rel_path: &str, sf: &ScannedFile) -> FileReport {
    let ctx = FileContext::build(rel_path, sf);
    let mut raw: Vec<Finding> = Vec::new();

    // D000 first: malformed suppressions are findings in their own right.
    raw.extend(ctx.malformed.iter().cloned());

    for (i, line) in sf.lines.iter().enumerate() {
        let in_test = ctx.in_test[i];
        check_d001(&ctx, line, i, in_test, &mut raw);
        check_d002(&ctx, line, i, &mut raw);
        check_d003(&ctx, line, i, &mut raw);
        check_d004(&ctx, sf, line, i, in_test, &mut raw);
        check_d005(&ctx, sf, line, i, &mut raw);
        check_d007(&ctx, sf, line, i, &mut raw);
    }
    check_d006(&ctx, sf, &mut raw);

    // Apply inline suppressions.
    let mut report = FileReport::default();
    for f in raw {
        let idx = f.line - 1;
        let allowed =
            f.rule != RuleId::D000 && ctx.allows.get(idx).is_some_and(|set| set.contains(&f.rule));
        if allowed {
            report.suppressed += 1;
        } else {
            report.findings.push(f);
        }
    }
    report.findings.sort_by_key(|f| (f.line, f.rule));
    report
}

/// Per-file context shared by all rules.
struct FileContext {
    rel: String,
    /// Per line: inside a `#[cfg(test)]` region or under a `tests/` dir.
    in_test: Vec<bool>,
    /// Per line: rules inline-allowed on that line.
    allows: Vec<Vec<RuleId>>,
    /// D000 findings produced while parsing suppressions.
    malformed: Vec<Finding>,
}

impl FileContext {
    fn build(rel_path: &str, sf: &ScannedFile) -> FileContext {
        let rel = rel_path.replace('\\', "/");
        let is_test_path = rel.split('/').any(|c| c == "tests");
        let in_test = test_regions(sf, is_test_path);
        let (allows, malformed) = parse_suppressions(&rel, sf);
        FileContext {
            rel,
            in_test,
            allows,
            malformed,
        }
    }

    fn under(&self, prefix: &str) -> bool {
        self.rel.starts_with(prefix)
    }

    fn finding(&self, rule: RuleId, i: usize, line: &ScanLine, message: String) -> Finding {
        Finding {
            rule,
            path: self.rel.clone(),
            line: i + 1,
            message,
            snippet: line.raw.trim().to_string(),
        }
    }
}

/// Mark every line that lives inside a `#[cfg(test)]` item. Tracking is
/// brace-depth based over the code channel: after a `#[cfg(test)]`
/// attribute, the next `{` opens the test region and its matching `}`
/// closes it; a `;` before any `{` means the attribute decorated a
/// braceless item. Good enough for module-scoped hygiene — a false
/// negative here still fails dynamically in the determinism suites.
fn test_regions(sf: &ScannedFile, is_test_path: bool) -> Vec<bool> {
    let mut out = Vec::with_capacity(sf.lines.len());
    let mut depth: i64 = 0;
    let mut region_floor: Option<i64> = None;
    let mut pending_attr = false;
    for line in &sf.lines {
        let at_start = region_floor.is_some();
        if region_floor.is_none() && line.code.contains("cfg(test)") {
            pending_attr = true;
        }
        for c in line.code.chars() {
            match c {
                '{' => {
                    if pending_attr && region_floor.is_none() {
                        region_floor = Some(depth);
                        pending_attr = false;
                    }
                    depth += 1;
                }
                '}' => {
                    depth -= 1;
                    if region_floor == Some(depth) {
                        region_floor = None;
                    }
                }
                ';' if pending_attr && region_floor.is_none() => pending_attr = false,
                _ => {}
            }
        }
        out.push(is_test_path || at_start || region_floor.is_some() || pending_attr);
    }
    out
}

/// Parse `// detlint: allow(D00x[, D00y]) <reason>` comments. A trailing
/// suppression applies to its own line; one on a comment-only line applies
/// to the next line. Unknown rule ids and empty reasons yield D000.
fn parse_suppressions(rel: &str, sf: &ScannedFile) -> (Vec<Vec<RuleId>>, Vec<Finding>) {
    let mut allows: Vec<Vec<RuleId>> = vec![Vec::new(); sf.lines.len()];
    let mut malformed = Vec::new();
    for (i, line) in sf.lines.iter().enumerate() {
        // Doc comments may *mention* the suppression syntax (this file
        // does); only plain comments can suppress.
        let c = line.comment.trim_start();
        if c.starts_with("///") || c.starts_with("//!") {
            continue;
        }
        let Some(pos) = line.comment.find("detlint:") else {
            continue;
        };
        let rest = line.comment[pos + "detlint:".len()..].trim_start();
        let mut bad = |msg: &str| {
            malformed.push(Finding {
                rule: RuleId::D000,
                path: rel.to_string(),
                line: i + 1,
                message: msg.to_string(),
                snippet: line.raw.trim().to_string(),
            });
        };
        let Some(args) = rest.strip_prefix("allow(") else {
            bad("suppression must be written `detlint: allow(D00x) <reason>`");
            continue;
        };
        let Some(close) = args.find(')') else {
            bad("unclosed `detlint: allow(` suppression");
            continue;
        };
        let mut rules = Vec::new();
        let mut ok = true;
        for part in args[..close].split(',') {
            match RuleId::parse(part) {
                Some(r) => rules.push(r),
                None => {
                    bad(&format!("unknown rule id `{}` in suppression", part.trim()));
                    ok = false;
                }
            }
        }
        if args[close + 1..].trim().is_empty() {
            bad("suppression needs a reason after the rule list");
            ok = false;
        }
        if !ok {
            continue;
        }
        // Attach: own line when it carries code, otherwise the next line.
        let target = if line.is_code_blank() { i + 1 } else { i };
        if let Some(slot) = allows.get_mut(target) {
            slot.extend(rules);
        }
    }
    (allows, malformed)
}

fn check_d001(ctx: &FileContext, line: &ScanLine, i: usize, in_test: bool, out: &mut Vec<Finding>) {
    if in_test {
        return;
    }
    for token in ["HashMap", "HashSet"] {
        if has_ident(&line.code, token) {
            out.push(ctx.finding(
                RuleId::D001,
                i,
                line,
                format!(
                    "`{token}` in a deterministic path: iteration/drain order varies \
                     run-to-run — use BTreeMap/BTreeSet or collect-and-sort"
                ),
            ));
            return; // one finding per line even if both tokens appear
        }
    }
}

fn check_d002(ctx: &FileContext, line: &ScanLine, i: usize, out: &mut Vec<Finding>) {
    for token in ["Instant::now", "SystemTime::now"] {
        if find_token(&line.code, token).is_some() {
            out.push(ctx.finding(
                RuleId::D002,
                i,
                line,
                format!(
                    "wall-clock read `{token}`: everything the workspace computes \
                     depends only on the virtual clock (host time is `benchmark/`'s)"
                ),
            ));
            return;
        }
    }
}

fn check_d003(ctx: &FileContext, line: &ScanLine, i: usize, out: &mut Vec<Finding>) {
    for token in ["thread_rng", "from_entropy"] {
        if has_ident(&line.code, token) {
            out.push(ctx.finding(
                RuleId::D003,
                i,
                line,
                format!(
                    "ambient RNG `{token}`: every random stream must be seeded from \
                     the scenario seed (SplitMix64 seed streams)"
                ),
            ));
            return;
        }
    }
}

/// Reduction adaptors that make `par_iter` order-sensitive for floats.
const REDUCTIONS: [&str; 4] = [".sum", ".product", ".reduce", ".fold"];

fn check_d004(
    ctx: &FileContext,
    sf: &ScannedFile,
    line: &ScanLine,
    i: usize,
    in_test: bool,
    out: &mut Vec<Finding>,
) {
    if in_test || ctx.under("shims/rayon/") {
        return;
    }
    let reduction = REDUCTIONS.iter().find(|r| line.code.contains(*r));
    let Some(reduction) = reduction else {
        return;
    };
    // Walk back through the enclosing statement (bounded window): lines
    // above belong to the same statement until one ends in `;`, `{`, `}`.
    let mut window = String::new();
    let mut k = i;
    loop {
        window.insert_str(0, &sf.lines[k].code);
        window.insert(0, '\n');
        if k == 0 || i - k >= 8 {
            break;
        }
        let above = sf.lines[k - 1].code.trim_end();
        if above.ends_with(';') || above.ends_with('{') || above.ends_with('}') {
            break;
        }
        k -= 1;
    }
    if has_ident(&window, "par_iter") || has_ident(&window, "into_par_iter") {
        out.push(ctx.finding(
            RuleId::D004,
            i,
            line,
            format!(
                "parallel reduction `par_iter()…{reduction}`: float accumulation \
                 order is unordered — use the index-ordered reduction idiom \
                 (map_indexed / collect-then-fold)"
            ),
        ));
    }
}

fn check_d005(
    ctx: &FileContext,
    sf: &ScannedFile,
    line: &ScanLine,
    i: usize,
    out: &mut Vec<Finding>,
) {
    if !has_ident(&line.code, "unsafe") {
        return;
    }
    let documented = (i.saturating_sub(3)..=i).any(|k| sf.lines[k].comment.contains("SAFETY:"));
    if !documented {
        out.push(
            ctx.finding(
                RuleId::D005,
                i,
                line,
                "`unsafe` without an explanatory `// SAFETY:` comment on or directly \
             above the block"
                    .to_string(),
            ),
        );
    }
}

/// Lints whose `allow` needs a written justification: everything the
/// workspace polices in `[workspace.lints]` (`unsafe_code` is denied,
/// `missing_docs` warned, `clippy::all` warned and escalated to errors by
/// CI's `-D warnings`).
fn policed_lint(name: &str) -> bool {
    let n = name.trim();
    n == "unsafe_code" || n == "missing_docs" || n.starts_with("clippy::")
}

fn check_d006(ctx: &FileContext, sf: &ScannedFile, out: &mut Vec<Finding>) {
    let mut i = 0;
    while i < sf.lines.len() {
        let code = &sf.lines[i].code;
        let start = code.find("#[allow(").or_else(|| code.find("#![allow("));
        let Some(start) = start else {
            i += 1;
            continue;
        };
        // Join lines until the attribute's brackets balance.
        let mut inner = String::new();
        let mut depth = 0i32;
        let mut end_line = i;
        let mut seen_open = false;
        'join: for (k, l) in sf.lines.iter().enumerate().skip(i) {
            let text = if k == i {
                &l.code[start..]
            } else {
                &l.code[..]
            };
            for c in text.chars() {
                match c {
                    '[' => {
                        depth += 1;
                        seen_open = true;
                    }
                    ']' => {
                        depth -= 1;
                        if seen_open && depth == 0 {
                            end_line = k;
                            break 'join;
                        }
                        inner.push(c);
                    }
                    _ => {
                        if seen_open && depth > 0 {
                            inner.push(c);
                        }
                    }
                }
            }
            end_line = k;
        }
        // inner now holds `allow(lint, lint, ...)` — strip to the list.
        let list = inner
            .trim_start_matches('!')
            .trim_start()
            .strip_prefix("allow(")
            .and_then(|s| s.rfind(')').map(|p| &s[..p]))
            .unwrap_or("");
        let needs_reason = list.split(',').any(policed_lint);
        if needs_reason && !allow_has_reason(sf, i, end_line, &inner) {
            out.push(ctx.finding(
                RuleId::D006,
                i,
                &sf.lines[i],
                format!(
                    "`#[allow({})]` of a workspace-policed lint without a reason — \
                     add a trailing `// why` comment (or a plain comment line above)",
                    list.trim()
                ),
            ));
        }
        i = end_line + 1;
    }
}

/// An `allow` is justified by a trailing comment on any of its lines, a
/// plain comment line directly above, or an in-attribute
/// `reason = "..."` string. Doc comments (`///`, `//!`) and compiletest
/// expectation markers (`//~`, the fixture corpus convention) are not
/// reasons.
fn allow_has_reason(sf: &ScannedFile, first: usize, last: usize, inner: &str) -> bool {
    if inner.contains("reason") && inner.contains('=') {
        return true;
    }
    let is_reason = |c: &str| {
        let c = c.trim();
        !c.is_empty() && !c.starts_with("///") && !c.starts_with("//!") && !c.starts_with("//~")
    };
    for k in first..=last.min(sf.lines.len() - 1) {
        if is_reason(&sf.lines[k].comment) {
            return true;
        }
    }
    if first > 0 {
        let above = &sf.lines[first - 1];
        if above.is_code_blank() && is_reason(&above.comment) {
            return true;
        }
    }
    false
}

fn check_d007(
    ctx: &FileContext,
    sf: &ScannedFile,
    line: &ScanLine,
    i: usize,
    out: &mut Vec<Finding>,
) {
    let Some(at) = find_token(&line.code, "partial_cmp") else {
        return;
    };
    // The rest of the statement (bounded window): this line from the call
    // on, then the lines below until one ends in `;`, `{` or `}`.
    let mut rest = line.code[at..].to_string();
    for below in sf.lines.iter().skip(i + 1).take(4) {
        let so_far = rest.trim_end();
        if so_far.ends_with(';') || so_far.ends_with('{') || so_far.ends_with('}') {
            break;
        }
        rest.push_str(&below.code);
    }
    let unwrapped = [".unwrap()", ".expect("].iter().find(|u| rest.contains(*u));
    if let Some(unwrapped) = unwrapped {
        out.push(ctx.finding(
            RuleId::D007,
            i,
            line,
            format!(
                "`partial_cmp(..){unwrapped}`: panics as soon as a NaN reaches the \
                 comparison — use `total_cmp`, a total order on every float"
            ),
        ));
    }
}

/// Convenience used by tests and the driver: scan + check in one call.
pub fn scan_and_check(rel_path: &str, source: &str) -> FileReport {
    check_file(rel_path, &crate::lexer::scan_source(source))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_of(report: &FileReport) -> Vec<RuleId> {
        report.findings.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn d001_fires_outside_tests_only() {
        let src = "use std::collections::HashMap;\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       fn f() { let s = std::collections::HashSet::new(); }\n\
                   }\n";
        let r = scan_and_check("crates/core/src/x.rs", src);
        assert_eq!(rules_of(&r), vec![RuleId::D001]);
        assert_eq!(r.findings[0].line, 1);
    }

    #[test]
    fn d001_skips_tests_directories() {
        let r = scan_and_check("tests/foo.rs", "use std::collections::HashMap;\n");
        assert!(r.findings.is_empty());
    }

    #[test]
    fn d002_fires_in_every_crate_bench_included() {
        let src = "let t = std::time::Instant::now();\n";
        for path in [
            "crates/core/src/x.rs",
            "crates/bench/src/x.rs",
            "shims/rayon/src/lib.rs",
        ] {
            assert_eq!(
                rules_of(&scan_and_check(path, src)),
                vec![RuleId::D002],
                "{path}"
            );
        }
    }

    #[test]
    fn d003_fires_everywhere_even_tests() {
        let r = scan_and_check("tests/x.rs", "let mut rng = rand::thread_rng();\n");
        assert_eq!(rules_of(&r), vec![RuleId::D003]);
    }

    #[test]
    fn d004_multiline_statement() {
        let src = "let s: f64 = xs\n    .par_iter()\n    .map(|x| x * x)\n    .sum::<f64>();\n";
        let r = scan_and_check("crates/core/src/x.rs", src);
        assert_eq!(rules_of(&r), vec![RuleId::D004]);
        assert_eq!(r.findings[0].line, 4);
    }

    #[test]
    fn d004_ignores_sequential_fold_and_rayon_shim() {
        let seq = "let s = xs.iter().fold(0.0, f64::max);\n";
        assert!(scan_and_check("crates/core/src/x.rs", seq)
            .findings
            .is_empty());
        let par = "let s: f64 = xs.par_iter().sum();\n";
        assert!(scan_and_check("shims/rayon/src/lib.rs", par)
            .findings
            .is_empty());
    }

    #[test]
    fn d005_requires_safety_comment() {
        let bare = "unsafe { ptr.read() };\n";
        assert_eq!(
            rules_of(&scan_and_check("crates/core/src/x.rs", bare)),
            vec![RuleId::D005]
        );
        let documented =
            "// SAFETY: ptr is valid for reads, checked above.\nunsafe { ptr.read() };\n";
        assert!(scan_and_check("crates/core/src/x.rs", documented)
            .findings
            .is_empty());
        // `unsafe_code` (the lint name) must not trip the `unsafe` token rule.
        assert!(
            scan_and_check("crates/core/src/x.rs", "#![forbid(unsafe_code)]\n")
                .findings
                .is_empty()
        );
    }

    #[test]
    fn d006_policed_allows_need_reasons() {
        let bare = "#[allow(clippy::too_many_arguments)]\nfn f() {}\n";
        assert_eq!(
            rules_of(&scan_and_check("crates/core/src/x.rs", bare)),
            vec![RuleId::D006]
        );
        let trailed =
            "#[allow(clippy::too_many_arguments)] // mirrors the solver call signature\nfn f() {}\n";
        assert!(scan_and_check("crates/core/src/x.rs", trailed)
            .findings
            .is_empty());
        let above = "// grouping these into a struct would obscure the hot path\n\
                     #[allow(clippy::too_many_arguments)]\nfn f() {}\n";
        assert!(scan_and_check("crates/core/src/x.rs", above)
            .findings
            .is_empty());
        // Doc comments are not reasons.
        let doc = "/// Does things.\n#[allow(missing_docs)]\nfn f() {}\n";
        assert_eq!(
            rules_of(&scan_and_check("crates/core/src/x.rs", doc)),
            vec![RuleId::D006]
        );
        // Non-policed lints need no reason.
        assert!(
            scan_and_check("crates/core/src/x.rs", "#[allow(deprecated)]\nfn f() {}\n")
                .findings
                .is_empty()
        );
    }

    #[test]
    fn d007_fires_on_unwrapped_partial_cmp_only() {
        let one_line = "xs.sort_by(|a, b| a.partial_cmp(b).unwrap());\n";
        assert_eq!(
            rules_of(&scan_and_check("tests/x.rs", one_line)),
            vec![RuleId::D007],
            "test code sorts floats too"
        );
        let chained = "let o = a\n    .partial_cmp(&b)\n    .expect(\"finite\");\n";
        let r = scan_and_check("crates/core/src/x.rs", chained);
        assert_eq!(rules_of(&r), vec![RuleId::D007]);
        assert_eq!(r.findings[0].line, 2);
        for clean in [
            "xs.sort_by(|a, b| a.total_cmp(b));\n",
            "let o = a.partial_cmp(&b).unwrap_or(Ordering::Equal);\n",
            "fn partial_cmp(&self, o: &Self) -> Option<Ordering> {\n    Some(self.cmp(o))\n}\n",
            "let o = a.partial_cmp(&b);\nlet v = w.unwrap();\n",
        ] {
            let r = scan_and_check("crates/core/src/x.rs", clean);
            assert!(r.findings.is_empty(), "{clean}: {:?}", r.findings);
        }
    }

    #[test]
    fn suppression_on_own_line_and_line_above() {
        let same = "let m = HashMap::new(); // detlint: allow(D001) lookup-only table\n";
        let r = scan_and_check("crates/core/src/x.rs", same);
        assert!(r.findings.is_empty());
        assert_eq!(r.suppressed, 1);

        let above = "// detlint: allow(D001) lookup-only table, never iterated\n\
                     let m = HashMap::new();\n";
        let r = scan_and_check("crates/core/src/x.rs", above);
        assert!(r.findings.is_empty());
        assert_eq!(r.suppressed, 1);
    }

    #[test]
    fn suppression_must_name_the_right_rule() {
        let wrong = "let m = HashMap::new(); // detlint: allow(D002) not the right rule\n";
        let r = scan_and_check("crates/core/src/x.rs", wrong);
        assert_eq!(rules_of(&r), vec![RuleId::D001]);
    }

    #[test]
    fn reasonless_or_unknown_suppressions_are_d000() {
        let r = scan_and_check(
            "crates/core/src/x.rs",
            "let m = HashMap::new(); // detlint: allow(D001)\n",
        );
        assert!(rules_of(&r).contains(&RuleId::D000));
        let r = scan_and_check(
            "crates/core/src/x.rs",
            "let x = 1; // detlint: allow(D937) bogus rule\n",
        );
        assert_eq!(rules_of(&r), vec![RuleId::D000]);
    }

    #[test]
    fn strings_and_comments_never_false_positive() {
        let src = "/// HashMap is mentioned here.\n\
                   let s = \"Instant::now() thread_rng HashSet\";\n\
                   // unsafe without SAFETY, par_iter().sum::<f64>()\n";
        assert!(scan_and_check("crates/core/src/x.rs", src)
            .findings
            .is_empty());
    }

    #[test]
    fn fingerprint_stable_under_line_drift() {
        let a = scan_and_check("crates/core/src/x.rs", "let m = HashMap::new();\n");
        let b = scan_and_check("crates/core/src/x.rs", "\n\n\nlet m = HashMap::new();\n");
        assert_eq!(a.findings[0].fingerprint(), b.findings[0].fingerprint());
        assert_ne!(a.findings[0].line, b.findings[0].line);
    }
}
