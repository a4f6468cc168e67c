//! The lint's own acceptance suite: every fixture diagnostic fires at the
//! expected line (and nowhere else), allow markers suppress exactly one
//! diagnostic, marker hygiene is enforced, and the real workspace is
//! clean.
//!
//! Expectations are annotated in the fixture sources rustc-style:
//! `//~ <rule>` expects `<rule>` on that line, `//~^ <rule>` on the line
//! above (used where the offending line already carries a comment, e.g.
//! allow markers).

use sage_lint::lexer::lex;
use sage_lint::run_root;
use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

fn fixture_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures")
}

/// Collect `(path, line, rule)` expectations from `//~` comments.
fn expected_diags(root: &Path) -> BTreeSet<(String, u32, String)> {
    let mut out = BTreeSet::new();
    let mut stack = vec![root.join("crates")];
    let mut files = Vec::new();
    while let Some(dir) = stack.pop() {
        for entry in fs::read_dir(&dir).unwrap() {
            let p = entry.unwrap().path();
            if p.is_dir() {
                stack.push(p);
            } else if p.extension().is_some_and(|e| e == "rs") {
                files.push(p);
            }
        }
    }
    for p in files {
        let rel = p
            .strip_prefix(root)
            .unwrap()
            .to_string_lossy()
            .replace('\\', "/");
        let src = fs::read_to_string(&p).unwrap();
        for c in lex(&src).comments {
            let Some(rest) = c.text.trim_start().strip_prefix('~') else {
                continue;
            };
            let (line, rule) = match rest.strip_prefix('^') {
                Some(r) => (c.line - 1, r.trim()),
                None => (c.line, rest.trim()),
            };
            assert!(!rule.is_empty(), "{rel}:{}: empty //~ expectation", c.line);
            out.insert((rel.clone(), line, rule.to_string()));
        }
    }
    out
}

#[test]
fn every_fixture_fires_at_its_expected_line() {
    let root = fixture_root();
    let expected = expected_diags(&root);
    assert!(!expected.is_empty(), "fixture tree has no expectations");
    let report = run_root(&root).unwrap();
    let actual: BTreeSet<(String, u32, String)> = report
        .diags
        .iter()
        .map(|d| (d.path.clone(), d.line, d.rule.clone()))
        .collect();
    let missing: Vec<_> = expected.difference(&actual).collect();
    let unexpected: Vec<_> = actual.difference(&expected).collect();
    assert!(
        missing.is_empty() && unexpected.is_empty(),
        "fixture mismatch\n  missing: {missing:#?}\n  unexpected: {unexpected:#?}"
    );
    assert_eq!(
        report.diags.len(),
        expected.len(),
        "duplicate diagnostics on one (path, line, rule)"
    );
}

#[test]
fn all_rule_families_have_a_firing_fixture() {
    let expected = expected_diags(&fixture_root());
    let rules: BTreeSet<&str> = expected.iter().map(|(_, _, r)| r.as_str()).collect();
    for rule in [
        "dirty-justify",
        "sanitize-coverage",
        "hash-iter",
        "wall-clock",
        "unordered-reduce",
        "lock-poison",
        "dead-pub",
        "stale-allow",
        "allow-syntax",
    ] {
        assert!(rules.contains(rule), "no firing fixture for `{rule}`");
    }
}

#[test]
fn allow_marker_suppresses_exactly_one_diagnostic() {
    let report = run_root(&fixture_root()).unwrap();
    // fixtures carry two justified, non-stale markers (allow_ok.rs), one
    // per rule
    assert_eq!(report.suppressed, 2, "expected one suppression per marker");
    assert!(
        report.diags.iter().all(|d| !d.path.contains("allow_ok.rs")),
        "allow_ok.rs must be fully suppressed: {:#?}",
        report.diags
    );
    // four well-formed markers parse (the two suppressing ones + the two
    // stale ones); the unknown-rule and missing-justification markers are
    // rejected
    assert_eq!(report.markers.len(), 4);
}

#[test]
fn workspace_is_clean() {
    let ws = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = run_root(&ws).unwrap();
    assert!(
        report.diags.is_empty(),
        "workspace has unallowed violations:\n{}",
        report
            .diags
            .iter()
            .map(sage_lint::Diag::render)
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(report.files > 40, "workspace scan looks truncated");
    assert!(
        report.suppressed >= 10,
        "expected the documented allowlist sites to be live (got {})",
        report.suppressed
    );
}
