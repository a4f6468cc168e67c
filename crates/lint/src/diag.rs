//! Diagnostics, allowlist markers, and the suppression pass.
//!
//! Every rule emits deny-by-default [`Diag`]s with `file:line` spans. A
//! source comment of the form
//!
//! ```text
//! <slashes> sage-lint: allow(<rule>) — <justification>
//! ```
//!
//! suppresses exactly one diagnostic of `<rule>` on the marker's line or
//! the following two lines. Markers must carry a non-empty justification
//! and name a known rule (otherwise `allow-syntax` fires), and a marker
//! that suppresses nothing is itself an error (`stale-allow`) so the
//! allowlist can never rot.

use crate::scan::FileScan;

/// All rule names an allow marker may reference.
pub const RULES: &[&str] = &[
    "dirty-justify",
    "sanitize-coverage",
    "hash-iter",
    "wall-clock",
    "unordered-reduce",
    "lock-poison",
    "dead-pub",
];

/// How many lines below a marker a diagnostic may sit and still be
/// suppressed by it (marker line itself + 2 more).
pub const ALLOW_REACH: u32 = 2;

/// One diagnostic.
#[derive(Debug, Clone)]
pub struct Diag {
    /// Rule name (one of [`RULES`], or `stale-allow` / `allow-syntax`).
    pub rule: String,
    /// File path relative to the lint root.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// Human-readable message.
    pub msg: String,
}

impl Diag {
    /// Render as `path:line: [rule] msg`.
    pub fn render(&self) -> String {
        format!("{}:{}: [{}] {}", self.path, self.line, self.rule, self.msg)
    }
}

/// A parsed allow marker.
#[derive(Debug, Clone)]
pub struct AllowMarker {
    /// Rule the marker allows.
    pub rule: String,
    /// File path relative to the lint root.
    pub path: String,
    /// 1-based line of the marker comment.
    pub line: u32,
    /// Justification text after the rule name.
    pub justification: String,
}

/// Result of a full lint run.
#[derive(Debug, Default)]
pub struct Report {
    /// Unsuppressed diagnostics, sorted by `(path, line, rule)`.
    pub diags: Vec<Diag>,
    /// Count of diagnostics that were suppressed by allow markers.
    pub suppressed: usize,
    /// All parsed allow markers (after the suppression pass).
    pub markers: Vec<AllowMarker>,
    /// Number of `.rs` files scanned.
    pub files: usize,
}

/// Extract allow markers from a file's comments; malformed markers are
/// reported as `allow-syntax` diagnostics.
pub fn collect_markers(scan: &FileScan, markers: &mut Vec<AllowMarker>, diags: &mut Vec<Diag>) {
    for c in &scan.comments {
        let Some(pos) = c.text.find("sage-lint:") else {
            continue;
        };
        let rest = c.text[pos + "sage-lint:".len()..].trim_start();
        let Some(body) = rest.strip_prefix("allow(") else {
            diags.push(Diag {
                rule: "allow-syntax".into(),
                path: scan.path.clone(),
                line: c.line,
                msg: "malformed marker: expected `allow(<rule>) — <justification>`".into(),
            });
            continue;
        };
        let Some(close) = body.find(')') else {
            diags.push(Diag {
                rule: "allow-syntax".into(),
                path: scan.path.clone(),
                line: c.line,
                msg: "unclosed `allow(` in marker".into(),
            });
            continue;
        };
        let rule = body[..close].trim().to_string();
        let justification = body[close + 1..]
            .trim_start_matches([' ', '\t', '—', '-', ':', '–'])
            .trim()
            .to_string();
        if !RULES.contains(&rule.as_str()) {
            diags.push(Diag {
                rule: "allow-syntax".into(),
                path: scan.path.clone(),
                line: c.line,
                msg: format!("unknown rule `{rule}` in allow marker"),
            });
            continue;
        }
        if justification.len() < 4 {
            diags.push(Diag {
                rule: "allow-syntax".into(),
                path: scan.path.clone(),
                line: c.line,
                msg: format!("allow({rule}) marker needs a justification after the `)`"),
            });
            continue;
        }
        markers.push(AllowMarker {
            rule,
            path: scan.path.clone(),
            line: c.line,
            justification,
        });
    }
}

/// Apply markers to diagnostics: each marker suppresses at most one
/// matching diagnostic; unused markers become `stale-allow` errors.
/// Returns `(surviving_diags, suppressed_count)`.
pub fn suppress(mut diags: Vec<Diag>, markers: &[AllowMarker]) -> (Vec<Diag>, usize) {
    diags.sort_by(|a, b| {
        (a.path.as_str(), a.line, a.rule.as_str()).cmp(&(b.path.as_str(), b.line, b.rule.as_str()))
    });
    let mut killed = vec![false; diags.len()];
    let mut stale = Vec::new();
    for m in markers {
        let hit = diags.iter().enumerate().position(|(i, d)| {
            !killed[i]
                && d.rule == m.rule
                && d.path == m.path
                && d.line >= m.line
                && d.line <= m.line + ALLOW_REACH
        });
        match hit {
            Some(i) => killed[i] = true,
            None => stale.push(Diag {
                rule: "stale-allow".into(),
                path: m.path.clone(),
                line: m.line,
                msg: format!(
                    "allow({}) marker suppresses nothing — remove it or move it next to the \
                     violation",
                    m.rule
                ),
            }),
        }
    }
    let suppressed = killed.iter().filter(|&&k| k).count();
    let mut out: Vec<Diag> = diags
        .into_iter()
        .zip(killed)
        .filter_map(|(d, k)| (!k).then_some(d))
        .collect();
    out.extend(stale);
    out.sort_by(|a, b| {
        (a.path.as_str(), a.line, a.rule.as_str()).cmp(&(b.path.as_str(), b.line, b.rule.as_str()))
    });
    (out, suppressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag(rule: &str, path: &str, line: u32) -> Diag {
        Diag {
            rule: rule.into(),
            path: path.into(),
            line,
            msg: String::new(),
        }
    }

    fn marker(rule: &str, path: &str, line: u32) -> AllowMarker {
        AllowMarker {
            rule: rule.into(),
            path: path.into(),
            line,
            justification: "because tested".into(),
        }
    }

    #[test]
    fn marker_suppresses_exactly_one() {
        let diags = vec![diag("hash-iter", "a.rs", 10), diag("hash-iter", "a.rs", 11)];
        let (out, n) = suppress(diags, &[marker("hash-iter", "a.rs", 9)]);
        assert_eq!(n, 1);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].line, 11);
    }

    #[test]
    fn stale_marker_is_an_error() {
        let (out, n) = suppress(vec![], &[marker("wall-clock", "a.rs", 3)]);
        assert_eq!(n, 0);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, "stale-allow");
    }

    #[test]
    fn marker_does_not_reach_past_two_lines() {
        let (out, n) = suppress(
            vec![diag("lock-poison", "a.rs", 20)],
            &[marker("lock-poison", "a.rs", 16)],
        );
        assert_eq!(n, 0);
        assert_eq!(out.len(), 2); // original + stale-allow
    }
}
