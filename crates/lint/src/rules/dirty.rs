//! Rules `dirty-justify` and `sanitize-coverage`: the benign-race audit.
//!
//! `write_dirty` / `access_dirty` (PR 4) tell the race sanitizer a racy
//! store is benign — same-value, idempotent, or monotonic. That claim is
//! exactly the kind that silently rots, so every call site must carry a
//! `dirty:` justification comment on the call line or within the three
//! lines above it (`// dirty: every racing parent stores the same level`).
//!
//! Separately, any app module that writes shared device arrays, and any
//! engine, must be exercised by a sanitize test matrix: an unsanitized
//! code path is one where an *unannotated* racy write goes undetected.
//! Coverage is parsed from the `tests/sanitize*.rs` files themselves (the
//! type name must appear there), so the matrix cannot drift from the
//! checked claim.

use crate::diag::Diag;
use crate::scan::FileScan;
use std::collections::BTreeSet;

/// Kernel-recording calls that assert a benign race.
const DIRTY_CALLS: &[&str] = &["write_dirty", "access_dirty"];

/// Kernel-recording calls that write shared arrays (plain or dirty).
const WRITE_CALLS: &[&str] = &["write", "write_dirty", "access_dirty"];

fn in_scope(f: &FileScan) -> bool {
    matches!(f.crate_name(), Some("core" | "serve")) && f.in_src() && !f.is_test_file
}

/// Type names mentioned anywhere in the sanitize test matrices.
fn coverage_idents(files: &[FileScan]) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for f in files {
        let name = f.path.rsplit('/').next().unwrap_or("");
        if f.path.contains("/tests/") && name.starts_with("sanitize") {
            out.extend(f.toks.iter().map(|t| t.text.clone()));
        }
    }
    out
}

/// Lines of `WRITE_CALLS`/`DIRTY_CALLS` method calls in non-test fns:
/// `(line, method_name)`.
fn call_sites(f: &FileScan, names: &[&str]) -> Vec<(u32, String)> {
    let mut out = Vec::new();
    for func in &f.fns {
        if func.is_test {
            continue;
        }
        let Some((open, close)) = func.body else {
            continue;
        };
        for i in open + 1..close.saturating_sub(2) {
            if f.text(i) == "."
                && names.contains(&f.text(i + 1))
                && f.text(i + 2) == "("
                // a call needs an argument: `w.write()` with no argument is
                // not an array write (and `.write(` on io writers always
                // takes one, so engines/apps are what this matches here)
                && f.text(i + 3) != ")"
            {
                out.push((f.toks[i + 1].line, f.text(i + 1).to_string()));
            }
        }
    }
    out
}

/// Run both rules over all files.
pub fn run(files: &[FileScan], diags: &mut Vec<Diag>) {
    // --- dirty-justify -------------------------------------------------
    for f in files {
        if !in_scope(f) {
            continue;
        }
        for (line, name) in call_sites(f, DIRTY_CALLS) {
            if !f.comment_near(line.saturating_sub(3), line, "dirty:") {
                diags.push(Diag {
                    rule: "dirty-justify".into(),
                    path: f.path.clone(),
                    line,
                    msg: format!(
                        "`{name}` claims a benign race but carries no `dirty:` justification \
                         comment within 3 lines above the call"
                    ),
                });
            }
        }
    }
    // --- sanitize-coverage ---------------------------------------------
    let covered = coverage_idents(files);
    if covered.is_empty() {
        return; // no sanitize matrix in this tree — nothing to check against
    }
    for f in files {
        if !in_scope(f) {
            continue;
        }
        let file_name = f.path.rsplit('/').next().unwrap_or("");
        // App modules: anything under src/app/ plus the serve-side
        // multi-source apps; must write shared arrays to be in scope.
        let is_app_module =
            (f.path.contains("/src/app/") && file_name != "mod.rs") || file_name == "msapp.rs";
        if is_app_module && !call_sites(f, WRITE_CALLS).is_empty() {
            let pub_types: Vec<&str> = f
                .structs
                .iter()
                .filter(|s| s.is_pub && !s.fields.is_empty())
                .map(|s| s.name.as_str())
                .collect();
            let hit = pub_types.iter().any(|t| covered.contains(*t));
            if !hit {
                if let Some(first) = f.structs.iter().find(|s| s.is_pub && !s.fields.is_empty()) {
                    diags.push(Diag {
                        rule: "sanitize-coverage".into(),
                        path: f.path.clone(),
                        line: first.line,
                        msg: format!(
                            "app `{}` writes shared device arrays but no type of this module \
                             appears in a sanitize test matrix",
                            first.name
                        ),
                    });
                }
            }
        }
        // Engines: every `impl Engine for T` under src/engine/ (common.rs
        // is shared plumbing exercised through every rostered engine).
        if f.path.contains("/src/engine/") && file_name != "mod.rs" && file_name != "common.rs" {
            for imp in &f.impls {
                if imp.trait_name.as_deref() == Some("Engine") && !covered.contains(&imp.self_type)
                {
                    diags.push(Diag {
                        rule: "sanitize-coverage".into(),
                        path: f.path.clone(),
                        line: imp.line,
                        msg: format!(
                            "engine `{}` is not exercised by the sanitize test matrix",
                            imp.self_type
                        ),
                    });
                }
            }
        }
    }
}
