//! File discovery and the end-to-end lint run.
//!
//! A lint *root* is a directory containing `crates/<name>/{src,tests}/…`;
//! both the workspace itself and the `fixtures/` tree have that shape, so
//! every path-scoped rule behaves identically on both. The root's
//! `examples/` and `perfbench/src/`, where present, are loaded too: they
//! are consumers whose calls count as uses for `dead-pub`, and
//! path-scoped rules skip them because their `crate_name()` is `None`.
//! Discovery skips
//! build output (`target/`), vendored shims (`compat/`), hidden
//! directories, the fixtures tree, and the linter's own crate (`lint/` —
//! its sources and docs discuss marker syntax, which would read as
//! malformed markers).

use crate::diag::{self, Diag, Report};
use crate::lexer::lex;
use crate::rules;
use crate::scan::FileScan;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Directories outside `crates/` whose sources are read as consumers.
const CONSUMER_DIRS: &[&str] = &["examples", "perfbench/src"];

/// Directory names never descended into.
const SKIP_DIRS: &[&str] = &["target", "fixtures", "compat", "lint"];

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .collect();
    // read_dir order is platform-dependent; the lint of all tools sorts.
    entries.sort();
    for path in entries {
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default();
        if path.is_dir() {
            if !name.starts_with('.') && !SKIP_DIRS.contains(&name) {
                collect_rs(&path, out)?;
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Lex and scan every `.rs` file under `root`'s `crates/` (which must
/// exist — the workspace root or a fixture root) and consumer directories.
pub fn load(root: &Path) -> io::Result<Vec<FileScan>> {
    let crates = root.join("crates");
    if !crates.is_dir() {
        return Err(io::Error::new(
            io::ErrorKind::NotFound,
            format!("{} has no crates/ directory", root.display()),
        ));
    }
    let mut paths = Vec::new();
    collect_rs(&crates, &mut paths)?;
    for dir in CONSUMER_DIRS.iter().map(|d| root.join(d)) {
        if dir.is_dir() {
            collect_rs(&dir, &mut paths)?;
        }
    }
    let mut files = Vec::new();
    for p in paths {
        let Ok(src) = fs::read_to_string(&p) else {
            continue; // non-UTF8 — not a lintable Rust source
        };
        let rel = p
            .strip_prefix(root)
            .unwrap_or(&p)
            .to_string_lossy()
            .replace('\\', "/");
        files.push(FileScan::new(rel, lex(&src)));
    }
    Ok(files)
}

/// Run every rule over the tree at `root` and apply the allowlist.
pub fn run_root(root: &Path) -> io::Result<Report> {
    let files = load(root)?;
    let mut raw: Vec<Diag> = rules::run_all(&files);
    let mut markers = Vec::new();
    for f in &files {
        diag::collect_markers(f, &mut markers, &mut raw);
    }
    let (diags, suppressed) = diag::suppress(raw, &markers);
    Ok(Report {
        diags,
        suppressed,
        markers,
        files: files.len(),
    })
}
