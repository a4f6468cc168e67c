//! Rules `hash-iter`, `wall-clock`, `unordered-reduce`: determinism lints.
//!
//! The repo's headline guarantee is bitwise-identical simulation at any
//! host thread count. Three things quietly break it:
//!
//! - **`hash-iter`** — iterating a default-hasher `HashMap`/`HashSet`
//!   yields platform/seed-dependent order. Construction and keyed lookup
//!   are fine; iteration feeding anything observable is not (sort first,
//!   or use an ordered collection). Detected over names whose declared
//!   type is `HashMap`/`HashSet` (struct fields, `let` bindings, params,
//!   and `type` aliases of them) in `sim`/`core`/`serve`.
//! - **`wall-clock`** — `Instant::now`/`SystemTime`/`thread::current()`
//!   in `sim`/`core` src: wall-clock or thread identity flowing into
//!   `Profiler`/`RunReport`-feeding code varies run to run. (`serve` is
//!   excluded: latency telemetry there measures real time by design.)
//! - **`unordered-reduce`** — channel receives (`recv`/`try_recv`/…,
//!   `mpsc`) in `sim`/`core`/`serve` src: merging worker results in
//!   completion order is the classic nondeterministic reduce. Merge by
//!   shard index instead.

use crate::diag::Diag;
use crate::scan::FileScan;
use std::collections::BTreeSet;

/// Iterator-yielding methods on hash collections.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
];

/// Receive-side channel methods.
const RECV_METHODS: &[&str] = &["recv", "try_recv", "recv_timeout", "try_iter"];

/// Names in `f` whose declared type is a hash collection, split by where
/// they can be referenced. Field names fire only through `.name` access
/// (a bare `name` may be an unrelated local shadowing the field — e.g. a
/// `Vec` collected *from* the hash); locals and params fire through bare
/// use and `for` loops too.
struct HashNames {
    /// Struct-field names (dotted access only).
    fields: BTreeSet<String>,
    /// `let`-bound and parameter names (bare access).
    locals: BTreeSet<String>,
}

fn hash_names(f: &FileScan) -> HashNames {
    let mut tynames: BTreeSet<&str> = ["HashMap", "HashSet"].into_iter().collect();
    for a in &f.hash_aliases {
        tynames.insert(a);
    }
    let mut fields = BTreeSet::new();
    for s in &f.structs {
        for (name, ty) in &s.fields {
            if tynames.contains(ty.as_str()) {
                fields.insert(name.clone());
            }
        }
    }
    let mut locals = BTreeSet::new();
    let toks = &f.toks;
    for i in 0..toks.len().saturating_sub(3) {
        // `name : [&] [mut] HashMap` (param or annotated let)
        if f.text(i + 1) == ":" && f.text(i + 2) != ":" && i > 0 && f.text(i - 1) != ":" {
            let mut j = i + 2;
            while f.text(j) == "&" || f.text(j) == "mut" || f.text(j).starts_with('\'') {
                j += 1;
            }
            // a struct-field declaration also matches this token shape;
            // field names stay dotted-only (locals may shadow them)
            if tynames.contains(f.text(j)) && !fields.contains(f.text(i)) {
                locals.insert(f.text(i).to_string());
            }
        }
        // `let [mut] name = HashMap::…` / alias
        if f.text(i) == "let" {
            let mut j = i + 1;
            if f.text(j) == "mut" {
                j += 1;
            }
            if f.text(j + 1) == "=" && tynames.contains(f.text(j + 2)) && f.text(j + 3) == ":" {
                locals.insert(f.text(j).to_string());
            }
        }
    }
    HashNames { fields, locals }
}

/// Run all three determinism rules.
pub fn run(files: &[FileScan], diags: &mut Vec<Diag>) {
    for f in files {
        if !f.in_src() || f.is_test_file {
            continue;
        }
        let krate = f.crate_name().unwrap_or("");
        let hash_scope = matches!(krate, "sim" | "core" | "serve");
        let clock_scope = matches!(krate, "sim" | "core");
        let reduce_scope = matches!(krate, "sim" | "core" | "serve");
        if !hash_scope && !clock_scope && !reduce_scope {
            continue;
        }
        let names = if hash_scope {
            hash_names(f)
        } else {
            HashNames {
                fields: BTreeSet::new(),
                locals: BTreeSet::new(),
            }
        };
        for func in &f.fns {
            if func.is_test {
                continue;
            }
            let Some((open, close)) = func.body else {
                continue;
            };
            for i in open + 1..close {
                // hash-iter: `.name.iter_method(` or `name.iter_method(`
                if hash_scope {
                    let (base, at) = if f.text(i) == "."
                        && (names.fields.contains(f.text(i + 1))
                            || names.locals.contains(f.text(i + 1)))
                        && f.text(i + 2) == "."
                    {
                        (i + 1, i + 3)
                    } else if names.locals.contains(f.text(i))
                        && (i == 0 || (f.text(i - 1) != "." && f.text(i - 1) != ":"))
                        && f.text(i + 1) == "."
                    {
                        (i, i + 2)
                    } else {
                        (usize::MAX, usize::MAX)
                    };
                    if at != usize::MAX
                        && ITER_METHODS.contains(&f.text(at))
                        && f.text(at + 1) == "("
                    {
                        diags.push(Diag {
                            rule: "hash-iter".into(),
                            path: f.path.clone(),
                            line: f.toks[at].line,
                            msg: format!(
                                "iteration over default-hasher collection `{}` is \
                                 order-nondeterministic — sort before use or key by index",
                                f.text(base)
                            ),
                        });
                    }
                    // `for pat in [&][mut] self.field {` / `… in [&] local {`
                    if f.text(i) == "in" {
                        let mut j = i + 1;
                        while f.text(j) == "&" || f.text(j) == "mut" {
                            j += 1;
                        }
                        let hit = if f.text(j) == "self" && f.text(j + 1) == "." {
                            j += 2;
                            names.fields.contains(f.text(j))
                        } else {
                            names.locals.contains(f.text(j))
                        };
                        if hit && f.text(j + 1) == "{" {
                            diags.push(Diag {
                                rule: "hash-iter".into(),
                                path: f.path.clone(),
                                line: f.toks[j].line,
                                msg: format!(
                                    "`for` loop over default-hasher collection `{}` is \
                                     order-nondeterministic",
                                    f.text(j)
                                ),
                            });
                        }
                    }
                }
                // wall-clock
                if clock_scope {
                    let hit = (f.seq(i, &["Instant", ":", ":", "now", "("])
                        || f.seq(i, &["SystemTime", ":", ":"])
                        || f.seq(i, &["thread", ":", ":", "current", "("]))
                    .then(|| f.text(i).to_string());
                    if let Some(what) = hit {
                        diags.push(Diag {
                            rule: "wall-clock".into(),
                            path: f.path.clone(),
                            line: f.toks[i].line,
                            msg: format!(
                                "`{what}` in simulation code — wall-clock/thread identity \
                                 feeding Profiler/RunReport state varies run to run; use the \
                                 simulated clock"
                            ),
                        });
                    }
                }
                // unordered-reduce
                if reduce_scope {
                    let recv = f.text(i) == "."
                        && RECV_METHODS.contains(&f.text(i + 1))
                        && f.text(i + 2) == "(";
                    let mpsc = f.text(i) == "mpsc";
                    if recv || mpsc {
                        diags.push(Diag {
                            rule: "unordered-reduce".into(),
                            path: f.path.clone(),
                            line: f.toks[if recv { i + 1 } else { i }].line,
                            msg: "channel receive merges results in completion order — a \
                                  nondeterministic parallel reduce; join worker handles in \
                                  shard order instead"
                                .into(),
                        });
                    }
                }
            }
        }
    }
}
