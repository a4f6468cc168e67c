//! Rule `lock-poison`: poison-recovery audit for the serve layer.
//!
//! PR 4 mandated that serving-path mutexes recover from poisoning: a
//! worker that panicked must not cascade into every later queue/ticket
//! operation panicking on `lock().unwrap()`. The idiom is
//! `.lock().unwrap_or_else(PoisonError::into_inner)` (see
//! `crates/serve/src/cache.rs`). A bare `lock().unwrap()` — or
//! `read().unwrap()` / `write().unwrap()` on an `RwLock` such as the graph
//! registry — outside tests is an error; the allowlist is for the rare site
//! where propagating the poison panic is the intended loud failure.

use crate::diag::Diag;
use crate::scan::FileScan;

/// Run the rule over all files.
pub fn run(files: &[FileScan], diags: &mut Vec<Diag>) {
    for f in files {
        if f.crate_name() != Some("serve") || !f.in_src() || f.is_test_file {
            continue;
        }
        for func in &f.fns {
            if func.is_test {
                continue;
            }
            let Some((open, close)) = func.body else {
                continue;
            };
            for i in open + 1..close {
                let guard = ["lock", "read", "write"]
                    .iter()
                    .any(|g| f.seq(i, &[".", g, "(", ")", ".", "unwrap", "("]));
                if guard {
                    diags.push(Diag {
                        rule: "lock-poison".into(),
                        path: f.path.clone(),
                        line: f.toks[i + 5].line,
                        msg: format!(
                            "serve locks must recover from poisoning: use \
                             `.{}().unwrap_or_else(PoisonError::into_inner)` so one \
                             panicked worker cannot cascade",
                            f.text(i + 1)
                        ),
                    });
                }
            }
        }
    }
}
