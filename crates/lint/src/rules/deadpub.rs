//! Rule `dead-pub`: a public function that nothing calls.
//!
//! A plain `pub fn` in the non-test code of `sim`, `core`, `graph` or
//! `serve` is flagged when its name appears as a token nowhere in non-test
//! code but in definitions: an identifier right after `fn` names a
//! function, it does not use one, so two unused namesakes (say, the same
//! method on two types) do not keep each other alive. Uses are counted
//! over every loaded file: all crates' `src` (benches and bins included)
//! plus the consumer-only `examples/` and `perfbench/src`. `tests/`
//! directories, `#[cfg(test)]` modules and `#[test]` functions do not
//! count, so an API kept alive only by its own unit test is reported.
//!
//! The match is by name alone, so the rule can only miss: a function
//! called `new` or `len` always has a namesake somewhere and is never
//! flagged.

use crate::diag::Diag;
use crate::lexer::TokKind;
use crate::scan::FileScan;
use std::collections::BTreeMap;

/// Crates whose public functions the rule checks.
const CHECKED: &[&str] = &["sim", "core", "graph", "serve"];

/// Per token of `f`: true when it sits in test-only code.
fn test_mask(f: &FileScan) -> Vec<bool> {
    let mut mask = vec![f.is_test_file; f.toks.len()];
    let bodies = f
        .fns
        .iter()
        .filter(|func| func.is_test)
        .filter_map(|func| func.body);
    for (open, close) in f.test_mods.iter().copied().chain(bodies) {
        mask[open..=close].fill(true);
    }
    mask
}

/// Run the rule over all files.
pub fn run(files: &[FileScan], diags: &mut Vec<Diag>) {
    let mut uses: BTreeMap<&str, usize> = BTreeMap::new();
    for f in files {
        let mask = test_mask(f);
        for (i, tok) in f.toks.iter().enumerate() {
            let defines = i > 0 && f.toks[i - 1].text == "fn";
            if tok.kind == TokKind::Ident && !mask[i] && !defines {
                *uses.entry(tok.text.as_str()).or_default() += 1;
            }
        }
    }
    for f in files {
        let checked = f.crate_name().is_some_and(|c| CHECKED.contains(&c));
        if !checked || !f.in_src() || f.is_test_file {
            continue;
        }
        for func in &f.fns {
            if func.is_pub && !func.is_test && !uses.contains_key(func.name.as_str()) {
                diags.push(Diag {
                    rule: "dead-pub".into(),
                    path: f.path.clone(),
                    line: func.line,
                    msg: format!(
                        "`pub fn {}` has no caller outside tests: delete it, move it under \
                         `#[cfg(test)]`, or keep it with a marker naming the test that uses it",
                        func.name
                    ),
                });
            }
        }
    }
}
