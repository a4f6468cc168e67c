//! The rule passes. Each pass takes the scanned file set and appends
//! [`Diag`]s; scoping (which crates, src vs tests) lives inside each rule
//! so workspace and fixture runs share identical logic.

pub mod deadpub;
pub mod determinism;
pub mod dirty;
pub mod poison;

use crate::diag::Diag;
use crate::scan::FileScan;

/// Run every rule over `files`.
pub fn run_all(files: &[FileScan]) -> Vec<Diag> {
    let mut diags = Vec::new();
    dirty::run(files, &mut diags);
    determinism::run(files, &mut diags);
    poison::run(files, &mut diags);
    deadpub::run(files, &mut diags);
    diags
}
