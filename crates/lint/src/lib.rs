//! `sage-lint` — the workspace invariant checker.
//!
//! A standalone static-analysis pass over the whole workspace that
//! enforces, as deny-by-default diagnostics with `file:line` spans, the
//! project conventions that no compiler pass checks:
//!
//! | rule | invariant |
//! |------|-----------|
//! | `dirty-justify` | every `write_dirty`/`access_dirty` carries a `dirty:` justification |
//! | `sanitize-coverage` | every engine/writing app appears in a sanitize test matrix |
//! | `hash-iter` | no default-hasher `HashMap`/`HashSet` iteration in `sim`/`core`/`serve` |
//! | `wall-clock` | no `Instant::now`/`SystemTime`/`thread::current` in `sim`/`core` |
//! | `unordered-reduce` | no completion-order channel reduces |
//! | `lock-poison` | serve mutexes recover from poisoning instead of `lock().unwrap()` |
//! | `dead-pub` | every plain `pub fn` in `sim`/`core`/`graph`/`serve` has a non-test caller |
//!
//! Violations are suppressed one-for-one by justified allow markers (see
//! [`diag`]); markers that suppress nothing are themselves errors, so the
//! allowlist cannot rot. The binary self-tests against `fixtures/`, a
//! miniature workspace of known-bad snippets in which every rule must
//! fire at an expected line.
//!
//! No `syn`: the workspace is offline, so parsing is a hand-written
//! line-aware lexer ([`lexer`]) plus an item scanner ([`scan`]) that
//! recovers exactly the structure the rules need.

pub mod diag;
pub mod fileset;
pub mod lexer;
pub mod rules;
pub mod scan;

pub use diag::{Diag, Report};
pub use fileset::run_root;
