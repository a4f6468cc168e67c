//! Allowlist fixture: each justified marker suppresses exactly one
//! diagnostic (here a `dead-pub` and a `hash-iter`) — this file must
//! produce none.

use std::collections::HashMap;

pub struct Ranked {
    scores: HashMap<u32, u64>,
}

impl Ranked {
    // sage-lint: allow(dead-pub) — exported for the fixture's readers; the marker is the case under test
    pub fn top(&self) -> Vec<(u32, u64)> {
        let mut v: Vec<(u32, u64)> = self
            .scores
            // sage-lint: allow(hash-iter) — collected then fully sorted below
            .iter()
            .map(|(&k, &s)| (k, s))
            .collect();
        v.sort_unstable();
        v
    }
}
