//! hash-iter fixture: default-hasher iteration vs construction/lookup.

use std::collections::{HashMap, HashSet};

/// Alias type: iteration through the alias is still unordered.
type Registry = HashMap<u32, u64>;

pub struct Breakdown {
    kernel_times: HashMap<String, u64>,
}

impl Breakdown {
    pub fn emit(&self) -> Vec<(String, u64)> { //~ dead-pub
        self.kernel_times
            .iter() //~ hash-iter
            .map(|(k, &v)| (k.clone(), v))
            .collect()
    }

    pub fn lookup(&self, name: &str) -> Option<u64> { //~ dead-pub
        // keyed lookup is deterministic — no diagnostic
        self.kernel_times.get(name).copied()
    }
}

pub fn walk_registry(reg: &Registry) -> u64 { //~ dead-pub
    let mut sum = 0;
    for v in reg.values() {
        //~^ hash-iter
        sum += v;
    }
    sum
}

pub fn dedupe_order_leak(items: &[u32]) -> Vec<u32> { //~ dead-pub
    let mut seen = HashSet::new();
    for &x in items {
        seen.insert(x);
    }
    let mut out = Vec::new();
    for x in &seen {
        //~^ hash-iter
        out.push(*x);
    }
    out
}

pub fn construction_only(items: &[u32]) -> usize { //~ dead-pub
    // building and membership tests never observe iteration order
    let mut seen = HashSet::new();
    for &x in items {
        seen.insert(x);
    }
    seen.len()
}
