//! Marker-hygiene fixture: stale and malformed allow markers are errors.

// sage-lint: allow(wall-clock) — left behind after a refactor
//~^ stale-allow
pub fn no_clock_here() -> u64 { //~ dead-pub
    42
}

// sage-lint: allow(made-up-rule) — not a rule the checker knows
//~^ allow-syntax
pub fn unknown_rule_marker() -> u64 { //~ dead-pub
    43
}

// sage-lint: allow(hash-iter)
//~^ allow-syntax
pub fn missing_justification() -> u64 { //~ dead-pub
    44
}
