//! Consumer-only fixture: calls from `examples/` count as uses for
//! `dead-pub`, while no path-scoped rule checks this file.

use std::collections::HashMap;

fn main() {
    let a = fixture_core::dead_pub::called_from_an_example();
    let b = fixture_core::dead_pub::called_from_an_example_too();
    let totals: HashMap<&str, u32> = [("sum", a + b)].into_iter().collect();
    for (k, v) in totals.iter() {
        println!("{k} {v}");
    }
}
