//! Table 3: Tiled Partitioning cost out of the total running time — the
//! expansion/scheduling share of SAGE's runtime per dataset and
//! application.

use crate::experiments::AppKind;
use crate::harness::{measure, BenchConfig};
use crate::table::ExpTable;
use sage::engine::ResidentEngine;
use sage::DeviceGraph;
use sage_graph::datasets::Dataset;

/// Regenerate Table 3.
#[must_use]
pub fn run(cfg: &BenchConfig) -> ExpTable {
    let mut t = ExpTable::new(
        format!(
            "Table 3 — Tiled Partitioning cost out of running time (ms, scale {})",
            cfg.scale
        ),
        &["Dataset", "BFS", "BC", "PR"],
    );
    for d in Dataset::ALL {
        let csr = d.generate(cfg.scale);
        let mut cells = vec![d.name().to_owned()];
        for app_kind in AppKind::ALL {
            let m = measure(cfg, &csr, app_kind, 0x73, |dev| {
                let g = DeviceGraph::upload(dev, csr.clone());
                (g, Box::new(ResidentEngine::new()))
            });
            let runs = cfg.sources as f64;
            cells.push(format!(
                "{:.1}/{:.1} ({:.0}%)",
                m.overhead_seconds / runs * 1e3,
                m.seconds / runs * 1e3,
                m.overhead_fraction() * 100.0
            ));
        }
        t.row(cells);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_shape_and_percentages() {
        let t = run(&BenchConfig::test_config());
        assert_eq!(t.rows.len(), 5);
        for r in &t.rows {
            for c in &r[1..] {
                assert!(c.contains('%'), "cell should contain a percentage: {c}");
            }
        }
    }
}
