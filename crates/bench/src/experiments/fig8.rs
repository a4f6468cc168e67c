//! Figure 8: the out-of-core scenario — BFS with the graph in host memory
//! behind PCIe; SAGE's tile-aligned on-demand access vs Subway's active-
//! subgraph preloading.
//!
//! The paper's footnote 6 is reproduced: the open-source Subway crashes on
//! `brain`, so its cell reads `n/a`.

use crate::experiments::AppKind;
use crate::harness::{measure, BenchConfig};
use crate::table::{fmt_gteps, ExpTable};
use sage::engine::SubwayEngine;
use sage::ooc::sage_out_of_core;
use sage::DeviceGraph;
use sage_graph::datasets::Dataset;

/// Regenerate Figure 8.
#[must_use]
pub fn run(cfg: &BenchConfig) -> ExpTable {
    let mut t = ExpTable::new(
        format!(
            "Figure 8 — Out-of-core BFS over PCIe (GTEPS, scale {})",
            cfg.scale
        ),
        &["Dataset", "Subway", "SAGE"],
    );
    for d in Dataset::ALL {
        let csr = d.generate(cfg.scale);

        let subway_cell = if d == Dataset::Brain {
            // footnote 6: "The open-source implementation of Subway will
            // crash in brain."
            "n/a (crashes)".to_owned()
        } else {
            let m = measure(cfg, &csr, AppKind::Bfs, 0xf18, |dev| {
                // Subway allocates its staging buffer before the upload
                let engine = SubwayEngine::new(dev, csr.num_edges());
                (DeviceGraph::upload_host(dev, csr.clone()), Box::new(engine))
            });
            fmt_gteps(m.gteps())
        };

        let m = measure(cfg, &csr, AppKind::Bfs, 0xf18, |dev| {
            let (g, engine) = sage_out_of_core(dev, csr.clone());
            (g, Box::new(engine))
        });
        let sage_cell = fmt_gteps(m.gteps());

        t.row(vec![d.name().to_owned(), subway_cell, sage_cell]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig8_has_all_datasets_with_brain_footnote() {
        let t = run(&BenchConfig::test_config());
        assert_eq!(t.rows.len(), 5);
        let brain = t.rows.iter().find(|r| r[0] == "brain").unwrap();
        assert!(brain[1].contains("n/a"));
        // SAGE has a number on every dataset
        for r in &t.rows {
            assert!(r[2].parse::<f64>().is_ok(), "SAGE cell numeric: {:?}", r);
        }
    }
}
