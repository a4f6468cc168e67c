//! Extension experiment: the three out-of-core strategies §3.3 discusses —
//! on-demand zero-copy (SAGE), a unified-memory page pool (HALO/UM-style),
//! and Subway's active-subgraph preloading — across pool sizes.

use crate::experiments::AppKind;
use crate::harness::{measure, BenchConfig};
use crate::table::{fmt_gteps, ExpTable};
use sage::engine::SubwayEngine;
use sage::ooc::{sage_out_of_core, UmOocEngine};
use sage::DeviceGraph;
use sage_graph::datasets::Dataset;

/// BFS GTEPS per out-of-core strategy.
#[must_use]
pub fn run(cfg: &BenchConfig) -> ExpTable {
    let mut t = ExpTable::new(
        "Out-of-core strategies — BFS (GTEPS)",
        &[
            "Dataset",
            "SAGE zero-copy",
            "UM pool 10%",
            "UM pool 50%",
            "Subway",
        ],
    );
    for d in [Dataset::Uk2002, Dataset::Ljournal, Dataset::Twitter] {
        let csr = d.generate(cfg.scale);
        let seed = 0x00c;
        let mut cells = vec![d.name().to_owned()];

        let zero_copy = measure(cfg, &csr, AppKind::Bfs, seed, |dev| {
            let (g, eng) = sage_out_of_core(dev, csr.clone());
            (g, Box::new(eng))
        });
        cells.push(fmt_gteps(zero_copy.gteps()));

        for frac in [0.1, 0.5] {
            let um = measure(cfg, &csr, AppKind::Bfs, seed, |dev| {
                let eng = UmOocEngine::new(&csr, frac, 4096);
                (DeviceGraph::upload_host(dev, csr.clone()), Box::new(eng))
            });
            cells.push(fmt_gteps(um.gteps()));
        }

        let subway = measure(cfg, &csr, AppKind::Bfs, seed, |dev| {
            let eng = SubwayEngine::new(dev, csr.num_edges());
            (DeviceGraph::upload_host(dev, csr.clone()), Box::new(eng))
        });
        cells.push(fmt_gteps(subway.gteps()));

        t.row(cells);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_strategies_produce_numbers() {
        let t = run(&BenchConfig::test_config());
        assert_eq!(t.rows.len(), 3);
        for r in &t.rows {
            for c in &r[1..] {
                assert!(c.parse::<f64>().unwrap() > 0.0);
            }
        }
    }
}
