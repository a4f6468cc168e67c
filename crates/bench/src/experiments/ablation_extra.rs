//! Extension ablations for the design choices DESIGN.md calls out — not
//! figures from the paper, but sensitivity sweeps over SAGE's tunables:
//!
//! * `MIN_TILE_SIZE` (Algorithm 2's partition floor);
//! * block size (the largest cooperative tile);
//! * tile alignment on/off (§5.3);
//! * the sampling threshold (§6, the paper uses |E|).

use crate::experiments::AppKind;
use crate::harness::{measure, measure_adapted, BenchConfig};
use crate::table::{fmt_gteps, ExpTable};
use sage::engine::ResidentEngine;
use sage::{DeviceGraph, RunReport};
use sage_graph::datasets::Dataset;
use sage_graph::Csr;

fn measure_geometry(
    cfg: &BenchConfig,
    csr: &Csr,
    block_size: usize,
    min_tile: usize,
    align: bool,
) -> RunReport {
    measure(cfg, csr, AppKind::Bfs, 0xab1a, |dev| {
        let g = DeviceGraph::upload(dev, csr.clone());
        let engine = ResidentEngine::with_geometry(block_size, min_tile, align);
        (g, Box::new(engine))
    })
}

/// Sweep `MIN_TILE_SIZE` (paper default 8).
#[must_use]
pub fn min_tile_sweep(cfg: &BenchConfig) -> ExpTable {
    let mut t = ExpTable::new(
        "Ablation — MIN_TILE_SIZE sweep, BFS (GTEPS)",
        &[
            "Dataset",
            "min_tile=4",
            "min_tile=8",
            "min_tile=16",
            "min_tile=32",
        ],
    );
    for d in [Dataset::Uk2002, Dataset::Brain, Dataset::Twitter] {
        let csr = d.generate(cfg.scale);
        let mut cells = vec![d.name().to_owned()];
        for mt in [4, 8, 16, 32] {
            cells.push(fmt_gteps(
                measure_geometry(cfg, &csr, 256, mt, true).gteps(),
            ));
        }
        t.row(cells);
    }
    t
}

/// Sweep the block size (the largest tile class).
#[must_use]
pub fn block_size_sweep(cfg: &BenchConfig) -> ExpTable {
    let mut t = ExpTable::new(
        "Ablation — block-size sweep, BFS (GTEPS)",
        &["Dataset", "block=64", "block=128", "block=256", "block=512"],
    );
    for d in [Dataset::Uk2002, Dataset::Brain, Dataset::Twitter] {
        let csr = d.generate(cfg.scale);
        let mut cells = vec![d.name().to_owned()];
        for bs in [64, 128, 256, 512] {
            cells.push(fmt_gteps(measure_geometry(cfg, &csr, bs, 8, true).gteps()));
        }
        t.row(cells);
    }
    t
}

/// Tile alignment on/off (§5.3).
#[must_use]
pub fn alignment_ablation(cfg: &BenchConfig) -> ExpTable {
    let mut t = ExpTable::new(
        "Ablation — tile alignment (§5.3), BFS (GTEPS)",
        &["Dataset", "aligned", "unaligned"],
    );
    for d in Dataset::ALL {
        let csr = d.generate(cfg.scale);
        t.row(vec![
            d.name().to_owned(),
            fmt_gteps(measure_geometry(cfg, &csr, 256, 8, true).gteps()),
            fmt_gteps(measure_geometry(cfg, &csr, 256, 8, false).gteps()),
        ]);
    }
    t
}

/// Sampling-threshold sweep (the paper uses |E|).
#[must_use]
pub fn threshold_sweep(cfg: &BenchConfig) -> ExpTable {
    let mut t = ExpTable::new(
        "Ablation — sampling threshold sweep, BFS after adaptation (GTEPS)",
        &["Dataset", "|E|/4", "|E|", "4|E|"],
    );
    for d in [Dataset::Twitter, Dataset::Friendster] {
        let csr = d.generate(cfg.scale);
        let e = csr.num_edges() as u64;
        let mut cells = vec![d.name().to_owned()];
        for thr in [e / 4, e, 4 * e] {
            let rounds = cfg.rounds.min(12);
            let m = measure_adapted(cfg, &csr, AppKind::Bfs, 0xab1b, thr.max(1), rounds);
            cells.push(fmt_gteps(m.gteps()));
        }
        t.row(cells);
    }
    t
}

/// Run every extension ablation.
#[must_use]
pub fn run(cfg: &BenchConfig) -> Vec<ExpTable> {
    vec![
        min_tile_sweep(cfg),
        block_size_sweep(cfg),
        alignment_ablation(cfg),
        threshold_sweep(cfg),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweeps_produce_complete_tables() {
        let cfg = BenchConfig::test_config();
        let tables = run(&cfg);
        assert_eq!(tables.len(), 4);
        for t in &tables {
            assert!(!t.rows.is_empty());
            for r in &t.rows {
                for c in &r[1..] {
                    assert!(c.parse::<f64>().unwrap() > 0.0, "cell {c}");
                }
            }
        }
    }

    #[test]
    fn alignment_never_hurts_much() {
        let cfg = BenchConfig::test_config();
        let t = alignment_ablation(&cfg);
        for r in &t.rows {
            let aligned: f64 = r[1].parse().unwrap();
            let unaligned: f64 = r[2].parse().unwrap();
            assert!(
                aligned > unaligned * 0.9,
                "{}: aligned {aligned} vs unaligned {unaligned}",
                r[0]
            );
        }
    }
}
