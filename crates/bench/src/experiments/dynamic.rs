//! Extension experiment: the dynamic-graph scenario §7.2 argues for —
//! after a batch of edge updates, preprocessing-based orders are invalid
//! (the baseline must re-run its full preprocessing), while SAGE answers
//! immediately and re-adapts by sampling.

use crate::experiments::AppKind;
use crate::harness::{measure, BenchConfig};
use crate::table::{fmt_seconds, ExpTable};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sage::app::Bfs;
use sage::engine::ResidentEngine;
use sage::{DeviceGraph, SageRuntime};
use sage_graph::datasets::Dataset;
use sage_graph::reorder::gorder_order;
use sage_graph::update::UpdateBatch;
use std::time::Instant;

/// Apply `epochs` update batches and compare total time-to-ready:
/// Gorder must re-preprocess each epoch; SAGE pays one sampling round.
#[must_use]
pub fn run(cfg: &BenchConfig) -> ExpTable {
    let mut t = ExpTable::new(
        "Dynamic graphs — cost to restore an optimised order per update epoch",
        &["Dataset", "Gorder re-preprocess", "SAGE re-adapt (1 round)"],
    );
    for d in [Dataset::Ljournal, Dataset::Twitter] {
        let mut csr = d.generate(cfg.scale);
        let mut rng = StdRng::seed_from_u64(0xd1a);
        // one representative update epoch
        let n = csr.num_nodes() as u32;
        let mut batch = UpdateBatch::new();
        for _ in 0..1000 {
            let u = rng.gen_range(0..n);
            let v = rng.gen_range(0..n);
            if u != v {
                batch.insert_undirected(u, v);
            }
        }
        csr = batch.apply(&csr);

        // Gorder: the whole preprocessing re-runs on the updated graph
        let t0 = Instant::now();
        let _ = gorder_order(&csr, 5);
        let gorder_sec = t0.elapsed().as_secs_f64();

        // SAGE: one sampled traversal (useful work anyway) + one round
        let mut dev = cfg.device();
        let mut rt = SageRuntime::new(&mut dev, csr.clone());
        let mut app = Bfs::new(&mut dev);
        let t0 = Instant::now();
        let _ = rt.run(&mut dev, &mut app, 0);
        let _ = rt.force_reorder(&mut dev);
        let sage_sec = t0.elapsed().as_secs_f64();

        // sanity: the updated graph still answers correctly
        let m = measure(cfg, &csr, AppKind::Bfs, 0xd1b, |dev| {
            let g = DeviceGraph::upload(dev, csr.clone());
            (g, Box::new(ResidentEngine::new()))
        });
        assert!(m.edges > 0);

        t.row(vec![
            d.name().to_owned(),
            fmt_seconds(gorder_sec),
            fmt_seconds(sage_sec),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dynamic_table_built_and_sage_cheaper_on_skewed() {
        let cfg = BenchConfig::test_config();
        let t = run(&cfg);
        assert_eq!(t.rows.len(), 2);
    }
}
