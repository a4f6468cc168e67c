//! Figure 9: multi-GPU BFS — SAGE (no preprocessing) vs Gunrock and Groute
//! with and without metis pre-partitioning, on one and two GPUs. As in the
//! paper, metis' own cost is excluded from the timings.

use crate::harness::{sum_runs, BenchConfig};
use crate::table::{fmt_gteps, ExpTable};
use gpu_sim::DeviceConfig;
use sage::multigpu::{run_bfs_multi_on, MgKind, MultiGpuConfig};
use sage_graph::datasets::Dataset;

/// Regenerate Figure 9.
#[must_use]
pub fn run(cfg: &BenchConfig) -> ExpTable {
    let mut t = ExpTable::new(
        format!("Figure 9 — Multi-GPU BFS (GTEPS, scale {})", cfg.scale),
        &[
            "Dataset",
            "Gunrock x1",
            "Gunrock x2",
            "Gunrock+metis x2",
            "Groute x1",
            "Groute x2",
            "Groute+metis x2",
            "SAGE x1",
            "SAGE x2",
        ],
    );
    let configs = [
        (MgKind::Gunrock, 1, false),
        (MgKind::Gunrock, 2, false),
        (MgKind::Gunrock, 2, true),
        (MgKind::Groute, 1, false),
        (MgKind::Groute, 2, false),
        (MgKind::Groute, 2, true),
        (MgKind::Sage, 1, false),
        (MgKind::Sage, 2, false),
    ];
    let dev_cfg = DeviceConfig::scaled_rtx_8000(cfg.scale.min(1.0));
    for d in Dataset::ALL {
        let csr = d.generate(cfg.scale);
        let sources = cfg.pick_sources(&csr, 0xf19);
        let mut cells = vec![d.name().to_owned()];
        for (kind, gpus, metis) in configs {
            let mc = MultiGpuConfig { gpus, kind, metis };
            let total = sum_runs(
                sources
                    .iter()
                    .map(|&s| run_bfs_multi_on(&mc, &csr, s, &dev_cfg)),
            );
            cells.push(fmt_gteps(total.gteps()));
        }
        t.row(cells);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig9_shape() {
        let cfg = BenchConfig {
            sources: 1,
            ..BenchConfig::test_config()
        };
        let t = run(&cfg);
        assert_eq!(t.rows.len(), 5);
        assert_eq!(t.header.len(), 9);
        // every cell parses as a number
        for r in &t.rows {
            for c in &r[1..] {
                assert!(c.parse::<f64>().is_ok(), "cell {c}");
            }
        }
    }
}
