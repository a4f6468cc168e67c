//! Figure 10: ablation — apply SAGE's techniques incrementally:
//! baseline (thread-per-vertex) → +Tiled Partitioning → +Resident Tile
//! Stealing → +Sampling-based Reordering (§7.3).

use crate::experiments::AppKind;
use crate::harness::{measure, measure_adapted, BenchConfig};
use crate::table::{fmt_gteps, ExpTable};
use sage::engine::{Engine, NaiveEngine, ResidentEngine, TiledPartitioningEngine};
use sage::{DeviceGraph, RunReport};
use sage_graph::datasets::Dataset;
use sage_graph::Csr;

/// The ablation stages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// No technique: thread-per-vertex.
    Baseline,
    /// + Tiled Partitioning (Algorithm 2).
    TiledPartitioning,
    /// + Resident Tile Stealing (Algorithm 3).
    ResidentStealing,
    /// + Sampling-based Reordering (§6).
    SamplingReordering,
}

impl Stage {
    /// All stages, cumulative order.
    pub const ALL: [Stage; 4] = [
        Stage::Baseline,
        Stage::TiledPartitioning,
        Stage::ResidentStealing,
        Stage::SamplingReordering,
    ];

    /// Display name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Stage::Baseline => "Base",
            Stage::TiledPartitioning => "+TP",
            Stage::ResidentStealing => "+RTS",
            Stage::SamplingReordering => "+SR",
        }
    }
}

/// Measure one ablation stage on one dataset/application.
#[must_use]
pub fn measure_stage(cfg: &BenchConfig, stage: Stage, csr: &Csr, app_kind: AppKind) -> RunReport {
    let seed = 0xf10;
    let engine: Box<dyn Engine> = match stage {
        Stage::Baseline => Box::new(NaiveEngine::new()),
        Stage::TiledPartitioning => Box::new(TiledPartitioningEngine::new()),
        Stage::ResidentStealing => Box::new(ResidentEngine::new()),
        Stage::SamplingReordering => {
            let threshold = csr.num_edges() as u64;
            return measure_adapted(cfg, csr, app_kind, seed, threshold, cfg.rounds.min(10));
        }
    };
    measure(cfg, csr, app_kind, seed, |dev| {
        (DeviceGraph::upload(dev, csr.clone()), engine)
    })
}

/// Regenerate Figure 10: one table per application.
#[must_use]
pub fn run(cfg: &BenchConfig) -> Vec<ExpTable> {
    let mut tables: Vec<ExpTable> = AppKind::ALL
        .iter()
        .map(|a| {
            ExpTable::new(
                format!("Figure 10 — Ablation, {} (GTEPS)", a.name()),
                &["Dataset", "Base", "+TP", "+RTS", "+SR"],
            )
        })
        .collect();

    for d in Dataset::ALL {
        let csr = d.generate(cfg.scale);
        for (ai, app) in AppKind::ALL.iter().enumerate() {
            let mut cells = vec![d.name().to_owned()];
            for stage in Stage::ALL {
                let m = measure_stage(cfg, stage, &csr, *app);
                cells.push(fmt_gteps(m.gteps()));
            }
            tables[ai].row(cells);
        }
    }
    tables
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ablation_stages_improve_on_skewed_graph() {
        let cfg = BenchConfig::test_config();
        let csr = Dataset::Twitter.generate(0.1);
        let base = measure_stage(&cfg, Stage::Baseline, &csr, AppKind::Bfs).gteps();
        let tp = measure_stage(&cfg, Stage::TiledPartitioning, &csr, AppKind::Bfs).gteps();
        let rts = measure_stage(&cfg, Stage::ResidentStealing, &csr, AppKind::Bfs).gteps();
        assert!(tp > base, "TP ({tp}) must beat baseline ({base})");
        assert!(rts > tp, "RTS ({rts}) must beat TP ({tp})");
    }

    #[test]
    fn fig10_shape() {
        let cfg = BenchConfig::test_config();
        let tables = run(&cfg);
        assert_eq!(tables.len(), 3);
        for t in &tables {
            assert_eq!(t.rows.len(), 5);
        }
    }
}
