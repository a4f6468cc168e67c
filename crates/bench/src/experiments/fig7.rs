//! Figure 7: SAGE vs PGP baselines (Ligra, Tigr, Gunrock, B40C), with and
//! without reordering. As in the paper, Gorder is applied to every method
//! except SAGE, whose "with reordering" bar uses its own Sampling-based
//! Reordering (§7.2).

use crate::experiments::AppKind;
use crate::harness::{measure, measure_adapted, BenchConfig};
use crate::table::{fmt_gteps, ExpTable};
use gpu_sim::CpuConfig;
use sage::engine::{B40cEngine, Engine, GunrockEngine, LigraEngine, ResidentEngine, TigrEngine};
use sage::{DeviceGraph, RunReport};
use sage_graph::datasets::Dataset;
use sage_graph::reorder::gorder_order;
use sage_graph::Csr;

/// The compared PGP systems.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PgpSystem {
    /// Ligra (CPU).
    Ligra,
    /// Tigr (UDT preprocessing).
    Tigr,
    /// Gunrock (merge-based LB advance).
    Gunrock,
    /// B40C (three-bucket).
    B40c,
    /// SAGE (this paper).
    Sage,
}

impl PgpSystem {
    /// All systems in presentation order.
    pub const ALL: [PgpSystem; 5] = [
        PgpSystem::Ligra,
        PgpSystem::Tigr,
        PgpSystem::Gunrock,
        PgpSystem::B40c,
        PgpSystem::Sage,
    ];

    /// Display name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            PgpSystem::Ligra => "Ligra",
            PgpSystem::Tigr => "Tigr",
            PgpSystem::Gunrock => "Gunrock",
            PgpSystem::B40c => "B40C",
            PgpSystem::Sage => "SAGE",
        }
    }
}

/// Measure one system on one graph (already reordered if applicable).
#[must_use]
pub fn measure_system(
    cfg: &BenchConfig,
    system: PgpSystem,
    csr: &Csr,
    app_kind: AppKind,
) -> RunReport {
    measure(cfg, csr, app_kind, 0xf17, |dev| {
        // Tigr's UDT transformation allocates before the graph upload
        let engine: Box<dyn Engine> = match system {
            PgpSystem::Ligra => Box::new(LigraEngine::with_config(CpuConfig::scaled_xeon(
                cfg.scale.min(1.0),
            ))),
            PgpSystem::Tigr => Box::new(TigrEngine::new(dev, csr)),
            PgpSystem::Gunrock => Box::new(GunrockEngine::new()),
            PgpSystem::B40c => Box::new(B40cEngine::new()),
            PgpSystem::Sage => Box::new(ResidentEngine::new()),
        };
        (DeviceGraph::upload(dev, csr.clone()), engine)
    })
}

/// Regenerate Figure 7: one table per application; columns are
/// `system` (original order) and `system+G` (Gorder replica; SAGE uses its
/// own reordering instead).
#[must_use]
pub fn run(cfg: &BenchConfig) -> Vec<ExpTable> {
    let mut headers: Vec<String> = vec!["Dataset".into()];
    for s in PgpSystem::ALL {
        headers.push(s.name().into());
        headers.push(format!("{}+G", s.name()));
    }
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();

    let mut tables: Vec<ExpTable> = AppKind::ALL
        .iter()
        .map(|a| {
            ExpTable::new(
                format!(
                    "Figure 7 — {} across PGP systems, without/with reordering (GTEPS)",
                    a.name()
                ),
                &header_refs,
            )
        })
        .collect();

    for d in Dataset::ALL {
        let csr = d.generate(cfg.scale);
        let gorder_replica = gorder_order(&csr, 5).apply_csr(&csr);
        for (ai, app) in AppKind::ALL.iter().enumerate() {
            let mut cells = vec![d.name().to_owned()];
            for s in PgpSystem::ALL {
                let plain = measure_system(cfg, s, &csr, *app);
                cells.push(fmt_gteps(plain.gteps()));
                let with = if s == PgpSystem::Sage {
                    // SAGE's "with reordering" bar: adapt for a few rounds
                    let threshold = csr.num_edges() as u64;
                    measure_adapted(cfg, &csr, *app, 0xf17, threshold, cfg.rounds.min(10))
                } else {
                    measure_system(cfg, s, &gorder_replica, *app)
                };
                cells.push(fmt_gteps(with.gteps()));
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
    fn fig7_shape() {
        let cfg = BenchConfig::test_config();
        let tables = run(&cfg);
        assert_eq!(tables.len(), 3);
        for t in &tables {
            assert_eq!(t.rows.len(), 5);
            assert_eq!(t.header.len(), 11);
        }
    }

    #[test]
    fn gpu_systems_beat_ligra_on_bfs() {
        let cfg = BenchConfig::test_config();
        let csr = Dataset::Ljournal.generate(0.1);
        let ligra = measure_system(&cfg, PgpSystem::Ligra, &csr, AppKind::Bfs).gteps();
        let sage = measure_system(&cfg, PgpSystem::Sage, &csr, AppKind::Bfs).gteps();
        assert!(
            sage > ligra,
            "GPU SAGE ({sage}) must beat CPU Ligra ({ligra})"
        );
    }
}
