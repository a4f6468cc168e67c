//! Experiment implementations, one module per table/figure of §7, and
//! [`ALL`], the registry the `all_experiments` binary runs them through.

pub mod ablation_extra;
pub mod dynamic;
pub mod fig10;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod ooc_ablation;
pub mod table1;
pub mod table2;
pub mod table3;

use crate::harness::BenchConfig;
use crate::table::ExpTable;
use gpu_sim::Device;
use sage::app::{App, Bc, Bfs, PageRank};

/// One registered experiment: a table or figure of §7, or an extension study.
#[derive(Debug, Clone, Copy)]
pub struct Experiment {
    /// Name selected by `all_experiments --only <name>`.
    pub name: &'static str,
    /// Part of the paper's evaluation, run by `all_experiments` with no flag.
    pub paper: bool,
    /// Produce the experiment's tables.
    pub run: fn(&BenchConfig) -> Vec<ExpTable>,
}

impl Experiment {
    const fn paper(name: &'static str, run: fn(&BenchConfig) -> Vec<ExpTable>) -> Self {
        Self {
            name,
            paper: true,
            run,
        }
    }

    const fn extension(name: &'static str, run: fn(&BenchConfig) -> Vec<ExpTable>) -> Self {
        Self {
            name,
            paper: false,
            run,
        }
    }
}

/// Every experiment: the paper's eight in report order, then the three
/// extension studies.
pub const ALL: [Experiment; 11] = [
    Experiment::paper("table1", |c| vec![table1::run(c)]),
    Experiment::paper("fig6", fig6::run),
    Experiment::paper("table2", |c| vec![table2::run(c)]),
    Experiment::paper("fig7", fig7::run),
    Experiment::paper("fig8", |c| vec![fig8::run(c)]),
    Experiment::paper("fig9", |c| vec![fig9::run(c)]),
    Experiment::paper("fig10", fig10::run),
    Experiment::paper("table3", |c| vec![table3::run(c)]),
    Experiment::extension("ablation_extra", ablation_extra::run),
    Experiment::extension("ooc_ablation", |c| vec![ooc_ablation::run(c)]),
    Experiment::extension("dynamic_graphs", |c| vec![dynamic::run(c)]),
];

/// The paper's three evaluated applications.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppKind {
    /// Breadth-First Search (no atomics, local traversal).
    Bfs,
    /// Betweenness Centrality (atomic-heavy, local traversal, two phases).
    Bc,
    /// PageRank (atomic aggregation, global traversal).
    Pr,
}

impl AppKind {
    /// The three applications in the paper's order.
    pub const ALL: [AppKind; 3] = [AppKind::Bfs, AppKind::Bc, AppKind::Pr];

    /// Display name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            AppKind::Bfs => "BFS",
            AppKind::Bc => "BC",
            AppKind::Pr => "PR",
        }
    }

    /// Instantiate the application.
    #[must_use]
    pub fn make(&self, dev: &mut Device, cfg: &BenchConfig) -> Box<dyn App> {
        match self {
            AppKind::Bfs => Box::new(Bfs::new(dev)),
            AppKind::Bc => Box::new(Bc::new(dev)),
            AppKind::Pr => Box::new(PageRank::new(dev, cfg.pr_iters, 0.0)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn appkind_constructs_each_app() {
        let mut dev = Device::new(gpu_sim::DeviceConfig::test_tiny());
        let cfg = BenchConfig::test_config();
        for k in AppKind::ALL {
            let app = k.make(&mut dev, &cfg);
            assert!(!app.name().is_empty());
            assert!(!k.name().is_empty());
        }
    }
}
