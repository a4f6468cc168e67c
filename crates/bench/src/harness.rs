//! Shared measurement plumbing: configuration, source selection, and the
//! two paths every experiment cell is measured through (§7.1: "all
//! experiments are repeated ... to calculate the average" with randomly
//! selected source nodes).
//!
//! * [`measure`] runs a fixed engine on a graph the cell uploads itself;
//!   without an in-edge view, every iteration pushes.
//! * [`measure_adapted`] runs a [`SageRuntime`] (in-edge view, adaptive
//!   direction) through its self-reordering rounds, then measures.

use crate::experiments::AppKind;
use gpu_sim::{Device, DeviceConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sage::engine::Engine;
use sage::{DeviceGraph, RunReport, Runner, SageRuntime};
use sage_graph::{Csr, NodeId};
/// Global experiment configuration, read once from the environment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BenchConfig {
    /// Dataset scale factor (`SAGE_SCALE`, default 1.0).
    pub scale: f64,
    /// Sources averaged per measurement (`SAGE_SOURCES`, default 3).
    pub sources: usize,
    /// Self-reordering rounds for the "SAGE_N" bars (`SAGE_ROUNDS`,
    /// default 30; the paper's Figure 6 uses 100).
    pub rounds: usize,
    /// PageRank iterations in timed runs (the paper's PR bars; bounded to
    /// keep the harness fast, identical across engines).
    pub pr_iters: usize,
}

impl Default for BenchConfig {
    fn default() -> Self {
        Self::from_env()
    }
}

impl BenchConfig {
    /// Read the configuration from `SAGE_*` environment variables.
    #[must_use]
    pub fn from_env() -> Self {
        let get = |name: &str, default: f64| -> f64 {
            std::env::var(name)
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(default)
        };
        Self {
            scale: get("SAGE_SCALE", 1.0),
            sources: get("SAGE_SOURCES", 3.0) as usize,
            rounds: get("SAGE_ROUNDS", 30.0) as usize,
            pr_iters: get("SAGE_PR_ITERS", 5.0) as usize,
        }
    }

    /// A fast configuration for integration tests.
    #[must_use]
    pub fn test_config() -> Self {
        Self {
            scale: 0.05,
            sources: 1,
            rounds: 3,
            pr_iters: 3,
        }
    }

    /// The evaluation device: an RTX 8000 with its cache hierarchy scaled
    /// to match the dataset scale (see [`DeviceConfig::scaled_rtx_8000`]).
    #[must_use]
    pub fn device(&self) -> Device {
        Device::new(DeviceConfig::scaled_rtx_8000(self.scale.min(1.0)))
    }

    /// Deterministic "randomly selected source nodes" (§7.2) that are not
    /// isolated. A graph without edges has no such node, so it gets none.
    #[must_use]
    pub fn pick_sources(&self, g: &Csr, seed: u64) -> Vec<NodeId> {
        if g.num_edges() == 0 {
            return Vec::new();
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let n = g.num_nodes() as NodeId;
        let mut out = Vec::with_capacity(self.sources);
        while out.len() < self.sources {
            let s = rng.gen_range(0..n);
            if g.degree(s) > 0 {
                out.push(s);
            }
        }
        out
    }
}

/// Fold per-source run reports into one aggregate with
/// [`RunReport::accumulate`]; no runs give an empty report (0 GTEPS).
pub fn sum_runs(runs: impl IntoIterator<Item = RunReport>) -> RunReport {
    runs.into_iter()
        .reduce(|mut total, r| {
            total.accumulate(&r);
            total
        })
        .unwrap_or_default()
}

/// Measure `app` from the sources `seed` picks on a fresh device. `setup`
/// places the graph and builds the engine, in the cell's own allocation
/// order; the application is made last.
pub fn measure(
    cfg: &BenchConfig,
    csr: &Csr,
    app: AppKind,
    seed: u64,
    setup: impl FnOnce(&mut Device) -> (DeviceGraph, Box<dyn Engine>),
) -> RunReport {
    let mut dev = cfg.device();
    let sources = cfg.pick_sources(csr, seed);
    let (g, mut engine) = setup(&mut dev);
    let mut app = app.make(&mut dev, cfg);
    let runner = Runner::new();
    sum_runs(
        sources
            .iter()
            .map(|&s| runner.run(&mut dev, &g, engine.as_mut(), app.as_mut(), s)),
    )
}

/// Measure `app` on a [`SageRuntime`] with sampling threshold `threshold`
/// after at most `rounds` adaptation rounds (one run from the next source,
/// then a reordering round; stops early once the runtime has converged).
pub fn measure_adapted(
    cfg: &BenchConfig,
    csr: &Csr,
    app: AppKind,
    seed: u64,
    threshold: u64,
    rounds: usize,
) -> RunReport {
    let mut dev = cfg.device();
    let sources = cfg.pick_sources(csr, seed);
    let mut rt = SageRuntime::with_threshold(&mut dev, csr.clone(), threshold);
    let mut app = app.make(&mut dev, cfg);
    for &s in sources.iter().cycle().take(rounds) {
        let _ = rt.run(&mut dev, app.as_mut(), s);
        rt.maybe_reorder(&mut dev);
        if rt.converged() {
            break;
        }
    }
    sum_runs(sources.iter().map(|&s| rt.run(&mut dev, app.as_mut(), s)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sage::engine::ResidentEngine;
    use sage_graph::gen::uniform_graph;

    #[test]
    fn config_from_env_has_defaults() {
        // do not set the env vars; defaults apply
        let c = BenchConfig::from_env();
        assert!(c.scale > 0.0);
        assert!(c.sources >= 1);
    }

    #[test]
    fn sources_are_deterministic_and_non_isolated() {
        let g = uniform_graph(500, 2000, 1);
        let c = BenchConfig::test_config();
        let a = c.pick_sources(&g, 9);
        let b = c.pick_sources(&g, 9);
        assert_eq!(a, b);
        for &s in &a {
            assert!(g.degree(s) > 0);
        }
    }

    #[test]
    fn edgeless_graphs_get_no_sources() {
        let c = BenchConfig::test_config();
        for n in [0, 4] {
            let g = Csr::from_edges(n, &[]);
            assert!(c.pick_sources(&g, 1).is_empty(), "n = {n}");
        }
    }

    fn resident(dev: &mut Device, csr: &Csr) -> (DeviceGraph, Box<dyn Engine>) {
        (
            DeviceGraph::upload(dev, csr.clone()),
            Box::new(ResidentEngine::new()),
        )
    }

    #[test]
    fn measurement_aggregates() {
        let g = uniform_graph(300, 1500, 2);
        let cfg = BenchConfig {
            sources: 3,
            ..BenchConfig::test_config()
        };
        let total = measure(&cfg, &g, AppKind::Bfs, 3, |dev| resident(dev, &g));
        // one '|'-separated direction trace per source
        assert_eq!(total.direction_trace.split('|').count(), cfg.sources);
        assert!(total.gteps() > 0.0);
        assert!(total.seconds > 0.0);
        assert!((0.0..=1.0).contains(&total.overhead_fraction()));
    }

    #[test]
    fn empty_measurement_is_zero() {
        let cfg = BenchConfig::test_config();
        let g = Csr::from_edges(4, &[]);
        let plain = measure(&cfg, &g, AppKind::Bfs, 1, |dev| resident(dev, &g));
        let adapted = measure_adapted(&cfg, &g, AppKind::Bfs, 1, 1, cfg.rounds);
        for r in [plain, adapted] {
            assert_eq!((r.edges, r.seconds), (0, 0.0));
            assert_eq!(r.gteps(), 0.0);
        }
    }

    #[test]
    fn unadapted_runtime_matches_an_in_edge_upload() {
        // fig6 measures its replicas through measure_adapted with no
        // rounds; that must equal the resident engine on an in-edge upload
        let cfg = BenchConfig {
            sources: 2,
            ..BenchConfig::test_config()
        };
        let g = uniform_graph(400, 3000, 5);
        for app in AppKind::ALL {
            let adapted = measure_adapted(&cfg, &g, app, 7, g.num_edges() as u64, 0);
            let plain = measure(&cfg, &g, app, 7, |dev| {
                let dg = DeviceGraph::upload(dev, g.clone()).with_in_edges(dev);
                (dg, Box::new(ResidentEngine::new()))
            });
            assert_eq!(adapted.edges, plain.edges, "{}", app.name());
            assert_eq!(adapted.seconds.to_bits(), plain.seconds.to_bits());
            assert_eq!(
                adapted.overhead_seconds.to_bits(),
                plain.overhead_seconds.to_bits()
            );
            assert_eq!(adapted.direction_trace, plain.direction_trace);
        }
    }
}
