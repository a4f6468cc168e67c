//! Shared measurement plumbing: configuration, source selection, averaged
//! traversal measurements (§7.1: "all experiments are repeated ... to
//! calculate the average" with randomly selected source nodes).

use gpu_sim::{Device, DeviceConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sage::app::App;
use sage::engine::Engine;
use sage::{DeviceGraph, RunReport, Runner};
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

/// One averaged measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Measurement {
    /// Total edges traversed across the averaged runs.
    pub edges: u64,
    /// Total simulated seconds.
    pub seconds: f64,
    /// Total scheduling-overhead seconds.
    pub overhead_seconds: f64,
    /// Number of runs averaged.
    pub runs: usize,
}

impl Measurement {
    /// Mean throughput in GTEPS.
    #[must_use]
    pub fn gteps(&self) -> f64 {
        if self.seconds <= 0.0 {
            0.0
        } else {
            self.edges as f64 / self.seconds / 1e9
        }
    }

    /// Overhead share of the runtime (Table 3).
    #[must_use]
    pub fn overhead_fraction(&self) -> f64 {
        if self.seconds <= 0.0 {
            0.0
        } else {
            self.overhead_seconds / self.seconds
        }
    }

    /// Mean seconds per run.
    #[must_use]
    pub fn seconds_per_run(&self) -> f64 {
        if self.runs == 0 {
            0.0
        } else {
            self.seconds / self.runs as f64
        }
    }

    /// Fold a run report into the aggregate.
    pub fn add(&mut self, r: &RunReport) {
        self.edges += r.edges;
        self.seconds += r.seconds;
        self.overhead_seconds += r.overhead_seconds;
        self.runs += 1;
    }

    /// An empty aggregate.
    #[must_use]
    pub fn empty() -> Self {
        Self {
            edges: 0,
            seconds: 0.0,
            overhead_seconds: 0.0,
            runs: 0,
        }
    }
}

/// Run `app` once per source through `engine` on `g` and aggregate.
pub fn measure(
    dev: &mut Device,
    g: &DeviceGraph,
    engine: &mut dyn Engine,
    app: &mut dyn App,
    sources: &[NodeId],
) -> Measurement {
    let runner = Runner::new();
    let mut m = Measurement::empty();
    for &s in sources {
        let r = runner.run(dev, g, engine, app, s);
        m.add(&r);
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::DeviceConfig;
    use sage::app::Bfs;
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

    #[test]
    fn measurement_aggregates() {
        let g = uniform_graph(300, 1500, 2);
        let mut dev = Device::new(DeviceConfig::test_tiny());
        let dg = DeviceGraph::upload(&mut dev, g.clone());
        let mut eng = ResidentEngine::new();
        let mut app = Bfs::new(&mut dev);
        let cfg = BenchConfig::test_config();
        let sources = cfg.pick_sources(&g, 3);
        let m = measure(&mut dev, &dg, &mut eng, &mut app, &sources);
        assert_eq!(m.runs, sources.len());
        assert!(m.gteps() > 0.0);
        assert!(m.seconds_per_run() > 0.0);
        assert!(m.overhead_fraction() >= 0.0);
    }

    #[test]
    fn empty_measurement_is_zero() {
        let m = Measurement::empty();
        assert_eq!(m.gteps(), 0.0);
        assert_eq!(m.seconds_per_run(), 0.0);
    }
}
