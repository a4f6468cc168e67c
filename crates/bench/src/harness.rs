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

/// Variable `name` read through `lookup`: `default` when unset, else its
/// parsed value when `valid` accepts it, else a message naming the
/// variable, its value and what it must hold.
fn var<T: std::str::FromStr>(
    lookup: &impl Fn(&str) -> Option<String>,
    name: &'static str,
    default: T,
    valid: fn(&T) -> bool,
    expected: &'static str,
) -> Result<T, String> {
    let Some(value) = lookup(name) else {
        return Ok(default);
    };
    value
        .parse()
        .ok()
        .filter(valid)
        .ok_or_else(|| format!("{name}={value:?}: expected {expected}"))
}

impl BenchConfig {
    /// Read the configuration from `SAGE_*` environment variables.
    ///
    /// # Errors
    /// The first variable whose value does not parse or is out of range.
    pub fn from_env() -> Result<Self, String> {
        Self::from_lookup(|name| std::env::var(name).ok())
    }

    /// The configuration `lookup` (variable name to value, `None` when
    /// unset) describes. `SAGE_SCALE` must be positive and finite,
    /// `SAGE_SOURCES` and `SAGE_PR_ITERS` positive integers, and
    /// `SAGE_ROUNDS` a non-negative integer.
    fn from_lookup(lookup: impl Fn(&str) -> Option<String>) -> Result<Self, String> {
        const POSITIVE: &str = "a positive integer";
        Ok(Self {
            scale: var(
                &lookup,
                "SAGE_SCALE",
                1.0,
                |s: &f64| *s > 0.0 && s.is_finite(),
                "a positive finite number",
            )?,
            sources: var(&lookup, "SAGE_SOURCES", 3, |&n| n > 0, POSITIVE)?,
            rounds: var(
                &lookup,
                "SAGE_ROUNDS",
                30,
                |_| true,
                "a non-negative integer",
            )?,
            pr_iters: var(&lookup, "SAGE_PR_ITERS", 5, |&n| n > 0, POSITIVE)?,
        })
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
/// Also returns how many adaptation runs were made, so the measured runs
/// are the paper's SAGE_N with N one more than that.
pub fn measure_adapted(
    cfg: &BenchConfig,
    csr: &Csr,
    app: AppKind,
    seed: u64,
    threshold: u64,
    rounds: usize,
) -> (RunReport, usize) {
    let mut dev = cfg.device();
    let sources = cfg.pick_sources(csr, seed);
    let mut rt = SageRuntime::with_threshold(&mut dev, csr.clone(), threshold);
    let mut app = app.make(&mut dev, cfg);
    let mut runs = 0;
    for &s in sources.iter().cycle().take(rounds) {
        let _ = rt.run(&mut dev, app.as_mut(), s);
        runs += 1;
        rt.maybe_reorder(&mut dev);
        if rt.converged() {
            break;
        }
    }
    let report = sum_runs(sources.iter().map(|&s| rt.run(&mut dev, app.as_mut(), s)));
    (report, runs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sage::engine::ResidentEngine;
    use sage_graph::gen::uniform_graph;

    #[test]
    fn config_from_env_has_defaults() {
        let c = BenchConfig::from_lookup(|_| None).unwrap();
        let want = BenchConfig {
            scale: 1.0,
            sources: 3,
            rounds: 30,
            pr_iters: 5,
        };
        assert_eq!(c, want);
    }

    fn lookup_one(name: &'static str, value: &'static str) -> impl Fn(&str) -> Option<String> {
        move |n| (n == name).then(|| value.to_string())
    }

    #[test]
    fn config_parses_valid_values() {
        let c = BenchConfig::from_lookup(lookup_one("SAGE_SCALE", "0.05")).unwrap();
        assert_eq!(c.scale, 0.05);
        let c = BenchConfig::from_lookup(lookup_one("SAGE_ROUNDS", "0")).unwrap();
        assert_eq!(c.rounds, 0);
        let c = BenchConfig::from_lookup(lookup_one("SAGE_PR_ITERS", "7")).unwrap();
        assert_eq!(c.pr_iters, 7);
    }

    #[test]
    fn config_refuses_bad_values_by_name() {
        for (name, value) in [
            ("SAGE_SCALE", "abc"),
            ("SAGE_SCALE", "0"),
            ("SAGE_SCALE", "-1"),
            ("SAGE_SCALE", "nan"),
            ("SAGE_SCALE", "inf"),
            ("SAGE_SOURCES", "0"),
            ("SAGE_SOURCES", "-1"),
            ("SAGE_SOURCES", "2.5"),
            ("SAGE_ROUNDS", "-1"),
            ("SAGE_ROUNDS", "x"),
            ("SAGE_PR_ITERS", "0"),
        ] {
            let err = BenchConfig::from_lookup(lookup_one(name, value)).unwrap_err();
            assert!(err.starts_with(&format!("{name}={value:?}")), "{err}");
        }
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
        let (adapted, _) = measure_adapted(&cfg, &g, AppKind::Bfs, 1, 1, cfg.rounds);
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
            let (adapted, runs) = measure_adapted(&cfg, &g, app, 7, g.num_edges() as u64, 0);
            assert_eq!(runs, 0, "{}", app.name());
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
