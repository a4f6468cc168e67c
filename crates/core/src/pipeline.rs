//! The node-centric processing pipeline of Figure 2:
//! **expansion → filtering → contraction**, iterated over the graph's one
//! frontier queue until the application converges. Every gear contracts
//! inside the kernel that produced the next frontier: a push engine through
//! [`crate::engine::common::contract`] in its last kernel, the bottom-up
//! gears through their atomic-cursor append; the runner launches nothing
//! for contraction.
//!
//! On top of the push pipeline sits a Beamer-style direction optimizer: a
//! per-iteration heuristic compares the frontier's unvisited out-edge mass
//! against the remaining unvisited edges and switches between **push**
//! (expand the sparse queue's out-edges) and **pull** (scan unvisited
//! vertices' in-edges against a dense bitmap of the frontier). Pull
//! iterations require the graph's in-edge view ([`crate::DeviceGraph::with_in_edges`]),
//! an app with a pull contract ([`App::supports_pull`]; BFS is the one) and
//! an engine that describes its bottom-up geometry ([`Engine::bottom_up`]);
//! otherwise the runner transparently stays push-only. The runner drives
//! both bottom-up gears itself, through
//! [`crate::engine::common::pull_iterate`] and
//! [`crate::engine::spmv::matrix_iterate`].
//!
//! The three-way policy adds a **matrix** gear on top: once the heuristic
//! is in bottom-up territory *and* the frontier bitmap is dense enough,
//! the iteration executes as a masked SpMV on the tensor units instead of a
//! scalar pull scan.
//! Matrix iterations appear as `M` in the direction trace.

use crate::app::{App, Step};
use crate::dgraph::DeviceGraph;
use crate::engine::common::pull_iterate;
use crate::engine::spmv::matrix_iterate;
use crate::engine::Engine;
use crate::frontier::BitFrontier;
use crate::metrics::RunReport;
use gpu_sim::Device;
use sage_graph::NodeId;

/// How the runner picks each iteration's traversal direction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DirectionPolicy {
    /// Always push (the classic Figure 2 pipeline).
    PushOnly,
    /// Three-way chooser. A Beamer-style alpha/beta state machine decides
    /// push vs bottom-up: switch push→bottom-up when the frontier's
    /// out-edge mass `m_f` exceeds `m_u / alpha` (the frontier would touch
    /// more edges than a bottom-up scan), and back to push when the
    /// frontier population `n_f` drops below `n / beta`. A bottom-up
    /// iteration then executes on the **matrix** units when the frontier
    /// bitmap is dense enough (`n_f / n ≥ density` — well-populated
    /// fragments amortize the block multiplies), and as a scalar pull scan
    /// otherwise; `density: f64::INFINITY` gives the two-way push/pull
    /// optimizer, and `alpha = beta = ∞` with `density: 0.0` pins every
    /// iteration from the first frontier with out-edges to the matrix gear
    /// (how tests force it).
    Adaptive3 {
        /// Push→pull edge-mass ratio (paper default 14).
        alpha: f64,
        /// Pull→push population ratio (paper default 24).
        beta: f64,
        /// Minimum frontier density for the matrix mode.
        density: f64,
    },
}

impl DirectionPolicy {
    /// The three-way configuration: α=14, β=24, matrix above 5% frontier
    /// density.
    #[must_use]
    pub fn adaptive3() -> Self {
        DirectionPolicy::Adaptive3 {
            alpha: 14.0,
            beta: 24.0,
            density: 0.05,
        }
    }
}

/// Which path one iteration takes (resolved from policy + capabilities).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Push,
    Pull,
    Matrix,
}

/// Hard cap on a run's iterations (safety net against non-converging
/// filters); a run that hits it reports `converged: false`.
const MAX_ITERATIONS: usize = 100_000;

/// Runs applications through an engine on a device.
pub struct Runner {
    /// Per-iteration direction selection.
    pub policy: DirectionPolicy,
}

impl Default for Runner {
    fn default() -> Self {
        Self {
            policy: DirectionPolicy::adaptive3(),
        }
    }
}

impl Runner {
    /// A runner with the three-way adaptive direction policy (push / pull /
    /// matrix).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// A runner pinned to push iterations (the pre-direction-optimizing
    /// pipeline, and the baseline the adaptive runner is tested against).
    #[must_use]
    pub fn push_only() -> Self {
        Self {
            policy: DirectionPolicy::PushOnly,
        }
    }

    /// Execute one full traversal of `app` from `source` and report
    /// simulated timing.
    pub fn run(
        &self,
        dev: &mut Device,
        g: &DeviceGraph,
        engine: &mut dyn Engine,
        app: &mut dyn App,
        source: NodeId,
    ) -> RunReport {
        let start = dev.elapsed_seconds();
        let overhead_start = dev.overhead_seconds();
        let hazard_start = dev.hazard_count();
        let n = g.csr().num_nodes();
        let mut frontier = app.init(dev, g.csr(), source);

        let (alpha, beta, density) = match self.policy {
            DirectionPolicy::Adaptive3 {
                alpha,
                beta,
                density,
            } => (alpha, beta, density),
            DirectionPolicy::PushOnly => (0.0, 0.0, 0.0),
        };
        // the engine's bottom-up geometry, asked once per run and only when
        // the policy, the graph and the app allow a bottom-up step; without
        // it every iteration pushes and the alpha/beta state machine idles
        let bottom_up = if self.policy != DirectionPolicy::PushOnly
            && g.has_in_edges()
            && app.supports_pull()
        {
            engine.bottom_up(dev, g)
        } else {
            None
        };
        let track = bottom_up.is_some();

        // unvisited-edge bookkeeping for the heuristic: m_u counts the
        // out-edges of vertices that have never been on a frontier
        let mut visited = vec![false; if track { n } else { 0 }];
        let mut m_u: u64 = if track { g.csr().num_edges() as u64 } else { 0 };
        let mark_visited = |nodes: &[NodeId], visited: &mut Vec<bool>, m_u: &mut u64| {
            for &u in nodes {
                if !visited[u as usize] {
                    visited[u as usize] = true;
                    *m_u = m_u.saturating_sub(g.csr().degree(u) as u64);
                }
            }
        };
        if track {
            mark_visited(&frontier, &mut visited, &mut m_u);
        }

        let mut iterations = 0usize;
        let mut edges = 0u64;
        let mut edges_examined = 0u64;
        let mut trace = String::new();
        let mut converged = false;
        let mut pulling = false;

        loop {
            if frontier.is_empty() {
                converged = true;
                break;
            }
            if iterations >= MAX_ITERATIONS {
                break;
            }

            // ---- direction choice (Beamer's alpha/beta heuristic) ----
            // m_f (the frontier's out-edge mass) doubles as the
            // push-equivalent work of this iteration for TEPS accounting.
            let mut m_f = 0u64;
            let mut mode = Mode::Push;
            if track {
                m_f = frontier.iter().map(|&u| g.csr().degree(u) as u64).sum();
                let n_f = frontier.len() as f64;
                if !pulling {
                    // m_u > 0: bottom-up only pays while unvisited vertices
                    // remain to early-exit on
                    if m_u > 0 && m_f as f64 * alpha > m_u as f64 {
                        pulling = true;
                    }
                } else if n_f * beta < n as f64 {
                    pulling = false;
                }
                if pulling {
                    mode = if n_f >= density * n as f64 {
                        Mode::Matrix
                    } else {
                        Mode::Pull
                    };
                }
            }

            // every gear returns the contracted next frontier, already
            // written to the graph's queue by its own last kernel (mode is
            // Push whenever bottom_up is None)
            let out = match (mode, &bottom_up) {
                (Mode::Pull, Some(cfg)) => {
                    // dense iteration: the pull kernel fuses the bitmap
                    // build and the next-queue writes into its single launch
                    let dense = BitFrontier::from_nodes(&frontier, n, g.bitmap_base());
                    trace.push('<');
                    pull_iterate(dev, g, app, &dense, cfg)
                }
                (Mode::Matrix, Some(cfg)) => {
                    // same fused single-launch shape, but the step runs as
                    // `(Aᵀ ⊙ mask) · f` on the matrix units
                    let dense = BitFrontier::from_nodes(&frontier, n, g.bitmap_base());
                    trace.push('M');
                    matrix_iterate(dev, g, app, &dense, cfg.matrix_kernel)
                }
                _ => {
                    trace.push('>');
                    engine.iterate(dev, g, app, &frontier)
                }
            };
            // GTEPS keeps the push-equivalent numerator in every direction
            // (Beamer's convention): a bottom-up iteration does *different*
            // work than push on the same frontier, which shows up in
            // `seconds` and in the examined counter, not as a throughput
            // collapse.
            edges += if mode == Mode::Push { out.edges } else { m_f };
            edges_examined += out.edges;
            iterations += 1;

            if track {
                mark_visited(&out.next, &mut visited, &mut m_u);
            }

            // end-of-iteration vertex kernel (e.g. PageRank rank update)
            if let Some(epilogue) = app.iteration_epilogue() {
                epilogue.charge(dev, "vertex_epilogue", 0..n);
            }

            match app.control(iterations, out.next) {
                Step::Done => {
                    converged = true;
                    break;
                }
                Step::Frontier(f) => frontier = f,
            }
        }

        RunReport {
            app: app.name().to_owned(),
            engine: engine.name().to_owned(),
            iterations,
            edges,
            edges_examined,
            seconds: dev.elapsed_seconds() - start,
            overhead_seconds: dev.overhead_seconds() - overhead_start,
            direction_trace: trace,
            converged,
            latency: crate::metrics::LatencyBreakdown::default(),
            hazards: gpu_sim::HazardReport {
                hazards: dev.hazards()[hazard_start..].to_vec(),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::{Bc, Bfs, Cc, PageRank, Sssp};
    use crate::engine::{B40cEngine, IterationOutput, NaiveEngine};
    use crate::reference;
    use gpu_sim::DeviceConfig;
    use sage_graph::gen::uniform_graph;
    use sage_graph::Csr;

    fn small_graph() -> Csr {
        uniform_graph(300, 1500, 3)
    }

    #[test]
    fn bfs_matches_reference() {
        let csr = small_graph();
        let expect = reference::bfs_levels(&csr, 5);
        let mut dev = Device::new(DeviceConfig::test_tiny());
        let g = DeviceGraph::upload(&mut dev, csr);
        let mut app = Bfs::new(&mut dev);
        let mut eng = NaiveEngine::new();
        let report = Runner::new().run(&mut dev, &g, &mut eng, &mut app, 5);
        assert_eq!(app.distances(), expect.as_slice());
        assert!(report.edges > 0);
        assert!(report.seconds > 0.0);
        assert!(report.gteps() > 0.0);
        assert!(report.converged);
        // no in-edge view -> push-only even under the adaptive policy
        assert!(!report.direction_trace.contains('<'));
    }

    #[test]
    fn bc_matches_reference() {
        let csr = small_graph();
        let (sigma_ref, delta_ref) = reference::bc_scores(&csr, 2);
        let mut dev = Device::new(DeviceConfig::test_tiny());
        let g = DeviceGraph::upload(&mut dev, csr);
        let mut app = Bc::new(&mut dev);
        let mut eng = NaiveEngine::new();
        let _ = Runner::new().run(&mut dev, &g, &mut eng, &mut app, 2);
        for (i, (&s, &sr)) in app.sigmas().iter().zip(&sigma_ref).enumerate() {
            assert!(
                (f64::from(s) - sr).abs() < 1e-3 * sr.max(1.0),
                "sigma[{i}]: {s} vs {sr}"
            );
        }
        for (i, (&d, &dr)) in app.scores().iter().zip(&delta_ref).enumerate() {
            assert!(
                (f64::from(d) - dr).abs() < 1e-2 * dr.max(1.0),
                "delta[{i}]: {d} vs {dr}"
            );
        }
    }

    #[test]
    fn pagerank_matches_reference() {
        let csr = small_graph();
        let expect = reference::pagerank(&csr, 20);
        let mut dev = Device::new(DeviceConfig::test_tiny());
        let g = DeviceGraph::upload(&mut dev, csr);
        let mut app = PageRank::new(&mut dev, 20, 0.0);
        let mut eng = NaiveEngine::new();
        let report = Runner::new().run(&mut dev, &g, &mut eng, &mut app, 0);
        assert_eq!(report.iterations, 20);
        for (i, (&p, &pr)) in app.ranks().iter().zip(&expect).enumerate() {
            assert!(
                (f64::from(p) - pr).abs() < 1e-4 + 1e-2 * pr,
                "pr[{i}]: {p} vs {pr}"
            );
        }
    }

    #[test]
    fn cc_matches_reference() {
        let csr = small_graph();
        let expect = reference::cc_labels(&csr);
        let mut dev = Device::new(DeviceConfig::test_tiny());
        let g = DeviceGraph::upload(&mut dev, csr);
        let mut app = Cc::new(&mut dev);
        let mut eng = NaiveEngine::new();
        let _ = Runner::new().run(&mut dev, &g, &mut eng, &mut app, 0);
        assert_eq!(app.labels(), expect.as_slice());
    }

    #[test]
    fn sssp_matches_reference() {
        let csr = small_graph();
        let expect = reference::sssp_dists(&csr, 7);
        let mut dev = Device::new(DeviceConfig::test_tiny());
        let identity = (0..csr.num_nodes() as NodeId).collect();
        let g = DeviceGraph::upload(&mut dev, csr);
        let mut app = Sssp::new(&mut dev, identity);
        let mut eng = NaiveEngine::new();
        let _ = Runner::new().run(&mut dev, &g, &mut eng, &mut app, 7);
        assert_eq!(app.distances(), expect.as_slice());
    }

    #[test]
    fn run_report_names_app_and_engine() {
        let csr = Csr::from_edges(3, &[(0, 1), (1, 2)]);
        let mut dev = Device::new(DeviceConfig::test_tiny());
        let g = DeviceGraph::upload(&mut dev, csr);
        let mut app = Bfs::new(&mut dev);
        let mut eng = NaiveEngine::new();
        let r = Runner::new().run(&mut dev, &g, &mut eng, &mut app, 0);
        assert_eq!(r.app, "bfs");
        assert_eq!(r.engine, "ThreadPerVertex");
        // three iterations: {0} -> {1} -> {2} -> empty
        assert_eq!(r.iterations, 3);
        assert_eq!(r.edges, 2);
        assert_eq!(r.direction_trace, ">>>");
        assert!(r.converged);
    }

    #[test]
    fn source_with_no_edges_terminates_immediately() {
        let csr = Csr::from_edges(3, &[(1, 2)]);
        let mut dev = Device::new(DeviceConfig::test_tiny());
        let g = DeviceGraph::upload(&mut dev, csr);
        let mut app = Bfs::new(&mut dev);
        let mut eng = NaiveEngine::new();
        let r = Runner::new().run(&mut dev, &g, &mut eng, &mut app, 0);
        assert_eq!(r.edges, 0);
        assert!(r.iterations <= 1);
        assert!(r.converged);
    }

    /// A push engine that launches nothing and hands the frontier back
    /// unchanged, so a run never converges on its own.
    struct Stall;

    impl Engine for Stall {
        fn name(&self) -> &'static str {
            "stall"
        }

        fn iterate(
            &mut self,
            _dev: &mut Device,
            _g: &DeviceGraph,
            _app: &mut dyn App,
            frontier: &[NodeId],
        ) -> IterationOutput {
            IterationOutput {
                next: frontier.to_vec(),
                edges: 0,
            }
        }
    }

    #[test]
    fn iteration_cap_reports_truncation() {
        // a frontier that never empties stops at the cap, unconverged
        let csr = Csr::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let mut dev = Device::new(DeviceConfig::test_tiny());
        let g = DeviceGraph::upload(&mut dev, csr);
        let mut app = Bfs::new(&mut dev);
        let r = Runner::new().run(&mut dev, &g, &mut Stall, &mut app, 0);
        assert_eq!(r.iterations, MAX_ITERATIONS);
        assert!(!r.converged, "cap hit must clear converged");
    }

    #[test]
    fn adaptive_bfs_pulls_on_star_and_matches_push() {
        // hub 0 -> 1..=199: iteration 2's frontier holds nearly every edge
        // endpoint, so the heuristic must flip bottom-up at least once —
        // under the three-way default a frontier this dense goes matrix
        let edges: Vec<(u32, u32)> = (1..200u32).flat_map(|v| [(0, v), (v, 0)]).collect();
        let csr = Csr::from_edges(200, &edges);
        let expect = reference::bfs_levels(&csr, 0);

        let mut dev = Device::new(DeviceConfig::test_tiny());
        let g = DeviceGraph::upload(&mut dev, csr).with_in_edges(&mut dev);
        let mut app = Bfs::new(&mut dev);
        let mut eng = NaiveEngine::new();
        let adaptive = Runner::new().run(&mut dev, &g, &mut eng, &mut app, 0);
        let dist_adaptive = app.distances().to_vec();

        assert!(
            adaptive.direction_trace.contains('M'),
            "a near-full frontier must take the matrix gear: {}",
            adaptive.direction_trace
        );
        assert_eq!(dist_adaptive, expect);

        // density ∞ never picks the matrix gear: the two-way optimizer
        let two_way = Runner {
            policy: DirectionPolicy::Adaptive3 {
                alpha: 14.0,
                beta: 24.0,
                density: f64::INFINITY,
            },
        };
        let r2 = two_way.run(&mut dev, &g, &mut eng, &mut app, 0);
        assert!(
            r2.direction_trace.contains('<') && !r2.direction_trace.contains('M'),
            "two-way policy must keep scalar pull: {}",
            r2.direction_trace
        );
        assert_eq!(app.distances(), expect.as_slice());

        let push = Runner::push_only().run(&mut dev, &g, &mut eng, &mut app, 0);
        assert_eq!(app.distances(), expect.as_slice());
        assert_eq!(push.direction_trace, ">".repeat(push.iterations));
    }

    /// The three-way policy pinned bottom-up on the matrix gear: alpha ∞
    /// flips to bottom-up on the first frontier with out-edges, beta ∞ never
    /// flips back, density 0 takes the matrix units every time.
    fn matrix_forced() -> Runner {
        Runner {
            policy: DirectionPolicy::Adaptive3 {
                alpha: f64::INFINITY,
                beta: f64::INFINITY,
                density: 0.0,
            },
        }
    }

    #[test]
    fn matrix_forced_bfs_matches_reference_and_traces_m() {
        let csr = small_graph();
        let expect = reference::bfs_levels(&csr, 5);
        let mut dev = Device::new(DeviceConfig::test_tiny());
        let g = DeviceGraph::upload(&mut dev, csr).with_in_edges(&mut dev);
        let mut app = Bfs::new(&mut dev);
        let mut eng = NaiveEngine::new();
        let r = matrix_forced().run(&mut dev, &g, &mut eng, &mut app, 5);
        assert_eq!(app.distances(), expect.as_slice());
        assert!(r.converged);
        assert_eq!(r.direction_trace, "M".repeat(r.iterations));
        assert!(dev.profiler().mma_ops > 0);
    }

    #[test]
    fn matrix_without_in_edges_falls_back_to_push() {
        let csr = small_graph();
        let expect = reference::bfs_levels(&csr, 5);
        let mut dev = Device::new(DeviceConfig::test_tiny());
        let g = DeviceGraph::upload(&mut dev, csr); // no in-edge view
        let mut app = Bfs::new(&mut dev);
        let mut eng = NaiveEngine::new();
        let r = matrix_forced().run(&mut dev, &g, &mut eng, &mut app, 5);
        assert!(r.converged);
        assert!(!r.direction_trace.contains('M'));
        assert_eq!(dev.profiler().mma_ops, 0);

        // an in-edge view but a push-only engine: no bottom-up geometry, so
        // every iteration pushes under both bottom-up policies (where a
        // pull engine goes bottom-up on the same graph)
        let g = g.with_in_edges(&mut dev);
        let r = Runner::new().run(&mut dev, &g, &mut eng, &mut app, 5);
        assert!(
            r.direction_trace.contains(['<', 'M']),
            "{}",
            r.direction_trace
        );
        let mut b40c = B40cEngine::new();
        for runner in [Runner::new(), matrix_forced()] {
            let r = runner.run(&mut dev, &g, &mut b40c, &mut app, 5);
            assert!(r.converged);
            assert_eq!(r.direction_trace, ">".repeat(r.iterations));
            assert_eq!(app.distances(), expect.as_slice());
        }
    }
}
