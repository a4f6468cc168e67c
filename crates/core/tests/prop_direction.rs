//! Property-based tests for the direction optimizer: on arbitrary graphs
//! the adaptive three-way runner, the push-only runner and the sequential
//! reference all agree — exactly for BFS/CC, bitwise for PR between the
//! device pipelines — across every pull-capable engine, and BFS on the
//! matrix-forced (masked SpMV) runner agrees too, plus a deterministic
//! hub-star family guaranteed to take the bottom-up (pull or matrix) path.
//! On a 6,000-node power-law graph the adaptive runner must also take the
//! matrix gear and beat push.

use gpu_sim::{Device, DeviceConfig};
use proptest::prelude::*;
use sage::app::{Bfs, Cc, PageRank};
use sage::engine::{Engine, NaiveEngine, ResidentEngine, TiledPartitioningEngine};
use sage::{reference, DeviceGraph, DirectionPolicy, RunReport, Runner};
use sage_graph::gen::{rmat_graph, social_graph, SocialParams};
use sage_graph::{Csr, NodeId};

fn edges(max_n: usize, max_m: usize) -> impl Strategy<Value = (usize, Vec<(NodeId, NodeId)>)> {
    (2..max_n).prop_flat_map(move |n| {
        let e = prop::collection::vec((0..n as NodeId, 0..n as NodeId), 0..max_m);
        (Just(n), e)
    })
}

fn pull_engines() -> Vec<Box<dyn Engine>> {
    vec![
        Box::new(NaiveEngine::new()),
        Box::new(TiledPartitioningEngine {
            block_size: 16,
            min_tile: 4,
            align_tiles: true,
        }),
        Box::new(ResidentEngine::with_geometry(16, 4, true)),
    ]
}

/// A hub star with back-edges: iteration 2's frontier carries nearly every
/// edge endpoint, so the alpha trigger must flip BFS to pull.
fn star(n: usize) -> Csr {
    let es: Vec<(NodeId, NodeId)> = (1..n as NodeId).flat_map(|v| [(0, v), (v, 0)]).collect();
    Csr::from_edges(n, &es)
}

/// The three-way policy pinned bottom-up on the matrix gear: alpha ∞ flips
/// to bottom-up on the first frontier with out-edges, beta ∞ never flips
/// back, density 0 takes the matrix units every time.
fn matrix_forced() -> Runner {
    Runner {
        policy: DirectionPolicy::Adaptive3 {
            alpha: f64::INFINITY,
            beta: f64::INFINITY,
            density: 0.0,
        },
    }
}

/// The per-mode letters (`>` push, `<` pull, `M` matrix) of a run's trace
/// account for every iteration, and its scheduling overhead is a share of
/// its run time.
fn modes_add_up(r: &RunReport) -> bool {
    let counted = r
        .direction_trace
        .chars()
        .filter(|c| matches!(c, '>' | '<' | 'M'))
        .count();
    counted == r.iterations && overhead_within_run(r)
}

/// 0 <= `overhead_seconds` <= `seconds`.
fn overhead_within_run(r: &RunReport) -> bool {
    (0.0..=r.seconds).contains(&r.overhead_seconds)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn bfs_adaptive_equals_push_and_reference((n, es) in edges(48, 192), src in 0u32..48) {
        prop_assume!((src as usize) < n);
        let g = Csr::from_edges(n, &es);
        let expect = reference::bfs_levels(&g, src);
        let mut dev = Device::new(DeviceConfig::test_tiny());
        for mut engine in pull_engines() {
            let dg = DeviceGraph::upload(&mut dev, g.clone()).with_in_edges(&mut dev);
            let mut app = Bfs::new(&mut dev);
            let r = Runner::new().run(&mut dev, &dg, engine.as_mut(), &mut app, src);
            prop_assert!(modes_add_up(&r), "{}: {} iterations, trace {}",
                engine.name(), r.iterations, r.direction_trace);
            let adaptive = app.distances().to_vec();
            let _ = Runner::push_only().run(&mut dev, &dg, engine.as_mut(), &mut app, src);
            prop_assert_eq!(&adaptive, &expect, "adaptive {} vs reference", engine.name());
            prop_assert_eq!(app.distances(), adaptive.as_slice(),
                "push-only {} vs adaptive", engine.name());
            let r = matrix_forced().run(&mut dev, &dg, engine.as_mut(), &mut app, src);
            prop_assert!(modes_add_up(&r), "matrix-forced {}: {} iterations, trace {}, overhead {} of {} s",
                engine.name(), r.iterations, r.direction_trace, r.overhead_seconds, r.seconds);
            prop_assert_eq!(app.distances(), adaptive.as_slice(),
                "matrix-forced {} vs adaptive", engine.name());
        }
    }

    #[test]
    fn cc_adaptive_equals_push_and_reference((n, es) in edges(40, 160)) {
        let g = Csr::from_edges(n, &es);
        let expect = reference::cc_labels(&g);
        let mut dev = Device::new(DeviceConfig::test_tiny());
        for mut engine in pull_engines() {
            let dg = DeviceGraph::upload(&mut dev, g.clone()).with_in_edges(&mut dev);
            let mut app = Cc::new(&mut dev);
            let r = Runner::new().run(&mut dev, &dg, engine.as_mut(), &mut app, 0);
            prop_assert!(modes_add_up(&r), "{}: {} iterations, trace {}",
                engine.name(), r.iterations, r.direction_trace);
            let adaptive = app.labels().to_vec();
            let _ = Runner::push_only().run(&mut dev, &dg, engine.as_mut(), &mut app, 0);
            prop_assert_eq!(&adaptive, &expect, "adaptive {} vs reference", engine.name());
            prop_assert_eq!(app.labels(), adaptive.as_slice(),
                "push-only {} vs adaptive", engine.name());
        }
    }

    #[test]
    fn pr_adaptive_bitwise_equals_push((n, es) in edges(40, 160)) {
        let g = Csr::from_edges(n, &es);
        let expect = reference::pagerank(&g, 10);
        let mut dev = Device::new(DeviceConfig::test_tiny());
        for mut engine in pull_engines() {
            let dg = DeviceGraph::upload(&mut dev, g.clone()).with_in_edges(&mut dev);
            let mut app = PageRank::new(&mut dev, 10, 0.0);
            let r = Runner::new().run(&mut dev, &dg, engine.as_mut(), &mut app, 0);
            prop_assert!(modes_add_up(&r), "{}: {} iterations, trace {}",
                engine.name(), r.iterations, r.direction_trace);
            let adaptive: Vec<u32> = app.ranks().iter().map(|p| p.to_bits()).collect();
            let _ = Runner::push_only().run(&mut dev, &dg, engine.as_mut(), &mut app, 0);
            let push: Vec<u32> = app.ranks().iter().map(|p| p.to_bits()).collect();
            // device pipelines agree to the bit (the fixed-point accumulator
            // is order-independent); the host reference only approximately
            prop_assert_eq!(&push, &adaptive, "push-only {} vs adaptive", engine.name());
            for (i, (&p, &pr)) in app.ranks().iter().zip(&expect).enumerate() {
                prop_assert!((f64::from(p) - pr).abs() < 1e-4 + 1e-2 * pr,
                    "pr[{}]: {} vs {} ({})", i, p, pr, engine.name());
            }
        }
    }

    #[test]
    fn forced_pull_star_agrees_across_engines(spokes in 40usize..120, src in 0u32..4) {
        let n = spokes + 1;
        prop_assume!((src as usize) < n);
        let g = star(n);
        let expect = reference::bfs_levels(&g, src);
        let mut dev = Device::new(DeviceConfig::test_tiny());
        for mut engine in pull_engines() {
            let dg = DeviceGraph::upload(&mut dev, g.clone()).with_in_edges(&mut dev);
            let mut app = Bfs::new(&mut dev);
            let r = Runner::new().run(&mut dev, &dg, engine.as_mut(), &mut app, src);
            prop_assert!(r.direction_trace.contains('<') || r.direction_trace.contains('M'),
                "star must go bottom-up on {}: {}", engine.name(), r.direction_trace);
            prop_assert!(modes_add_up(&r), "{}: {} iterations, trace {}",
                engine.name(), r.iterations, r.direction_trace);
            prop_assert_eq!(app.distances(), expect.as_slice(),
                "engine {} diverged under pull", engine.name());
        }
    }

    #[test]
    fn forced_matrix_star_traces_m_and_agrees(spokes in 40usize..120, src in 0u32..4) {
        let n = spokes + 1;
        prop_assume!((src as usize) < n);
        let g = star(n);
        let expect = reference::bfs_levels(&g, src);
        let mut dev = Device::new(DeviceConfig::test_tiny());
        for mut engine in pull_engines() {
            let dg = DeviceGraph::upload(&mut dev, g.clone()).with_in_edges(&mut dev);
            let mut app = Bfs::new(&mut dev);
            let r = matrix_forced().run(&mut dev, &dg, engine.as_mut(), &mut app, src);
            prop_assert!(r.direction_trace.contains('M'),
                "matrix-forced star must multiply on {}: {}", engine.name(), r.direction_trace);
            prop_assert_eq!(app.distances(), expect.as_slice(),
                "engine {} diverged under matrix", engine.name());
        }
    }
}

/// The direction trace is an engine-independent function of graph + policy:
/// every pull-capable engine makes the same per-iteration choice because the
/// heuristic only reads host-side frontier statistics.
#[test]
fn direction_choice_is_engine_independent() {
    let g = star(80);
    let mut dev = Device::new(DeviceConfig::test_tiny());
    let mut traces: Vec<String> = Vec::new();
    for mut engine in pull_engines() {
        let dg = DeviceGraph::upload(&mut dev, g.clone()).with_in_edges(&mut dev);
        let mut app = Bfs::new(&mut dev);
        let r = Runner::new().run(&mut dev, &dg, engine.as_mut(), &mut app, 0);
        traces.push(r.direction_trace);
    }
    assert!(
        traces.windows(2).all(|w| w[0] == w[1]),
        "engines disagree on direction: {traces:?}"
    );
}

/// BFS from the max-degree node of R-MAT 2^16 on the default device: the
/// scheduling overhead each engine reports is a share of its run time.
/// Summing every SM's scheduling instructions once put the resident
/// engine's overhead at nearly twice its run time.
#[test]
fn rmat_bfs_overhead_is_a_share_of_run_time() {
    let csr = rmat_graph(16, 16, 1);
    let (source, _) = csr.max_degree();
    let engines: Vec<Box<dyn Engine>> = vec![
        Box::new(ResidentEngine::new()),
        Box::new(TiledPartitioningEngine::new()),
        Box::new(NaiveEngine::new()),
    ];
    for mut engine in engines {
        let mut dev = Device::new(DeviceConfig::default());
        let g = DeviceGraph::upload(&mut dev, csr.clone()).with_in_edges(&mut dev);
        let mut app = Bfs::new(&mut dev);
        let r = Runner::new().run(&mut dev, &g, engine.as_mut(), &mut app, source);
        assert!(
            overhead_within_run(&r),
            "{}: overhead {} s of {} s",
            engine.name(),
            r.overhead_seconds,
            r.seconds
        );
    }
}

/// One run on the 6,000-node social graph: the report plus the app's output
/// as raw bit patterns, so float outputs compare bitwise.
fn social_run(
    csr: &Csr,
    app: &str,
    source: NodeId,
    runner: &Runner,
    threads: usize,
) -> (RunReport, Vec<u32>) {
    let mut dev = Device::new(DeviceConfig::scaled_rtx_8000(0.05));
    dev.set_host_threads(threads);
    let g = DeviceGraph::upload(&mut dev, csr.clone()).with_in_edges(&mut dev);
    let mut engine = ResidentEngine::new();
    match app {
        "bfs" => {
            let mut app = Bfs::new(&mut dev);
            let r = runner.run(&mut dev, &g, &mut engine, &mut app, source);
            (r, app.distances().iter().map(|&d| d as u32).collect())
        }
        "pr" => {
            let mut app = PageRank::new(&mut dev, 20, 0.0);
            let r = runner.run(&mut dev, &g, &mut engine, &mut app, source);
            (r, app.ranks().iter().map(|p| p.to_bits()).collect())
        }
        "cc" => {
            let mut app = Cc::new(&mut dev);
            let r = runner.run(&mut dev, &g, &mut engine, &mut app, source);
            (r, app.labels().to_vec())
        }
        other => unreachable!("unknown app {other}"),
    }
}

/// From the max-degree source of a scrambled power-law graph, adaptive
/// BFS/PR/CC match push-only bit for bit; adaptive BFS takes the
/// tensor-core matrix gear at least once and beats push-only on simulated
/// seconds and GTEPS; the two-way policy (no matrix gear) must pull
/// instead; and 4 host threads reproduce the sequential run exactly.
#[test]
fn social_graph_adaptive_beats_push_with_identical_outputs() {
    let csr = social_graph(&SocialParams {
        nodes: 6_000,
        avg_deg: 16.0,
        alpha: 1.9,
        max_deg_frac: 0.2,
        ..SocialParams::default()
    });
    let (source, _) = csr.max_degree();
    for app in ["bfs", "pr", "cc"] {
        let (push, out_push) = social_run(&csr, app, source, &Runner::push_only(), 1);
        let (adaptive, out_adaptive) = social_run(&csr, app, source, &Runner::new(), 1);
        assert!(
            modes_add_up(&adaptive),
            "{app}: {} iterations, trace {}",
            adaptive.iterations,
            adaptive.direction_trace
        );
        assert!(
            out_push == out_adaptive,
            "{app}: push-only and adaptive outputs differ"
        );
        if app != "bfs" {
            continue;
        }
        assert!(
            adaptive.direction_trace.contains('M'),
            "bfs adaptive trace has no matrix iteration: {}",
            adaptive.direction_trace
        );
        assert!(
            adaptive.seconds < push.seconds && adaptive.gteps() > push.gteps(),
            "bfs adaptive must beat push-only: {:.6} ms / {:.3} GTEPS vs {:.6} ms / {:.3} GTEPS",
            adaptive.seconds * 1e3,
            adaptive.gteps(),
            push.seconds * 1e3,
            push.gteps(),
        );

        // under the three-way policy dense frontiers take the matrix gear,
        // so the scalar pull arm needs the two-way policy to be exercised
        let two_way = Runner {
            policy: DirectionPolicy::Adaptive3 {
                alpha: 14.0,
                beta: 24.0,
                density: f64::INFINITY,
            },
        };
        let (pull, out_pull) = social_run(&csr, "bfs", source, &two_way, 1);
        assert!(
            pull.direction_trace.contains('<'),
            "two-way adaptive BFS never pulled: {}",
            pull.direction_trace
        );
        assert!(
            out_pull == out_push,
            "two-way adaptive BFS outputs differ from push-only"
        );

        let (par, out_par) = social_run(&csr, "bfs", source, &Runner::new(), 4);
        assert!(
            out_par == out_adaptive,
            "4-thread BFS outputs diverged from 1 thread"
        );
        assert_eq!(par.seconds.to_bits(), adaptive.seconds.to_bits());
        assert_eq!(par.edges_examined, adaptive.edges_examined);
        assert_eq!(par.direction_trace, adaptive.direction_trace);
    }
}
