//! Determinism suite for the recorded simulation route: on random
//! power-law graphs, running the same traversal at 2, 4, or 8 host threads
//! (which records every cache probe and replays the trace at kernel end)
//! must produce **bitwise identical** results to the direct route at 1 —
//! application outputs, simulated cycles, and every cache counter (L1/L2
//! hits, DRAM sectors) — across BFS/CC/PR, in the push-only, the adaptive
//! three-way (push/pull/matrix), and the matrix-forced (masked SpMV)
//! pipelines, on every pull-capable engine. With the race sanitizer on, the
//! hazard count joins the fingerprint, and traced runs on streaming-scale
//! edge lists (R-MAT 2^14 on the default device among them) must actually
//! elide their streaming reads.

use gpu_sim::{Device, DeviceConfig};
use proptest::prelude::*;
use sage::app::{Bfs, Cc, PageRank};
use sage::engine::{Engine, NaiveEngine, ResidentEngine, TiledPartitioningEngine};
use sage::{DeviceGraph, Runner};
use sage_graph::gen::{rmat_graph, social_graph, SocialParams};
use sage_graph::Csr;

/// Thread counts exercised against the sequential baseline.
const THREADS: [usize; 3] = [2, 4, 8];

/// The tiny test device widened to 8 SMs so an 8-thread run is not clamped.
fn cfg8() -> DeviceConfig {
    DeviceConfig {
        num_sms: 8,
        ..DeviceConfig::test_tiny()
    }
}

/// Builds a fresh engine: some engines (the resident-scheduling one) carry
/// resident state across runs, so every measured run gets a fresh instance.
type EngineFactory = fn() -> Box<dyn Engine>;

/// Factories for the pull-capable engines.
fn engines() -> Vec<EngineFactory> {
    vec![
        || Box::new(NaiveEngine::new()),
        || {
            Box::new(TiledPartitioningEngine {
                block_size: 16,
                min_tile: 4,
                align_tiles: true,
            })
        },
        || Box::new(ResidentEngine::with_geometry(16, 4, true)),
    ]
}

fn graph(nodes: usize, avg_deg: f64, seed: u64) -> Csr {
    social_graph(&SocialParams {
        nodes,
        avg_deg,
        seed,
        ..SocialParams::default()
    })
}

#[derive(Clone, Copy)]
enum AppSel {
    Bfs,
    Cc,
    Pr,
}

/// Direction policies under test: push-only, the adaptive three-way
/// optimizer, and the matrix-forced (masked SpMV) pipeline.
#[derive(Clone, Copy)]
enum PolicySel {
    Push,
    Adaptive3,
    Matrix,
}

impl PolicySel {
    fn from_u8(v: u8) -> Self {
        match v % 3 {
            0 => PolicySel::Push,
            1 => PolicySel::Adaptive3,
            _ => PolicySel::Matrix,
        }
    }

    fn runner(self) -> Runner {
        match self {
            PolicySel::Push => Runner::push_only(),
            PolicySel::Adaptive3 => Runner::new(),
            PolicySel::Matrix => Runner::matrix_only(),
        }
    }
}

/// Everything one run produces, captured as exact bit patterns.
#[derive(Debug, PartialEq, Eq, Clone)]
struct Fingerprint {
    outputs: Vec<u32>,
    sim_cycles: u64,
    report_seconds: u64,
    l1_hits: u64,
    l2_hits: u64,
    dram: u64,
    writes: u64,
    atomics: u64,
    edges: u64,
    examined: u64,
    trace: String,
    hazards: usize,
}

fn run_once(
    csr: &Csr,
    engine: &mut dyn Engine,
    threads: usize,
    policy: PolicySel,
    app: AppSel,
    src: u32,
) -> Fingerprint {
    let mut dev = Device::new(cfg8());
    dev.set_host_threads(threads);
    run_on(&mut dev, csr, engine, policy, app, src)
}

/// One run on a caller-configured device (sanitizer, thread budget), so
/// the caller can read host-side telemetry off the device afterwards. A
/// run above one host thread must really have taken the recorded route.
fn run_on(
    dev: &mut Device,
    csr: &Csr,
    engine: &mut dyn Engine,
    policy: PolicySel,
    app: AppSel,
    src: u32,
) -> Fingerprint {
    let dg = DeviceGraph::upload(dev, csr.clone()).with_in_edges(dev);
    let runner = policy.runner();
    let (report, outputs) = match app {
        AppSel::Bfs => {
            let mut a = Bfs::new(dev);
            let r = runner.run(dev, &dg, engine, &mut a, src);
            (r, a.distances().iter().map(|&d| d as u32).collect())
        }
        AppSel::Cc => {
            let mut a = Cc::new(dev);
            let r = runner.run(dev, &dg, engine, &mut a, src);
            (r, a.labels().to_vec())
        }
        AppSel::Pr => {
            let mut a = PageRank::new(dev, 8, 0.0);
            let r = runner.run(dev, &dg, engine, &mut a, src);
            (r, a.ranks().iter().map(|p| p.to_bits()).collect())
        }
    };
    if dev.host_threads() > 1 {
        assert!(
            dev.replay_stats().traced_kernels > 0,
            "{} at {} host threads traced no kernel",
            engine.name(),
            dev.host_threads()
        );
    }
    let cycles = dev.elapsed_cycles();
    let hazards = dev.hazards().len();
    let p = dev.profiler();
    Fingerprint {
        outputs,
        sim_cycles: cycles.to_bits(),
        report_seconds: report.seconds.to_bits(),
        l1_hits: p.l1_hit_sectors,
        l2_hits: p.l2_hit_sectors,
        dram: p.dram_sectors,
        writes: p.write_sectors,
        atomics: p.atomics,
        edges: report.edges,
        examined: report.edges_examined,
        trace: report.direction_trace,
        hazards,
    }
}

/// An 8-SM tiny device at `threads` host threads with the race sanitizer on.
fn sanitized_dev(threads: usize) -> Device {
    let mut dev = Device::new(DeviceConfig {
        sanitize: true,
        ..cfg8()
    });
    dev.set_host_threads(threads);
    dev
}

/// Assert every parallel thread count reproduces the sequential fingerprint
/// bit for bit.
fn assert_deterministic(
    csr: &Csr,
    policy: PolicySel,
    app: AppSel,
    src: u32,
) -> Result<(), TestCaseError> {
    for make in engines() {
        let seq = run_once(csr, make().as_mut(), 1, policy, app, src);
        for &t in &THREADS {
            let mut engine = make();
            let par = run_once(csr, engine.as_mut(), t, policy, app, src);
            prop_assert_eq!(
                &par,
                &seq,
                "{} threads diverged from sequential on {}",
                t,
                engine.name()
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn bfs_parallel_matches_sequential_bitwise(
        nodes in 60usize..160, seed in 0u64..1000, src in 0u32..60, policy in 0u8..3
    ) {
        let g = graph(nodes, 8.0, seed);
        assert_deterministic(&g, PolicySel::from_u8(policy), AppSel::Bfs, src)?;
    }

    #[test]
    fn cc_parallel_matches_sequential_bitwise(
        nodes in 60usize..140, seed in 0u64..1000, policy in 0u8..3
    ) {
        let g = graph(nodes, 6.0, seed);
        assert_deterministic(&g, PolicySel::from_u8(policy), AppSel::Cc, 0)?;
    }

    #[test]
    fn pr_parallel_matches_sequential_bitwise(
        nodes in 60usize..120, seed in 0u64..1000, policy in 0u8..3
    ) {
        let g = graph(nodes, 6.0, seed);
        assert_deterministic(&g, PolicySel::from_u8(policy), AppSel::Pr, 0)?;
    }

    #[test]
    fn sanitized_bfs_matches_sequential_bitwise(nodes in 80usize..200, seed in 0u64..1000) {
        // hazard detection runs at the access on both routes, so the
        // hazard count is part of the fingerprint the threads must match
        let g = graph(nodes, 8.0, seed);
        for make in engines() {
            let seq = run_on(&mut sanitized_dev(1), &g, make().as_mut(), PolicySel::Adaptive3, AppSel::Bfs, 0);
            for &t in &THREADS {
                let mut engine = make();
                let par = run_on(&mut sanitized_dev(t), &g, engine.as_mut(), PolicySel::Adaptive3, AppSel::Bfs, 0);
                prop_assert_eq!(&par, &seq, "{} sanitized run diverged at {} threads", engine.name(), t);
            }
        }
    }
}

/// The whole engine roster (not just the pull-capable trio) agrees with its
/// own sequential run on one fixed power-law graph — a cheap deterministic
/// sweep that catches a port regression in any single engine.
#[test]
fn all_engines_deterministic_on_fixed_graph() {
    use sage::engine::{B40cEngine, GunrockEngine};
    let g = graph(200, 8.0, 42);
    let roster: Vec<EngineFactory> = vec![
        || Box::new(NaiveEngine::new()),
        || {
            Box::new(TiledPartitioningEngine {
                block_size: 16,
                min_tile: 4,
                align_tiles: true,
            })
        },
        || Box::new(ResidentEngine::with_geometry(16, 4, true)),
        || Box::new(B40cEngine::default()),
        || Box::new(GunrockEngine::default()),
    ];
    for make in roster {
        let seq = run_once(&g, make().as_mut(), 1, PolicySel::Push, AppSel::Bfs, 0);
        for &t in &THREADS {
            let mut engine = make();
            let par = run_once(&g, engine.as_mut(), t, PolicySel::Push, AppSel::Bfs, 0);
            assert_eq!(par, seq, "{} diverged at {} threads", engine.name(), t);
        }
    }
}

/// The matrix pipeline really runs its SpMV iterations on the recorded
/// route: a dense fixed graph traces `M` on every pull-capable engine and
/// every thread count reproduces the sequential fingerprint bit for bit.
#[test]
fn matrix_pipeline_deterministic_and_traced_on_fixed_graph() {
    let g = graph(200, 8.0, 7);
    for make in engines() {
        let seq = run_once(&g, make().as_mut(), 1, PolicySel::Matrix, AppSel::Bfs, 0);
        assert!(
            seq.trace.contains('M'),
            "matrix-forced run never took the SpMV path: {}",
            seq.trace
        );
        for &t in &THREADS {
            let mut engine = make();
            let par = run_once(&g, engine.as_mut(), t, PolicySel::Matrix, AppSel::Bfs, 0);
            assert_eq!(par, seq, "{} diverged at {} threads", engine.name(), t);
        }
    }
}

/// On fixed graphs whose edge lists cross the device's L2 way capacity,
/// the streaming classifier must fire: the traced run charges its
/// streaming reads at the access (a nonzero elided-probe count) and still
/// matches the untraced direct run, which elides nothing. The inputs are a
/// 400-node social graph on the tiny 8-SM device, and adaptive BFS on
/// R-MAT 2^14 (edge factor 24) from its max-degree source on the default
/// 72-SM device with the resident engine, where every kernel traces
/// thousands of probes.
#[test]
fn elision_fires_on_streaming_edge_lists() {
    let social = graph(400, 8.0, 11);
    let rmat = rmat_graph(14, 24, 42);
    let inputs: [(&Csr, DeviceConfig, EngineFactory, u32); 2] = [
        (&social, cfg8(), || Box::new(NaiveEngine::new()), 0),
        (
            &rmat,
            DeviceConfig::default(),
            || Box::new(ResidentEngine::new()),
            rmat.max_degree().0,
        ),
    ];
    for (g, cfg, make, src) in inputs {
        assert!(
            g.num_edges() * 4 >= cfg.l2.capacity_bytes / cfg.l2.ways,
            "graph too small to register a streaming region"
        );
        let run = |threads: usize| {
            let mut dev = Device::new(cfg.clone());
            dev.set_host_threads(threads);
            let fp = run_on(
                &mut dev,
                g,
                make().as_mut(),
                PolicySel::Adaptive3,
                AppSel::Bfs,
                src,
            );
            (fp, dev.replay_stats().elided_probes)
        };
        let (seq, seq_elided) = run(1);
        assert_eq!(seq_elided, 0, "direct kernels trace (and elide) nothing");
        let (par, elided) = run(4);
        assert!(elided > 0, "no probes elided on a streaming-scale graph");
        assert_eq!(par, seq, "eliding run diverged from the direct route");
    }
}
