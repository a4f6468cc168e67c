//! Determinism and fidelity suite for the random-walk engine: on random
//! power-law graphs, PPR and node2vec batches under both weight models
//! must be **bitwise identical** across host thread counts — endpoint
//! histograms, step totals, simulated cycles, and every cache counter —
//! with the race sanitizer armed and silent. A companion
//! statistical test checks Monte-Carlo PPR agrees with power-iteration
//! PageRank on the head of the rank distribution.

use gpu_sim::{Device, DeviceConfig};
use proptest::prelude::*;
use sage::app::PageRank;
use sage::engine::ResidentEngine;
use sage::walk::{Node2vec, Ppr, WalkApp, WalkSpec, WalkWeights};
use sage::{DeviceGraph, Runner, SageRuntime};
use sage_graph::gen::{social_graph, SocialParams};
use sage_graph::Csr;

/// Thread counts exercised against the sequential baseline.
const THREADS: [usize; 2] = [2, 4];

/// The tiny test device widened to 8 SMs so parallel runs are not clamped.
fn cfg8() -> DeviceConfig {
    DeviceConfig {
        num_sms: 8,
        ..DeviceConfig::test_tiny()
    }
}

fn graph(nodes: usize, avg_deg: f64, seed: u64) -> Csr {
    social_graph(&SocialParams {
        nodes,
        avg_deg,
        seed,
        ..SocialParams::default()
    })
}

/// Everything one walk batch produces, captured as exact bit patterns.
#[derive(Debug, PartialEq, Eq, Clone)]
struct Fingerprint {
    endpoints: Vec<u32>,
    steps: u64,
    walkers: usize,
    report_seconds: u64,
    l1_hits: u64,
    l2_hits: u64,
    dram: u64,
    writes: u64,
    atomics: u64,
}

fn run_once(
    csr: &Csr,
    app: &dyn WalkApp,
    spec: &WalkSpec,
    sources: &[u32],
    threads: usize,
) -> Fingerprint {
    let mut dev = Device::new(DeviceConfig {
        sanitize: true,
        ..cfg8()
    });
    dev.set_host_threads(threads);
    let rt = SageRuntime::new(&mut dev, csr.clone());
    let out = rt.run_walk(&mut dev, app, spec, sources);
    assert_eq!(
        dev.hazard_count(),
        0,
        "sanitized walk must be hazard-free: {:?}",
        dev.hazards()
    );
    let p = dev.profiler();
    Fingerprint {
        endpoints: out.endpoints,
        steps: out.steps,
        walkers: out.walkers,
        report_seconds: out.report.seconds.to_bits(),
        l1_hits: p.l1_hit_sectors,
        l2_hits: p.l2_hit_sectors,
        dram: p.dram_sectors,
        writes: p.write_sectors,
        atomics: p.atomics,
    }
}

/// Every parallel thread count must reproduce the sequential fingerprint
/// bit for bit, under both weight models, on `walks` walks of up to
/// `length` steps per source.
fn assert_deterministic(
    csr: &Csr,
    app: &dyn WalkApp,
    sources: &[u32],
    (walks, length): (usize, usize),
    seed: u64,
) -> Result<(), TestCaseError> {
    for weights in [WalkWeights::Synthetic, WalkWeights::Uniform] {
        let spec = WalkSpec {
            walks_per_source: walks,
            max_length: length,
            seed,
            weights,
        };
        let seq = run_once(csr, app, &spec, sources, 1);
        for &t in &THREADS {
            let par = run_once(csr, app, &spec, sources, t);
            prop_assert_eq!(
                &par,
                &seq,
                "{} threads diverged from sequential with {:?} weights",
                t,
                weights
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn ppr_walks_parallel_match_sequential_bitwise(
        nodes in 60usize..140, seed in 0u64..1000, src in 0u32..60
    ) {
        let g = graph(nodes, 8.0, seed);
        let sources = [src, (src + 7) % 60, (src + 23) % 60];
        assert_deterministic(&g, &Ppr::new(0.2), &sources, (16, 12), seed ^ 0xA5)?;
    }

    #[test]
    fn node2vec_walks_parallel_match_sequential_bitwise(
        nodes in 60usize..120, seed in 0u64..1000, src in 0u32..60
    ) {
        let g = graph(nodes, 6.0, seed);
        let sources = [src, (src + 13) % 60];
        assert_deterministic(&g, &Node2vec::new(0.5, 2.0), &sources, (16, 12), seed ^ 0x5A)?;
    }
}

/// The dense power-law family the fidelity checks run on: the hub head
/// dominates, so dangling-node artifacts (the walk restarts there, power
/// iteration drops the mass) stay in the tail.
fn dense_social(nodes: usize) -> Csr {
    social_graph(&SocialParams {
        nodes,
        avg_deg: 14.0,
        alpha: 1.9,
        max_deg_frac: 0.2,
        seed: 42,
        ..SocialParams::default()
    })
}

/// One fixed input at benchmark size: PPR and node2vec batches of 64 walks
/// from four hub-spaced sources of a 1,500-node power-law graph.
#[test]
fn social_1500_walks_parallel_match_sequential_bitwise() -> Result<(), TestCaseError> {
    let csr = dense_social(1_500);
    let (hub, _) = csr.max_degree();
    let sources: Vec<u32> = (0..4)
        .map(|i| (hub + i * 97) % csr.num_nodes() as u32)
        .collect();
    assert_deterministic(&csr, &Ppr::new(0.15), &sources, (64, 16), 7)?;
    assert_deterministic(&csr, &Node2vec::new(2.0, 0.5), &sources, (64, 16), 7)
}

/// Monte-Carlo PPR launched uniformly from every node with restart rate
/// `alpha = 1 - DAMPING` estimates global PageRank; its top-k must share at
/// least 60% of its positions with the power-iteration top-k (the
/// documented tolerance for endpoint-count sampling noise in the tail).
#[test]
fn mc_ppr_ranks_correlate_with_power_iteration_pagerank() {
    // (graph nodes, walks per source, k, minimum overlap)
    for (nodes, walks, k, min_overlap) in [(400, 32, 5, 3), (1_500, 24, 10, 6)] {
        let csr = dense_social(nodes);
        let n = csr.num_nodes();
        let all_sources: Vec<u32> = (0..n as u32).collect();
        let spec = WalkSpec {
            walks_per_source: walks,
            max_length: 48,
            seed: 42,
            weights: WalkWeights::Uniform,
        };
        let alpha = 1.0 - f64::from(sage::app::pagerank::DAMPING);
        let mc = run_once(&csr, &Ppr::new(alpha), &spec, &all_sources, 4);
        let mut mc_scores = vec![0.0f32; n];
        for slot in 0..n {
            for (v, &c) in mc.endpoints[slot * n..(slot + 1) * n].iter().enumerate() {
                mc_scores[v] += c as f32;
            }
        }

        let mut dev = Device::new(cfg8());
        let g = DeviceGraph::upload(&mut dev, csr).with_in_edges(&mut dev);
        let mut engine = ResidentEngine::new();
        let mut pr = PageRank::new(&mut dev, 50, 0.0);
        Runner::new().run(&mut dev, &g, &mut engine, &mut pr, 0);

        let top = |scores: &[f32]| {
            let mut idx: Vec<usize> = (0..scores.len()).collect();
            idx.sort_by(|&a, &b| scores[b].partial_cmp(&scores[a]).unwrap().then(a.cmp(&b)));
            idx.truncate(k);
            idx
        };
        let mc_top = top(&mc_scores);
        let ref_top = top(pr.ranks());
        let overlap = mc_top.iter().filter(|v| ref_top.contains(v)).count();
        assert!(
            overlap >= min_overlap,
            "{nodes} nodes: MC-PPR top-{k} {mc_top:?} must overlap power-iteration \
             top-{k} {ref_top:?} in >= {min_overlap} slots"
        );
    }
}
