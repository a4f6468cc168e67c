//! Golden fingerprints of the simulated counters.
//!
//! The determinism suites compare a 1-thread run against N-thread runs, so
//! a change that moves both sides the same way (a cache that picks another
//! victim, a coalescer that probes in another order) passes them. This file
//! pins the absolute numbers instead: each entry is a 64-bit FNV-1a hash of
//! one run's `Profiler` totals (as bits), `RunReport::seconds` (as bits),
//! direction trace and per-kernel breakdown. Every case runs at 1 host
//! thread (the direct probe path) and at 2 (the recorded path); both
//! must reproduce the same pinned hash.
//!
//! The graphs are R-MAT 2^12 at seeds 1 and 7919 with in-edges. BFS runs
//! the three-way policy with its matrix threshold raised to 40% frontier
//! density, so the sparser bottom-up level pulls and the denser one takes
//! the matrix units: every BFS case runs all three gears (`>`, `<`, `M`).
//! SSSP, PR and CC run `Runner::new()`. The devices are
//! `DeviceConfig::default()`, whose L2 has 192 sets per slice (the one
//! non-power-of-two set count), and `DeviceConfig::test_tiny()`.
//!
//! Walks are pinned the same way through `SageRuntime::run_walk` on R-MAT
//! 2^12 at seed 1: node2vec (p = 2, q = 0.5) over synthetic weights takes
//! the inverse-transform row scan, and PPR over uniform weights takes the
//! single modulo pick the service's walks use. Their hash also covers the
//! endpoint and visit histograms and the step count.

use gpu_sim::{Device, DeviceConfig, Profiler};
use sage::app::{App, Bfs, Cc, PageRank, Sssp};
use sage::engine::ResidentEngine;
use sage::walk::{Node2vec, Ppr, WalkApp, WalkSpec, WalkWeights};
use sage::{DeviceGraph, DirectionPolicy, Runner, SageRuntime};
use sage_graph::gen::rmat_graph;
use sage_graph::Csr;

const SEEDS: [u64; 2] = [1, 7919];

#[derive(Clone, Copy, Debug)]
enum AppSel {
    Bfs,
    Sssp,
    Pr,
    Cc,
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bs: &[u8]) {
        for &b in bs {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
}

fn hash_profiler(h: &mut Fnv, p: &Profiler) {
    for v in [
        p.kernels,
        p.mem_requests,
        p.l1_hit_sectors,
        p.l2_hit_sectors,
        p.dram_sectors,
        p.write_sectors,
        p.atomics,
        p.atomic_conflicts,
        p.syncs,
        p.mma_ops,
        p.pcie_bytes,
        p.pcie_requests,
        p.peer_bytes,
    ] {
        h.u64(v);
    }
    for v in [p.warp_insts, p.active_lanes, p.lane_slots, p.cycles] {
        h.f64(v);
    }
}

/// The source with the most out-edges (lowest id on ties).
fn hub(g: &Csr) -> u32 {
    (0..g.num_nodes() as u32)
        .max_by_key(|&v| (g.degree(v), std::cmp::Reverse(v)))
        .unwrap_or(0)
}

/// One run's fingerprint hash and its direction trace.
fn run(cfg: &DeviceConfig, threads: usize, g: &Csr, app: AppSel) -> (u64, String) {
    let mut dev = Device::new(cfg.clone());
    dev.set_host_threads(threads);
    let dg = DeviceGraph::upload(&mut dev, g.clone()).with_in_edges(&mut dev);
    let mut engine = ResidentEngine::new();
    let mut a: Box<dyn App> = match app {
        AppSel::Bfs => Box::new(Bfs::new(&mut dev)),
        AppSel::Sssp => Box::new(Sssp::new(&mut dev)),
        AppSel::Pr => Box::new(PageRank::new(&mut dev, 8, 0.0)),
        AppSel::Cc => Box::new(Cc::new(&mut dev)),
    };
    let runner = match app {
        AppSel::Bfs => Runner {
            policy: DirectionPolicy::Adaptive3 {
                alpha: 14.0,
                beta: 24.0,
                density: 0.4,
            },
            ..Runner::new()
        },
        _ => Runner::new(),
    };
    let report = runner.run(&mut dev, &dg, &mut engine, a.as_mut(), hub(g));
    let mut h = Fnv::new();
    hash_profiler(&mut h, dev.profiler());
    h.f64(report.seconds);
    h.bytes(report.direction_trace.as_bytes());
    hash_breakdown(&mut h, &dev);
    (h.0, report.direction_trace)
}

fn hash_breakdown(h: &mut Fnv, dev: &Device) {
    // the device sorts its breakdown by time; re-sort by name so equal
    // times cannot reorder the hash input
    let mut bd = dev.kernel_breakdown();
    bd.sort_by(|x, y| x.0.cmp(&y.0));
    for (name, launches, seconds) in &bd {
        h.bytes(name.as_bytes());
        h.u64(*launches);
        h.f64(*seconds);
    }
}

/// Run `app` on both seeds at 1 and 2 host threads and compare with `want`.
fn check(cfg: &DeviceConfig, app: AppSel, want: [u64; 2]) {
    for (seed, want) in SEEDS.into_iter().zip(want) {
        let g = rmat_graph(12, 16, seed);
        let (direct, trace) = run(cfg, 1, &g, app);
        let (replayed, _) = run(cfg, 2, &g, app);
        assert_eq!(
            direct, replayed,
            "{app:?} seed {seed} on {}: replay diverged from the direct path",
            cfg.name
        );
        assert_eq!(
            direct, want,
            "{app:?} seed {seed} on {}: simulated counters drifted",
            cfg.name
        );
        if let AppSel::Bfs = app {
            for gear in ['>', '<', 'M'] {
                assert!(
                    trace.contains(gear),
                    "BFS seed {seed} on {} skipped gear {gear}: {trace}",
                    cfg.name
                );
            }
        }
    }
}

#[test]
fn bfs_default_device() {
    check(
        &DeviceConfig::default(),
        AppSel::Bfs,
        [15_937_407_339_302_837_239, 3_624_489_255_795_465_376],
    );
}

#[test]
fn bfs_tiny_device() {
    check(
        &DeviceConfig::test_tiny(),
        AppSel::Bfs,
        [8_722_740_008_261_161_481, 10_767_792_315_112_717_792],
    );
}

#[test]
fn sssp_default_device() {
    check(
        &DeviceConfig::default(),
        AppSel::Sssp,
        [2_154_459_924_416_861_303, 4_020_174_181_298_224_161],
    );
}

#[test]
fn sssp_tiny_device() {
    check(
        &DeviceConfig::test_tiny(),
        AppSel::Sssp,
        [6_151_601_819_560_675_292, 1_171_126_598_791_639_369],
    );
}

#[test]
fn pr_default_device() {
    check(
        &DeviceConfig::default(),
        AppSel::Pr,
        [16_342_098_523_930_616_481, 10_150_422_481_386_071_109],
    );
}

#[test]
fn pr_tiny_device() {
    check(
        &DeviceConfig::test_tiny(),
        AppSel::Pr,
        [17_126_226_052_929_121_615, 6_687_702_817_782_566_433],
    );
}

#[test]
fn cc_default_device() {
    check(
        &DeviceConfig::default(),
        AppSel::Cc,
        [12_200_982_296_357_241_871, 12_981_810_344_897_596_377],
    );
}

#[test]
fn cc_tiny_device() {
    check(
        &DeviceConfig::test_tiny(),
        AppSel::Cc,
        [14_060_466_229_216_220_812, 711_894_088_573_587_859],
    );
}

/// One walk batch's fingerprint: endpoints, visits, steps, seconds,
/// profiler and kernel breakdown.
fn run_walk(
    cfg: &DeviceConfig,
    threads: usize,
    g: &Csr,
    app: &dyn WalkApp,
    weights: WalkWeights,
) -> u64 {
    let mut dev = Device::new(cfg.clone());
    dev.set_host_threads(threads);
    let spec = WalkSpec {
        walks_per_source: 64,
        max_length: 12,
        seed: 11,
        weights,
    };
    let out =
        SageRuntime::new(&mut dev, g.clone()).run_walk(&mut dev, app, &spec, &[hub(g), 0, 1234]);
    let mut h = Fnv::new();
    for &c in out.endpoints.iter().chain(&out.visits) {
        h.u64(u64::from(c));
    }
    h.u64(out.steps);
    h.f64(out.report.seconds);
    hash_profiler(&mut h, dev.profiler());
    hash_breakdown(&mut h, &dev);
    h.0
}

/// Run a walk batch at 1 and 2 host threads and compare with `want`.
fn check_walk(cfg: &DeviceConfig, app: &dyn WalkApp, weights: WalkWeights, want: u64) {
    let g = rmat_graph(12, 16, SEEDS[0]);
    let direct = run_walk(cfg, 1, &g, app, weights);
    let replayed = run_walk(cfg, 2, &g, app, weights);
    let name = app.name();
    assert_eq!(
        direct, replayed,
        "{name} walk on {}: replay diverged from the direct path",
        cfg.name
    );
    assert_eq!(
        direct, want,
        "{name} walk on {}: simulated counters drifted",
        cfg.name
    );
}

#[test]
fn node2vec_its_default_device() {
    check_walk(
        &DeviceConfig::default(),
        &Node2vec::new(2.0, 0.5),
        WalkWeights::Synthetic,
        3_581_972_027_123_732_324,
    );
}

#[test]
fn node2vec_its_tiny_device() {
    check_walk(
        &DeviceConfig::test_tiny(),
        &Node2vec::new(2.0, 0.5),
        WalkWeights::Synthetic,
        18_141_249_500_138_511_404,
    );
}

#[test]
fn ppr_uniform_default_device() {
    check_walk(
        &DeviceConfig::default(),
        &Ppr::new(0.15),
        WalkWeights::Uniform,
        620_404_643_104_699_109,
    );
}

#[test]
fn ppr_uniform_tiny_device() {
    check_walk(
        &DeviceConfig::test_tiny(),
        &Ppr::new(0.15),
        WalkWeights::Uniform,
        9_085_074_678_743_659_757,
    );
}
