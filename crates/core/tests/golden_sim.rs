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

use gpu_sim::{Device, DeviceConfig, Profiler};
use sage::app::{App, Bfs, Cc, PageRank, Sssp};
use sage::engine::ResidentEngine;
use sage::{DeviceGraph, DirectionPolicy, Runner};
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
    // the device sorts its breakdown by time; re-sort by name so equal
    // times cannot reorder the hash input
    let mut bd = dev.kernel_breakdown();
    bd.sort_by(|x, y| x.0.cmp(&y.0));
    for (name, launches, seconds) in &bd {
        h.bytes(name.as_bytes());
        h.u64(*launches);
        h.f64(*seconds);
    }
    (h.0, report.direction_trace)
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
        [4_907_809_242_774_830_174, 13_141_815_735_284_537_744],
    );
}

#[test]
fn bfs_tiny_device() {
    check(
        &DeviceConfig::test_tiny(),
        AppSel::Bfs,
        [14_420_559_060_512_480_310, 5_325_276_251_262_357_149],
    );
}

#[test]
fn sssp_default_device() {
    check(
        &DeviceConfig::default(),
        AppSel::Sssp,
        [4_235_291_966_458_485_487, 16_567_764_762_067_374_129],
    );
}

#[test]
fn sssp_tiny_device() {
    check(
        &DeviceConfig::test_tiny(),
        AppSel::Sssp,
        [16_834_789_498_992_460_770, 4_528_360_325_141_644_437],
    );
}

#[test]
fn pr_default_device() {
    check(
        &DeviceConfig::default(),
        AppSel::Pr,
        [3_542_774_908_565_321_433, 15_442_019_418_636_594_131],
    );
}

#[test]
fn pr_tiny_device() {
    check(
        &DeviceConfig::test_tiny(),
        AppSel::Pr,
        [11_158_421_605_471_082_112, 13_729_121_215_794_673_735],
    );
}

#[test]
fn cc_default_device() {
    check(
        &DeviceConfig::default(),
        AppSel::Cc,
        [9_584_225_265_471_545_097, 17_455_223_824_843_585_999],
    );
}

#[test]
fn cc_tiny_device() {
    check(
        &DeviceConfig::test_tiny(),
        AppSel::Cc,
        [10_481_040_538_985_236_680, 16_751_437_255_219_166_205],
    );
}
