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
//! Each traversal case carries two more pins that a change to what launches
//! and barriers cost must leave alone: a traffic hash (every `Profiler`
//! field but `kernels` and `cycles`, plus the direction trace) and the
//! run's scheduling overhead in seconds, compared within 1e-12 relative.
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
//! endpoint histogram and the step count. A second, functional pin per walk
//! app hashes only what a walk answers (endpoints and steps), on every
//! device: a cost-model change may move the cost pins, never that one.

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
    h.u64(p.kernels);
    hash_traffic(h, p);
    h.f64(p.cycles);
}

/// Every `Profiler` field but `kernels` and `cycles`: what the kernels did,
/// whatever the launches cost.
fn hash_traffic(h: &mut Fnv, p: &Profiler) {
    for v in [
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
    for v in [p.warp_insts, p.active_lanes, p.lane_slots] {
        h.f64(v);
    }
}

/// The source with the most out-edges (lowest id on ties).
fn hub(g: &Csr) -> u32 {
    (0..g.num_nodes() as u32)
        .max_by_key(|&v| (g.degree(v), std::cmp::Reverse(v)))
        .unwrap_or(0)
}

/// One run of a traversal case, reduced to what its pins compare.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    /// Profiler, seconds, direction trace and per-kernel breakdown.
    cost: u64,
    /// Profiler without `kernels` and `cycles`, plus the direction trace.
    traffic: u64,
    /// `RunReport::overhead_seconds`.
    overhead: f64,
    trace: String,
}

fn run(cfg: &DeviceConfig, threads: usize, g: &Csr, app: AppSel) -> Fingerprint {
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
        },
        _ => Runner::new(),
    };
    let report = runner.run(&mut dev, &dg, &mut engine, a.as_mut(), hub(g));
    let mut h = Fnv::new();
    hash_profiler(&mut h, dev.profiler());
    h.f64(report.seconds);
    h.bytes(report.direction_trace.as_bytes());
    hash_breakdown(&mut h, &dev);
    let mut t = Fnv::new();
    hash_traffic(&mut t, dev.profiler());
    t.bytes(report.direction_trace.as_bytes());
    Fingerprint {
        cost: h.0,
        traffic: t.0,
        overhead: report.overhead_seconds,
        trace: report.direction_trace,
    }
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

/// The pins of one traversal case at one seed. `traffic` and `overhead`
/// hold across changes to what launches cost; `cost` does not.
struct Pin {
    cost: u64,
    traffic: u64,
    /// Scheduling overhead in seconds, compared within 1e-12 relative.
    overhead: f64,
}

/// Run `app` on both seeds at 1 and 2 host threads and compare with `want`.
fn check(cfg: &DeviceConfig, app: AppSel, want: [Pin; 2]) {
    for (seed, want) in SEEDS.into_iter().zip(want) {
        let g = rmat_graph(12, 16, seed);
        let direct = run(cfg, 1, &g, app);
        let replayed = run(cfg, 2, &g, app);
        assert_eq!(
            direct, replayed,
            "{app:?} seed {seed} on {}: replay diverged from the direct path",
            cfg.name
        );
        assert_eq!(
            direct.traffic, want.traffic,
            "{app:?} seed {seed} on {}: traffic counters or direction trace drifted",
            cfg.name
        );
        assert!(
            (direct.overhead - want.overhead).abs() <= 1e-12 * want.overhead.abs(),
            "{app:?} seed {seed} on {}: scheduling overhead drifted: {:?}",
            cfg.name,
            direct.overhead
        );
        assert_eq!(
            direct.cost, want.cost,
            "{app:?} seed {seed} on {}: simulated counters drifted",
            cfg.name
        );
        if let AppSel::Bfs = app {
            for gear in ['>', '<', 'M'] {
                assert!(
                    direct.trace.contains(gear),
                    "BFS seed {seed} on {} skipped gear {gear}: {}",
                    cfg.name,
                    direct.trace
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
        [
            Pin {
                cost: 12_589_912_384_375_345_387,
                traffic: 10_365_682_732_194_475_943,
                overhead: 1.1152189265536724e-6,
            },
            Pin {
                cost: 9_731_635_343_792_890_224,
                traffic: 10_480_137_368_304_712_597,
                overhead: 1.0766949152542372e-6,
            },
        ],
    );
}

#[test]
fn bfs_tiny_device() {
    check(
        &DeviceConfig::test_tiny(),
        AppSel::Bfs,
        [
            Pin {
                cost: 7_742_142_179_012_904_221,
                traffic: 8_137_807_453_744_253_987,
                overhead: 2.7035e-6,
            },
            Pin {
                cost: 4_453_135_231_181_139_165,
                traffic: 13_004_500_111_567_205_910,
                overhead: 2.624e-6,
            },
        ],
    );
}

#[test]
fn sssp_default_device() {
    check(
        &DeviceConfig::default(),
        AppSel::Sssp,
        [
            Pin {
                cost: 5_479_612_317_951_437_897,
                traffic: 5_237_666_532_119_981_081,
                overhead: 1.2688559322033898e-6,
            },
            Pin {
                cost: 7_526_230_609_225_490_829,
                traffic: 9_397_091_869_786_889_846,
                overhead: 1.2243997175141242e-6,
            },
        ],
    );
}

#[test]
fn sssp_tiny_device() {
    check(
        &DeviceConfig::test_tiny(),
        AppSel::Sssp,
        [
            Pin {
                cost: 4_998_691_929_838_263_846,
                traffic: 13_429_891_203_413_115_560,
                overhead: 4.639e-5,
            },
            Pin {
                cost: 17_150_906_553_334_694_331,
                traffic: 13_726_550_016_555_776_533,
                overhead: 4.656675e-5,
            },
        ],
    );
}

#[test]
fn pr_default_device() {
    check(
        &DeviceConfig::default(),
        AppSel::Pr,
        [
            Pin {
                cost: 17_128_181_554_275_670_465,
                traffic: 1_372_959_120_122_730_477,
                overhead: 2.082274011299435e-6,
            },
            Pin {
                cost: 16_750_009_684_612_428_653,
                traffic: 10_546_922_423_738_314_375,
                overhead: 1.9800141242937854e-6,
            },
        ],
    );
}

#[test]
fn pr_tiny_device() {
    check(
        &DeviceConfig::test_tiny(),
        AppSel::Pr,
        [
            Pin {
                cost: 9_646_101_900_221_293_590,
                traffic: 8_941_222_160_739_542_285,
                overhead: 0.000224818,
            },
            Pin {
                cost: 3_073_102_293_096_904_965,
                traffic: 12_333_055_261_407_914_448,
                overhead: 0.000224266,
            },
        ],
    );
}

#[test]
fn cc_default_device() {
    check(
        &DeviceConfig::default(),
        AppSel::Cc,
        [
            Pin {
                cost: 1_586_827_681_156_558_804,
                traffic: 11_409_426_804_078_043_961,
                overhead: 1.0552966101694916e-6,
            },
            Pin {
                cost: 2_722_718_990_747_584_277,
                traffic: 14_070_061_272_724_900_479,
                overhead: 1.0366878531073445e-6,
            },
        ],
    );
}

#[test]
fn cc_tiny_device() {
    check(
        &DeviceConfig::test_tiny(),
        AppSel::Cc,
        [
            Pin {
                cost: 3_829_988_191_254_825_932,
                traffic: 14_766_882_394_210_693_992,
                overhead: 4.9395e-5,
            },
            Pin {
                cost: 605_647_180_445_032_972,
                traffic: 15_149_109_755_665_967_013,
                overhead: 4.910875e-5,
            },
        ],
    );
}

/// One walk batch's fingerprints: the answer (endpoints and steps) and the
/// cost (the answer plus seconds, profiler and kernel breakdown).
fn run_walk(
    cfg: &DeviceConfig,
    threads: usize,
    g: &Csr,
    app: &dyn WalkApp,
    weights: WalkWeights,
) -> (u64, u64) {
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
    for &c in &out.endpoints {
        h.u64(u64::from(c));
    }
    h.u64(out.steps);
    let answer = h.0;
    h.f64(out.report.seconds);
    hash_profiler(&mut h, dev.profiler());
    hash_breakdown(&mut h, &dev);
    (answer, h.0)
}

/// Run a walk batch at 1 and 2 host threads and compare its answer with
/// `answer` and its cost with `want`.
fn check_walk(cfg: &DeviceConfig, app: &dyn WalkApp, weights: WalkWeights, answer: u64, want: u64) {
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
        direct.0, answer,
        "{name} walk on {}: endpoints or steps drifted",
        cfg.name
    );
    assert_eq!(
        direct.1, want,
        "{name} walk on {}: simulated counters drifted",
        cfg.name
    );
}

/// Answer pins of the two walk cases, shared by both devices.
const NODE2VEC_ITS_ANSWER: u64 = 14_502_506_878_505_567_058;
const PPR_UNIFORM_ANSWER: u64 = 10_588_172_962_862_640_119;

#[test]
fn node2vec_its_default_device() {
    check_walk(
        &DeviceConfig::default(),
        &Node2vec::new(2.0, 0.5),
        WalkWeights::Synthetic,
        NODE2VEC_ITS_ANSWER,
        6_182_426_209_467_504_532,
    );
}

#[test]
fn node2vec_its_tiny_device() {
    check_walk(
        &DeviceConfig::test_tiny(),
        &Node2vec::new(2.0, 0.5),
        WalkWeights::Synthetic,
        NODE2VEC_ITS_ANSWER,
        8_029_071_083_502_957_191,
    );
}

#[test]
fn ppr_uniform_default_device() {
    check_walk(
        &DeviceConfig::default(),
        &Ppr::new(0.15),
        WalkWeights::Uniform,
        PPR_UNIFORM_ANSWER,
        4_134_961_649_933_310_229,
    );
}

#[test]
fn ppr_uniform_tiny_device() {
    check_walk(
        &DeviceConfig::test_tiny(),
        &Ppr::new(0.15),
        WalkWeights::Uniform,
        PPR_UNIFORM_ANSWER,
        16_393_508_935_781_274_983,
    );
}
