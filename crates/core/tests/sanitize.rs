//! Race-sanitizer suite: on random power-law graphs, every engine ×
//! {BFS, CC, PR} × {push-only, adaptive} pipeline must be hazard-free, and
//! enabling the sanitizer must never perturb the simulation — application
//! outputs, simulated cycles, the scheduling overhead (always a share of the
//! run time) and every cache counter stay **bitwise identical** at 1 and 4
//! host threads. The deliberately racy fixture
//! kernel proves the detector actually fires, exactly once.

use gpu_sim::{Device, DeviceConfig, HazardKind};
use proptest::prelude::*;
use sage::app::{Bfs, Cc, PageRank};
use sage::engine::{
    B40cEngine, Engine, GunrockEngine, NaiveEngine, ResidentEngine, SubwayEngine, TigrEngine,
    TiledPartitioningEngine,
};
use sage::{DeviceGraph, Runner};
use sage_graph::gen::{social_graph, SocialParams};
use sage_graph::Csr;

/// Host thread counts exercised per configuration.
const THREADS: [usize; 2] = [1, 4];

/// The tiny test device widened to 8 SMs so parallel replay has real shards.
fn cfg(sanitize: bool) -> DeviceConfig {
    DeviceConfig {
        num_sms: 8,
        sanitize,
        ..DeviceConfig::test_tiny()
    }
}

fn graph(nodes: usize, seed: u64) -> Csr {
    social_graph(&SocialParams {
        nodes,
        avg_deg: 6.0,
        seed,
        ..SocialParams::default()
    })
}

/// Engine factory plus whether the engine runs against a host-resident
/// (out-of-core, push-only-capable) graph.
struct Entry {
    name: &'static str,
    make: fn(&mut Device, &Csr) -> Box<dyn Engine>,
    out_of_core: bool,
}

/// All seven engines. Stateful ones get a fresh instance per run.
fn roster() -> Vec<Entry> {
    vec![
        Entry {
            name: "naive",
            make: |_, _| Box::new(NaiveEngine::new()),
            out_of_core: false,
        },
        Entry {
            name: "sage-tp",
            make: |_, _| {
                Box::new(TiledPartitioningEngine {
                    block_size: 16,
                    min_tile: 4,
                    align_tiles: true,
                })
            },
            out_of_core: false,
        },
        Entry {
            name: "sage",
            make: |_, _| Box::new(ResidentEngine::with_geometry(16, 4, true)),
            out_of_core: false,
        },
        Entry {
            name: "gunrock",
            make: |_, _| Box::new(GunrockEngine::new()),
            out_of_core: false,
        },
        Entry {
            name: "b40c",
            make: |_, _| Box::new(B40cEngine::new()),
            out_of_core: false,
        },
        Entry {
            name: "tigr",
            make: |dev, csr| Box::new(TigrEngine::new(dev, csr)),
            out_of_core: false,
        },
        Entry {
            name: "subway",
            make: |dev, csr| Box::new(SubwayEngine::new(dev, csr.num_edges())),
            out_of_core: true,
        },
    ]
}

#[derive(Clone, Copy)]
enum AppSel {
    Bfs,
    Cc,
    Pr,
}

const APPS: [AppSel; 3] = [AppSel::Bfs, AppSel::Cc, AppSel::Pr];

fn app_name(app: AppSel) -> &'static str {
    match app {
        AppSel::Bfs => "bfs",
        AppSel::Cc => "cc",
        AppSel::Pr => "pr",
    }
}

/// Everything a run produces, captured as exact bit patterns.
#[derive(Debug, PartialEq, Eq, Clone)]
struct Fingerprint {
    outputs: Vec<u32>,
    sim_cycles: u64,
    report_seconds: u64,
    overhead_seconds: u64,
    l1_hits: u64,
    l2_hits: u64,
    dram: u64,
    writes: u64,
    atomics: u64,
    edges: u64,
    trace: String,
}

/// Run one configuration; returns the fingerprint plus detected hazards.
fn run_once(
    csr: &Csr,
    entry: &Entry,
    threads: usize,
    adaptive: bool,
    app: AppSel,
    sanitize: bool,
) -> (Fingerprint, Vec<gpu_sim::Hazard>) {
    let mut dev = Device::new(cfg(sanitize));
    dev.set_host_threads(threads);
    let mut engine = (entry.make)(&mut dev, csr);
    let dg = if entry.out_of_core {
        // host-resident graphs have no in-edge view; the adaptive pipeline
        // degrades to push on them, which is exactly the CLI behaviour
        DeviceGraph::upload_host(&mut dev, csr.clone())
    } else {
        DeviceGraph::upload(&mut dev, csr.clone()).with_in_edges(&mut dev)
    };
    let runner = if adaptive {
        Runner::new()
    } else {
        Runner::push_only()
    };
    let (report, outputs) = match app {
        AppSel::Bfs => {
            let mut a = Bfs::new(&mut dev);
            let r = runner.run(&mut dev, &dg, engine.as_mut(), &mut a, 0);
            (r, a.distances().iter().map(|&d| d as u32).collect())
        }
        AppSel::Cc => {
            let mut a = Cc::new(&mut dev);
            let r = runner.run(&mut dev, &dg, engine.as_mut(), &mut a, 0);
            (r, a.labels().to_vec())
        }
        AppSel::Pr => {
            let mut a = PageRank::new(&mut dev, 6, 0.0);
            let r = runner.run(&mut dev, &dg, engine.as_mut(), &mut a, 0);
            (r, a.ranks().iter().map(|p| p.to_bits()).collect())
        }
    };
    assert!(
        (0.0..=report.seconds).contains(&report.overhead_seconds),
        "{}: overhead {} s of {} s",
        entry.name,
        report.overhead_seconds,
        report.seconds
    );
    let cycles = dev.elapsed_cycles();
    let p = dev.profiler();
    let fp = Fingerprint {
        outputs,
        sim_cycles: cycles.to_bits(),
        report_seconds: report.seconds.to_bits(),
        overhead_seconds: report.overhead_seconds.to_bits(),
        l1_hits: p.l1_hit_sectors,
        l2_hits: p.l2_hit_sectors,
        dram: p.dram_sectors,
        writes: p.write_sectors,
        atomics: p.atomics,
        edges: report.edges,
        trace: report.direction_trace,
    };
    (fp, dev.hazards().to_vec())
}

/// One engine × app × direction: hazard-free under the sanitizer, and the
/// sanitized run is bitwise identical to the unsanitized one at every
/// thread count.
fn assert_clean_and_neutral(
    csr: &Csr,
    entry: &Entry,
    adaptive: bool,
    app: AppSel,
) -> Result<(), TestCaseError> {
    for &t in &THREADS {
        let (plain, no_hazards) = run_once(csr, entry, t, adaptive, app, false);
        prop_assert!(no_hazards.is_empty(), "hazards with sanitizer off");
        let (sanitized, hazards) = run_once(csr, entry, t, adaptive, app, true);
        prop_assert!(
            hazards.is_empty(),
            "{} × {} ({}, {t} threads) flagged: {:?}",
            entry.name,
            app_name(app),
            if adaptive { "adaptive" } else { "push" },
            hazards
        );
        prop_assert_eq!(
            &sanitized,
            &plain,
            "sanitizer perturbed {} × {} ({t} threads)",
            entry.name,
            app_name(app)
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Random power-law graphs through the pull-capable trio, both
    /// directions — the paths where push/pull phase interleaving could
    /// plausibly race.
    #[test]
    fn adaptive_engines_hazard_free_on_random_graphs(
        nodes in 60usize..140, seed in 0u64..1000, adaptive in 0u8..2
    ) {
        let g = graph(nodes, seed);
        for entry in roster().into_iter().take(3) {
            for app in APPS {
                assert_clean_and_neutral(&g, &entry, adaptive == 1, app)?;
            }
        }
    }
}

/// The full seven-engine roster × four apps × both directions on a fixed
/// power-law graph: zero hazards, and sanitizing is cost-neutral bitwise.
#[test]
fn all_engines_hazard_free_and_unperturbed() {
    let g = graph(150, 7);
    for entry in roster() {
        for app in APPS {
            for adaptive in [false, true] {
                assert_clean_and_neutral(&g, &entry, adaptive, app)
                    .unwrap_or_else(|e| panic!("{e}"));
            }
        }
    }
}

/// The deliberately racy fixture must be detected — exactly once.
#[test]
fn racy_fixture_detected_exactly_once() {
    let mut dev = Device::new(cfg(true));
    let report = gpu_sim::sanitizer::run_racy_fixture(&mut dev);
    assert_eq!(report.hazards.len(), 1, "exactly one hazard: {report:?}");
    let h = &report.hazards.hazards[0];
    assert_eq!(h.kind, HazardKind::WriteWrite);
    assert_ne!(h.first.sm, h.second.sm, "conflict must span two SMs");
    assert_eq!(dev.hazard_count(), 1, "device-level ledger agrees");
    // the same fixture under a disabled sanitizer reports nothing
    let mut quiet = Device::new(cfg(false));
    let report = gpu_sim::sanitizer::run_racy_fixture(&mut quiet);
    assert!(report.hazards.is_empty());
    assert_eq!(quiet.hazard_count(), 0);
}
