//! Integration: invariance properties — reordering never changes results,
//! engines agree pairwise, resident reuse is consistent across phases.

use gpu_sim::Device;
use sage::app::{Bc, Bfs};
use sage::engine::ResidentEngine;
use sage::{reference, DeviceGraph, Runner, SageRuntime};
use sage_graph::datasets::Dataset;
use sage_graph::reorder::{gorder_order, llp_order, rcm_order, LlpParams, Permutation};

#[test]
fn bfs_levels_invariant_under_every_reordering() {
    let csr = Dataset::Ljournal.generate(0.03);
    let source = 2u32;
    let expect = reference::bfs_levels(&csr, source);

    let orders: Vec<(&str, Permutation)> = vec![
        ("rcm", rcm_order(&csr)),
        ("llp", llp_order(&csr, &LlpParams::default())),
        ("gorder", gorder_order(&csr, 5)),
        ("random", Permutation::random(csr.num_nodes(), 77)),
    ];
    for (name, perm) in orders {
        let mut dev = Device::default_device();
        let mut g = DeviceGraph::upload(&mut dev, csr.clone());
        g.relabel(&perm);
        let mut engine = ResidentEngine::new();
        let mut app = Bfs::new(&mut dev);
        let _ = Runner::new().run(&mut dev, &g, &mut engine, &mut app, perm.map(source));
        // map back and compare
        let got = g.original_ids().to_original_order(app.distances());
        assert_eq!(got, expect, "BFS changed under {name} reordering");
    }
}

#[test]
fn bc_scores_invariant_under_self_reordering() {
    let csr = Dataset::Twitter.generate(0.02);
    let source = 9u32;
    let (_, delta_ref) = reference::bc_scores(&csr, source);

    let mut dev = Device::default_device();
    let mut rt = SageRuntime::with_threshold(&mut dev, csr, 2_000);
    let mut app = Bc::new(&mut dev);
    for i in 0..4 {
        if i > 0 {
            rt.maybe_reorder(&mut dev);
        }
        let _ = rt.run(&mut dev, &mut app, source);
    }
    assert!(rt.rounds() > 0, "rounds should have fired");
    let got = rt.to_original_order(app.scores());
    for (i, (&g, &want)) in got.iter().zip(&delta_ref).enumerate() {
        assert!(
            (f64::from(g) - want).abs() < 1e-2 * want.max(1.0),
            "BC[{i}] {g} vs {want}"
        );
    }
}

#[test]
fn resident_tiles_survive_multiple_apps() {
    // BFS then BC on the same engine instance: resident tiles from BFS are
    // reused by BC's forward phase (same adjacency decomposition)
    let csr = Dataset::Brain.generate(0.05);
    let mut dev = Device::default_device();
    let g = DeviceGraph::upload(&mut dev, csr.clone());
    let mut engine = ResidentEngine::new();
    let mut bfs = Bfs::new(&mut dev);
    let _ = Runner::new().run(&mut dev, &g, &mut engine, &mut bfs, 0);
    let frac_after_bfs = engine.resident_fraction();
    assert!(frac_after_bfs > 0.5);

    let mut bc = Bc::new(&mut dev);
    let t0 = dev.elapsed_seconds();
    let r = Runner::new().run(&mut dev, &g, &mut engine, &mut bc, 0);
    assert!(r.seconds > 0.0);
    assert!(dev.elapsed_seconds() > t0);
    // residency can only grow
    assert!(engine.resident_fraction() >= frac_after_bfs);
}

#[test]
fn sampling_reorder_reduces_dram_traffic_on_scrambled_graph() {
    let csr = Dataset::Friendster.generate(0.02);
    // cold run traffic
    let cold_dram = {
        let mut dev = Device::default_device();
        let g = DeviceGraph::upload(&mut dev, csr.clone());
        let mut engine = ResidentEngine::new();
        let mut app = Bfs::new(&mut dev);
        let _ = Runner::new().run(&mut dev, &g, &mut engine, &mut app, 0);
        dev.profiler().total_sectors()
    };
    // adapted run traffic
    let adapted_sectors = {
        let mut dev = Device::default_device();
        let mut rt = SageRuntime::new(&mut dev, csr);
        let mut app = Bfs::new(&mut dev);
        for _ in 0..5 {
            let _ = rt.run(&mut dev, &mut app, 0);
            rt.maybe_reorder(&mut dev);
        }
        dev.reset_profiler();
        let _ = rt.run(&mut dev, &mut app, 0);
        dev.profiler().total_sectors()
    };
    assert!(
        adapted_sectors < cold_dram,
        "reordering should reduce sector traffic: {cold_dram} -> {adapted_sectors}"
    );
}

#[test]
fn profiler_counters_consistent_with_run() {
    let csr = Dataset::Uk2002.generate(0.02);
    let mut dev = Device::default_device();
    let g = DeviceGraph::upload(&mut dev, csr.clone());
    let mut engine = ResidentEngine::new();
    let mut app = Bfs::new(&mut dev);
    let r = Runner::new().run(&mut dev, &g, &mut engine, &mut app, 0);
    let p = dev.profiler();
    assert!(
        p.kernels as usize >= r.iterations,
        "at least one kernel per iteration"
    );
    assert!(p.mem_requests > 0);
    assert!(p.total_sectors() > 0);
    assert!(p.simt_efficiency() > 0.0 && p.simt_efficiency() <= 1.0);
    // BFS makes no atomics
    assert_eq!(p.atomics, 0);
}
