//! Integration: every engine × every application on every (small-scale)
//! dataset family produces results matching the sequential references.

use gpu_sim::Device;
use sage::app::{Bc, Bfs, Cc, PageRank, Sssp};
use sage::engine::{
    B40cEngine, Engine, GunrockEngine, LigraEngine, NaiveEngine, ResidentEngine, TigrEngine,
    TiledPartitioningEngine,
};
use sage::{reference, DeviceGraph, Runner};
use sage_graph::datasets::Dataset;
use sage_graph::Csr;

fn engines(dev: &mut Device, csr: &Csr) -> Vec<Box<dyn Engine>> {
    vec![
        Box::new(NaiveEngine::new()),
        Box::new(TiledPartitioningEngine::new()),
        Box::new(ResidentEngine::new()),
        Box::new(B40cEngine::new()),
        Box::new(GunrockEngine::new()),
        Box::new(LigraEngine::new()),
        Box::new(TigrEngine::new(dev, csr)),
    ]
}

fn graphs() -> Vec<(&'static str, Csr)> {
    Dataset::ALL
        .iter()
        .map(|d| (d.name(), d.generate(0.02)))
        .collect()
}

#[test]
fn bfs_all_engines_all_datasets() {
    for (name, csr) in graphs() {
        let expect = reference::bfs_levels(&csr, 1);
        let mut dev = Device::default_device();
        for mut engine in engines(&mut dev, &csr) {
            let g = DeviceGraph::upload(&mut dev, csr.clone());
            let mut app = Bfs::new(&mut dev);
            let r = Runner::new().run(&mut dev, &g, engine.as_mut(), &mut app, 1);
            assert_eq!(
                app.distances(),
                expect.as_slice(),
                "BFS mismatch: {} on {name}",
                engine.name()
            );
            assert!(r.seconds > 0.0);
        }
    }
}

#[test]
fn cc_all_engines() {
    let (_, csr) = &graphs()[2];
    let expect = reference::cc_labels(csr);
    let mut dev = Device::default_device();
    for mut engine in engines(&mut dev, csr) {
        let g = DeviceGraph::upload(&mut dev, csr.clone());
        let mut app = Cc::new(&mut dev);
        let _ = Runner::new().run(&mut dev, &g, engine.as_mut(), &mut app, 0);
        assert_eq!(
            app.labels(),
            expect.as_slice(),
            "CC mismatch: {}",
            engine.name()
        );
    }
}

#[test]
fn sssp_all_engines() {
    let (_, csr) = &graphs()[0];
    let expect = reference::sssp_dists(csr, 3);
    let mut dev = Device::default_device();
    for mut engine in engines(&mut dev, csr) {
        let g = DeviceGraph::upload(&mut dev, csr.clone());
        let mut app = Sssp::new(&mut dev);
        let _ = Runner::new().run(&mut dev, &g, engine.as_mut(), &mut app, 3);
        assert_eq!(
            app.distances(),
            expect.as_slice(),
            "SSSP mismatch: {}",
            engine.name()
        );
    }
}

#[test]
fn bc_all_engines_within_tolerance() {
    let (_, csr) = &graphs()[2];
    let (_, delta_ref) = reference::bc_scores(csr, 5);
    let mut dev = Device::default_device();
    for mut engine in engines(&mut dev, csr) {
        let g = DeviceGraph::upload(&mut dev, csr.clone());
        let mut app = Bc::new(&mut dev);
        let _ = Runner::new().run(&mut dev, &g, engine.as_mut(), &mut app, 5);
        for (i, (&got, &want)) in app.scores().iter().zip(&delta_ref).enumerate() {
            assert!(
                (f64::from(got) - want).abs() < 1e-2 * want.max(1.0),
                "BC mismatch at {i}: {} got {got} want {want}",
                engine.name()
            );
        }
    }
}

#[test]
fn pagerank_all_engines_within_tolerance() {
    let (_, csr) = &graphs()[3];
    let expect = reference::pagerank(csr, 5);
    let mut dev = Device::default_device();
    for mut engine in engines(&mut dev, csr) {
        let g = DeviceGraph::upload(&mut dev, csr.clone());
        let mut app = PageRank::new(&mut dev, 5, 0.0);
        let _ = Runner::new().run(&mut dev, &g, engine.as_mut(), &mut app, 0);
        for (i, (&got, &want)) in app.ranks().iter().zip(&expect).enumerate() {
            assert!(
                (f64::from(got) - want).abs() < 1e-4 + 5e-2 * want,
                "PR mismatch at {i}: {} got {got} want {want}",
                engine.name()
            );
        }
    }
}

#[test]
fn repeated_runs_are_deterministic() {
    let csr = Dataset::Twitter.generate(0.02);
    let run_once = || {
        let mut dev = Device::default_device();
        let g = DeviceGraph::upload(&mut dev, csr.clone());
        let mut engine = ResidentEngine::new();
        let mut app = Bfs::new(&mut dev);
        let r = Runner::new().run(&mut dev, &g, &mut engine, &mut app, 0);
        (r, app.distances().to_vec())
    };
    // the report holds simulated quantities only, so it repeats whole
    assert_eq!(run_once(), run_once());
}

#[test]
fn engines_traverse_identical_edge_counts() {
    // BFS traverses each reachable node's full adjacency exactly once
    let csr = Dataset::Ljournal.generate(0.02);
    let mut dev = Device::default_device();
    let mut counts = Vec::new();
    for mut engine in engines(&mut dev, &csr) {
        let g = DeviceGraph::upload(&mut dev, csr.clone());
        let mut app = Bfs::new(&mut dev);
        let r = Runner::new().run(&mut dev, &g, engine.as_mut(), &mut app, 1);
        counts.push((engine.name(), r.edges));
    }
    let first = counts[0].1;
    for (name, c) in counts {
        assert_eq!(c, first, "edge count differs for {name}");
    }
}
