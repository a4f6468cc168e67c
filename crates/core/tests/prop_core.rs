//! Property-based tests for the core: every engine matches the sequential
//! reference on arbitrary graphs, the sampler always emits valid
//! permutations, and resident-tile decomposition covers ranges exactly.

use gpu_sim::{Device, DeviceConfig};
use proptest::prelude::*;
use sage::app::{Bfs, Cc, Sssp};
use sage::engine::common::TileObserver;
use sage::engine::{
    B40cEngine, Engine, GunrockEngine, NaiveEngine, ResidentEngine, TiledPartitioningEngine,
};
use sage::reorder::Sampler;
use sage::{reference, DeviceGraph, Runner};
use sage_graph::{Csr, NodeId};

fn edges(max_n: usize, max_m: usize) -> impl Strategy<Value = (usize, Vec<(NodeId, NodeId)>)> {
    (2..max_n).prop_flat_map(move |n| {
        let e = prop::collection::vec((0..n as NodeId, 0..n as NodeId), 0..max_m);
        (Just(n), e)
    })
}

fn engines(dev: &mut Device) -> Vec<Box<dyn Engine>> {
    let _ = dev;
    vec![
        Box::new(NaiveEngine::new()),
        Box::new(TiledPartitioningEngine {
            block_size: 16,
            min_tile: 4,
            align_tiles: true,
        }),
        Box::new(ResidentEngine::with_geometry(16, 4, true)),
        Box::new(B40cEngine { block_size: 16 }),
        Box::new(GunrockEngine { chunk_edges: 16 }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn bfs_matches_reference_on_arbitrary_graphs((n, es) in edges(48, 192), src in 0u32..48) {
        prop_assume!((src as usize) < n);
        let g = Csr::from_edges(n, &es);
        let expect = reference::bfs_levels(&g, src);
        let mut dev = Device::new(DeviceConfig::test_tiny());
        for mut engine in engines(&mut dev) {
            let dg = DeviceGraph::upload(&mut dev, g.clone());
            let mut app = Bfs::new(&mut dev);
            let _ = Runner::new().run(&mut dev, &dg, engine.as_mut(), &mut app, src);
            prop_assert_eq!(app.distances(), expect.as_slice(),
                "engine {} diverged", engine.name());
        }
    }

    #[test]
    fn cc_matches_reference_on_arbitrary_graphs((n, es) in edges(40, 160)) {
        let g = Csr::from_edges(n, &es);
        let expect = reference::cc_labels(&g);
        let mut dev = Device::new(DeviceConfig::test_tiny());
        for mut engine in engines(&mut dev) {
            let dg = DeviceGraph::upload(&mut dev, g.clone());
            let mut app = Cc::new(&mut dev);
            let _ = Runner::new().run(&mut dev, &dg, engine.as_mut(), &mut app, 0);
            prop_assert_eq!(app.labels(), expect.as_slice(),
                "engine {} diverged", engine.name());
        }
    }

    #[test]
    fn sssp_matches_reference_on_arbitrary_graphs((n, es) in edges(40, 160), src in 0u32..40) {
        prop_assume!((src as usize) < n);
        let g = Csr::from_edges(n, &es);
        let expect = reference::sssp_dists(&g, src);
        let mut dev = Device::new(DeviceConfig::test_tiny());
        let dg = DeviceGraph::upload(&mut dev, g.clone());
        let mut engine = ResidentEngine::with_geometry(16, 4, true);
        let mut app = Sssp::new(&mut dev, (0..n as u32).collect());
        let _ = Runner::new().run(&mut dev, &dg, &mut engine, &mut app, src);
        prop_assert_eq!(app.distances(), expect.as_slice());
    }

    #[test]
    fn run_reports_are_deterministic((n, es) in edges(40, 160)) {
        let g = Csr::from_edges(n, &es);
        let run = || {
            let mut dev = Device::new(DeviceConfig::test_tiny());
            let dg = DeviceGraph::upload(&mut dev, g.clone());
            let mut engine = ResidentEngine::with_geometry(16, 4, true);
            let mut app = Bfs::new(&mut dev);
            let r = Runner::new().run(&mut dev, &dg, &mut engine, &mut app, 0);
            (r.edges, r.iterations, r.seconds.to_bits())
        };
        prop_assert_eq!(run(), run());
    }

    #[test]
    fn sampler_always_produces_valid_permutations(
        tiles in prop::collection::vec(prop::collection::vec(0u32..64, 2..16), 1..40)
    ) {
        let mut dev = Device::new(DeviceConfig::test_tiny());
        let mut s = Sampler::new(64, 1_000_000);
        for t in &tiles {
            s.observe(t);
        }
        if let Some(p) = s.finish_round(&mut dev) {
            prop_assert_eq!(p.len(), 64);
            let _ = p.inverse(); // panics if not a bijection
        }
    }

    #[test]
    fn sampler_rounds_never_lose_nodes(
        tiles in prop::collection::vec(prop::collection::vec(0u32..32, 2..8), 1..20),
        (n, es) in edges(32, 64)
    ) {
        // applying a sampled round to a graph keeps it valid
        let _ = n;
        let filtered: Vec<(NodeId, NodeId)> = es
            .into_iter()
            .filter(|&(a, b)| (a as usize) < 32 && (b as usize) < 32)
            .collect();
        let g = Csr::from_edges(32, &filtered);
        let mut dev = Device::new(DeviceConfig::test_tiny());
        let mut s = Sampler::new(32, 1_000_000);
        for t in &tiles {
            s.observe(t);
        }
        if let Some(p) = s.finish_round(&mut dev) {
            let h = p.apply_csr(&g);
            prop_assert!(h.validate().is_ok());
            prop_assert_eq!(h.num_edges(), g.num_edges());
        }
    }

    #[test]
    fn engines_report_positive_time_when_edges_exist((n, es) in edges(40, 160)) {
        let g = Csr::from_edges(n, &es);
        prop_assume!(g.num_edges() > 0);
        let mut dev = Device::new(DeviceConfig::test_tiny());
        // pick a source with outgoing edges
        let src = (0..n as NodeId).find(|&u| g.degree(u) > 0).unwrap();
        let dg = DeviceGraph::upload(&mut dev, g.clone());
        let mut engine = ResidentEngine::with_geometry(16, 4, true);
        let mut app = Bfs::new(&mut dev);
        let r = Runner::new().run(&mut dev, &dg, &mut engine, &mut app, src);
        prop_assert!(r.edges > 0);
        prop_assert!(r.seconds > 0.0);
        prop_assert!(r.gteps() > 0.0);
    }
}

/// Non-proptest helper check: sampler observation of a single tile is what
/// the sampler's observer trait sees through an engine (smoke-coupling).
#[test]
fn sampler_is_wired_through_the_engine() {
    let g = Csr::from_edges(20, &(0..16u32).map(|i| (0, i + 1)).collect::<Vec<_>>());
    let mut dev = Device::new(DeviceConfig::test_tiny());
    let dg = DeviceGraph::upload(&mut dev, g);
    let mut engine = ResidentEngine::with_geometry(16, 4, true);
    engine.sampler = Some(Sampler::new(20, 1_000_000));
    let mut app = Bfs::new(&mut dev);
    let _ = Runner::new().run(&mut dev, &dg, &mut engine, &mut app, 0);
    assert!(engine.sampler.as_ref().unwrap().sampled() > 0);
}
