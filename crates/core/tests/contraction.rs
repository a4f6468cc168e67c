//! Fused contraction: every push engine contracts the next frontier inside
//! its own last kernel, so no iteration launches a `contract` kernel. The
//! queue an engine returns is exactly the filter's passes, sorted and
//! duplicate-free. The resident engine launches one kernel per push
//! iteration: its tile expansion runs ahead of a grid barrier inside the
//! consume kernel, which contracts at its end.

use gpu_sim::{Device, DeviceConfig};
use sage::access::AccessRecorder;
use sage::app::{App, Bfs, Cc, Sssp, Step};
use sage::engine::{
    B40cEngine, Engine, GunrockEngine, LigraEngine, NaiveEngine, ResidentEngine, SubwayEngine,
    TigrEngine, TiledPartitioningEngine,
};
use sage::ooc::UmOocEngine;
use sage::{DeviceGraph, Runner};
use sage_graph::gen::rmat_graph;
use sage_graph::{Csr, NodeId};

/// Forwards the push side of `inner` and keeps every neighbor the filter
/// passes, in pass order, duplicates included: the queue before
/// contraction.
struct Passes<A: App> {
    inner: A,
    passed: Vec<NodeId>,
}

impl<A: App> App for Passes<A> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn init(&mut self, dev: &mut Device, g: &DeviceGraph, source: NodeId) -> Vec<NodeId> {
        self.inner.init(dev, g, source)
    }

    fn on_frontier(&mut self, frontier: NodeId, rec: &mut AccessRecorder) {
        self.inner.on_frontier(frontier, rec);
    }

    fn filter(&mut self, frontier: NodeId, neighbor: NodeId, rec: &mut AccessRecorder) -> bool {
        let pass = self.inner.filter(frontier, neighbor, rec);
        if pass {
            self.passed.push(neighbor);
        }
        pass
    }

    fn control(&mut self, iter: usize, contracted: Vec<NodeId>) -> Step {
        self.inner.control(iter, contracted)
    }
}

/// All nine push engines, each on the graph placement it runs on: Subway
/// and the UM engine read a host-placed CSR, the rest a device-placed one.
fn engines(dev: &mut Device, csr: &Csr) -> Vec<(Box<dyn Engine>, DeviceGraph)> {
    let mut out: Vec<(Box<dyn Engine>, DeviceGraph)> = Vec::new();
    let device_engines: Vec<Box<dyn Engine>> = vec![
        Box::new(NaiveEngine::new()),
        Box::new(TiledPartitioningEngine {
            block_size: 16,
            min_tile: 4,
            align_tiles: true,
        }),
        Box::new(ResidentEngine::with_geometry(16, 4, true)),
        Box::new(B40cEngine { block_size: 16 }),
        Box::new(GunrockEngine { chunk_edges: 16 }),
        Box::new(LigraEngine::new()),
        Box::new(TigrEngine::with_split(dev, csr, 4)),
    ];
    for e in device_engines {
        let g = DeviceGraph::upload(dev, csr.clone());
        out.push((e, g));
    }
    let subway = SubwayEngine::new(dev, csr.num_edges());
    out.push((Box::new(subway), DeviceGraph::upload_host(dev, csr.clone())));
    let um = UmOocEngine::new(csr, 0.5, 4096);
    out.push((Box::new(um), DeviceGraph::upload_host(dev, csr.clone())));
    out
}

/// Drive `app` to convergence through `engine.iterate` alone and check each
/// returned queue against the filter's passes. Returns how many iterations
/// passed some neighbor more than once.
fn check_iterations<A: App>(
    dev: &mut Device,
    g: &DeviceGraph,
    engine: &mut dyn Engine,
    app: &mut Passes<A>,
) -> usize {
    let mut frontier = app.init(dev, g, 0);
    let mut with_duplicates = 0;
    for iter in 1..=64 {
        if frontier.is_empty() {
            return with_duplicates;
        }
        app.passed.clear();
        let next = engine.iterate(dev, g, app, &frontier).next;
        let mut expect = app.passed.clone();
        expect.sort_unstable();
        expect.dedup();
        assert_eq!(
            next,
            expect,
            "{} / {}: iteration {iter} did not return the contracted passes",
            engine.name(),
            app.name()
        );
        if app.passed.len() > next.len() {
            with_duplicates += 1;
        }
        frontier = match app.control(iter, next) {
            Step::Done => Vec::new(),
            Step::Frontier(f) => f,
        };
    }
    panic!("{} / {} did not converge", engine.name(), app.name());
}

#[test]
fn push_engines_contract_inside_their_own_kernels() {
    let csr = rmat_graph(9, 8, 3);
    let mut dev = Device::new(DeviceConfig::test_tiny());
    let mut duplicates = [0usize; 2];
    for (mut engine, g) in engines(&mut dev, &csr) {
        let mut sssp = Passes {
            inner: Sssp::new(&mut dev),
            passed: Vec::new(),
        };
        duplicates[0] += check_iterations(&mut dev, &g, engine.as_mut(), &mut sssp);
        let mut cc = Passes {
            inner: Cc::new(&mut dev),
            passed: Vec::new(),
        };
        duplicates[1] += check_iterations(&mut dev, &g, engine.as_mut(), &mut cc);
        let contracts: Vec<String> = dev
            .kernel_breakdown()
            .into_iter()
            .map(|(name, _, _)| name)
            .filter(|name| name.starts_with("contract"))
            .collect();
        assert!(
            contracts.is_empty(),
            "{} launched {contracts:?}",
            engine.name()
        );
    }
    // the filters really pass neighbors more than once, so the sorted and
    // duplicate-free queues above are the contraction's doing
    assert!(
        duplicates.iter().all(|&d| d > 0),
        "iterations with duplicate passes (SSSP, CC): {duplicates:?}"
    );
}

/// Launches of one BFS from the hub of R-MAT 2^12 (seed 1) on the default
/// device through the resident engine, adaptive (trace `>MM>>`), then
/// push-only (`>>>>>`), when every push iteration launched three kernels:
/// `sage_expand_tiles`, `sage_consume_tiles` and `contract`. Each of two
/// fusions saves one launch per push iteration: contraction runs at the
/// end of the consume kernel, and the tile expansion became that kernel's
/// first phase, ahead of a grid barrier.
const THREE_LAUNCH_PUSH_KERNELS: [u64; 2] = [11, 15];

#[test]
fn runner_saves_one_launch_per_push_iteration() {
    let csr = rmat_graph(12, 16, 1);
    let (source, _) = csr.max_degree();
    for (runner, before) in [Runner::new(), Runner::push_only()]
        .into_iter()
        .zip(THREE_LAUNCH_PUSH_KERNELS)
    {
        let mut dev = Device::new(DeviceConfig::default());
        let g = DeviceGraph::upload(&mut dev, csr.clone()).with_in_edges(&mut dev);
        let mut app = Bfs::new(&mut dev);
        let mut engine = ResidentEngine::new();
        let r = runner.run(&mut dev, &g, &mut engine, &mut app, source);
        let pushes = r.direction_trace.matches('>').count() as u64;
        assert!(pushes > 0, "trace {}", r.direction_trace);
        assert_eq!(
            dev.profiler().kernels,
            before - 2 * pushes,
            "trace {}",
            r.direction_trace
        );
        let names: Vec<String> = dev
            .kernel_breakdown()
            .into_iter()
            .map(|(name, _, _)| name)
            .collect();
        assert!(
            !names.iter().any(|n| n == "sage_expand_tiles"),
            "trace {}: {names:?}",
            r.direction_trace
        );
    }
}
