//! Social-network analytics: the paper's three applications (BFS, BC, PR)
//! plus CC and SSSP on a twitter-like graph, with
//! self-adaptive reordering improving the traversal round by round.
//!
//! ```text
//! cargo run --release --example social_network_analytics
//! ```

use gpu_sim::Device;
use sage::app::{Bc, Bfs, Cc, PageRank, Sssp};
use sage::engine::ResidentEngine;
use sage::{DeviceGraph, Runner, SageRuntime};
use sage_graph::datasets::Dataset;

fn main() {
    let mut dev = Device::default_device();
    let csr = Dataset::Twitter.generate(0.2);
    println!(
        "dataset: {} ({} nodes, {} edges)",
        Dataset::Twitter.name(),
        csr.num_nodes(),
        csr.num_edges()
    );

    // --- all five applications through the same filter interface ---
    let g = DeviceGraph::upload(&mut dev, csr.clone());
    let runner = Runner::new();
    let mut engine = ResidentEngine::new();

    let mut bfs = Bfs::new(&mut dev);
    let r = runner.run(&mut dev, &g, &mut engine, &mut bfs, 42);
    println!("{r}");

    let mut bc = Bc::new(&mut dev);
    let r = runner.run(&mut dev, &g, &mut engine, &mut bc, 42);
    let top_bc = max_index(bc.scores());
    println!("{r}  (most central node: {top_bc})");

    let mut pr = PageRank::with_defaults(&mut dev);
    let r = runner.run(&mut dev, &g, &mut engine, &mut pr, 0);
    let top_pr = max_index(pr.ranks());
    println!("{r}  (highest-ranked node: {top_pr})");

    let mut cc = Cc::new(&mut dev);
    let r = runner.run(&mut dev, &g, &mut engine, &mut cc, 0);
    let comps = {
        let mut l: Vec<u32> = cc.labels().to_vec();
        l.sort_unstable();
        l.dedup();
        l.len()
    };
    println!("{r}  ({comps} connected components)");

    let mut sssp = Sssp::new(&mut dev);
    let r = runner.run(&mut dev, &g, &mut engine, &mut sssp, 42);
    println!("{r}");

    // --- self-adaptive reordering: BFS speed, round after round ---
    println!("\nself-adaptive reordering (BFS GTEPS by round):");
    let mut dev2 = Device::default_device();
    let mut rt = SageRuntime::new(&mut dev2, csr);
    let mut bfs2 = Bfs::new(&mut dev2);
    for round in 0..6 {
        let rep = rt.run(&mut dev2, &mut bfs2, 42);
        let session = rt.session();
        let locality = session
            .locality()
            .map_or_else(|| "none yet".to_owned(), |l| format!("{l:.3}"));
        println!(
            "  round {round}: {:.3} GTEPS ({} reorder rounds applied, {} rolled back, \
             sampled locality {locality}{})",
            rep.gteps(),
            session.rounds(),
            session.rollbacks(),
            if session.converged() { ", frozen" } else { "" }
        );
        rt.maybe_reorder(&mut dev2);
    }
}

fn max_index<T: PartialOrd + Copy>(xs: &[T]) -> usize {
    let mut best = 0;
    for (i, &x) in xs.iter().enumerate() {
        if x > xs[best] {
            best = i;
        }
    }
    best
}
