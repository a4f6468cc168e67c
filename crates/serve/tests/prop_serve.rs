//! Property test: interleaving queries with self-reordering rounds never
//! changes what a caller observes — cached and fresh responses agree with
//! each other bit for bit, and BFS/SSSP/CC with the host reference, before
//! and after any number of committed or rolled-back reorder rounds.

use proptest::prelude::*;
use sage::reference;
use sage_graph::gen::uniform_graph;
use sage_serve::{AppKind, QueryRequest, ResultValues, SageService, ServiceConfig};
use std::collections::HashMap;

const NODES: usize = 160;

const APPS: [AppKind; 6] = [
    AppKind::Bfs,
    AppKind::Sssp,
    AppKind::Cc,
    AppKind::Walk,
    AppKind::Pr,
    AppKind::Bc,
];

/// Reference CC labels are min-node-id label propagation, which is exactly
/// the service's canonical form; pass them through unchanged.
fn reference_values(app: AppKind, csr: &sage_graph::Csr, source: u32) -> ResultValues {
    match app {
        AppKind::Bfs => ResultValues::Depths(reference::bfs_levels(csr, source)),
        AppKind::Sssp => ResultValues::Dists(reference::sssp_dists(csr, source)),
        AppKind::Cc => ResultValues::Dists(reference::cc_labels(csr)),
        _ => unreachable!("only the integer apps have an exact reference"),
    }
}

/// Every value's bit pattern, so floats compare bit for bit (NaN and −0.0
/// included).
fn bits(values: &ResultValues) -> Vec<u32> {
    match values {
        ResultValues::Depths(v) => v.iter().map(|&d| d as u32).collect(),
        ResultValues::Dists(v) => v.clone(),
        ResultValues::Scores(v) => v.iter().map(|s| s.to_bits()).collect(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn cached_and_fresh_results_agree_across_reorder_rounds(
        seed in 0u64..200,
        ops in prop::collection::vec((0..APPS.len(), 0u32..(NODES as u32)), 2..9),
    ) {
        let mut cfg = ServiceConfig::test_config(2);
        // small threshold: reorder rounds fire between (and interleave with)
        // the queries below
        cfg.reorder_threshold = Some(1_200);
        let service = SageService::start(cfg);
        let csr = uniform_graph(NODES, NODES * 8, seed);
        let g = service.register_graph("prop", csr.clone());

        // the fresh result of every (app, source, epoch) computed so far
        let mut fresh: HashMap<(AppKind, u32, u64), Vec<u32>> = HashMap::new();
        for &(app_sel, source) in &ops {
            let app = APPS[app_sel];
            let req = QueryRequest { app, graph: g, source };
            // first query is fresh (or a hit from an earlier op), the second
            // usually hits the cache — unless a reorder bumped the epoch in
            // between, in which case it recomputes on the new order
            for resp in [service.query(req).unwrap(), service.query(req).unwrap()] {
                let source = resp.request.source;
                if matches!(app, AppKind::Bfs | AppKind::Sssp | AppKind::Cc) {
                    prop_assert_eq!(
                        &*resp.values, &reference_values(app, &csr, source),
                        "app {} source {} cached={} (epoch {})",
                        app, source, resp.cache_hit, resp.epoch
                    );
                }
                // walks and float scores depend on the layout, so a result
                // is compared with the fresh one of its own epoch
                let got = bits(&resp.values);
                match fresh.get(&(app, source, resp.epoch)) {
                    Some(want) => prop_assert_eq!(
                        want, &got,
                        "app {} source {} cached={} (epoch {})",
                        app, source, resp.cache_hit, resp.epoch
                    ),
                    None => {
                        prop_assert!(!resp.cache_hit, "a hit needs an earlier fresh run");
                        fresh.insert((app, source, resp.epoch), got);
                    }
                }
            }
        }
        let stats = service.stats();
        prop_assert!(stats.cache_hits + stats.cache_misses > 0);
        service.shutdown();
    }
}
