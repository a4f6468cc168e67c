//! Serving random walks: fusion of many concurrent `Walk` queries into one
//! launch, epoch-keyed caching of terminal distributions, and PPR sanity.

use gpu_sim::Device;
use sage::walk::{Node2vec, WalkSpec, WalkWeights};
use sage::SageRuntime;
use sage_graph::gen::uniform_graph;
use sage_graph::Csr;
use sage_serve::{AppKind, QueryRequest, ResultValues, SageService, ServiceConfig, WalkAppKind};
use std::time::Duration;

fn walk_req(graph: sage_serve::GraphId, source: u32) -> QueryRequest {
    QueryRequest {
        app: AppKind::Walk,
        graph,
        source,
    }
}

/// Ceiling on any one ticket: a stranded query fails the test instead of
/// hanging it.
const WAIT: Duration = Duration::from_secs(120);

/// Occupy a single worker with one heavy PageRank run, pile `queries` walk
/// queries up behind it, and return the largest batch they fused into.
fn largest_fused_walk_batch(csr: Csr, queries: usize, walks_per_source: usize) -> usize {
    let mut cfg = ServiceConfig::test_config(1);
    cfg.queue_capacity = queries * 2 + 64;
    cfg.max_batch = 8; // the traversal cap does not bound walk batches
    cfg.reorder_threshold = Some(u64::MAX);
    cfg.walk.walks_per_source = walks_per_source;
    cfg.walk.length = 4;
    let service = SageService::start(cfg);
    let n = csr.num_nodes();
    let g = service.register_graph("fuse", csr);

    let busy = service
        .submit(QueryRequest {
            app: AppKind::Pr,
            graph: g,
            source: 0,
        })
        .unwrap();
    let tickets: Vec<_> = (0..queries)
        .map(|i| service.submit(walk_req(g, (i % n) as u32)).unwrap())
        .collect();
    let pinned = busy.wait_timeout(WAIT).expect("PageRank pin stranded");
    assert!(pinned.is_ok());

    let mut max_batch = 0usize;
    for t in tickets {
        let resp = t
            .wait_timeout(WAIT)
            .expect("walk query stranded")
            .expect("walk query must complete");
        max_batch = max_batch.max(resp.batch_size);
        match resp.values.as_ref() {
            ResultValues::Scores(s) => assert_eq!(s.len(), n),
            other => panic!("walk returns Scores, got {other:?}"),
        }
    }
    service.shutdown();
    max_batch
}

#[test]
fn hundreds_of_concurrent_walk_queries_fuse_into_one_launch() {
    // (graph, queries, walks per source, minimum largest batch)
    let cases = [
        (uniform_graph(400, 4800, 3), 300, 4, 100),
        (uniform_graph(1_472, 1_472 * 8, 7), 1_200, 2, 1_000),
    ];
    for (csr, queries, walks, min_batch) in cases {
        let max_batch = largest_fused_walk_batch(csr, queries, walks);
        assert!(
            max_batch >= min_batch,
            "{queries} concurrent walk queries must fuse into batches >= {min_batch}, \
             saw {max_batch}"
        );
    }
}

#[test]
fn walk_terminal_distributions_are_cached_per_epoch() {
    let mut cfg = ServiceConfig::test_config(1);
    cfg.reorder_threshold = Some(u64::MAX); // keep the epoch stable
    cfg.walk.walks_per_source = 64;
    cfg.walk.length = 16;
    let service = SageService::start(cfg);
    let g = service.register_graph("cache", uniform_graph(200, 2400, 9));

    let first = service.query(walk_req(g, 17)).unwrap();
    assert!(!first.cache_hit);
    let repeat = service.query(walk_req(g, 17)).unwrap();
    assert!(repeat.cache_hit, "same (source, epoch) must hit the cache");
    assert_eq!(*repeat.values, *first.values);

    // the distribution is normalized over the walkers that terminated
    if let ResultValues::Scores(s) = first.values.as_ref() {
        let sum: f32 = s.iter().sum();
        assert!((sum - 1.0).abs() < 1e-3, "terminal mass sums to 1: {sum}");
    } else {
        panic!("walk values must be Scores");
    }
    service.shutdown();
}

#[test]
fn ppr_walk_mass_concentrates_near_the_source() {
    let mut cfg = ServiceConfig::test_config(1);
    cfg.reorder_threshold = Some(u64::MAX);
    cfg.walk.app = WalkAppKind::Ppr;
    cfg.walk.alpha = 0.5; // short walks hug the source
    cfg.walk.walks_per_source = 256;
    cfg.walk.length = 32;
    let service = SageService::start(cfg);
    // a ring: mass must decay with ring distance from the source
    let ring: Vec<(u32, u32)> = (0..64u32).map(|u| (u, (u + 1) % 64)).collect();
    let g = service.register_graph("ring", sage_graph::Csr::from_edges(64, &ring));

    let resp = service.query(walk_req(g, 0)).unwrap();
    let ResultValues::Scores(s) = resp.values.as_ref() else {
        panic!("walk values must be Scores");
    };
    assert!(
        s[0] > s[8] && s[8] > s[32].max(1e-9),
        "PPR mass must decay along the ring: {} {} {}",
        s[0],
        s[8],
        s[32]
    );
    service.shutdown();
}

#[test]
fn node2vec_policy_serves_endpoint_distributions() {
    let mut cfg = ServiceConfig::test_config(1);
    cfg.reorder_threshold = Some(u64::MAX);
    cfg.walk.app = WalkAppKind::Node2vec;
    cfg.walk.p = 2.0;
    cfg.walk.q = 0.5;
    cfg.walk.walks_per_source = 32;
    cfg.walk.length = 8;
    let csr = uniform_graph(150, 1800, 13);
    let service = SageService::start(cfg.clone());
    let g = service.register_graph("n2v", csr.clone());

    let resp = service.query(walk_req(g, 3)).unwrap();
    assert_eq!(resp.report.app, "node2vec");
    let ResultValues::Scores(served) = resp.values.as_ref() else {
        panic!("walk values must be Scores");
    };
    service.shutdown();

    // the same walk run directly: the response is the source's endpoint
    // distribution
    let mut dev = Device::new(cfg.device_config.clone());
    let rt = SageRuntime::with_threshold(&mut dev, csr, u64::MAX);
    let spec = WalkSpec {
        walks_per_source: cfg.walk.walks_per_source,
        max_length: cfg.walk.length,
        seed: cfg.walk.seed,
        weights: WalkWeights::Uniform,
    };
    let app = Node2vec::new(cfg.walk.p, cfg.walk.q);
    let direct = rt.run_walk(&mut dev, &app, &spec, &[3]);
    assert_eq!(served, &direct.endpoint_scores(0));
    assert!(served.iter().any(|&x| x > 0.0));
}
