//! End-to-end service behaviour: backpressure, reorder-consistency, and
//! high-concurrency completion across a multi-device pool.

use sage::reference;
use sage_graph::gen::uniform_graph;
use sage_serve::{AppKind, QueryRequest, ResultValues, SageService, ServiceConfig, ServiceError};
use std::time::Duration;

/// Ceiling on any one ticket: a stranded query fails the test instead of
/// hanging it.
const WAIT: Duration = Duration::from_secs(120);

#[test]
fn queue_at_capacity_returns_typed_overloaded_error() {
    let mut cfg = ServiceConfig::test_config(1);
    cfg.queue_capacity = 2;
    cfg.max_batch = 1; // one query per batch: the worker drains slowly
    let service = SageService::start(cfg);
    // a graph big enough that each run keeps the single worker busy
    let g = service.register_graph("busy", uniform_graph(600, 7200, 5));

    let mut tickets = Vec::new();
    let mut overloaded = None;
    for source in 0..400u32 {
        match service.submit(QueryRequest {
            app: AppKind::Bfs,
            graph: g,
            source: source % 600,
        }) {
            Ok(t) => tickets.push(t),
            Err(e) => {
                overloaded = Some(e);
                break;
            }
        }
    }
    assert_eq!(
        overloaded,
        Some(ServiceError::Overloaded { capacity: 2 }),
        "a bounded queue must push back with the typed error"
    );
    // everything that WAS admitted still completes
    for t in tickets {
        assert!(t.wait().is_ok());
    }
    service.shutdown();
}

#[test]
fn post_reorder_cached_results_match_uncached_recomputation() {
    let mut cfg = ServiceConfig::test_config(1);
    cfg.reorder_threshold = Some(1_000); // reorder rounds fire quickly
    let service = SageService::start(cfg);
    let csr = uniform_graph(300, 3000, 21);
    let g = service.register_graph("reorder", csr.clone());
    let req = QueryRequest {
        app: AppKind::Bfs,
        graph: g,
        source: 9,
    };

    let before = service.query(req).unwrap();
    // churn until the runtime commits (or rolls back) at least one round
    let mut epoch = service.graph_epoch(g).unwrap();
    for source in 0..120u32 {
        let _ = service
            .query(QueryRequest {
                app: AppKind::Bfs,
                graph: g,
                source: source % 300,
            })
            .unwrap();
        epoch = service.graph_epoch(g).unwrap();
        if epoch > 0 {
            break;
        }
    }
    assert!(epoch > 0, "reorder threshold 1000 must trigger a round");

    // fresh compute at the new epoch...
    let after = service.query(req).unwrap();
    // ...and the cached repeat of it
    let cached = service.query(req).unwrap();
    let expect = ResultValues::Depths(reference::bfs_levels(&csr, 9));
    assert_eq!(*before.values, expect);
    assert_eq!(
        *after.values, expect,
        "post-reorder result must be identical"
    );
    assert_eq!(*cached.values, *after.values);
    assert!(cached.cache_hit);
    assert!(after.epoch >= 1);
    service.shutdown();
}

#[test]
fn sixty_four_in_flight_mixed_queries_complete_on_two_devices() {
    let mut cfg = ServiceConfig::test_config(2);
    // keep the epoch stable: this test is about batching and cache hits,
    // not reorder-driven invalidation (covered elsewhere)
    cfg.reorder_threshold = Some(u64::MAX);
    let service = SageService::start(cfg);
    let csr = uniform_graph(240, 1920, 77);
    let n = csr.num_nodes() as u32;
    let g = service.register_graph("mixed", csr);

    let mut tickets = Vec::new();
    for i in 0..64u32 {
        let app = if i % 3 == 0 {
            AppKind::Pr
        } else {
            AppKind::Bfs
        };
        tickets.push(
            service
                .submit(QueryRequest {
                    app,
                    graph: g,
                    source: i % n,
                })
                .expect("queue capacity 64 admits the full burst"),
        );
    }
    let mut batched = 0usize;
    for t in tickets {
        let resp = t.wait().unwrap();
        assert_eq!(resp.values.len(), 240);
        if resp.batch_size > 1 {
            batched += 1;
        }
    }
    assert!(
        batched > 0,
        "the burst must produce at least one fused batch"
    );
    let stats = service.stats();
    assert_eq!(stats.device_profiles.len(), 2);
    // with the burst done, a repeat of any of its queries is a cache hit
    let repeat = service
        .query(QueryRequest {
            app: AppKind::Pr,
            graph: g,
            source: 0,
        })
        .unwrap();
    assert!(
        repeat.cache_hit,
        "post-burst repeat must be served from cache"
    );
    service.shutdown();
}

/// A cold burst of 96 in-flight mixed queries on two default devices, up to
/// six adaptation replays until the self-reordering epoch stops moving, and
/// a steady replay: every ticket resolves `Ok` and every BFS answer equals
/// the host reference, whatever reorder rounds committed in between.
#[test]
fn cold_adapt_and_steady_bursts_resolve_with_reference_answers() {
    let service = SageService::start(ServiceConfig {
        devices: 2,
        queue_capacity: 192,
        ..ServiceConfig::default()
    });
    let nodes = 4_000;
    let csr = uniform_graph(nodes, nodes * 16, 42);
    let g = service.register_graph("bursts", csr.clone());
    // 2/3 BFS over rotating sources, 1/3 PageRank
    let requests: Vec<QueryRequest> = (0..96)
        .map(|i| QueryRequest {
            app: if i % 3 == 2 {
                AppKind::Pr
            } else {
                AppKind::Bfs
            },
            graph: g,
            source: ((i * 7) % nodes) as u32,
        })
        .collect();
    let expect: Vec<Option<ResultValues>> = requests
        .iter()
        .map(|r| {
            (r.app == AppKind::Bfs)
                .then(|| ResultValues::Depths(reference::bfs_levels(&csr, r.source)))
        })
        .collect();
    let burst = |phase: &str| {
        // submit the whole burst before collecting: every query is in flight
        let tickets: Vec<_> = requests
            .iter()
            .map(|&r| service.submit(r).expect("queue sized for the burst"))
            .collect();
        for (i, t) in tickets.into_iter().enumerate() {
            let resp = t
                .wait_timeout(WAIT)
                .unwrap_or_else(|| panic!("{phase}: query {i} stranded"))
                .unwrap_or_else(|e| panic!("{phase}: query {i} failed: {e}"));
            if let Some(levels) = &expect[i] {
                assert!(
                    *resp.values == *levels,
                    "{phase}: BFS from {} differs from the reference at epoch {}",
                    requests[i].source,
                    resp.epoch
                );
            }
        }
    };

    burst("cold");
    let mut epoch = service.graph_epoch(g).unwrap();
    for _ in 0..6 {
        burst("adapt");
        let now = service.graph_epoch(g).unwrap();
        if now == epoch {
            break;
        }
        epoch = now;
    }
    burst("steady");
    service.shutdown();
}

#[test]
fn service_refuses_queries_once_every_worker_has_died() {
    // an out-of-range PPR alpha makes every walk batch panic the worker
    // that executes it
    let mut cfg = ServiceConfig::test_config(2);
    cfg.walk.alpha = 2.0;
    let service = SageService::start(cfg);
    let g = service.register_graph("doomed", uniform_graph(200, 1600, 5));
    let walk = QueryRequest {
        app: AppKind::Walk,
        graph: g,
        source: 1,
    };
    // one walk batch per worker: each ticket fails, none hangs
    for worker in 0..2 {
        let ticket = service.submit(walk).expect("a live worker remains");
        assert_eq!(
            ticket.wait_timeout(WAIT),
            Some(Err(ServiceError::WorkerFailed)),
            "walk batch {worker}"
        );
    }
    // the last worker to die closes the queue: a query admitted before it
    // did is failed, not stranded, and then admission stops
    let bfs = QueryRequest {
        app: AppKind::Bfs,
        graph: g,
        source: 3,
    };
    let deadline = std::time::Instant::now() + WAIT;
    loop {
        match service.submit(bfs) {
            Err(e) => {
                assert_eq!(e, ServiceError::ShuttingDown);
                break;
            }
            Ok(ticket) => assert_eq!(
                ticket.wait_timeout(WAIT),
                Some(Err(ServiceError::WorkerFailed)),
                "a query admitted while the last worker died"
            ),
        }
        assert!(
            std::time::Instant::now() < deadline,
            "the service kept admitting queries with no worker left"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    service.shutdown();
}
