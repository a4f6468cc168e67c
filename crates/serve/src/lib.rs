//! # sage-serve — a concurrent traversal-query service on SAGE
//!
//! Serving layer over the adaptive runtime: clients submit
//! `{app, graph, source}` queries, the service batches compatible requests
//! (multi-source BFS/SSSP share **one** frontier pipeline via per-node
//! source bitmasks), hands batches to a pool of simulated devices from one
//! shared FIFO, and answers repeats from an epoch-keyed result cache that
//! the runtime's self-reordering implicitly invalidates.
//!
//! Pipeline of a query:
//!
//! 1. **Admit** — validate graph/source, normalise the source of
//!    source-independent apps, fast-path a cache hit, else enqueue (bounded:
//!    [`ServiceError::Overloaded`] under backpressure).
//! 2. **Batch** — a worker pops the front query's run of same-`(graph, app)`
//!    queries from the shared FIFO and fuses their sources.
//! 3. **Execute** — one traversal on the worker's copy of the graph (a
//!    [`sage::SageRuntime`]); up to 64 BFS/SSSP sources ride a single
//!    pipeline.
//! 4. **Remap + cache** — results come back in *original* node ids (via the
//!    composed permutation) and are inserted at the graph's current epoch.
//!
//! Each graph has one layout, kept by its [`sage::ReorderSession`]. At
//! batch pickup a worker adopts the rounds published since its last
//! pickup and, once its own samples on that layout saturate, decides the
//! next round for every worker. Each round bumps the graph's epoch, so
//! every cached result from the old id-mapping era becomes unreachable at
//! once.
//!
//! ```
//! use sage_serve::{AppKind, QueryRequest, SageService, ServiceConfig};
//!
//! let service = SageService::start(ServiceConfig::test_config(2));
//! let g = service.register_graph("demo", sage_graph::gen::uniform_graph(200, 1600, 3));
//! let fresh = service.query(QueryRequest { app: AppKind::Bfs, graph: g, source: 4 }).unwrap();
//! let cached = service.query(QueryRequest { app: AppKind::Bfs, graph: g, source: 4 }).unwrap();
//! assert!(!fresh.cache_hit && cached.cache_hit);
//! assert_eq!(*fresh.values, *cached.values);
//! service.shutdown();
//! ```

pub mod cache;
pub mod msapp;
mod queue;
mod service;
pub mod types;
mod worker;

pub use cache::{CacheKey, ResultCache};
pub use msapp::{MsBfs, MsSssp, MAX_SOURCES};
pub use service::{SageService, ServiceStats};
pub use types::{
    AppKind, GraphId, QueryRequest, QueryResponse, ResultValues, ServiceConfig, ServiceError,
    Ticket, WalkAppKind, WalkPolicy,
};
