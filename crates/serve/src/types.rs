//! Request/response vocabulary of the query service.

use gpu_sim::DeviceConfig;
use sage::{LatencyBreakdown, RunReport};
use sage_graph::NodeId;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Duration;

/// Handle to a registered graph (index into the service's registry).
pub type GraphId = u32;

/// The traversal applications the service accepts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AppKind {
    /// Breadth-first search (per-source hop distances).
    Bfs,
    /// PageRank (source-independent).
    Pr,
    /// Betweenness centrality from a source.
    Bc,
    /// Single-source shortest paths over synthetic weights.
    Sssp,
    /// Connected components (source-independent).
    Cc,
    /// Random-walk batch from the query source: the endpoint distribution
    /// of the source's walkers (PPR or node2vec, per
    /// [`ServiceConfig::walk`]).
    Walk,
}

impl AppKind {
    /// Short name used in reports and the CLI.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Bfs => "bfs",
            Self::Pr => "pr",
            Self::Bc => "bc",
            Self::Sssp => "sssp",
            Self::Cc => "cc",
            Self::Walk => "walk",
        }
    }

    /// Parse a CLI/user-facing app name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "bfs" => Some(Self::Bfs),
            "pr" | "pagerank" => Some(Self::Pr),
            "bc" => Some(Self::Bc),
            "sssp" => Some(Self::Sssp),
            "cc" => Some(Self::Cc),
            "walk" => Some(Self::Walk),
            _ => None,
        }
    }

    /// Whether results depend on the query's source node. Source-independent
    /// apps have their source normalised to 0 at admission so every request
    /// shares one cache slot.
    #[must_use]
    pub fn uses_source(self) -> bool {
        matches!(self, Self::Bfs | Self::Bc | Self::Sssp | Self::Walk)
    }
}

impl fmt::Display for AppKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One traversal query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct QueryRequest {
    /// Which application to run.
    pub app: AppKind,
    /// Which registered graph to run it on.
    pub graph: GraphId,
    /// Source node in *original* id space (ignored by source-independent
    /// apps).
    pub source: NodeId,
}

/// Per-node result values, always in **original** node-id space.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ResultValues {
    /// BFS hop distances (-1 = unreached).
    Depths(Vec<i32>),
    /// SSSP distances (`u32::MAX` = unreached) or CC component labels.
    Dists(Vec<u32>),
    /// PageRank ranks or BC scores.
    Scores(Vec<f32>),
}

impl ResultValues {
    /// Number of per-node values.
    #[must_use]
    pub fn len(&self) -> usize {
        match self {
            Self::Depths(v) => v.len(),
            Self::Dists(v) => v.len(),
            Self::Scores(v) => v.len(),
        }
    }

    /// True when no values are present.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A completed query.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResponse {
    /// The admitted request (after source normalisation).
    pub request: QueryRequest,
    /// Per-node results in original id space.
    pub values: Arc<ResultValues>,
    /// Whether the response was served from the result cache.
    pub cache_hit: bool,
    /// Graph epoch the result belongs to.
    pub epoch: u64,
    /// Number of queries that shared this response's execution batch
    /// (1 for cache hits).
    pub batch_size: usize,
    /// Engine report of the run that produced the values (carries the
    /// query-latency breakdown; zeroed `seconds` for cache hits).
    pub report: RunReport,
}

impl QueryResponse {
    /// Host-side end-to-end latency of this query.
    #[must_use]
    pub fn latency(&self) -> &LatencyBreakdown {
        &self.report.latency
    }
}

/// Why the service could not take or finish a query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// The admission queue is at capacity — retry later (backpressure).
    Overloaded {
        /// The configured admission-queue capacity that was exceeded.
        capacity: usize,
    },
    /// The request names a graph id that was never registered.
    UnknownGraph(GraphId),
    /// The request's source node exceeds the graph's node count.
    SourceOutOfRange {
        /// Requested source node.
        source: NodeId,
        /// Nodes in the graph.
        nodes: usize,
    },
    /// The service is shutting down and no longer accepts or finishes work.
    ShuttingDown,
    /// The query was admitted but dropped without an answer, e.g. by a
    /// worker that panicked mid-batch.
    WorkerFailed,
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Overloaded { capacity } => {
                write!(f, "admission queue at capacity ({capacity}); retry later")
            }
            Self::UnknownGraph(id) => write!(f, "unknown graph id {id}"),
            Self::SourceOutOfRange { source, nodes } => {
                write!(
                    f,
                    "source {source} out of range for graph with {nodes} nodes"
                )
            }
            Self::ShuttingDown => f.write_str("service is shutting down"),
            Self::WorkerFailed => f.write_str("the worker holding the query failed"),
        }
    }
}

impl std::error::Error for ServiceError {}

/// Shared completion slot behind a [`Ticket`].
#[derive(Default)]
pub(crate) struct TicketState {
    pub(crate) slot: Mutex<Option<Result<QueryResponse, ServiceError>>>,
    pub(crate) ready: Condvar,
    /// Set by the first [`Self::fulfill`]; later calls are no-ops.
    fulfilled: AtomicBool,
}

impl TicketState {
    /// Deliver the query's outcome. Only the first call counts, so a
    /// delivered answer is never overwritten — not even by the drop guard
    /// of the `PendingQuery` that carried it.
    pub(crate) fn fulfill(&self, outcome: Result<QueryResponse, ServiceError>) {
        if self.fulfilled.swap(true, Ordering::AcqRel) {
            return;
        }
        // A poisoned slot means the waiting side panicked; the slot itself
        // only ever holds a whole Option, so recovery is safe.
        let mut slot = self.slot.lock().unwrap_or_else(PoisonError::into_inner);
        *slot = Some(outcome);
        self.ready.notify_all();
    }
}

/// Handle to a submitted query; blocks on [`Ticket::wait`] until a worker
/// (or the cache fast path) fulfills it.
pub struct Ticket {
    pub(crate) state: Arc<TicketState>,
}

impl Ticket {
    /// Block until the query completes. A panic on the fulfilling side
    /// surfaces as [`ServiceError::ShuttingDown`] instead of propagating.
    #[must_use = "the response carries the query result"]
    pub fn wait(self) -> Result<QueryResponse, ServiceError> {
        let mut slot = self
            .state
            .slot
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(outcome) = slot.take() {
                return outcome;
            }
            slot = match self.state.ready.wait(slot) {
                Ok(guard) => guard,
                Err(_) => return Err(ServiceError::ShuttingDown),
            };
        }
    }

    /// Block until the query completes or `timeout` passes; `None` on
    /// timeout (the query is still in flight, as with [`Ticket::try_take`]).
    #[must_use]
    // sage-lint: allow(dead-pub) — the bounded wait serve_integration::cold_adapt_and_steady_bursts_resolve_with_reference_answers and walk_serve use, so a stranded ticket fails the test instead of hanging it
    pub fn wait_timeout(&self, timeout: Duration) -> Option<Result<QueryResponse, ServiceError>> {
        let slot = self
            .state
            .slot
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let (mut slot, _) = self
            .state
            .ready
            .wait_timeout_while(slot, timeout, |slot| slot.is_none())
            .unwrap_or_else(PoisonError::into_inner);
        slot.take()
    }

    /// Non-blocking poll; `None` while the query is still in flight.
    #[must_use]
    pub fn try_take(&self) -> Option<Result<QueryResponse, ServiceError>> {
        self.state
            .slot
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take()
    }
}

/// Which walk application `Walk` queries run (a service-level policy,
/// like `pr_iters` — the wire request only carries the source).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalkAppKind {
    /// Monte-Carlo personalized PageRank: responses carry the normalized
    /// endpoint distribution of the source's walkers.
    Ppr,
    /// node2vec second-order walks: responses carry the endpoint
    /// distribution of the source's walkers.
    Node2vec,
}

impl WalkAppKind {
    /// Short name used in reports and the CLI.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Ppr => "ppr",
            Self::Node2vec => "node2vec",
        }
    }

    /// Parse a CLI/user-facing walk-app name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "ppr" => Some(Self::Ppr),
            "node2vec" | "n2v" => Some(Self::Node2vec),
            _ => None,
        }
    }
}

/// How the service runs `Walk` queries.
#[derive(Debug, Clone, Copy)]
pub struct WalkPolicy {
    /// Which walk application to run.
    pub app: WalkAppKind,
    /// Walkers launched per query source.
    pub walks_per_source: usize,
    /// Maximum walk length in steps.
    pub length: usize,
    /// PPR termination probability per step.
    pub alpha: f64,
    /// node2vec return parameter.
    pub p: f64,
    /// node2vec in-out parameter.
    pub q: f64,
    /// Deterministic RNG seed shared by every fused batch.
    pub seed: u64,
}

impl Default for WalkPolicy {
    fn default() -> Self {
        Self {
            app: WalkAppKind::Ppr,
            walks_per_source: 256,
            length: 32,
            alpha: 0.15,
            p: 1.0,
            q: 1.0,
            seed: 42,
        }
    }
}

/// Service construction knobs.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker/device count (each worker owns one simulated device).
    pub devices: usize,
    /// Configuration each pooled device is built from. Its `sanitize` runs
    /// every worker device under the race sanitizer; detected hazards
    /// surface in each response's [`RunReport::hazards`] and in
    /// [`crate::ServiceStats::hazards`].
    pub device_config: DeviceConfig,
    /// Admission-queue capacity across all workers; submissions beyond it
    /// fail with [`ServiceError::Overloaded`].
    pub queue_capacity: usize,
    /// Maximum queries fused into one execution batch for traversal apps
    /// (`Walk` queries use [`ServiceConfig::walk_batch`] instead).
    pub max_batch: usize,
    /// Maximum walk queries fused into one walk-kernel launch. Walks have
    /// no bitmask constraint — every fused query just adds walker lanes —
    /// so this defaults far above `max_batch`.
    pub walk_batch: usize,
    /// How `Walk` queries are executed.
    pub walk: WalkPolicy,
    /// Sampling threshold for self-reordering; `None` uses the runtime
    /// default of |E| edge accesses.
    pub reorder_threshold: Option<u64>,
    /// Result-cache capacity in entries (0 disables caching).
    pub cache_capacity: usize,
    /// PageRank iterations used for `pr` queries.
    pub pr_iters: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            devices: 2,
            device_config: DeviceConfig::default(),
            queue_capacity: 256,
            max_batch: 32,
            walk_batch: 4096,
            walk: WalkPolicy::default(),
            reorder_threshold: None,
            cache_capacity: 1024,
            pr_iters: 10,
        }
    }
}

impl ServiceConfig {
    /// A small configuration for tests: tiny devices, small queue.
    // sage-lint: allow(dead-pub) — serve_integration, walk_serve, prop_serve, sanitize_serve and the crate doctests build their services from it
    #[must_use]
    pub fn test_config(devices: usize) -> Self {
        Self {
            devices,
            device_config: DeviceConfig::test_tiny(),
            queue_capacity: 64,
            max_batch: 16,
            walk_batch: 4096,
            walk: WalkPolicy {
                walks_per_source: 16,
                length: 8,
                ..WalkPolicy::default()
            },
            reorder_threshold: Some(4_000),
            cache_capacity: 256,
            pr_iters: 5,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn app_kind_roundtrips_names() {
        for kind in [
            AppKind::Bfs,
            AppKind::Pr,
            AppKind::Bc,
            AppKind::Sssp,
            AppKind::Cc,
            AppKind::Walk,
        ] {
            assert_eq!(AppKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(AppKind::parse("pagerank"), Some(AppKind::Pr));
        assert_eq!(AppKind::parse("nope"), None);
    }

    #[test]
    fn walk_app_kind_roundtrips_names() {
        for kind in [WalkAppKind::Ppr, WalkAppKind::Node2vec] {
            assert_eq!(WalkAppKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(WalkAppKind::parse("n2v"), Some(WalkAppKind::Node2vec));
        assert_eq!(WalkAppKind::parse("bfs"), None);
    }

    #[test]
    fn source_independence_matches_multi_source_support() {
        assert!(AppKind::Bfs.uses_source());
        assert!(AppKind::Sssp.uses_source());
        assert!(AppKind::Bc.uses_source());
        assert!(AppKind::Walk.uses_source());
        assert!(!AppKind::Pr.uses_source());
        assert!(!AppKind::Cc.uses_source());
    }

    #[test]
    fn service_error_messages_are_actionable() {
        let e = ServiceError::Overloaded { capacity: 8 };
        assert!(e.to_string().contains("capacity (8)"));
        assert!(ServiceError::UnknownGraph(3).to_string().contains("3"));
    }

    #[test]
    fn ticket_fulfill_wakes_waiter() {
        let state = Arc::new(TicketState::default());
        let ticket = Ticket {
            state: Arc::clone(&state),
        };
        let waiter = std::thread::spawn(move || ticket.wait());
        state.fulfill(Err(ServiceError::ShuttingDown));
        assert_eq!(waiter.join().unwrap(), Err(ServiceError::ShuttingDown));
    }

    #[test]
    fn ticket_wait_timeout_gives_up_on_an_unfulfilled_ticket() {
        let ticket = Ticket {
            state: Arc::new(TicketState::default()),
        };
        assert!(ticket.wait_timeout(Duration::from_millis(20)).is_none());
        assert!(ticket.try_take().is_none(), "the query stays in flight");
    }

    #[test]
    fn ticket_wait_timeout_returns_a_fulfilled_outcome() {
        let state = Arc::new(TicketState::default());
        let ticket = Ticket {
            state: Arc::clone(&state),
        };
        let waiter = std::thread::spawn(move || {
            let outcome = ticket.wait_timeout(Duration::from_secs(60));
            (outcome, ticket.wait_timeout(Duration::ZERO))
        });
        state.fulfill(Err(ServiceError::ShuttingDown));
        let (outcome, again) = waiter.join().unwrap();
        assert_eq!(outcome, Some(Err(ServiceError::ShuttingDown)));
        assert!(again.is_none(), "the outcome is taken once");
    }
}
