//! Worker threads: each owns one simulated device and, per graph, a
//! [`SageRuntime`] holding its copy of the graph. A worker pops batches
//! from the shared queue, executes them (fusing multi-source BFS/SSSP
//! batches into a single frontier pipeline), maps results back to original
//! node ids and feeds the cache.
//!
//! Every graph has one layout, owned by its [`ReorderSession`]. At batch
//! pickup a worker first adopts every relabel the session published since
//! its last pickup, then, if its own samples on the current layout
//! saturated, decides the graph's next round and publishes it. The graph's
//! epoch therefore counts one session's rounds, whichever worker decided
//! them.

use crate::cache::{CacheKey, ResultCache};
use crate::msapp::{MsBfs, MsSssp, MAX_SOURCES};
use crate::queue::{JobQueue, PendingQuery};
use crate::types::{
    AppKind, GraphId, QueryResponse, ResultValues, ServiceConfig, ServiceError, WalkAppKind,
};
use gpu_sim::{Device, Profiler};
use sage::app::{Bc, Bfs, Cc, PageRank, Sssp};
use sage::walk::{Node2vec, Ppr, WalkApp, WalkSpec, WalkWeights};
use sage::{LatencyBreakdown, ReorderSession, RunReport, SageRuntime};
use sage_graph::{Csr, NodeId};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock};
use std::time::Instant;

/// A registered graph, shared by the service front end and every worker.
pub(crate) struct GraphEntry {
    pub(crate) csr: Csr,
    /// The graph's one adaptation session: its layout and the decisions
    /// that produced it. Workers adopt and decide under this lock.
    pub(crate) session: Mutex<ReorderSession>,
    /// The session's epoch (its committed plus rolled-back rounds),
    /// published after every round so admission reads it without taking
    /// the session lock. The cache keys results by it.
    pub(crate) epoch: AtomicU64,
}

impl GraphEntry {
    pub(crate) fn new(csr: Csr) -> Self {
        Self {
            session: Mutex::new(ReorderSession::new(csr.num_nodes())),
            csr,
            epoch: AtomicU64::new(0),
        }
    }
}

pub(crate) type Registry = Arc<RwLock<Vec<Arc<GraphEntry>>>>;

/// Shared slots a worker publishes its monitoring snapshots into after each
/// batch; read by `SageService::stats`.
pub(crate) struct StatsSlots {
    /// Device profiler snapshot.
    pub(crate) profile: Arc<Mutex<Profiler>>,
    /// Cumulative sanitizer hazard count of the worker's device.
    pub(crate) hazards: Arc<AtomicU64>,
}

/// Lazily constructed single-source apps, reused across batches so their
/// device arrays are recycled. Each reads the layout's original ids from
/// the graph at every run, so a relabel never leaves one stale.
#[derive(Default)]
struct AppSet {
    bfs: Option<Bfs>,
    sssp: Option<Sssp>,
    pr: Option<PageRank>,
    bc: Option<Bc>,
    cc: Option<Cc>,
}

/// One worker's copy of a graph, in the layout of its last pickup.
pub(crate) struct WorkerGraph {
    rt: SageRuntime,
    apps: AppSet,
}

impl WorkerGraph {
    pub(crate) fn new(rt: SageRuntime) -> Self {
        Self {
            rt,
            apps: AppSet::default(),
        }
    }
}

/// One serving thread.
pub(crate) struct Worker {
    dev: Device,
    cfg: ServiceConfig,
    graphs: HashMap<GraphId, WorkerGraph>,
    queue: Arc<JobQueue>,
    cache: Arc<ResultCache>,
    registry: Registry,
    slots: StatsSlots,
    /// Workers still running, this one included.
    live: Arc<AtomicUsize>,
}

impl Worker {
    pub(crate) fn new(
        dev: Device,
        cfg: ServiceConfig,
        queue: Arc<JobQueue>,
        cache: Arc<ResultCache>,
        registry: Registry,
        slots: StatsSlots,
        live: Arc<AtomicUsize>,
    ) -> Self {
        Self {
            dev,
            cfg,
            graphs: HashMap::new(),
            queue,
            cache,
            registry,
            slots,
            live,
        }
    }

    /// Serve batches until the queue closes and drains.
    pub(crate) fn run(mut self) {
        let queue = Arc::clone(&self.queue);
        while let Some(batch) = queue.pop_batch() {
            self.process_batch(batch);
            // A sibling worker panicking mid-publish must not take this
            // worker's telemetry slot down with it: recover the poisoned
            // guard and overwrite with a fresh, fully consistent snapshot.
            *self
                .slots
                .profile
                .lock()
                .unwrap_or_else(PoisonError::into_inner) = self.dev.profiler_snapshot();
            self.slots
                .hazards
                .store(self.dev.hazard_count() as u64, Ordering::Release);
        }
    }

    fn process_batch(&mut self, batch: Vec<PendingQuery>) {
        let pickup = Instant::now();
        let gid = batch[0].request.graph;
        let app = batch[0].request.app;
        let Some(entry) = self
            .registry
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(gid as usize)
            .cloned()
        else {
            for job in batch {
                job.ticket.fulfill(Err(ServiceError::UnknownGraph(gid)));
            }
            return;
        };

        let state = self.graphs.entry(gid).or_insert_with(|| {
            WorkerGraph::new(match self.cfg.reorder_threshold {
                Some(t) => SageRuntime::with_threshold(&mut self.dev, entry.csr.clone(), t),
                None => SageRuntime::new(&mut self.dev, entry.csr.clone()),
            })
        });

        // adapt at batch pickup, *before* reading the epoch: this batch runs
        // on the layout of the epoch it is keyed by, and a round decided here
        // is published ahead of this batch's cache keys, so the epoch a
        // client observes in a response stays valid until some worker picks
        // up new work — back-to-back query/re-query sequences hit the cache
        // deterministically instead of racing a background epoch bump
        let epoch = {
            let mut session = entry.session.lock().unwrap_or_else(PoisonError::into_inner);
            if state.rt.adapt_shared(&mut self.dev, &mut session) {
                entry.epoch.store(session.epoch(), Ordering::Release);
                self.cache.sweep_stale(gid, session.epoch());
            }
            state.rt.epoch()
        };

        // a submission-time miss may have been filled while the query sat in
        // the queue — re-check before paying for execution
        let mut misses: Vec<PendingQuery> = Vec::with_capacity(batch.len());
        for job in batch {
            let key = CacheKey {
                graph: gid,
                app,
                source: job.request.source,
                epoch,
            };
            match self.cache.get(&key) {
                Some(values) => {
                    let latency = LatencyBreakdown {
                        queue_seconds: (pickup - job.enqueued_at).as_secs_f64(),
                        ..LatencyBreakdown::default()
                    };
                    job.ticket.fulfill(Ok(QueryResponse {
                        request: job.request,
                        values,
                        cache_hit: true,
                        epoch,
                        batch_size: 1,
                        report: cache_hit_report(app, latency),
                    }));
                }
                None => misses.push(job),
            }
        }
        if misses.is_empty() {
            return;
        }

        // unique sources, first-seen order; slot map per query
        let mut sources: Vec<NodeId> = Vec::new();
        let mut slot_of: HashMap<NodeId, usize> = HashMap::new();
        for job in &misses {
            slot_of.entry(job.request.source).or_insert_with(|| {
                sources.push(job.request.source);
                sources.len() - 1
            });
        }

        let exec_start = Instant::now();
        let (values_by_slot, mut report) = execute(&mut self.dev, state, &self.cfg, app, &sources);
        let exec_seconds = exec_start.elapsed().as_secs_f64();

        let remap_start = Instant::now();
        for (slot, values) in values_by_slot.iter().enumerate() {
            self.cache.insert(
                CacheKey {
                    graph: gid,
                    app,
                    source: sources[slot],
                    epoch,
                },
                values,
            );
        }
        let remap_seconds = remap_start.elapsed().as_secs_f64();

        report.latency.exec_seconds = exec_seconds;
        report.latency.remap_seconds = remap_seconds;
        let batch_size = misses.len();
        let batch_seconds = (exec_start - pickup).as_secs_f64();
        for job in misses {
            let mut per_query = report.clone();
            per_query.latency.queue_seconds = (pickup - job.enqueued_at).as_secs_f64();
            per_query.latency.batch_seconds = batch_seconds;
            let slot = slot_of[&job.request.source];
            job.ticket.fulfill(Ok(QueryResponse {
                request: job.request,
                values: Arc::clone(&values_by_slot[slot]),
                cache_hit: false,
                epoch,
                batch_size,
                report: per_query,
            }));
        }
    }
}

/// The last worker to exit, normally or by unwinding from a panic, closes
/// the queue and fails every query still waiting with
/// [`ServiceError::WorkerFailed`]: no ticket waits on a service that has
/// nobody left to serve it, and `submit` answers
/// [`ServiceError::ShuttingDown`].
impl Drop for Worker {
    fn drop(&mut self) {
        if self.live.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.queue.close();
            // each dropped query fails its ticket
            drop(self.queue.drain());
        }
    }
}

/// Run `app` for the unique `sources` (original ids) on this worker's
/// runtime. Returns one result per source (source-independent apps receive a
/// single `sources == [0]` slot) plus the merged engine report.
pub(crate) fn execute(
    dev: &mut Device,
    state: &mut WorkerGraph,
    cfg: &ServiceConfig,
    app: AppKind,
    sources: &[NodeId],
) -> (Vec<Arc<ResultValues>>, RunReport) {
    let mut values: Vec<Arc<ResultValues>> = Vec::with_capacity(sources.len());
    let mut report: Option<RunReport> = None;
    let merge = |r: RunReport, report: &mut Option<RunReport>| match report {
        Some(agg) => agg.accumulate(&r),
        None => *report = Some(r),
    };
    match app {
        AppKind::Bfs if sources.len() > 1 => {
            for chunk in sources.chunks(MAX_SOURCES) {
                let cur: Vec<NodeId> = chunk.iter().map(|&s| state.rt.current_id(s)).collect();
                let mut ms = MsBfs::new(dev, &cur);
                merge(state.rt.run(dev, &mut ms, chunk[0]), &mut report);
                for j in 0..chunk.len() {
                    values.push(Arc::new(ResultValues::Depths(
                        state.rt.to_original_order(&ms.distances_for(j)),
                    )));
                }
            }
        }
        AppKind::Bfs => {
            let bfs = state.apps.bfs.get_or_insert_with(|| Bfs::new(dev));
            merge(state.rt.run(dev, bfs, sources[0]), &mut report);
            values.push(Arc::new(ResultValues::Depths(
                state.rt.to_original_order(bfs.distances()),
            )));
        }
        AppKind::Sssp if sources.len() > 1 => {
            for chunk in sources.chunks(MAX_SOURCES) {
                let cur: Vec<NodeId> = chunk.iter().map(|&s| state.rt.current_id(s)).collect();
                let mut ms = MsSssp::new(dev, &cur);
                merge(state.rt.run(dev, &mut ms, chunk[0]), &mut report);
                for j in 0..chunk.len() {
                    values.push(Arc::new(ResultValues::Dists(
                        state.rt.to_original_order(&ms.distances_for(j)),
                    )));
                }
            }
        }
        AppKind::Sssp => {
            let sssp = state.apps.sssp.get_or_insert_with(|| Sssp::new(dev));
            merge(state.rt.run(dev, sssp, sources[0]), &mut report);
            values.push(Arc::new(ResultValues::Dists(
                state.rt.to_original_order(sssp.distances()),
            )));
        }
        AppKind::Bc => {
            // no bitmask trick for BC's forward/backward phases: one run per
            // distinct source, still sharing the batch's queue/remap costs
            for &s in sources {
                let bc = state.apps.bc.get_or_insert_with(|| Bc::new(dev));
                merge(state.rt.run(dev, bc, s), &mut report);
                values.push(Arc::new(ResultValues::Scores(
                    state.rt.to_original_order(bc.scores()),
                )));
            }
        }
        AppKind::Pr => {
            let iters = cfg.pr_iters;
            let pr = state
                .apps
                .pr
                .get_or_insert_with(|| PageRank::new(dev, iters, 1e-6));
            merge(state.rt.run(dev, pr, 0), &mut report);
            values.push(Arc::new(ResultValues::Scores(
                state.rt.to_original_order(pr.ranks()),
            )));
        }
        AppKind::Cc => {
            let cc = state.apps.cc.get_or_insert_with(|| Cc::new(dev));
            merge(state.rt.run(dev, cc, 0), &mut report);
            // labels are original ids already: each node's minimum
            // original reacher
            values.push(Arc::new(ResultValues::Dists(
                state.rt.to_original_order(cc.labels()),
            )));
        }
        AppKind::Walk => {
            // the fusion win: every distinct source in the batch becomes a
            // block of walker lanes in ONE walk-kernel launch — no
            // 64-source bitmask cap applies. Served walks take every
            // out-edge with equal probability.
            let policy = &cfg.walk;
            let spec = WalkSpec {
                walks_per_source: policy.walks_per_source.max(1),
                max_length: policy.length.max(1),
                seed: policy.seed,
                weights: WalkWeights::Uniform,
            };
            let walk_app: Box<dyn WalkApp> = match policy.app {
                WalkAppKind::Ppr => Box::new(Ppr::new(policy.alpha)),
                WalkAppKind::Node2vec => Box::new(Node2vec::new(policy.p, policy.q)),
            };
            let out = state.rt.run_walk(dev, walk_app.as_ref(), &spec, sources);
            for slot in 0..sources.len() {
                // terminal distribution (already in original-id space)
                values.push(Arc::new(ResultValues::Scores(out.endpoint_scores(slot))));
            }
            merge(out.report, &mut report);
        }
    }
    (
        values,
        report.expect("every app kind executes at least one run"),
    )
}

pub(crate) fn cache_hit_report(app: AppKind, latency: LatencyBreakdown) -> RunReport {
    RunReport {
        app: app.name().to_string(),
        engine: "serve-cache".to_string(),
        iterations: 0,
        edges: 0,
        edges_examined: 0,
        seconds: 0.0,
        overhead_seconds: 0.0,
        direction_trace: String::new(),
        converged: true,
        latency,
        hazards: gpu_sim::HazardReport::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_hit_report_is_zeroed_but_keeps_latency() {
        let lat = LatencyBreakdown {
            queue_seconds: 0.25,
            ..LatencyBreakdown::default()
        };
        let r = cache_hit_report(AppKind::Pr, lat);
        assert_eq!(r.edges, 0);
        assert_eq!(r.seconds, 0.0);
        assert!((r.latency.queue_seconds - 0.25).abs() < 1e-12);
    }
}
