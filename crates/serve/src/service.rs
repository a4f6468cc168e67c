//! The service front end: graph registry, admission control, cache fast
//! path, worker lifecycle.

use crate::cache::{CacheKey, ResultCache};
use crate::queue::{JobQueue, PendingQuery, Refusal};
use crate::types::{
    GraphId, QueryRequest, QueryResponse, ServiceConfig, ServiceError, Ticket, TicketState,
};
use crate::worker::{cache_hit_report, GraphEntry, Registry, StatsSlots, Worker};
use gpu_sim::{Device, Profiler, ReplayStats};
use sage::LatencyBreakdown;
use sage_graph::Csr;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock};
use std::thread::JoinHandle;
use std::time::Instant;

/// Aggregate service counters for monitoring.
#[derive(Debug, Clone)]
pub struct ServiceStats {
    /// Queries admitted and waiting for a worker.
    pub queue_len: usize,
    /// Result-cache hits so far.
    pub cache_hits: u64,
    /// Result-cache misses so far.
    pub cache_misses: u64,
    /// Result-cache entries currently held.
    pub cache_entries: usize,
    /// Bytes of values the result cache holds, in the narrow form it
    /// stores them in (one byte per node for most BFS depths).
    pub cache_bytes: usize,
    /// Hit rate over all lookups (0.0 when none yet).
    pub cache_hit_rate: f64,
    /// Per-device profiler snapshot, as of each worker's last batch.
    pub device_profiles: Vec<Profiler>,
    /// Total race-sanitizer hazards across all devices, as of each worker's
    /// last batch (always 0 when sanitizing is disabled).
    pub hazards: u64,
    /// Per-device recorded-route telemetry. Service devices always run the
    /// direct route (one host thread each), so every entry reads zero; the
    /// field stays for readers of the earlier per-device counters.
    pub device_replay: Vec<ReplayStats>,
}

/// A running traversal-query service over a pool of simulated devices.
///
/// ```
/// use sage_serve::{AppKind, QueryRequest, SageService, ServiceConfig};
///
/// let service = SageService::start(ServiceConfig::test_config(2));
/// let csr = sage_graph::gen::uniform_graph(300, 2400, 11);
/// let g = service.register_graph("demo", csr);
/// let resp = service
///     .query(QueryRequest { app: AppKind::Bfs, graph: g, source: 0 })
///     .unwrap();
/// assert!(!resp.values.is_empty());
/// service.shutdown();
/// ```
pub struct SageService {
    cfg: ServiceConfig,
    registry: Registry,
    queue: Arc<JobQueue>,
    cache: Arc<ResultCache>,
    workers: Vec<JoinHandle<()>>,
    profiles: Vec<Arc<Mutex<Profiler>>>,
    hazard_slots: Vec<Arc<AtomicU64>>,
}

impl SageService {
    /// Build the device pool and spawn one worker thread per device.
    ///
    /// # Panics
    /// Panics when `cfg.devices == 0`.
    #[must_use]
    pub fn start(cfg: ServiceConfig) -> Self {
        assert!(cfg.devices > 0, "the service needs at least one device");
        let registry: Registry = Arc::new(RwLock::new(Vec::new()));
        let queue = Arc::new(JobQueue::new(cfg.queue_capacity, cfg.max_batch));
        let cache = Arc::new(ResultCache::new(cfg.cache_capacity));
        let mut profiles = Vec::with_capacity(cfg.devices);
        let mut hazard_slots = Vec::with_capacity(cfg.devices);
        let mut workers = Vec::with_capacity(cfg.devices);
        let live = Arc::new(AtomicUsize::new(cfg.devices));
        for id in 0..cfg.devices {
            let dev = Device::new(cfg.device_config.clone());
            let slot = Arc::new(Mutex::new(Profiler::default()));
            profiles.push(Arc::clone(&slot));
            let hazard_slot = Arc::new(AtomicU64::new(0));
            hazard_slots.push(Arc::clone(&hazard_slot));
            let worker = Worker::new(
                dev,
                cfg.clone(),
                Arc::clone(&queue),
                Arc::clone(&cache),
                Arc::clone(&registry),
                StatsSlots {
                    profile: slot,
                    hazards: hazard_slot,
                },
                Arc::clone(&live),
            );
            workers.push(
                std::thread::Builder::new()
                    .name(format!("sage-serve-{id}"))
                    .spawn(move || worker.run())
                    .expect("worker thread spawn"),
            );
        }
        Self {
            cfg,
            registry,
            queue,
            cache,
            workers,
            profiles,
            hazard_slots,
        }
    }

    /// Register a graph; queries reference it by the returned id. The graph
    /// gets one adaptation session; every worker lazily builds its own copy
    /// of the graph from this CSR and keeps it in the session's layout.
    /// `name` is a label at the call site only: the service keeps no copy
    /// of it.
    pub fn register_graph(&self, name: &str, csr: Csr) -> GraphId {
        let _ = name;
        let mut registry = self
            .registry
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        let id = registry.len() as GraphId;
        registry.push(Arc::new(GraphEntry::new(csr)));
        id
    }

    /// Current reorder epoch of a registered graph: the committed plus
    /// rolled-back rounds of its one adaptation session.
    #[must_use]
    pub fn graph_epoch(&self, graph: GraphId) -> Option<u64> {
        self.registry
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(graph as usize)
            .map(|e| e.epoch.load(Ordering::Acquire))
    }

    /// Validate and admit a query; returns a [`Ticket`] to wait on.
    ///
    /// Source-independent apps (`pr`, `cc`) have their source normalised to
    /// 0 so all their requests share one cache slot. A cached result is
    /// fulfilled synchronously without touching the queue.
    ///
    /// # Errors
    /// [`ServiceError::UnknownGraph`] / [`ServiceError::SourceOutOfRange`]
    /// for invalid requests, [`ServiceError::Overloaded`] when the admission
    /// queue is at capacity, [`ServiceError::ShuttingDown`] once the queue
    /// has closed: at shutdown, after a worker panic poisoned it, or once
    /// every worker has died.
    pub fn submit(&self, mut request: QueryRequest) -> Result<Ticket, ServiceError> {
        let admitted_at = Instant::now();
        let (nodes, epoch) = {
            let registry = self.registry.read().unwrap_or_else(PoisonError::into_inner);
            let entry = registry
                .get(request.graph as usize)
                .ok_or(ServiceError::UnknownGraph(request.graph))?;
            (entry.csr.num_nodes(), entry.epoch.load(Ordering::Acquire))
        };
        if !request.app.uses_source() {
            request.source = 0;
        } else if (request.source as usize) >= nodes {
            return Err(ServiceError::SourceOutOfRange {
                source: request.source,
                nodes,
            });
        }

        let state = Arc::new(TicketState::default());
        let key = CacheKey {
            graph: request.graph,
            app: request.app,
            source: request.source,
            epoch,
        };
        if let Some(values) = self.cache.get(&key) {
            // Even a synchronous hit took real time (registry lock, cache
            // probe, value clone) — report it as queue latency so steady
            // phase percentiles reflect the measured sub-microsecond cost
            // instead of a flat zero.
            let latency = LatencyBreakdown {
                queue_seconds: admitted_at.elapsed().as_secs_f64(),
                ..LatencyBreakdown::default()
            };
            state.fulfill(Ok(QueryResponse {
                request,
                values,
                cache_hit: true,
                epoch,
                batch_size: 1,
                report: cache_hit_report(request.app, latency),
            }));
            return Ok(Ticket { state });
        }

        let job = PendingQuery {
            request,
            ticket: Arc::clone(&state),
            enqueued_at: Instant::now(),
        };
        self.queue.push(job).map_err(|(_, refusal)| match refusal {
            Refusal::Full => ServiceError::Overloaded {
                capacity: self.cfg.queue_capacity,
            },
            Refusal::Closed => ServiceError::ShuttingDown,
        })?;
        Ok(Ticket { state })
    }

    /// Submit and block for the response.
    ///
    /// # Errors
    /// Same as [`SageService::submit`].
    // sage-lint: allow(dead-pub) — the blocking submit that serve_integration::post_reorder_cached_results_match_uncached_recomputation and walk_serve drive the service with
    pub fn query(&self, request: QueryRequest) -> Result<QueryResponse, ServiceError> {
        self.submit(request)?.wait()
    }

    /// The configuration the service was started with.
    #[must_use]
    pub fn config(&self) -> &ServiceConfig {
        &self.cfg
    }

    /// Monitoring snapshot: queue depth, cache counters, device profilers.
    #[must_use]
    pub fn stats(&self) -> ServiceStats {
        let (hits, misses) = self.cache.counters();
        ServiceStats {
            queue_len: self.queue.len(),
            cache_hits: hits,
            cache_misses: misses,
            cache_entries: self.cache.len(),
            cache_bytes: self.cache.bytes(),
            cache_hit_rate: self.cache.hit_rate(),
            device_profiles: self
                .profiles
                .iter()
                // sage-lint: allow(lock-poison) — poison here means a worker died publishing telemetry; a loud panic beats silently serving stale stats
                .map(|slot| slot.lock().unwrap().clone())
                .collect(),
            hazards: self
                .hazard_slots
                .iter()
                .map(|slot| slot.load(Ordering::Acquire))
                .sum(),
            device_replay: vec![ReplayStats::default(); self.profiles.len()],
        }
    }

    /// Finish queued work, stop the workers, and fail anything left over
    /// with [`ServiceError::ShuttingDown`].
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        self.queue.close();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        // workers drain the queue before exiting, so this is normally empty;
        // it only fires if a worker thread panicked mid-serve
        for job in self.queue.drain() {
            job.ticket.fulfill(Err(ServiceError::ShuttingDown));
        }
    }
}

impl Drop for SageService {
    fn drop(&mut self) {
        if !self.workers.is_empty() {
            self.shutdown_inner();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::AppKind;
    use sage::reference;
    use sage_graph::gen::uniform_graph;

    fn service(devices: usize) -> (SageService, GraphId, Csr) {
        let service = SageService::start(ServiceConfig::test_config(devices));
        let csr = uniform_graph(400, 3200, 33);
        let g = service.register_graph("test", csr.clone());
        (service, g, csr)
    }

    #[test]
    fn bfs_query_matches_reference() {
        let (service, g, csr) = service(1);
        let resp = service
            .query(QueryRequest {
                app: AppKind::Bfs,
                graph: g,
                source: 7,
            })
            .unwrap();
        match &*resp.values {
            crate::types::ResultValues::Depths(d) => {
                assert_eq!(*d, reference::bfs_levels(&csr, 7));
            }
            other => panic!("expected depths, got {other:?}"),
        }
        assert!(!resp.cache_hit);
        assert!(resp.latency().total_seconds() > 0.0);
        service.shutdown();
    }

    #[test]
    fn repeat_query_hits_cache_with_identical_values() {
        let (service, g, _csr) = service(1);
        let req = QueryRequest {
            app: AppKind::Sssp,
            graph: g,
            source: 3,
        };
        let fresh = service.query(req).unwrap();
        let cached = service.query(req).unwrap();
        assert!(!fresh.cache_hit);
        assert!(cached.cache_hit);
        assert_eq!(*fresh.values, *cached.values);
        assert!(service.stats().cache_hits >= 1);
        service.shutdown();
    }

    #[test]
    fn cache_bytes_count_the_stored_form() {
        let mut cfg = ServiceConfig::test_config(1);
        cfg.reorder_threshold = Some(u64::MAX); // no round sweeps the cache
        let service = SageService::start(cfg);
        let g = service.register_graph("test", uniform_graph(400, 3200, 33));
        let query = |app, source| {
            service
                .query(QueryRequest {
                    app,
                    graph: g,
                    source,
                })
                .unwrap()
        };
        for source in [1, 2, 3] {
            assert!(!query(AppKind::Bfs, source).cache_hit);
        }
        assert_eq!(
            service.stats().cache_bytes,
            3 * 400,
            "one byte per BFS depth"
        );
        let walk = query(AppKind::Walk, 5);
        let crate::types::ResultValues::Scores(ends) = &*walk.values else {
            panic!("walks return scores");
        };
        let endpoints = ends.iter().filter(|s| s.to_bits() != 0).count();
        assert!(endpoints <= service.config().walk.walks_per_source);
        assert_eq!(
            service.stats().cache_bytes,
            3 * 400 + 8 * endpoints,
            "one (index, bits) pair per walk endpoint"
        );
        service.shutdown();
    }

    #[test]
    fn source_independent_apps_share_one_cache_slot() {
        let (service, g, _csr) = service(1);
        let a = service
            .query(QueryRequest {
                app: AppKind::Pr,
                graph: g,
                source: 5,
            })
            .unwrap();
        let b = service
            .query(QueryRequest {
                app: AppKind::Pr,
                graph: g,
                source: 9,
            })
            .unwrap();
        assert_eq!(a.request.source, 0, "source must be normalised");
        assert!(b.cache_hit, "distinct sources still share the pr slot");
        service.shutdown();
    }

    #[test]
    fn invalid_requests_are_rejected_up_front() {
        let (service, g, csr) = service(1);
        assert_eq!(
            service.query(QueryRequest {
                app: AppKind::Bfs,
                graph: g + 1,
                source: 0,
            }),
            Err(ServiceError::UnknownGraph(g + 1))
        );
        let n = csr.num_nodes();
        assert_eq!(
            service.query(QueryRequest {
                app: AppKind::Bfs,
                graph: g,
                source: n as u32,
            }),
            Err(ServiceError::SourceOutOfRange {
                source: n as u32,
                nodes: n,
            })
        );
        service.shutdown();
    }

    #[test]
    fn concurrent_mixed_queries_on_two_devices_all_complete() {
        let (service, g, csr) = service(2);
        let service = Arc::new(service);
        let mut tickets = Vec::new();
        for i in 0..24u32 {
            let app = match i % 4 {
                0 => AppKind::Bfs,
                1 => AppKind::Pr,
                2 => AppKind::Sssp,
                _ => AppKind::Cc,
            };
            tickets.push(
                service
                    .submit(QueryRequest {
                        app,
                        graph: g,
                        source: i % csr.num_nodes() as u32,
                    })
                    .unwrap(),
            );
        }
        for t in tickets {
            let resp = t.wait().unwrap();
            assert_eq!(resp.values.len(), csr.num_nodes());
        }
        let stats = Arc::try_unwrap(service)
            .map(|s| {
                let st = s.stats();
                s.shutdown();
                st
            })
            .unwrap_or_else(|_| panic!("ticket holders dropped"));
        assert_eq!(stats.device_profiles.len(), 2);
        assert!(stats.queue_len == 0);
    }

    #[test]
    fn multi_source_batch_agrees_with_sequential_queries() {
        let (service, g, csr) = service(1);
        // sequential answers first (each also warms the cache — clear by
        // using distinct sources for the batched round)
        let expect: Vec<Vec<i32>> = (20..26).map(|s| reference::bfs_levels(&csr, s)).collect();
        let tickets: Vec<Ticket> = (20..26)
            .map(|s| {
                service
                    .submit(QueryRequest {
                        app: AppKind::Bfs,
                        graph: g,
                        source: s,
                    })
                    .unwrap()
            })
            .collect();
        for (t, want) in tickets.into_iter().zip(&expect) {
            let resp = t.wait().unwrap();
            match &*resp.values {
                crate::types::ResultValues::Depths(d) => assert_eq!(d, want),
                other => panic!("expected depths, got {other:?}"),
            }
        }
        service.shutdown();
    }

    #[test]
    fn workers_share_one_layout_equal_to_a_lone_runtime_at_each_epoch() {
        use crate::types::ResultValues;
        use crate::worker::{execute, WorkerGraph};
        use sage::SageRuntime;
        use sage_graph::gen::{social_graph, SocialParams};

        let cfg = ServiceConfig {
            reorder_threshold: Some(1000),
            cache_capacity: 0,
            ..ServiceConfig::test_config(2)
        };
        let service = SageService::start(cfg.clone());
        let csr = social_graph(&SocialParams {
            nodes: 600,
            avg_deg: 12.0,
            p_intra: 0.8,
            ..SocialParams::default()
        });
        let g = service.register_graph("social", csr.clone());
        let entry = Arc::clone(
            &service
                .registry
                .read()
                .unwrap_or_else(PoisonError::into_inner)[g as usize],
        );
        let apps = [AppKind::Bfs, AppKind::Sssp, AppKind::Bfs, AppKind::Walk];
        let (mut commits, mut rollbacks, mut rounds, mut epoch) = (0, 0, 0, 0);
        // one query at a time: rounds are decided only at pickup, so after
        // each response the session is still in the layout that served it
        for i in 0..64u32 {
            let app = apps[i as usize % apps.len()];
            let source = i * 37 % 600;
            let resp = service
                .query(QueryRequest {
                    app,
                    graph: g,
                    source,
                })
                .unwrap();
            let mut session = entry
                .session
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .clone();
            assert_eq!(resp.epoch, session.epoch(), "query {i}");
            match session.epoch() - epoch {
                0 => assert_eq!(session.rounds(), rounds, "query {i}"),
                1 if session.rounds() > rounds => commits += 1,
                1 => rollbacks += 1,
                moved => panic!("query {i}: one pickup moved the epoch by {moved}"),
            }
            (epoch, rounds) = (session.epoch(), session.rounds());
            // a lone runtime in this epoch's layout: it adopts the session
            // and never samples enough to decide a round of its own
            let mut dev = Device::new(cfg.device_config.clone());
            let mut lone = SageRuntime::with_threshold(&mut dev, csr.clone(), u64::MAX);
            assert!(!lone.adapt_shared(&mut dev, &mut session));
            assert_eq!(lone.session().permutation(), session.permutation());
            let (values, _) = execute(&mut dev, &mut WorkerGraph::new(lone), &cfg, app, &[source]);
            let same = match (&*resp.values, &*values[0]) {
                (ResultValues::Scores(a), ResultValues::Scores(b)) => a
                    .iter()
                    .map(|x| x.to_bits())
                    .eq(b.iter().map(|x| x.to_bits())),
                (a, b) => a == b,
            };
            assert!(same, "query {i}: {app} from {source} at epoch {epoch}");
        }
        assert!(commits > 0, "threshold 1000 must commit rounds");
        assert_eq!(service.graph_epoch(g), Some(commits + rollbacks));
        let profiles = service.stats().device_profiles;
        assert!(
            profiles.iter().all(|p| p.kernels > 0),
            "both workers must serve"
        );
        service.shutdown();
    }

    #[test]
    fn shutdown_is_idempotent_and_drop_safe() {
        let (service, g, _csr) = service(1);
        let _ = service.query(QueryRequest {
            app: AppKind::Cc,
            graph: g,
            source: 0,
        });
        drop(service); // Drop path must also join cleanly
    }
}
