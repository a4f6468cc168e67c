//! `serve_bench` — closed-loop serving benchmark for `sage-serve`.
//!
//! Drives a ≥2-device service with a burst of in-flight mixed bfs/pr
//! queries (cold phase), then replays the same sources (warm phase) to
//! measure the epoch-keyed cache, and reports p50/p95/p99 end-to-end
//! latency plus aggregate traversal GTEPS. Results are printed and written
//! to `BENCH_serve.json` for the perf trajectory.
//!
//! Knobs (environment):
//! - `SAGE_SERVE_DEVICES`  worker/device count (default 2)
//! - `SAGE_SERVE_QUERIES`  cold-phase burst size (default 96, min 64)
//! - `SAGE_SCALE`          graph scale factor (default 1.0)

use sage_bench::jsonv::write_validated;
use sage_serve::{AppKind, QueryRequest, QueryResponse, SageService, ServiceConfig, Ticket};
use std::time::Instant;

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn env_f64(name: &str, default: f64) -> f64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// `q`-th percentile (0..=1) of pre-sorted samples.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

struct PhaseStats {
    label: &'static str,
    queries: usize,
    cache_hits: usize,
    wall_seconds: f64,
    p50_ms: f64,
    p95_ms: f64,
    p99_ms: f64,
    mean_ms: f64,
    edges: u64,
    sim_seconds: f64,
    max_batch_seen: usize,
    truncated: usize,
}

impl PhaseStats {
    fn gteps(&self) -> Option<f64> {
        // an all-cache-hit phase traverses nothing: no throughput to report
        if self.edges == 0 || self.sim_seconds <= 0.0 {
            None
        } else {
            Some(self.edges as f64 / self.sim_seconds / 1e9)
        }
    }

    fn qps(&self) -> f64 {
        if self.wall_seconds <= 0.0 {
            0.0
        } else {
            self.queries as f64 / self.wall_seconds
        }
    }

    fn hit_rate(&self) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.queries as f64
        }
    }

    fn json(&self) -> String {
        // sub-ms latencies need the full {:.6} precision: at {:.3} a 200 ns
        // cache-hit percentile rounds to a flat 0.000. An all-cache-hit
        // phase traverses nothing: the gteps key is omitted entirely (not
        // null) so key presence means "throughput was measured".
        let gteps = self
            .gteps()
            .map_or_else(String::new, |g| format!("\"gteps\": {g:.4}, "));
        format!(
            "{{\"label\": \"{}\", \"queries\": {}, \"cache_hits\": {}, \
             \"cache_hit_rate\": {:.4}, \"wall_seconds\": {:.6}, \
             \"qps\": {:.1}, \"p50_ms\": {:.6}, \"p95_ms\": {:.6}, \
             \"p99_ms\": {:.6}, \"mean_ms\": {:.6}, \"edges\": {}, \
             \"sim_seconds\": {:.6}, {gteps}\"max_batch\": {}, \
             \"truncated\": {}}}",
            self.label,
            self.queries,
            self.cache_hits,
            self.hit_rate(),
            self.wall_seconds,
            self.qps(),
            self.p50_ms,
            self.p95_ms,
            self.p99_ms,
            self.mean_ms,
            self.edges,
            self.sim_seconds,
            self.max_batch_seen,
            self.truncated,
        )
    }
}

fn run_phase(label: &'static str, service: &SageService, requests: &[QueryRequest]) -> PhaseStats {
    let start = Instant::now();
    // submit the whole burst before collecting: every query is in flight
    let tickets: Vec<Ticket> = requests
        .iter()
        .map(|&req| service.submit(req).expect("queue sized for the burst"))
        .collect();
    let responses: Vec<QueryResponse> = tickets
        .into_iter()
        .map(|t| t.wait().expect("serving must not fail"))
        .collect();
    let wall_seconds = start.elapsed().as_secs_f64();

    let mut latencies_ms: Vec<f64> = responses
        .iter()
        .map(|r| r.latency().total_seconds() * 1e3)
        .collect();
    latencies_ms.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let mean_ms = latencies_ms.iter().sum::<f64>() / latencies_ms.len().max(1) as f64;
    // a batch's engine report is shared by its members; count each batch once
    let mut edges = 0u64;
    let mut sim_seconds = 0.0f64;
    for r in &responses {
        if !r.cache_hit {
            edges += r.report.edges / r.batch_size as u64;
            sim_seconds += r.report.seconds / r.batch_size as f64;
        }
    }
    PhaseStats {
        label,
        queries: responses.len(),
        cache_hits: responses.iter().filter(|r| r.cache_hit).count(),
        wall_seconds,
        p50_ms: percentile(&latencies_ms, 0.50),
        p95_ms: percentile(&latencies_ms, 0.95),
        p99_ms: percentile(&latencies_ms, 0.99),
        mean_ms,
        edges,
        sim_seconds,
        max_batch_seen: responses.iter().map(|r| r.batch_size).max().unwrap_or(0),
        truncated: responses.iter().filter(|r| !r.report.converged).count(),
    }
}

fn print_phase(p: &PhaseStats) {
    println!(
        "{:<6} {:>4} queries | p50 {:>10.4} ms  p95 {:>10.4} ms  p99 {:>10.4} ms | \
         {:>7.1} q/s | {} | hit rate {:>5.1}% | max batch {}{}",
        p.label,
        p.queries,
        p.p50_ms,
        p.p95_ms,
        p.p99_ms,
        p.qps(),
        p.gteps()
            .map_or_else(|| "-     GTEPS".to_string(), |g| format!("{g:.3} GTEPS")),
        p.hit_rate() * 100.0,
        p.max_batch_seen,
        if p.truncated > 0 {
            format!(" | {} truncated", p.truncated)
        } else {
            String::new()
        },
    );
}

fn main() {
    let devices = env_usize("SAGE_SERVE_DEVICES", 2).max(2);
    let queries = env_usize("SAGE_SERVE_QUERIES", 96).max(64);
    let scale = env_f64("SAGE_SCALE", 1.0);
    let nodes = ((4_000.0 * scale) as usize).max(256);
    let edges = nodes * 16;

    let cfg = ServiceConfig {
        devices,
        queue_capacity: queries * 2,
        ..ServiceConfig::default()
    };
    let pool_sms = cfg.device_config.num_sms;
    let service = SageService::start(cfg);
    let csr = sage_graph::gen::uniform_graph(nodes, edges, 42);
    eprintln!(
        "serve_bench: {} devices, {} queries, graph {} nodes / {} edges",
        devices,
        queries,
        csr.num_nodes(),
        csr.num_edges()
    );
    let g = service.register_graph("serve-bench", csr);

    // mixed workload: 2/3 bfs over rotating sources, 1/3 pr
    let requests: Vec<QueryRequest> = (0..queries)
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

    let cold = run_phase("cold", &service, &requests);
    print_phase(&cold);
    // adaptation: every batch feeds the sampler, so early repeats keep
    // invalidating the cache via epoch bumps; replay the workload until the
    // runtime's reordering converges and the epoch stops moving
    let mut epoch = service.graph_epoch(g).unwrap_or(0);
    let mut adapt = None;
    for _ in 0..6 {
        let phase = run_phase("adapt", &service, &requests);
        print_phase(&phase);
        adapt = Some(phase);
        let now = service.graph_epoch(g).unwrap_or(0);
        if now == epoch {
            break;
        }
        epoch = now;
    }
    let adapt = adapt.expect("at least one adaptation round runs");
    // steady state: the epoch is stable, so repeated sources hit the cache
    let warm = run_phase("steady", &service, &requests);
    print_phase(&warm);

    let stats = service.stats();
    let epoch = service.graph_epoch(g).unwrap_or(0);
    println!(
        "service: epoch {} | cache {} hits / {} misses ({:.1}% overall) | {} entries",
        epoch,
        stats.cache_hits,
        stats.cache_misses,
        stats.cache_hit_rate * 100.0,
        stats.cache_entries,
    );
    let replay_traced: u64 = stats.device_replay.iter().map(|r| r.traced_kernels).sum();
    let replay_recorded: u64 = stats.device_replay.iter().map(|r| r.recorded_probes).sum();
    let replay_elided: u64 = stats.device_replay.iter().map(|r| r.elided_probes).sum();
    println!(
        "replay:  {} traced kernels | {} probes recorded + {} elided | arena high-water {:.2} MiB",
        replay_traced,
        replay_recorded,
        replay_elided,
        stats.arena_high_water_mib(),
    );

    // spare-core budget the workers may use when their queue is drained
    // (1 under load: concurrency comes from the device pool instead)
    let spare_threads = gpu_sim::default_host_threads(pool_sms);
    let json = format!(
        "{{\n  \"bench\": \"serve\",\n  \"devices\": {},\n  \"queries_per_phase\": {},\n  \
         \"graph_nodes\": {},\n  \"graph_epoch\": {},\n  \
         \"host_spare_threads\": {spare_threads},\n  \
         \"overall_cache_hit_rate\": {:.4},\n  \
         \"replay\": {{\"traced_kernels\": {replay_traced}, \
         \"recorded_probes\": {replay_recorded}, \"elided_probes\": {replay_elided}, \
         \"arena_high_water_mib\": {:.4}}},\n  \
         \"phases\": [\n    {},\n    {},\n    {}\n  ]\n}}\n",
        devices,
        queries,
        nodes,
        epoch,
        stats.cache_hit_rate,
        stats.arena_high_water_mib(),
        cold.json(),
        adapt.json(),
        warm.json(),
    );
    let out = "BENCH_serve.json";
    if let Err(e) = write_validated(out, &json) {
        eprintln!("FAIL: {e}");
        std::process::exit(1);
    }
    eprintln!("wrote {out}");
    service.shutdown();
}
