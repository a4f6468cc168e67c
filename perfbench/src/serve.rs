//! The open-loop serving workload: Poisson arrivals of a mixed
//! bfs/sssp/walk/pr query stream against a two-device `SageService`, one
//! generator thread submitting on schedule and polling `Ticket::try_take`.
//! Latency runs from each query's due time, so a stall also charges the
//! queries scheduled behind it.

use crate::simstats;
use crate::stats::{self, fingerprint, Rng};
use crate::trace::{SpanId, Tracer};
use crate::traversal::{pick_sources, GRAPH_STREAM, SETUPS, SOURCE_STREAM};
use crate::{Outcome, PhaseClock, LATENCY_LIMIT_S};
use gpu_sim::{Profiler, ReplayStats};
use sage::{reference, LatencyBreakdown};
use sage_graph::gen::rmat_graph;
use sage_graph::{Csr, NodeId};
use sage_serve::{
    AppKind, GraphId, QueryRequest, QueryResponse, ResultValues, SageService, ServiceConfig,
    ServiceStats, Ticket,
};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Arrival rate of the open loop. Batches average about one query, so
/// latency is admission, cache, one execution and remap. Rates near or past
/// the two workers' capacity (65–150 q/s with this mix) move with host load:
/// their latency swung by more than a regression bound can absorb.
const RATE_QPS: f64 = 25.0;

const MIX_STREAM: u64 = 3;
const ARRIVAL_STREAM: u64 = 4;
const WARMUP_STREAM: u64 = 5;

/// App mix per block of 20 queries: 55% bfs, 20% sssp, 20% walk, 5% pr.
/// Each block is shuffled, so the order is seeded but every run serves the
/// same proportions.
const MIX_BLOCK: [(AppKind, usize); 4] = [
    (AppKind::Bfs, 11),
    (AppKind::Sssp, 4),
    (AppKind::Walk, 4),
    (AppKind::Pr, 1),
];

/// Skew: this share of source-dependent queries draws from a small hot set,
/// so repeats find their answer in the result cache.
const HOT_SOURCES: usize = 16;
const HOT_SHARE: f64 = 0.05;

const WARMUP_BURST: usize = 64;
const WARMUP_MAX_BURSTS: usize = 12;

/// How long queries may drain after the schedule ends before the rest
/// count as failed.
const DRAIN_S: f64 = 60.0;
const POLL: Duration = Duration::from_micros(200);
const BACKLOG_SAMPLE_S: f64 = 0.1;

/// Seeded request stream over one graph.
struct Requests {
    rng: Rng,
    hot: Vec<NodeId>,
    block: Vec<AppKind>,
}

impl Requests {
    fn new(csr: &Csr, seed: u64, stream: u64) -> Self {
        Self {
            rng: Rng::new(seed, stream),
            hot: pick_sources(csr, &mut Rng::new(seed, SOURCE_STREAM), HOT_SOURCES),
            block: Vec::new(),
        }
    }

    fn next(&mut self, csr: &Csr, graph: GraphId) -> QueryRequest {
        if self.block.is_empty() {
            for &(app, n) in &MIX_BLOCK {
                self.block.extend(std::iter::repeat_n(app, n));
            }
            for i in (1..self.block.len()).rev() {
                let j = self.rng.below(i + 1);
                self.block.swap(i, j);
            }
        }
        let app = self.block.pop().expect("refilled above");
        let source = if !app.uses_source() {
            0
        } else if self.rng.unit() < HOT_SHARE {
            self.hot[self.rng.below(self.hot.len())]
        } else {
            pick_sources(csr, &mut self.rng, 1)[0]
        };
        QueryRequest { app, graph, source }
    }
}

/// What a response carried, reduced to what verification needs.
enum Check {
    Fp(u64),
    Pr(Arc<ResultValues>),
    Walk(bool),
    WrongKind,
}

fn check_of(resp: &QueryResponse) -> Check {
    match (resp.request.app, &*resp.values) {
        (AppKind::Bfs, ResultValues::Depths(d)) => Check::Fp(fingerprint(d)),
        (AppKind::Sssp, ResultValues::Dists(d)) => Check::Fp(fingerprint(d)),
        (AppKind::Pr, ResultValues::Scores(_)) => Check::Pr(Arc::clone(&resp.values)),
        (AppKind::Walk, ResultValues::Scores(s)) => {
            let sum: f64 = s.iter().map(|&x| f64::from(x)).sum();
            Check::Walk(s.iter().all(|&x| x >= 0.0) && (sum - 1.0).abs() <= 1e-3)
        }
        _ => Check::WrongKind,
    }
}

struct Done {
    at: f64,
    cache_hit: bool,
    batch_size: usize,
    latency: LatencyBreakdown,
    edges: u64,
    sim_s: f64,
    check: Check,
}

/// One scheduled query; times are seconds since the phase started.
struct Query {
    due: f64,
    request: QueryRequest,
    submit: Option<(f64, f64)>,
    refused: bool,
    done: Option<Done>,
}

struct Served {
    service: SageService,
    graph: GraphId,
    csr: Csr,
    bursts: usize,
}

/// Start the service, register the graph and run warm-up bursts until the
/// graph's reorder epoch stops moving.
fn setup(seed: u64, tr: &mut Tracer, out: &mut Outcome) -> (Served, [f64; 2]) {
    let root = tr.open("setup", None);
    let t0 = Instant::now();
    let graph_seed = Rng::new(seed, GRAPH_STREAM).next_u64();
    let (csr, gen_s) = tr.time("graph.gen", root, || rmat_graph(14, 16, graph_seed));
    let reference_copy = csr.clone();
    let ((service, graph), _) = tr.time("serve.start", root, || {
        let service = SageService::start(ServiceConfig::default());
        let graph = service.register_graph("rmat14", csr);
        (service, graph)
    });
    let csr = reference_copy;
    let mut requests = Requests::new(&csr, seed, WARMUP_STREAM);
    let (bursts, _) = tr.time("serve.warmup", root, || {
        let mut bursts = 0;
        loop {
            let before = service.graph_epoch(graph);
            let tickets: Vec<Ticket> = (0..WARMUP_BURST)
                .filter_map(|_| service.submit(requests.next(&csr, graph)).ok())
                .collect();
            let answered = tickets.into_iter().filter_map(|t| t.wait().ok()).count();
            if answered != WARMUP_BURST {
                out.problems.push(format!(
                    "warm-up burst answered {answered} of {WARMUP_BURST} queries"
                ));
            }
            bursts += 1;
            if (bursts >= 2 && service.graph_epoch(graph) == before) || bursts == WARMUP_MAX_BURSTS
            {
                break bursts;
            }
        }
    });
    let setup_s = t0.elapsed().as_secs_f64();
    tr.close(root);
    (
        Served {
            service,
            graph,
            csr,
            bursts,
        },
        [setup_s, gen_s],
    )
}

fn sum_profiles(s: &ServiceStats) -> Profiler {
    let mut p = Profiler::default();
    for d in &s.device_profiles {
        p.merge(d);
    }
    p
}

fn sum_replay(s: &ServiceStats) -> ReplayStats {
    let mut r = ReplayStats::default();
    for d in &s.device_replay {
        r.traced_kernels += d.traced_kernels;
        r.recorded_probes += d.recorded_probes;
        r.elided_probes += d.elided_probes;
        r.l2_probes += d.l2_probes;
        r.parallel_replays += d.parallel_replays;
        r.inline_replays += d.inline_replays;
        r.arena_bytes = r.arena_bytes.max(d.arena_bytes);
    }
    r
}

/// Arrival times of a Poisson process at `rate` over `[0, seconds)`,
/// conditioned on its expected count: that many uniform points, sorted. The
/// count is fixed so the offered load is the same on every seed.
fn schedule(seed: u64, rate: f64, seconds: f64) -> Vec<f64> {
    let mut rng = Rng::new(seed, ARRIVAL_STREAM);
    let n = (rate * seconds).round().max(1.0) as usize;
    let mut due: Vec<f64> = (0..n).map(|_| rng.unit() * seconds).collect();
    due.sort_by(f64::total_cmp);
    due
}

/// Whether the backlog grew through the schedule: the last quarter's mean
/// in-flight count is more than twice the second quarter's (plus slack for
/// Poisson bursts).
fn backlog_growing(samples: &[(f64, usize)], seconds: f64) -> bool {
    let mean = |lo: f64, hi: f64| {
        let v: Vec<f64> = samples
            .iter()
            .filter(|&&(t, _)| t >= lo * seconds && t < hi * seconds)
            .map(|&(_, n)| n as f64)
            .collect();
        v.iter().sum::<f64>() / v.len().max(1) as f64
    };
    mean(0.75, 1.0) > 2.0 * mean(0.25, 0.5) + 4.0
}

/// Run the open loop; returns the queries, the in-flight count when the
/// schedule ended, backlog samples and the instant the phase started.
fn open_loop(
    sv: &Served,
    seed: u64,
    seconds: f64,
    clock: &mut PhaseClock,
) -> (Vec<Query>, usize, Vec<(f64, usize)>, Instant) {
    let mut requests = Requests::new(&sv.csr, seed, MIX_STREAM);
    let mut queries: Vec<Query> = schedule(seed, RATE_QPS, seconds)
        .into_iter()
        .map(|due| Query {
            due,
            request: requests.next(&sv.csr, sv.graph),
            submit: None,
            refused: false,
            done: None,
        })
        .collect();
    let mut inflight: Vec<(usize, Ticket)> = Vec::new();
    let mut samples = Vec::new();
    let mut backlog_end = None;
    let mut next = 0;
    let start = Instant::now();
    let since = |t: Instant| (t - start).as_secs_f64();
    loop {
        let now = start.elapsed().as_secs_f64();
        while next < queries.len() && queries[next].due <= now {
            let q = &mut queries[next];
            let s0 = Instant::now();
            let submitted = sv.service.submit(q.request);
            q.submit = Some((since(s0), start.elapsed().as_secs_f64()));
            match submitted {
                Ok(t) => inflight.push((next, t)),
                Err(_) => q.refused = true,
            }
            next += 1;
        }
        let mut i = 0;
        while i < inflight.len() {
            match inflight[i].1.try_take() {
                None => i += 1,
                Some(outcome) => {
                    let at = start.elapsed().as_secs_f64();
                    let (idx, _) = inflight.swap_remove(i);
                    queries[idx].done = outcome.ok().map(|r| Done {
                        at,
                        cache_hit: r.cache_hit,
                        batch_size: r.batch_size.max(1),
                        latency: r.report.latency,
                        edges: r.report.edges,
                        sim_s: r.report.seconds,
                        check: check_of(&r),
                    });
                }
            }
        }
        let now = start.elapsed().as_secs_f64();
        if samples
            .last()
            .is_none_or(|&(t, _)| now - t >= BACKLOG_SAMPLE_S)
            && now < seconds
        {
            samples.push((now, inflight.len()));
            clock.sample_rss();
        }
        if backlog_end.is_none() && now >= seconds {
            backlog_end = Some(inflight.len());
        }
        if (next == queries.len() && inflight.is_empty()) || now > seconds + DRAIN_S {
            break;
        }
        let until_due = queries.get(next).map_or(f64::INFINITY, |q| q.due - now);
        std::thread::sleep(POLL.min(Duration::from_secs_f64(until_due.clamp(0.0, 1.0))));
    }
    (queries, backlog_end.unwrap_or(0), samples, start)
}

/// Record each query's spans: the request, generator lateness, the submit
/// call, and its `LatencyBreakdown` stages laid end to end after submit.
fn record_spans(tr: &mut Tracer, root: Option<SpanId>, queries: &[Query], origin: f64) {
    for (id, q) in queries.iter().enumerate() {
        let Some((s0, s1)) = q.submit else { continue };
        let id = id as u64 + 1;
        let end = q.done.as_ref().map_or(s1, |d| d.at);
        let req = tr.record("serve.request", origin + q.due, origin + end, root, id);
        tr.record("loadgen.lag", origin + q.due, origin + s0, req, id);
        tr.record("serve.submit", origin + s0, origin + s1, req, id);
        let Some(d) = &q.done else { continue };
        let mut t = s1;
        for (name, dur) in [
            ("serve.queue", d.latency.queue_seconds),
            ("serve.batch", d.latency.batch_seconds),
            ("serve.exec", d.latency.exec_seconds),
            ("serve.remap", d.latency.remap_seconds),
        ] {
            if dur > 0.0 {
                tr.record(
                    name,
                    origin + t.min(end),
                    origin + (t + dur).min(end),
                    req,
                    id,
                );
                t += dur;
            }
        }
        if end > t {
            tr.record("serve.notify", origin + t, origin + end, req, id);
        }
    }
}

/// `serve-rmat14-low`: the open loop at [`RATE_QPS`] on R-MAT 2^14 (edge
/// factor 16) behind the default two-device service.
pub fn run(seed: u64, seconds: f64, tr: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let mut setup_s = Vec::new();
    let mut gen_s = Vec::new();
    let mut served: Option<Served> = None;
    for _ in 0..SETUPS {
        if let Some(old) = served.take() {
            old.service.shutdown();
        }
        let (sv, [s, g]) = setup(seed, tr, &mut out);
        setup_s.push(s);
        gen_s.push(g);
        served = Some(sv);
    }
    let sv = served.expect("at least one set-up");
    out.e2e.insert("setup_s", stats::median(&setup_s));
    let l = &mut out.layers;
    l.set("graph.gen_s", stats::median(&gen_s));
    l.set("graph.nodes", sv.csr.num_nodes() as f64);
    l.set("graph.edges", sv.csr.num_edges() as f64);
    l.set("serve.warmup_bursts", sv.bursts as f64);

    let before = sv.service.stats();
    let root = tr.open("measure", None);
    let origin = tr.now();
    let mut clock = PhaseClock::start();
    let (queries, backlog_end, samples, start) = open_loop(&sv, seed, seconds, &mut clock);
    let wall = start.elapsed().as_secs_f64();
    let after = sv.service.stats();
    tr.close(root);

    // end-to-end: latency from the due time; refused or failed queries miss
    // every limit
    let ok: Vec<(&Query, &Done)> = queries
        .iter()
        .filter_map(|q| q.done.as_ref().map(|d| (q, d)))
        .collect();
    let executed: Vec<&Done> = ok
        .iter()
        .map(|(_, d)| *d)
        .filter(|d| !d.cache_hit)
        .collect();
    // members of one fused batch share its report: weight each by 1/size
    let share = |f: &dyn Fn(&Done) -> f64| -> f64 {
        executed.iter().map(|d| f(d) / d.batch_size as f64).sum()
    };
    let edges = share(&|d| d.edges as f64);
    let sim_s = share(&|d| d.sim_s);
    let exec_s = share(&|d| d.latency.exec_seconds);
    let batches = share(&|_| 1.0);
    clock.finish(&mut out, edges);
    record_spans(tr, root, &queries, origin);
    let lat: Vec<f64> = ok.iter().map(|(q, d)| d.at - q.due).collect();
    let within = lat.iter().filter(|&&l| l <= LATENCY_LIMIT_S).count();
    out.layers.set("lat.goodput_qps", within as f64 / wall);
    out.set_latencies(lat);
    out.e2e.insert("sim_gteps", edges / sim_s / 1e9);
    out.layers.set("host.medges_per_s", edges / exec_s / 1e6);

    // per layer
    let refused = queries.iter().filter(|q| q.refused).count();
    let l = &mut out.layers;
    let submit_us = stats::sorted(
        queries
            .iter()
            .filter_map(|q| q.submit.map(|(a, b)| (b - a) * 1e6))
            .collect(),
    );
    l.set("serve.submit_us_p50", stats::percentile(&submit_us, 0.5));
    let (hits, misses) = (
        after.cache_hits - before.cache_hits,
        after.cache_misses - before.cache_misses,
    );
    l.set(
        "serve.cache_hit_rate",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    for (name, f) in [
        (
            "queue",
            (|d: &Done| d.latency.queue_seconds) as fn(&Done) -> f64,
        ),
        ("batch", |d: &Done| d.latency.batch_seconds),
        ("exec", |d: &Done| d.latency.exec_seconds),
        ("remap", |d: &Done| d.latency.remap_seconds),
    ] {
        let v = stats::sorted(executed.iter().map(|d| f(d) * 1e3).collect());
        l.set_owned(format!("serve.{name}_ms_p50"), stats::percentile(&v, 0.5));
        l.set_owned(format!("serve.{name}_ms_p99"), stats::percentile(&v, 0.99));
    }
    l.set(
        "serve.batch_size_mean",
        executed.len() as f64 / batches.max(f64::MIN_POSITIVE),
    );
    for app in [AppKind::Bfs, AppKind::Sssp, AppKind::Pr, AppKind::Walk] {
        let v = stats::sorted(
            ok.iter()
                .filter(|(q, _)| q.request.app == app)
                .map(|(q, d)| (d.at - q.due) * 1e3)
                .collect(),
        );
        l.set_owned(
            format!("serve.lat_p50_ms.{}", app.name()),
            stats::percentile(&v, 0.5),
        );
    }
    let lag = stats::sorted(
        queries
            .iter()
            .filter_map(|q| q.submit.map(|(s0, _)| (s0 - q.due).max(0.0) * 1e3))
            .collect(),
    );
    l.set("serve.gen_lag_ms_p99", stats::percentile(&lag, 0.99));
    let growing = backlog_growing(&samples, seconds);
    l.set("serve.backlog_end", backlog_end as f64);
    l.set("serve.backlog_growing", f64::from(u8::from(growing)));
    l.set("serve.refused", refused as f64);
    l.set(
        "reorder.epoch",
        sv.service.graph_epoch(sv.graph).unwrap_or(0) as f64,
    );
    let prof = simstats::profiler_delta(&sum_profiles(&after), &sum_profiles(&before));
    simstats::add_sim(l, &prof, &simstats::Breakdown::new());
    simstats::add_replay(
        l,
        &simstats::replay_delta(&sum_replay(&after), &sum_replay(&before)),
    );
    l.set(
        "sim.host_ns_per_sector",
        exec_s * 1e9 / prof.total_sectors().max(1) as f64,
    );
    out.notes.push(format!(
        "open loop at {} q/s: {} scheduled, {} answered ({} cache hits), {} refused, \
         batches {:.1} queries on average, measured wall {wall:.3} s",
        RATE_QPS,
        queries.len(),
        ok.len(),
        ok.iter().filter(|(_, d)| d.cache_hit).count(),
        refused,
        executed.len() as f64 / batches.max(f64::MIN_POSITIVE),
    ));
    out.notes.push(format!(
        "generator lag p99 {:.3} ms; backlog {backlog_end} in flight when the schedule ended{}",
        stats::percentile(&lag, 0.99),
        if growing {
            " — BACKLOG GROWING: this rate is past capacity"
        } else {
            ""
        }
    ));

    // verification, after the phase
    tr.time("bench.verify", None, || {
        let mut want: HashMap<(AppKind, NodeId), u64> = HashMap::new();
        let want_pr = reference::pagerank(&sv.csr, sv.service.config().pr_iters);
        let mut pr_checked: Vec<(Arc<ResultValues>, bool)> = Vec::new();
        for q in &queries {
            let good = match q.done.as_ref().map(|d| &d.check) {
                None => false,
                Some(Check::Fp(fp)) => {
                    let (app, s) = (q.request.app, q.request.source);
                    *fp == *want.entry((app, s)).or_insert_with(|| match app {
                        AppKind::Bfs => fingerprint(&reference::bfs_levels(&sv.csr, s)),
                        _ => fingerprint(&reference::sssp_dists(&sv.csr, s)),
                    })
                }
                Some(Check::Pr(v)) => {
                    if let Some((_, ok)) = pr_checked.iter().find(|(a, _)| Arc::ptr_eq(a, v)) {
                        *ok
                    } else {
                        let ok = matches!(&**v, ResultValues::Scores(s) if s.len() == want_pr.len()
                            && s.iter().zip(&want_pr).all(|(&g, &w)| (f64::from(g) - w).abs() <= 1e-4 + 1e-2 * w));
                        pr_checked.push((Arc::clone(v), ok));
                        ok
                    }
                }
                Some(Check::Walk(ok)) => *ok,
                Some(Check::WrongKind) => false,
            };
            if !good {
                out.failed += 1;
            }
        }
    });
    out.attempted = queries.len() as u64;
    if out.failed > 0 {
        out.notes.push(format!(
            "{} of {} queries were refused, failed, timed out or answered wrongly",
            out.failed,
            queries.len()
        ));
    }
    sv.service.shutdown();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_seeded_and_near_its_rate() {
        let a = schedule(11, 100.0, 20.0);
        assert_eq!(a, schedule(11, 100.0, 20.0));
        assert_ne!(a, schedule(12, 100.0, 20.0));
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(a.len(), 2000);
        assert!(a[0] >= 0.0 && a[1999] < 20.0);
        // a uniform spread: about half the arrivals fall in each half
        let first_half = a.iter().filter(|&&t| t < 10.0).count();
        assert!((900..1100).contains(&first_half), "{first_half}");
    }

    #[test]
    fn backlog_growth_is_flagged_not_averaged() {
        let steady: Vec<(f64, usize)> = (0..100).map(|i| (i as f64 * 0.1, 3 + i % 3)).collect();
        assert!(!backlog_growing(&steady, 10.0));
        let growing: Vec<(f64, usize)> = (0..100).map(|i| (i as f64 * 0.1, i)).collect();
        assert!(backlog_growing(&growing, 10.0));
    }
}
