//! `perfbench` — the outside-in benchmark of the SAGE workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload builds its inputs from `--seed`, times calls into the
//! public API of each layer for `--seconds`, checks every output against
//! `sage::reference` outside the timed calls, and prints one JSON object as
//! its last stdout line: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics (span self times and telemetry deltas) with
//! `--trace 1`. A wrong output, or a simulated counter that does not repeat
//! bit for bit, makes the run exit with code 1. See `perfbench/README.md`.

mod serve;
mod simstats;
mod stats;
mod trace;
mod traversal;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use trace::{Coverage, Tracer};

/// End-to-end metrics: every workload reports each of them. Host-time
/// figures (throughput, latency, goodput) are per-layer metrics instead: on
/// a shared two-vCPU host they swing by 30-55% between runs as neighbour
/// load comes and goes, more than any regression bound may allow.
pub const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("sim_gteps", "GTEPS"),
];

/// Span names recorded by the workloads; each one's self time is reported
/// as `self_s.<name>`.
pub const SPANS: [&str; 20] = [
    "setup",
    "measure",
    "graph.gen",
    "dgraph.upload",
    "pipeline.warmup",
    "pipeline.run",
    "runtime.reorder",
    "serve.start",
    "serve.warmup",
    "serve.request",
    "serve.submit",
    "serve.queue",
    "serve.batch",
    "serve.exec",
    "serve.remap",
    "serve.notify",
    "loadgen.lag",
    "bench.verify",
    "bench.telemetry",
    "bench.replicate",
];

/// Per-layer metrics other than span self times and `sim.kernel_s.*`, in
/// output order. A workload that bypasses a layer reports 0 for it.
const LAYER_METRICS: [(&str, &str); 65] = [
    ("graph.gen_s", "s"),
    ("graph.nodes", "count"),
    ("graph.edges", "count"),
    ("dgraph.upload_s", "s"),
    ("pipeline.run_ms_p50.bfs", "ms"),
    ("pipeline.run_ms_max.bfs", "ms"),
    ("pipeline.run_ms_p50.pr", "ms"),
    ("pipeline.run_ms_max.pr", "ms"),
    ("pipeline.iters.push", "count"),
    ("pipeline.iters.pull", "count"),
    ("pipeline.iters.matrix", "count"),
    ("pipeline.examined_ratio", "ratio"),
    ("pipeline.overhead_frac", "ratio"),
    ("sim.kernels", "count"),
    ("sim.cycles", "cycles"),
    ("sim.simt_efficiency", "ratio"),
    ("sim.l1_hit_rate", "ratio"),
    ("sim.l2_hit_rate", "ratio"),
    ("sim.dram_sectors", "count"),
    ("sim.atomics", "count"),
    ("sim.atomic_conflicts", "count"),
    ("sim.mma_ops", "count"),
    ("sim.host_ns_per_sector", "ns"),
    ("replay.traced_kernels", "count"),
    ("replay.parallel_replays", "count"),
    ("replay.inline_replays", "count"),
    ("replay.recorded_probes", "count"),
    ("replay.elision", "ratio"),
    ("replay.l1_absorption", "ratio"),
    ("replay.arena_mib", "MiB"),
    ("reorder.round_ms", "ms"),
    ("reorder.commits", "count"),
    ("reorder.rollbacks", "count"),
    ("reorder.epoch", "count"),
    ("serve.warmup_bursts", "count"),
    ("serve.submit_us_p50", "us"),
    ("serve.cache_hit_rate", "ratio"),
    ("serve.queue_ms_p50", "ms"),
    ("serve.queue_ms_p99", "ms"),
    ("serve.batch_ms_p50", "ms"),
    ("serve.batch_ms_p99", "ms"),
    ("serve.exec_ms_p50", "ms"),
    ("serve.exec_ms_p99", "ms"),
    ("serve.remap_ms_p50", "ms"),
    ("serve.remap_ms_p99", "ms"),
    ("serve.batch_size_mean", "count"),
    ("serve.lat_p50_ms.bfs", "ms"),
    ("serve.lat_p50_ms.sssp", "ms"),
    ("serve.lat_p50_ms.pr", "ms"),
    ("serve.lat_p50_ms.walk", "ms"),
    ("serve.gen_lag_ms_p99", "ms"),
    ("serve.backlog_end", "count"),
    ("serve.backlog_growing", "flag"),
    ("serve.refused", "count"),
    ("host.medges_per_s", "Medges/s"),
    ("lat.p50_ms", "ms"),
    ("lat.tail_ms", "ms"),
    ("lat.goodput_qps", "1/s"),
    ("host.phase_wall_s", "s"),
    ("host.phase_cpu_s", "s"),
    ("host.steal_frac", "ratio"),
    ("host.medges_per_cpu_s", "Medges/s"),
    ("lat.tail_pct", "%"),
    ("lat.samples", "count"),
    ("check.failed_frac", "ratio"),
];

/// Trace bookkeeping metrics appended after the self times.
const TRACE_METRICS: [(&str, &str); 4] = [
    ("trace.coverage", "ratio"),
    ("trace.unattributed_s", "s"),
    ("trace.spans", "count"),
    ("trace.overhead_s", "s"),
];

/// Latency limit behind `lat.goodput_qps`: an operation answered later than
/// this after it was due counts as missed.
pub const LATENCY_LIMIT_S: f64 = 0.5;

/// Every per-layer metric in output order, with its unit.
pub fn layer_catalog() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = LAYER_METRICS
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .collect();
    v.extend(
        simstats::KERNELS
            .iter()
            .map(|k| (format!("sim.kernel_s.{k}"), "s")),
    );
    v.extend(SPANS.iter().map(|s| (format!("self_s.{s}"), "s")));
    v.extend(TRACE_METRICS.iter().map(|&(n, u)| (n.to_string(), u)));
    v
}

/// Per-layer values a workload fills in; names must be in [`layer_catalog`].
#[derive(Debug, Default)]
pub struct Layers(BTreeMap<String, f64>);

impl Layers {
    pub fn set(&mut self, name: &str, value: f64) {
        self.0.insert(name.to_string(), value);
    }

    pub fn set_owned(&mut self, name: String, value: f64) {
        self.0.insert(name, value);
    }

    /// A recorded value, 0 when the workload did not set it.
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// Wall, process CPU, host steal and resident memory over a measured phase.
pub struct PhaseClock {
    wall: std::time::Instant,
    cpu_s: f64,
    steal: (u64, u64),
    peak_rss_mib: f64,
}

impl PhaseClock {
    pub fn start() -> Self {
        Self {
            wall: std::time::Instant::now(),
            cpu_s: stats::process_cpu_s(),
            steal: stats::host_steal_ticks(),
            peak_rss_mib: stats::rss_mib(),
        }
    }

    /// Sample resident memory; the phase's peak is the largest sample.
    pub fn sample_rss(&mut self) {
        self.peak_rss_mib = self.peak_rss_mib.max(stats::rss_mib());
    }

    /// Record `peak_rss_mib` and the phase's `host.*` metrics; `edges` are
    /// the simulated edges the phase traversed.
    pub fn finish(mut self, out: &mut Outcome, edges: f64) {
        self.sample_rss();
        let cpu = stats::process_cpu_s() - self.cpu_s;
        let (steal, total) = stats::host_steal_ticks();
        out.e2e.insert("peak_rss_mib", self.peak_rss_mib);
        let layers = &mut out.layers;
        layers.set("host.phase_wall_s", self.wall.elapsed().as_secs_f64());
        layers.set("host.phase_cpu_s", cpu);
        layers.set(
            "host.steal_frac",
            (steal - self.steal.0) as f64 / (total - self.steal.1).max(1) as f64,
        );
        layers.set("host.medges_per_cpu_s", edges / cpu.max(0.01) / 1e6);
    }
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub e2e: BTreeMap<&'static str, f64>,
    pub layers: Layers,
    pub attempted: u64,
    pub failed: u64,
    /// Broken invariants (non-repeating simulated counters, a layer that
    /// should have been exercised or bypassed); any entry fails the run.
    pub problems: Vec<String>,
    /// Human-readable lines printed ahead of the JSON result.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Record the per-operation latencies (seconds) as `lat.*` metrics.
    pub fn set_latencies(&mut self, lat_s: Vec<f64>) {
        let sorted = stats::sorted(lat_s);
        let (q, tail) = stats::tail(&sorted);
        self.layers
            .set("lat.p50_ms", stats::percentile(&sorted, 0.5) * 1e3);
        self.layers.set("lat.tail_ms", tail * 1e3);
        self.layers.set("lat.tail_pct", q * 100.0);
        self.layers.set("lat.samples", sorted.len() as f64);
        self.notes.push(format!(
            "latency: p50 {:.3} ms, tail p{} {:.3} ms over {} samples",
            stats::percentile(&sorted, 0.5) * 1e3,
            q * 100.0,
            tail * 1e3,
            sorted.len()
        ));
    }
}

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["bfs-rmat17-t2", "adapt-social16-t1", "serve-rmat14-low"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                });
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Where traced runs write their spans: under the build directory, which
/// is never committed.
fn trace_path(workload: &str, seed: u64) -> PathBuf {
    let base = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("perfbench/target"), PathBuf::from);
    base.join("perfbench-trace")
        .join(format!("{workload}-seed{seed}.jsonl"))
}

/// Measured cost of recording one span, from a throwaway tracer.
fn span_cost_s() -> f64 {
    const N: usize = 100_000;
    let mut t = Tracer::new(true);
    let start = std::time::Instant::now();
    for i in 0..N {
        let now = t.now();
        t.record("x", now, now, Some(i), 0);
    }
    start.elapsed().as_secs_f64() / N as f64
}

fn add_trace_metrics(out: &mut Outcome, tracer: &Tracer) {
    let spans = tracer.spans();
    for (name, s) in trace::self_times(spans) {
        out.layers.set_owned(format!("self_s.{name}"), s);
    }
    let measure = spans.iter().rposition(|s| s.name == "measure");
    if let Some(root) = measure {
        let c = Coverage::of(spans, root);
        out.layers.set("trace.coverage", c.fraction());
        out.layers.set("trace.unattributed_s", c.unattributed_s());
        if c.short() {
            out.notes.push(format!(
                "trace: layer spans cover {:.1}% of the measured {:.3} s; unattributed_s {:.3}",
                c.fraction() * 100.0,
                c.wall_s,
                c.unattributed_s()
            ));
        }
    }
    out.layers.set("trace.spans", spans.len() as f64);
    out.layers
        .set("trace.overhead_s", spans.len() as f64 * span_cost_s());
    let self_lines: Vec<String> = SPANS
        .iter()
        .map(|s| format!("{s} {:.4}", out.layers.get(&format!("self_s.{s}"))))
        .collect();
    out.notes
        .push(format!("self time (s): {}", self_lines.join(", ")));
}

fn json_number(v: f64) -> String {
    // Rust's shortest round-trip formatting keeps every digit measured
    let s = format!("{v}");
    if s.contains(['.', 'e', 'E']) || s.contains("inf") || s.contains("NaN") {
        s
    } else {
        format!("{s}.0")
    }
}

fn render(out: &mut Outcome, traced: bool) -> String {
    let entries: Vec<(String, &'static str)> = if traced {
        layer_catalog()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    };
    let mut metrics = String::new();
    for (i, (name, unit)) in entries.iter().enumerate() {
        let raw = if traced {
            out.layers.0.get(name).copied()
        } else {
            out.e2e.get(name.as_str()).copied()
        };
        let v = match raw {
            Some(v) if v.is_finite() => v,
            Some(v) => {
                out.problems
                    .push(format!("metric {name} is not finite: {v}"));
                0.0
            }
            None if traced => 0.0,
            None => {
                out.problems
                    .push(format!("end-to-end metric {name} was not measured"));
                0.0
            }
        };
        if !stats::valid_metric_name(name) {
            out.problems.push(format!("invalid metric name {name:?}"));
        }
        if i > 0 {
            metrics.push_str(", ");
        }
        let _ = write!(
            metrics,
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(v)
        );
    }
    if traced {
        let unknown: Vec<&String> = out
            .layers
            .0
            .keys()
            .filter(|k| !entries.iter().any(|(n, _)| n == *k))
            .collect();
        if !unknown.is_empty() {
            out.problems.push(format!(
                "per-layer metrics outside the catalog: {unknown:?}"
            ));
        }
    }
    let correct = out.problems.is_empty() && out.failed == 0;
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        out.attempted.max(1),
        out.failed
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    // the program gets only generated inputs: no environment overrides of
    // thread counts, replay routes or sanitizing
    let overrides: Vec<_> = std::env::vars_os()
        .filter(|(k, _)| k.to_string_lossy().starts_with("SAGE_"))
        .map(|(k, _)| k)
        .collect();
    for k in overrides {
        std::env::remove_var(k);
    }
    if args.workload.starts_with("serve-") {
        // two workers on a two-core host: each simulates on one thread, so
        // neither borrows the core the other one is running on
        std::env::set_var("SAGE_HOST_THREADS", "1");
    }

    let mut tracer = Tracer::new(args.trace);
    let mut out = match args.workload.as_str() {
        "bfs-rmat17-t2" => traversal::bfs(args.seed, args.seconds, &mut tracer),
        "adapt-social16-t1" => traversal::adapt(args.seed, args.seconds, &mut tracer),
        "serve-rmat14-low" => serve::run(args.seed, args.seconds, &mut tracer),
        other => unreachable!("workload {other} passed validation"),
    };
    out.layers.set(
        "check.failed_frac",
        out.failed as f64 / out.attempted.max(1) as f64,
    );
    out.notes.push(format!(
        "host: {:.3} simulated Medges per host second, steal {:.1}% during the phase",
        out.layers.get("host.medges_per_s"),
        out.layers.get("host.steal_frac") * 100.0
    ));
    if args.trace {
        add_trace_metrics(&mut out, &tracer);
        let path = trace_path(&args.workload, args.seed);
        match tracer.dump(&path) {
            Ok(()) => out
                .notes
                .push(format!("spans written to {}", path.display())),
            Err(e) => out
                .notes
                .push(format!("could not write {}: {e}", path.display())),
        }
    }

    println!(
        "perfbench {} seed {} ({} s)",
        args.workload, args.seed, args.seconds
    );
    for &(name, unit) in &END_TO_END {
        if let Some(v) = out.e2e.get(name) {
            println!("  {name:<20} {v:>14.4} {unit}");
        }
    }
    let line = render(&mut out, args.trace);
    for n in &out.notes {
        println!("  {n}");
    }
    for p in &out.problems {
        println!("  PROBLEM: {p}");
    }
    println!(
        "  operations: {} attempted, {} failed",
        out.attempted, out.failed
    );
    println!("{line}");
    if !(out.problems.is_empty() && out.failed == 0) {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_metric_name_and_unit_is_valid_and_unique() {
        let mut names: Vec<String> = END_TO_END.iter().map(|&(n, _)| n.to_string()).collect();
        let catalog = layer_catalog();
        names.extend(catalog.iter().map(|(n, _)| n.clone()));
        for n in &names {
            assert!(stats::valid_metric_name(n), "bad metric name {n:?}");
        }
        let mut dedup = names.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len(), "duplicate metric names");
        assert!(catalog.len() <= 128, "{} per-layer metrics", catalog.len());
        for (_, unit) in END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .chain(catalog)
        {
            assert!(
                !unit.is_empty()
                    && unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {unit:?}"
            );
        }
    }

    /// Every `"key": "value"` string pair for `key`, in file order.
    fn string_values<'a>(json: &'a str, key: &str) -> Vec<&'a str> {
        let pat = format!("\"{key}\": \"");
        json.match_indices(&pat)
            .map(|(i, _)| {
                let rest = &json[i + pat.len()..];
                &rest[..rest.find('"').expect("closing quote")]
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_what_is_printed() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        let mut names: Vec<String> = WORKLOADS.iter().map(|w| w.to_string()).collect();
        let mut units: Vec<&str> = Vec::new();
        for &(n, u) in &END_TO_END {
            names.push(n.to_string());
            units.push(u);
        }
        for (n, u) in layer_catalog() {
            names.push(n);
            units.push(u);
        }
        assert_eq!(string_values(&json, "name"), names);
        assert_eq!(string_values(&json, "unit"), units);
    }

    #[test]
    fn json_numbers_keep_a_decimal_point() {
        assert_eq!(json_number(3.0), "3.0");
        assert_eq!(json_number(0.125), "0.125");
        assert_eq!(json_number(1e-12), "0.000000000001");
    }

    #[test]
    fn render_reports_missing_end_to_end_metrics() {
        let mut out = Outcome::default();
        out.e2e.insert("setup_s", 1.5);
        let line = render(&mut out, false);
        assert!(line.starts_with("{\"correct\": false"), "{line}");
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        assert_eq!(out.problems.len(), END_TO_END.len() - 1);
    }
}
