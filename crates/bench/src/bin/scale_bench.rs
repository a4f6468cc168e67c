//! `scale_bench` — million-node scale sweep over the trace/replay backend.
//!
//! Generates R-MAT and social graphs up to 2^20 nodes / ~50M edges, runs
//! BFS from the max-degree source on fresh devices across a host-thread
//! sweep, and writes `BENCH_scale.json` with one row per (graph, thread
//! count): simulated seconds, GTEPS, host wall-clock, speedup over the
//! 1-thread run, and the trace/replay telemetry (recorded probes, L1
//! absorption, arena high-water mark). Every row also carries a `gate`
//! field naming the trace/replay gate decision (`untraced` / `inline` /
//! `sharded` / `mixed`), so `recorded_probes: 0` on 1-thread rows reads
//! as the sequential-path gate rather than missing data.
//!
//! Three invariants are enforced on every graph:
//!
//! * **bitwise determinism** — outputs, simulated cycles, and all profiler
//!   counters must be identical across every thread count;
//! * **placement** — graphs whose CSR (plus 25% state headroom) exceeds the
//!   simulated device memory route through the out-of-core path, and the
//!   sweep includes one deliberately memory-capped run to exercise it;
//! * **sanitizer** — one run repeats under the race sanitizer and must
//!   come back hazard-free.
//!
//! Host speedup is only *enforced* when the host actually has cores to
//! parallelise over (`available_parallelism >= 4`): on smaller hosts the
//! sharded path does strictly more work than the sequential one with no
//! cores to spread it across, so rows are recorded but not gated. The JSON
//! carries `host_cores` and `speedup_enforced` so readers can tell which
//! regime produced the numbers.
//!
//! Flags:
//! - `--scales 14,17,20`   R-MAT scales to sweep (default `14,17,20`)
//! - `--threads 1,2,4,8`   host-thread counts (default `1,2,4,8`; 1 is
//!   always included as the baseline)
//! - `--edge-factor N`     R-MAT directed edges per node (default 24)
//! - `--no-social`         skip the social graph at the largest scale
//! - `--smoke`             quick CI mode: R-MAT scale 14, threads 1 vs 4,
//!   no ooc/sanitizer rows, exit nonzero on any determinism failure or
//!   (when cores permit) speedup below 1.0
//! - `--out PATH`          output path (default `BENCH_scale.json`)

use gpu_sim::{Device, DeviceConfig, ReplayStats};
use sage::app::Bfs;
use sage::engine::ResidentEngine;
use sage::ooc::{upload_auto, Placement};
use sage::{RunReport, Runner};
use sage_bench::jsonv::write_validated;
use sage_graph::gen::{rmat_graph, social_graph, SocialParams};
use sage_graph::Csr;

/// Everything one BFS run produces that must be identical across host
/// thread counts: the app output plus every simulated-machine observable.
struct Fingerprint {
    distances: Vec<u32>,
    seconds_bits: u64,
    cycles_bits: u64,
    profiler: gpu_sim::Profiler,
    edges_examined: u64,
    direction_trace: String,
}

struct RunOutcome {
    report: RunReport,
    fp: Fingerprint,
    placement: Placement,
    replay: ReplayStats,
}

fn run_bfs(
    csr: &Csr,
    source: u32,
    threads: usize,
    mem_cap: Option<u64>,
    sanitize: bool,
) -> RunOutcome {
    let mut cfg = DeviceConfig::default();
    if let Some(bytes) = mem_cap {
        cfg.memory_bytes = bytes;
    }
    cfg.sanitize = sanitize;
    let mut dev = Device::new(cfg);
    dev.set_host_threads(threads);
    let (g, placement) = upload_auto(&mut dev, csr.clone());
    let mut engine = ResidentEngine::new();
    let mut app = Bfs::new(&mut dev);
    let report = Runner::new().run(&mut dev, &g, &mut engine, &mut app, source);
    let fp = Fingerprint {
        distances: app.distances().iter().map(|&d| d as u32).collect(),
        seconds_bits: report.seconds.to_bits(),
        cycles_bits: dev.profiler().cycles.to_bits(),
        profiler: dev.profiler().clone(),
        edges_examined: report.edges_examined,
        direction_trace: report.direction_trace.clone(),
    };
    RunOutcome {
        report,
        fp,
        placement,
        replay: dev.replay_stats().clone(),
    }
}

fn identical(a: &Fingerprint, b: &Fingerprint) -> bool {
    a.distances == b.distances
        && a.seconds_bits == b.seconds_bits
        && a.cycles_bits == b.cycles_bits
        && a.profiler == b.profiler
        && a.edges_examined == b.edges_examined
        && a.direction_trace == b.direction_trace
}

/// Why a row's trace/replay counters look the way they do, derived purely
/// from the device's own [`ReplayStats`] — never from the requested thread
/// count, so the label cannot drift from the telemetry it summarises.
///
/// `untraced` rows saw no replay at all (the sequential host path gates
/// probe recording off, so `recorded_probes: 0` there is the gate decision,
/// not missing data). Traced rows report which replay path actually
/// consumed the recorded probes: `sharded` (parallel replay only), `inline`
/// (inline replay only), or `mixed` (both fired across the run's kernels).
fn gate_decision(replay: &ReplayStats) -> &'static str {
    match (replay.parallel_replays > 0, replay.inline_replays > 0) {
        (true, true) => "mixed",
        (true, false) => "sharded",
        (false, true) => "inline",
        (false, false) => "untraced",
    }
}

/// The gate label and the raw counters must tell the same story, and the
/// sequential path must really be the sequential path.
fn assert_gate_consistent(threads: usize, replay: &ReplayStats, gate: &str) {
    let (par, inl) = (replay.parallel_replays, replay.inline_replays);
    let consistent = match gate {
        "untraced" => {
            par == 0 && inl == 0 && replay.recorded_probes == 0 && replay.elided_probes == 0
        }
        "sharded" => par > 0 && inl == 0,
        "inline" => par == 0 && inl > 0,
        "mixed" => par > 0 && inl > 0,
        _ => false,
    };
    assert!(
        consistent,
        "gate label {gate:?} disagrees with replay stats \
         (parallel {par}, inline {inl}, recorded {})",
        replay.recorded_probes
    );
    assert!(
        threads > 1 || gate == "untraced",
        "1-thread run reported gate {gate:?} — the sequential backend must not trace"
    );
}

fn row_json(
    family: &str,
    scale: u32,
    csr: &Csr,
    threads: usize,
    out: &RunOutcome,
    base_host_seconds: f64,
    bitwise: bool,
) -> String {
    let speedup = base_host_seconds / out.report.host_seconds.max(f64::MIN_POSITIVE);
    let gate = gate_decision(&out.replay);
    assert_gate_consistent(threads, &out.replay, gate);
    format!(
        "{{\"family\": \"{family}\", \"scale\": {scale}, \"nodes\": {}, \"edges\": {}, \
         \"placement\": \"{}\", \"threads\": {threads}, \"sim_seconds\": {:.9}, \
         \"gteps\": {:.4}, \"host_seconds\": {:.6}, \"speedup_vs_1t\": {speedup:.4}, \
         \"bitwise_identical_to_1t\": {bitwise}, \
         \"gate\": \"{}\", \"recorded_probes\": {}, \"elided_probes\": {}, \
         \"elision\": {:.4}, \
         \"l2_probes\": {}, \"parallel_replays\": {}, \"inline_replays\": {}, \
         \"l1_absorption\": {:.4}, \"arena_mib\": {:.2}}}",
        csr.num_nodes(),
        csr.num_edges(),
        out.placement.as_str(),
        out.report.seconds,
        out.report.gteps(),
        out.report.host_seconds,
        gate,
        out.replay.recorded_probes,
        out.replay.elided_probes,
        out.replay.elision(),
        out.replay.l2_probes,
        out.replay.parallel_replays,
        out.replay.inline_replays,
        out.replay.l1_absorption(),
        out.replay.arena_bytes as f64 / (1024.0 * 1024.0),
    )
}

struct Args {
    scales: Vec<u32>,
    threads: Vec<usize>,
    edge_factor: usize,
    social: bool,
    smoke: bool,
    out: String,
}

fn parse_args() -> Args {
    let mut args = Args {
        scales: vec![14, 17, 20],
        threads: vec![1, 2, 4, 8],
        edge_factor: 24,
        social: true,
        smoke: false,
        out: "BENCH_scale.json".to_string(),
    };
    let mut argv = std::env::args().skip(1);
    let fail = |flag: &str| -> ! {
        eprintln!("bad or missing value for {flag}");
        std::process::exit(2);
    };
    while let Some(flag) = argv.next() {
        match flag.as_str() {
            "--scales" => {
                args.scales = argv
                    .next()
                    .and_then(|v| v.split(',').map(|s| s.trim().parse().ok()).collect())
                    .unwrap_or_else(|| fail("--scales"));
            }
            "--threads" => {
                args.threads = argv
                    .next()
                    .and_then(|v| v.split(',').map(|s| s.trim().parse().ok()).collect())
                    .unwrap_or_else(|| fail("--threads"));
            }
            "--edge-factor" => {
                args.edge_factor = argv
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| fail("--edge-factor"));
            }
            "--no-social" => args.social = false,
            "--smoke" => args.smoke = true,
            "--out" => args.out = argv.next().unwrap_or_else(|| fail("--out")),
            other => {
                eprintln!("unknown flag {other:?}");
                std::process::exit(2);
            }
        }
    }
    if args.smoke {
        args.scales = vec![14];
        args.threads = vec![1, 4];
        args.social = false;
    }
    if !args.threads.contains(&1) {
        args.threads.insert(0, 1);
    }
    args.threads.sort_unstable();
    args.threads.dedup();
    args.scales.sort_unstable();
    args.scales.dedup();
    args
}

fn main() {
    let args = parse_args();
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let speedup_enforced = host_cores >= 4;
    let mut failed = false;
    let mut rows: Vec<String> = Vec::new();

    // (family, scale, graph) work list: R-MAT at every scale, plus a social
    // graph matching the largest scale's node count.
    let mut graphs: Vec<(String, u32, Csr)> = Vec::new();
    for &scale in &args.scales {
        eprintln!(
            "generating rmat scale {scale} (edge factor {})...",
            args.edge_factor
        );
        graphs.push((
            "rmat".to_string(),
            scale,
            rmat_graph(scale, args.edge_factor, 42),
        ));
    }
    if args.social {
        let scale = *args.scales.last().expect("at least one scale");
        eprintln!("generating social graph at 2^{scale} nodes...");
        let csr = social_graph(&SocialParams {
            nodes: 1usize << scale,
            avg_deg: args.edge_factor as f64,
            alpha: 2.0,
            max_deg_frac: 0.001,
            ..SocialParams::default()
        });
        graphs.push(("social".to_string(), scale, csr));
    }

    for (family, scale, csr) in &graphs {
        let (source, _) = csr.max_degree();
        eprintln!(
            "{family} scale {scale}: {} nodes / {} edges, source {source}",
            csr.num_nodes(),
            csr.num_edges()
        );
        let mut base: Option<RunOutcome> = None;
        for &t in &args.threads {
            let out = run_bfs(csr, source, t, None, false);
            let (base_host, bitwise) = match &base {
                Some(b) => (b.report.host_seconds, identical(&b.fp, &out.fp)),
                None => (out.report.host_seconds, true),
            };
            let speedup = base_host / out.report.host_seconds.max(f64::MIN_POSITIVE);
            println!(
                "{family:<6} 2^{scale} {t:>2}t  sim {:>9.4} ms  {:>7.3} GTEPS  host {:>8.2} s  \
                 {speedup:>5.2}x  {}  [{}]",
                out.report.seconds * 1e3,
                out.report.gteps(),
                out.report.host_seconds,
                if bitwise { "identical" } else { "DIVERGED" },
                out.replay,
            );
            if !bitwise {
                eprintln!("FAIL: {family} 2^{scale} at {t} threads diverged from 1-thread run");
                failed = true;
            }
            if speedup_enforced && t >= 4 && speedup < 1.0 {
                eprintln!(
                    "FAIL: {family} 2^{scale} at {t} threads slower than 1 thread \
                     ({speedup:.2}x) with {host_cores} cores available"
                );
                failed = true;
            }
            rows.push(row_json(family, *scale, csr, t, &out, base_host, bitwise));
            if base.is_none() {
                base = Some(out);
            }
        }
    }

    // ---- out-of-core row: cap simulated device memory below the largest
    // CSR so upload_auto must route it through the host/PCIe path.
    let ooc_json = if args.smoke {
        String::new()
    } else {
        let (family, scale, csr) = graphs.last().expect("at least one graph");
        let cap = (csr.bytes() as u64) / 2;
        let threads = *args.threads.last().expect("at least one thread count");
        eprintln!("{family} scale {scale}: re-running with device memory capped to {cap} bytes...");
        let out = run_bfs(csr, csr.max_degree().0, threads, Some(cap), false);
        if out.placement != Placement::OutOfCore {
            eprintln!("FAIL: memory-capped run was not routed out of core");
            failed = true;
        }
        if out.report.gteps() <= 0.0 {
            eprintln!("FAIL: out-of-core run traversed no edges");
            failed = true;
        }
        println!(
            "{family:<6} 2^{scale} {threads}t ooc  sim {:>9.4} ms  {:>7.3} GTEPS  host {:>8.2} s",
            out.report.seconds * 1e3,
            out.report.gteps(),
            out.report.host_seconds,
        );
        format!(
            ",\n  \"ooc\": {}",
            row_json(
                family,
                *scale,
                csr,
                threads,
                &out,
                out.report.host_seconds,
                true
            )
        )
    };

    // ---- sanitizer row: the smallest graph re-runs under the race
    // sanitizer and must come back clean (BFS writes are dirty-annotated
    // or atomic by construction).
    let sanitize_json = if args.smoke {
        String::new()
    } else {
        let (family, scale, csr) = graphs.first().expect("at least one graph");
        eprintln!("{family} scale {scale}: re-running under the race sanitizer...");
        let threads = *args.threads.last().expect("nonempty");
        let out = run_bfs(csr, csr.max_degree().0, threads, None, true);
        let hazards = out.report.hazards.len();
        if hazards != 0 {
            eprintln!("FAIL: sanitizer flagged {hazards} hazards on the BFS sweep");
            failed = true;
        }
        println!("{family:<6} 2^{scale} sanitize  {hazards} hazards");
        // the full telemetry row rides along, so the sanitized run's gate
        // and replay counters are auditable like any sweep row
        format!(
            ",\n  \"sanitize\": {{\"hazards\": {hazards}, \"clean\": {}, \"row\": {}}}",
            hazards == 0,
            row_json(
                family,
                *scale,
                csr,
                threads,
                &out,
                out.report.host_seconds,
                true
            )
        )
    };

    let speedup_reason = if speedup_enforced {
        format!("host has {host_cores} cores (>= 4): parallel-replay speedup gated")
    } else {
        format!(
            "host has {host_cores} core(s) (< 4): sharded replay has no cores to \
             spread across, rows recorded but speedup not gated"
        )
    };
    let json = format!(
        "{{\n  \"bench\": \"scale\",\n  \"host_cores\": {host_cores},\n  \
         \"speedup_enforced\": {speedup_enforced},\n  \
         \"speedup_enforced_reason\": \"{speedup_reason}\",\n  \"edge_factor\": {},\n  \
         \"rows\": [\n    {}\n  ]{ooc_json}{sanitize_json}\n}}\n",
        args.edge_factor,
        rows.join(",\n    "),
    );
    match write_validated(&args.out, &json) {
        Ok(()) => eprintln!("wrote {}", args.out),
        Err(e) => {
            eprintln!("FAIL: {e}");
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}
