//! The two traversal workloads: repeated adaptive BFS on one uploaded
//! R-MAT graph (the traced/sharded replay path), and BFS/PageRank blocks on
//! a self-reordering `SageRuntime` at one host thread (the reorder and
//! atomic-scatter paths, with replay bypassed).

use crate::simstats::{self, Breakdown};
use crate::stats::{self, fingerprint, Rng};
use crate::trace::{SpanId, Tracer};
use crate::{Outcome, PhaseClock, LATENCY_LIMIT_S};
use gpu_sim::{Device, DeviceConfig, Profiler, ReplayStats};
use sage::app::{Bfs, PageRank};
use sage::engine::ResidentEngine;
use sage::{reference, DeviceGraph, RunReport, Runner, SageRuntime};
use sage_graph::gen::{rmat_graph, social_graph, SocialParams};
use sage_graph::{Csr, NodeId};
use std::collections::HashMap;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median. Adapt's set-up takes a fifth
/// of a second, so it repeats more often for a steady median.
pub const SETUPS: usize = 3;
const ADAPT_SETUPS: usize = 7;

/// RNG streams drawn from the one `--seed`.
pub const GRAPH_STREAM: u64 = 1;
pub const SOURCE_STREAM: u64 = 2;

/// BFS sources cycled on `bfs-rmat17-t2`, one per degree stratum; the
/// first cycle is the deterministic window behind `sim_gteps` and the
/// `sim.*` counters, and its first `BFS_REPEATED` runs are repeated on a
/// fresh device.
const BFS_SOURCES: usize = 64;
const BFS_REPEATED: usize = 16;

/// BFS + PageRank blocks forming the deterministic window on
/// `adapt-social16-t1`; the first block is also replayed on a fresh runtime.
const ADAPT_WINDOW_BLOCKS: usize = 3;
const ADAPT_BFS_PER_BLOCK: usize = 3;
const PR_ITERS: usize = 10;

/// `n` distinct sources with out-degree > 0.
pub fn pick_sources(csr: &Csr, rng: &mut Rng, n: usize) -> Vec<NodeId> {
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let v = rng.below(csr.num_nodes()) as NodeId;
        if csr.degree(v) > 0 && !out.contains(&v) {
            out.push(v);
        }
    }
    out
}

/// Nodes with out-degree > 0, ordered by degree.
fn by_degree(csr: &Csr) -> Vec<NodeId> {
    let mut nodes: Vec<NodeId> = (0..csr.num_nodes() as NodeId)
        .filter(|&v| csr.degree(v) > 0)
        .collect();
    nodes.sort_by_key(|&v| (csr.degree(v), v));
    nodes
}

/// `n` sources, one drawn from each of `n` equal strata of `by_degree`, so
/// every seed covers hubs and leaves alike and the cost of a set of sources
/// varies little between seeds.
fn stratified_sources(by_degree: &[NodeId], rng: &mut Rng, n: usize) -> Vec<NodeId> {
    (0..n)
        .map(|i| {
            let (lo, hi) = (i * by_degree.len() / n, (i + 1) * by_degree.len() / n);
            by_degree[lo + rng.below(hi - lo)]
        })
        .collect()
}

/// What a run produced, reduced to what verification needs.
enum Output {
    Levels(u64),
    Ranks(Vec<f32>),
}

/// One measured operation: a traversal run and the reorder check after it.
struct Op {
    app: &'static str,
    source: NodeId,
    report: RunReport,
    run_s: f64,
    reorder_s: f64,
    output: Output,
}

impl Op {
    fn wall_s(&self) -> f64 {
        self.run_s + self.reorder_s
    }
}

/// The simulated fields of a report, as bits.
fn report_sig(r: &RunReport) -> (u64, u64, usize, u64, u64, String) {
    (
        r.edges,
        r.edges_examined,
        r.iterations,
        r.seconds.to_bits(),
        r.overhead_seconds.to_bits(),
        r.direction_trace.clone(),
    )
}

/// Simulated telemetry at one instant.
struct Snapshot {
    profiler: Profiler,
    replay: ReplayStats,
    kernels: Breakdown,
}

fn snapshot(dev: &mut Device, tr: &mut Tracer, parent: Option<SpanId>) -> Snapshot {
    tr.time("bench.telemetry", parent, || Snapshot {
        profiler: dev.profiler_snapshot(),
        replay: dev.replay_stats().clone(),
        kernels: simstats::breakdown(dev.kernel_breakdown()),
    })
    .0
}

/// The simulated counters between two snapshots, as bits.
fn window_sig(a: &Snapshot, b: &Snapshot) -> Vec<u64> {
    simstats::signature(
        &simstats::profiler_delta(&b.profiler, &a.profiler),
        &simstats::breakdown_delta(&b.kernels, &a.kernels),
    )
}

/// Compare a replicated prefix against the measured one, bit for bit.
fn check_repeat(
    out: &mut Outcome,
    what: &str,
    ops: &[Op],
    reports: &[RunReport],
    sig: (&[u64], &[u64]),
) {
    let same_reports = ops.len() == reports.len()
        && ops
            .iter()
            .zip(reports)
            .all(|(o, r)| report_sig(&o.report) == report_sig(r));
    if !same_reports {
        out.problems.push(format!(
            "{what}: run reports differ when the runs are repeated"
        ));
    }
    if sig.0 != sig.1 {
        out.problems.push(format!(
            "{what}: sim.* counters differ when the runs are repeated"
        ));
    }
    if same_reports && sig.0 == sig.1 {
        out.notes.push(format!(
            "determinism: {} runs repeated on a fresh device, simulated counters identical",
            reports.len()
        ));
    }
}

/// End-to-end and pipeline metrics common to both traversal workloads.
fn add_traversal_metrics(out: &mut Outcome, ops: &[Op], window: &[Op], setup_s: &[f64]) {
    let edges: u64 = ops.iter().map(|o| o.report.edges).sum();
    let host: f64 = ops.iter().map(Op::wall_s).sum();
    let w_edges: u64 = window.iter().map(|o| o.report.edges).sum();
    let w_sim: f64 = window.iter().map(|o| o.report.seconds).sum();
    out.e2e.insert("setup_s", stats::median(setup_s));
    out.e2e.insert("sim_gteps", w_edges as f64 / w_sim / 1e9);
    out.layers
        .set("host.medges_per_s", edges as f64 / host / 1e6);
    let within = ops.iter().filter(|o| o.wall_s() <= LATENCY_LIMIT_S).count();
    out.layers.set("lat.goodput_qps", within as f64 / host);
    out.set_latencies(ops.iter().map(Op::wall_s).collect());
    out.notes.push(format!(
        "{} runs, {:.1} M simulated edges in {:.3} host s; window of {} runs: {:.1} M edges in {:.6} simulated s",
        ops.len(),
        edges as f64 / 1e6,
        host,
        window.len(),
        w_edges as f64 / 1e6,
        w_sim
    ));

    let l = &mut out.layers;
    for app in ["bfs", "pr"] {
        let walls = stats::sorted(
            ops.iter()
                .filter(|o| o.app == app)
                .map(|o| o.run_s * 1e3)
                .collect(),
        );
        l.set_owned(
            format!("pipeline.run_ms_p50.{app}"),
            stats::percentile(&walls, 0.5),
        );
        l.set_owned(
            format!("pipeline.run_ms_max.{app}"),
            walls.last().copied().unwrap_or(0.0),
        );
    }
    for (letter, name) in [('>', "push"), ('<', "pull"), ('M', "matrix")] {
        let n: usize = window
            .iter()
            .map(|o| {
                o.report
                    .direction_trace
                    .chars()
                    .filter(|&c| c == letter)
                    .count()
            })
            .sum();
        l.set_owned(format!("pipeline.iters.{name}"), n as f64);
    }
    let examined: u64 = window.iter().map(|o| o.report.edges_examined).sum();
    let overhead: f64 = window.iter().map(|o| o.report.overhead_seconds).sum();
    l.set(
        "pipeline.examined_ratio",
        examined as f64 / w_edges.max(1) as f64,
    );
    l.set("pipeline.overhead_frac", overhead / w_sim);
}

/// `sim.*`, `replay.*` and host-cost metrics of the deterministic window.
fn add_window_metrics(out: &mut Outcome, a: &Snapshot, b: &Snapshot, window: &[Op]) {
    let p = simstats::profiler_delta(&b.profiler, &a.profiler);
    let k = simstats::breakdown_delta(&b.kernels, &a.kernels);
    simstats::add_sim(&mut out.layers, &p, &k);
    simstats::add_replay(
        &mut out.layers,
        &simstats::replay_delta(&b.replay, &a.replay),
    );
    let run_s: f64 = window.iter().map(|o| o.run_s).sum();
    out.layers.set(
        "sim.host_ns_per_sector",
        run_s * 1e9 / p.total_sectors().max(1) as f64,
    );
    let top: Vec<String> = k
        .iter()
        .map(|(name, &(n, s))| format!("{name} x{n} {:.3} ms", s * 1e3))
        .collect();
    out.notes
        .push(format!("kernels in window: {}", top.join(", ")));
}

/// The uploaded graph plus everything a BFS run needs.
struct BfsState {
    dev: Device,
    graph: DeviceGraph,
    engine: ResidentEngine,
    app: Bfs,
    runner: Runner,
}

fn bfs_setup(csr: Csr, tr: &mut Tracer, root: Option<SpanId>) -> (BfsState, f64) {
    tr.time("dgraph.upload", root, || {
        let mut dev = Device::new(DeviceConfig::default());
        dev.set_host_threads(2);
        let graph = DeviceGraph::upload(&mut dev, csr).with_in_edges(&mut dev);
        let app = Bfs::new(&mut dev);
        BfsState {
            dev,
            graph,
            engine: ResidentEngine::new(),
            app,
            runner: Runner::new(),
        }
    })
}

impl BfsState {
    fn run(&mut self, source: NodeId) -> RunReport {
        self.runner.run(
            &mut self.dev,
            &self.graph,
            &mut self.engine,
            &mut self.app,
            source,
        )
    }
}

/// `bfs-rmat17-t2`: adaptive three-way BFS on R-MAT 2^17 (edge factor 16),
/// two host threads, one device and one uploaded graph for every run.
pub fn bfs(seed: u64, seconds: f64, tr: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let graph_seed = Rng::new(seed, GRAPH_STREAM).next_u64();
    let (mut setup_s, mut gen_s, mut upload_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut state = None;
    let mut sources = Vec::new();
    for _ in 0..SETUPS {
        drop(state.take());
        let root = tr.open("setup", None);
        let (csr, g) = tr.time("graph.gen", root, || rmat_graph(17, 16, graph_seed));
        // sources: the first is the warm-up run's, the rest are measured;
        // picking them is the benchmark's work, so it is not timed
        let mut rng = Rng::new(seed, SOURCE_STREAM);
        sources = pick_sources(&csr, &mut rng, 1);
        sources.extend(stratified_sources(&by_degree(&csr), &mut rng, BFS_SOURCES));
        let (mut st, u) = bfs_setup(csr, tr, root);
        let (_, w) = tr.time("pipeline.warmup", root, || st.run(sources[0]));
        setup_s.push(g + u + w);
        tr.close(root);
        gen_s.push(g);
        upload_s.push(u);
        state = Some(st);
    }
    let mut st = state.expect("at least one set-up");
    let warm = sources.remove(0);
    let csr = st.graph.csr();
    out.layers.set("graph.gen_s", stats::median(&gen_s));
    out.layers.set("graph.nodes", csr.num_nodes() as f64);
    out.layers.set("graph.edges", csr.num_edges() as f64);
    out.layers.set("dgraph.upload_s", stats::median(&upload_s));

    let root = tr.open("measure", None);
    let s0 = snapshot(&mut st.dev, tr, root);
    let mut clock = PhaseClock::start();
    let start = Instant::now();
    let mut ops: Vec<Op> = Vec::new();
    let (mut s_repeated, mut s1) = (None, None);
    while ops.len() < BFS_SOURCES || start.elapsed().as_secs_f64() < seconds {
        let source = sources[ops.len() % BFS_SOURCES];
        let (report, run_s) = tr.time("pipeline.run", root, || st.run(source));
        let (fp, _) = tr.time("bench.verify", root, || fingerprint(st.app.distances()));
        ops.push(Op {
            app: "bfs",
            source,
            report,
            run_s,
            reorder_s: 0.0,
            output: Output::Levels(fp),
        });
        clock.sample_rss();
        if ops.len() == BFS_REPEATED {
            s_repeated = Some(snapshot(&mut st.dev, tr, root));
        }
        if ops.len() == BFS_SOURCES {
            s1 = Some(snapshot(&mut st.dev, tr, root));
        }
    }
    tr.close(root);
    clock.finish(&mut out, ops.iter().map(|o| o.report.edges as f64).sum());
    let s1 = s1.expect("the window always completes");
    let s_repeated = s_repeated.expect("the window always completes");
    let window = &ops[..BFS_SOURCES];
    add_traversal_metrics(&mut out, &ops, window, &setup_s);
    add_window_metrics(&mut out, &s0, &s1, window);
    if out.layers.get("replay.traced_kernels") == 0.0 {
        out.problems
            .push("bfs-rmat17-t2 must run the trace/replay backend, but traced no kernel".into());
    }

    tr.time("bench.verify", None, || {
        let mut want: HashMap<NodeId, u64> = HashMap::new();
        for op in &ops {
            let w = *want
                .entry(op.source)
                .or_insert_with(|| fingerprint(&reference::bfs_levels(st.graph.csr(), op.source)));
            if !matches!(op.output, Output::Levels(fp) if fp == w) {
                out.failed += 1;
                out.notes
                    .push(format!("bfs from {} differs from the reference", op.source));
            }
        }
    });
    out.attempted = ops.len() as u64;

    // repeat the window's first runs on a fresh device: simulated results
    // must repeat bit for bit
    let csr = st.graph.csr().clone();
    drop(st);
    tr.time("bench.replicate", None, || {
        let (mut fresh, _) = bfs_setup(csr, &mut Tracer::new(false), None);
        fresh.run(warm);
        let mut quiet = Tracer::new(false);
        let a = snapshot(&mut fresh.dev, &mut quiet, None);
        let reports: Vec<RunReport> = sources[..BFS_REPEATED]
            .iter()
            .map(|&s| fresh.run(s))
            .collect();
        let b = snapshot(&mut fresh.dev, &mut quiet, None);
        check_repeat(
            &mut out,
            "bfs-rmat17-t2",
            &window[..BFS_REPEATED],
            &reports,
            (&window_sig(&s0, &s_repeated), &window_sig(&a, &b)),
        );
    });
    out
}

/// Either app of an adapt block.
enum AdaptApp {
    Bfs(NodeId),
    Pr,
}

struct AdaptState {
    dev: Device,
    rt: SageRuntime,
    bfs: Bfs,
    pr: PageRank,
}

fn adapt_setup(csr: Csr, tr: &mut Tracer, root: Option<SpanId>) -> (AdaptState, f64) {
    tr.time("dgraph.upload", root, || {
        let mut dev = Device::new(DeviceConfig::default());
        dev.set_host_threads(1);
        let rt = SageRuntime::new(&mut dev, csr);
        let bfs = Bfs::new(&mut dev);
        let pr = PageRank::new(&mut dev, PR_ITERS, 0.0);
        AdaptState { dev, rt, bfs, pr }
    })
}

/// Reorder bookkeeping from outside the runtime: a round that raised the
/// round count committed, one that lowered it rolled back.
#[derive(Default)]
struct ReorderLog {
    commits: u64,
    rollbacks: u64,
    round_s: Vec<f64>,
}

impl AdaptState {
    /// Run one app, capture its output in original ids, then let the
    /// runtime reorder.
    fn op(
        &mut self,
        app: &AdaptApp,
        tr: &mut Tracer,
        root: Option<SpanId>,
        log: &mut ReorderLog,
    ) -> Op {
        let (source, name) = match *app {
            AdaptApp::Bfs(s) => (s, "bfs"),
            AdaptApp::Pr => (0, "pr"),
        };
        let (report, run_s) = tr.time("pipeline.run", root, || match app {
            AdaptApp::Bfs(s) => self.rt.run(&mut self.dev, &mut self.bfs, *s),
            AdaptApp::Pr => self.rt.run(&mut self.dev, &mut self.pr, 0),
        });
        let (output, _) = tr.time("bench.verify", root, || match app {
            AdaptApp::Bfs(_) => Output::Levels(fingerprint(
                &self.rt.to_original_order(self.bfs.distances()),
            )),
            AdaptApp::Pr => Output::Ranks(self.rt.to_original_order(self.pr.ranks())),
        });
        let (rounds, epoch, converged) = (self.rt.rounds(), self.rt.epoch(), self.rt.converged());
        let (_, reorder_s) = tr.time("runtime.reorder", root, || {
            self.rt.maybe_reorder(&mut self.dev)
        });
        if self.rt.rounds() > rounds {
            log.commits += 1;
        } else if self.rt.rounds() < rounds {
            log.rollbacks += 1;
        }
        if self.rt.epoch() != epoch || self.rt.converged() != converged {
            log.round_s.push(reorder_s);
        }
        Op {
            app: name,
            source,
            report,
            run_s,
            reorder_s,
            output,
        }
    }
}

fn adapt_block(sources: &[NodeId]) -> Vec<AdaptApp> {
    let mut apps: Vec<AdaptApp> = sources.iter().map(|&s| AdaptApp::Bfs(s)).collect();
    apps.push(AdaptApp::Pr);
    apps
}

/// `adapt-social16-t1`: blocks of three BFS and one 10-iteration PageRank
/// on a self-reordering `SageRuntime` over a 2^16-node social graph, one
/// host thread, `maybe_reorder` after every run.
pub fn adapt(seed: u64, seconds: f64, tr: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let params = SocialParams {
        nodes: 1 << 16,
        avg_deg: 16.0,
        alpha: 2.0,
        max_deg_frac: 0.01,
        seed: Rng::new(seed, GRAPH_STREAM).next_u64(),
        ..SocialParams::default()
    };
    let (mut setup_s, mut gen_s, mut upload_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut state = None;
    let mut original = None;
    for _ in 0..ADAPT_SETUPS {
        drop(state.take());
        let root = tr.open("setup", None);
        let (csr, g) = tr.time("graph.gen", root, || social_graph(&params));
        // the reference copy is the benchmark's, so it is not timed
        original = Some(csr.clone());
        let (st, u) = adapt_setup(csr, tr, root);
        tr.close(root);
        setup_s.push(g + u);
        gen_s.push(g);
        upload_s.push(u);
        state = Some(st);
    }
    let mut st = state.expect("at least one set-up");
    let original = original.expect("at least one set-up");
    out.layers.set("graph.gen_s", stats::median(&gen_s));
    out.layers.set("graph.nodes", original.num_nodes() as f64);
    out.layers.set("graph.edges", original.num_edges() as f64);
    out.layers.set("dgraph.upload_s", stats::median(&upload_s));

    let mut src_rng = Rng::new(seed, SOURCE_STREAM);
    let ranked = by_degree(&original);
    let mut blocks: Vec<Vec<NodeId>> = Vec::new();
    let mut log = ReorderLog::default();
    let mut ops: Vec<Op> = Vec::new();
    let root = tr.open("measure", None);
    let s0 = snapshot(&mut st.dev, tr, root);
    let (mut s_block1, mut s1, mut window_log) = (None, None, (0, 0, 0));
    let mut clock = PhaseClock::start();
    let start = Instant::now();
    while blocks.len() < ADAPT_WINDOW_BLOCKS || start.elapsed().as_secs_f64() < seconds {
        let sources = stratified_sources(&ranked, &mut src_rng, ADAPT_BFS_PER_BLOCK);
        for app in adapt_block(&sources) {
            let op = st.op(&app, tr, root, &mut log);
            ops.push(op);
            clock.sample_rss();
        }
        blocks.push(sources);
        if blocks.len() == 1 {
            s_block1 = Some(snapshot(&mut st.dev, tr, root));
        }
        if blocks.len() == ADAPT_WINDOW_BLOCKS {
            s1 = Some(snapshot(&mut st.dev, tr, root));
            window_log = (log.commits, log.rollbacks, st.rt.epoch());
        }
    }
    let s_all = snapshot(&mut st.dev, tr, root);
    tr.close(root);
    clock.finish(&mut out, ops.iter().map(|o| o.report.edges as f64).sum());
    let s1 = s1.expect("the window always completes");
    let s_block1 = s_block1.expect("the window always completes");
    let window_len = ADAPT_WINDOW_BLOCKS * (ADAPT_BFS_PER_BLOCK + 1);
    let window = &ops[..window_len];
    add_traversal_metrics(&mut out, &ops, window, &setup_s);
    add_window_metrics(&mut out, &s0, &s1, window);
    let l = &mut out.layers;
    l.set("reorder.commits", window_log.0 as f64);
    l.set("reorder.rollbacks", window_log.1 as f64);
    l.set("reorder.epoch", window_log.2 as f64);
    let rounds = stats::sorted(log.round_s.iter().map(|s| s * 1e3).collect());
    l.set("reorder.round_ms", stats::percentile(&rounds, 0.5));
    out.notes.push(format!(
        "reorder: {} commits, {} rollbacks, epoch {} in the window; {} rounds over {} blocks, converged {}",
        window_log.0,
        window_log.1,
        window_log.2,
        log.round_s.len(),
        blocks.len(),
        st.rt.converged()
    ));
    let traced = simstats::replay_delta(&s_all.replay, &s0.replay).traced_kernels;
    if traced != 0 {
        out.problems.push(format!(
            "adapt-social16-t1 runs at one host thread and must bypass replay, but traced {traced} kernels"
        ));
    }

    tr.time("bench.verify", None, || {
        let mut want: HashMap<NodeId, u64> = HashMap::new();
        let want_pr = reference::pagerank(&original, PR_ITERS);
        for op in &ops {
            let ok = match &op.output {
                Output::Levels(fp) => {
                    *fp == *want.entry(op.source).or_insert_with(|| {
                        fingerprint(&reference::bfs_levels(&original, op.source))
                    })
                }
                Output::Ranks(got) => {
                    got.len() == want_pr.len()
                        && got
                            .iter()
                            .zip(&want_pr)
                            .all(|(&g, &w)| (f64::from(g) - w).abs() <= 1e-4 + 1e-2 * w)
                }
            };
            if !ok {
                out.failed += 1;
                out.notes.push(format!(
                    "{} from {} differs from the reference",
                    op.app, op.source
                ));
            }
        }
    });
    out.attempted = ops.len() as u64;

    // repeat the first block on a fresh runtime: it must match bit for bit
    drop(st);
    tr.time("bench.replicate", None, || {
        let mut quiet = Tracer::new(false);
        let (mut fresh, _) = adapt_setup(original.clone(), &mut quiet, None);
        let a = snapshot(&mut fresh.dev, &mut quiet, None);
        let mut fresh_log = ReorderLog::default();
        let reports: Vec<RunReport> = adapt_block(&blocks[0])
            .iter()
            .map(|app| fresh.op(app, &mut quiet, None, &mut fresh_log).report)
            .collect();
        let b = snapshot(&mut fresh.dev, &mut quiet, None);
        check_repeat(
            &mut out,
            "adapt-social16-t1",
            &ops[..reports.len()],
            &reports,
            (&window_sig(&s0, &s_block1), &window_sig(&a, &b)),
        );
    });
    out
}
