//! `sage_cli` — run any application on any graph with any engine.
//!
//! ```text
//! sage_cli <app> [--graph FILE | --dataset NAME] [--engine NAME]
//!          [--source N] [--scale F] [--repeat N] [--out-of-core] [--profile]
//!          [--mode push|adaptive] [--sanitize]
//!
//!   app       bfs | bc | pr | cc | sssp | walk | serve
//!   --graph   edge-list file ("u v" per line, # comments) or .sagecsr binary
//!   --dataset uk-2002 | brain | ljournal | twitter | friendster
//!   --engine  sage (default) | sage-tp | naive | b40c | tigr | gunrock |
//!             ligra | subway (subway needs --out-of-core)
//!   --source  source node id (default 0)
//!   --scale   dataset scale when --dataset is used (default 0.2)
//!   --repeat  runs to average, at least 1 (default 1; resident tiles warm
//!             up across runs)
//!   --out-of-core  place the graph in host memory behind PCIe (the one
//!             placement subway runs on)
//!   --profile print Nsight-style counters after the run
//!   --mode    direction policy (default adaptive). `adaptive` is the
//!             three-way push / pull / matrix optimizer; the per-iteration
//!             trace letters are `>` push, `<` pull, `M` matrix (masked
//!             SpMV on the tensor units). Only bfs goes bottom-up, only on
//!             sage, sage-tp and naive, and never on out-of-core graphs;
//!             every other run pushes. `push` pins every iteration to push.
//!             Both modes produce bitwise-identical application output.
//!   --sanitize run the simulated kernels under the race sanitizer; any
//!             detected cross-SM hazard is printed and makes the process
//!             exit 1. Sanitized runs report bitwise-identical cycles and
//!             cache counters. Every mode (including serve and walk) takes
//!             it; it is the only switch.
//!
//! serve mode (concurrent query service over a device pool):
//!   sage_cli serve [--graph FILE | --dataset NAME] [--devices N] [--requests N]
//!
//! walk mode (deterministic random-walk engine on the adaptive runtime):
//!   sage_cli walk [--graph FILE | --dataset NAME] [--walk-app ppr|node2vec]
//!            [--walks N] [--length N] [--alpha F] [--p F] [--q F] [--seed N]
//!            [--source N] [--sanitize] [--profile]
//!
//!   --walk-app ppr (default) | node2vec
//!   --walks   walkers launched per source, at least 1 (default 256)
//!   --length  maximum walk length in steps, at least 1 (default 32)
//!   --alpha   PPR termination probability per step (default 0.15)
//!   --p, --q  node2vec return / in-out parameters, positive and finite
//!             (default 1.0 each)
//!   --seed    base of the counter RNG; same seed = bitwise-identical
//!             walks (default 42)
//!
//!   Walks draw each step over synthetic edge weights by inverse-transform
//!   sampling of the CSR row.
//! ```
//!
//! Example:
//! ```text
//! cargo run --release -p sage-bench --bin sage_cli -- bfs --dataset twitter --repeat 3 --profile
//! ```

use gpu_sim::{Device, DeviceConfig};
use sage::app::{App, Bc, Bfs, Cc, PageRank, Sssp};
use sage::engine::{
    B40cEngine, Engine, GunrockEngine, LigraEngine, NaiveEngine, ResidentEngine, SubwayEngine,
    TigrEngine, TiledPartitioningEngine,
};
use sage::{DeviceGraph, Runner};
use sage_graph::datasets::Dataset;
use sage_graph::{io, Csr};
use std::io::{ErrorKind, Write};
use std::path::Path;
use std::process::exit;
use std::time::Instant;

/// Print one line to stdout through [`say_line`].
macro_rules! say {
    ($($arg:tt)*) => {
        say_line(format_args!($($arg)*))
    };
}

/// Every stdout line goes through here. A reader that closes the pipe
/// early (`sage_cli ... | head`) ends the process quietly with exit 0; any
/// other write error exits 1.
fn say_line(line: std::fmt::Arguments<'_>) {
    if let Err(e) = writeln!(std::io::stdout().lock(), "{line}") {
        if e.kind() == ErrorKind::BrokenPipe {
            exit(0);
        }
        eprintln!("cannot write to stdout: {e}");
        exit(1);
    }
}

/// Builds one traversal app on the device.
type MakeApp = fn(&mut Device) -> Box<dyn App>;

/// The traversal apps by name: the one list that both the accepted-name
/// check and the dispatch read.
const APPS: [(&str, MakeApp); 5] = [
    ("bfs", |dev| Box::new(Bfs::new(dev))),
    ("bc", |dev| Box::new(Bc::new(dev))),
    ("pr", |dev| Box::new(PageRank::with_defaults(dev))),
    ("cc", |dev| Box::new(Cc::new(dev))),
    ("sssp", |dev| Box::new(Sssp::new(dev))),
];

/// Builds one engine on the device for the graph.
type MakeEngine = fn(&mut Device, &Csr) -> Box<dyn Engine>;

/// The engines by name: the one list that both the accepted-name check and
/// the dispatch read.
const ENGINES: [(&str, MakeEngine); 8] = [
    ("sage", |_, _| Box::new(ResidentEngine::new())),
    ("sage-tp", |_, _| Box::new(TiledPartitioningEngine::new())),
    ("naive", |_, _| Box::new(NaiveEngine::new())),
    ("b40c", |_, _| Box::new(B40cEngine::new())),
    ("tigr", |dev, csr| Box::new(TigrEngine::new(dev, csr))),
    ("gunrock", |_, _| Box::new(GunrockEngine::new())),
    ("ligra", |_, _| Box::new(LigraEngine::new())),
    ("subway", |dev, csr| {
        Box::new(SubwayEngine::new(dev, csr.num_edges()))
    }),
];

/// What the first argument selected.
enum Command {
    App(MakeApp),
    Walk,
    Serve,
}

struct Args {
    app: String,
    command: Command,
    graph: Option<String>,
    dataset: Option<String>,
    engine: &'static str,
    make_engine: MakeEngine,
    source: u32,
    scale: f64,
    repeat: usize,
    out_of_core: bool,
    profile: bool,
    /// `--mode push`: pin every iteration to push.
    push_only: bool,
    sanitize: bool,
    devices: usize,
    requests: usize,
    walk_app: String,
    walks: usize,
    length: usize,
    alpha: f64,
    p: f64,
    q: f64,
    seed: u64,
}

/// The end of a run or walk: the `--profile` breakdown, then exit 1 when
/// the sanitizer detected a hazard.
fn epilogue(args: &Args, dev: &Device) {
    if args.profile {
        say!("\nprofiler:\n{}", dev.profiler());
        say!("\nkernel breakdown:");
        for (name, launches, secs) in dev.kernel_breakdown() {
            say!(
                "  {name:<22} {launches:>6} launches  {:>10.3} ms",
                secs * 1e3
            );
        }
    }
    if !dev.hazards().is_empty() {
        eprintln!("\nsanitizer: {} hazards detected", dev.hazard_count());
        for h in dev.hazards() {
            eprintln!("  {h}");
        }
        exit(1);
    }
}

fn usage() -> ! {
    let apps: Vec<&str> = APPS.iter().map(|&(name, _)| name).collect();
    eprintln!(
        "usage: sage_cli <{}> [--graph FILE | --dataset NAME] \
         [--engine sage|sage-tp|naive|b40c|tigr|gunrock|ligra|subway] \
         [--source N] [--scale F] [--repeat N] [--out-of-core] [--profile] \
         [--mode push|adaptive] [--sanitize] \
         (subway needs --out-of-core)\n\
         \x20      sage_cli serve [--graph FILE | --dataset NAME] [--devices N] [--requests N] \
         [--sanitize]\n\
         \x20      sage_cli walk [--graph FILE | --dataset NAME] [--walk-app ppr|node2vec] \
         [--walks N] [--length N] [--alpha F] [--p F] [--q F] [--seed N] \
         [--source N] [--sanitize] [--profile]",
        apps.join("|")
    );
    exit(2)
}

/// The value of count flag `name`, refused (exit 2) when it is not a
/// positive integer.
fn count(name: &str, value: &str) -> usize {
    let n: usize = value.parse().unwrap_or_else(|_| usage());
    if n == 0 {
        eprintln!("{name} must be at least 1");
        exit(2);
    }
    n
}

fn parse_args() -> Args {
    let mut argv = std::env::args().skip(1);
    let app = argv.next().unwrap_or_else(|| usage());
    let command = match app.as_str() {
        "walk" => Command::Walk,
        "serve" => Command::Serve,
        name => match APPS.iter().find(|&&(n, _)| n == name) {
            Some(&(_, make)) => Command::App(make),
            None => {
                eprintln!("unknown app {app:?}");
                usage()
            }
        },
    };
    let mut args = Args {
        app,
        command,
        graph: None,
        dataset: None,
        engine: ENGINES[0].0,
        make_engine: ENGINES[0].1,
        source: 0,
        scale: 0.2,
        repeat: 1,
        out_of_core: false,
        profile: false,
        push_only: false,
        sanitize: false,
        devices: 2,
        requests: 64,
        walk_app: "ppr".into(),
        walks: 256,
        length: 32,
        alpha: 0.15,
        p: 1.0,
        q: 1.0,
        seed: 42,
    };
    while let Some(flag) = argv.next() {
        let mut value = |name: &str| -> String {
            argv.next().unwrap_or_else(|| {
                eprintln!("{name} needs a value");
                usage()
            })
        };
        match flag.as_str() {
            "--graph" => args.graph = Some(value("--graph")),
            "--dataset" => args.dataset = Some(value("--dataset")),
            "--engine" => {
                let name = value("--engine");
                let Some(&(engine, make)) = ENGINES.iter().find(|&&(n, _)| n == name) else {
                    eprintln!("unknown engine {name:?}");
                    usage()
                };
                (args.engine, args.make_engine) = (engine, make);
            }
            "--source" => args.source = value("--source").parse().unwrap_or_else(|_| usage()),
            "--scale" => {
                args.scale = value("--scale").parse().unwrap_or_else(|_| usage());
                if !(args.scale > 0.0 && args.scale.is_finite()) {
                    eprintln!("--scale must be positive and finite, got {}", args.scale);
                    exit(2);
                }
            }
            "--repeat" => args.repeat = count("--repeat", &value("--repeat")),
            "--out-of-core" => args.out_of_core = true,
            "--profile" => args.profile = true,
            "--mode" => {
                args.push_only = match value("--mode").as_str() {
                    "push" => true,
                    "adaptive" => false,
                    other => {
                        eprintln!("unknown mode {other:?} (want push|adaptive)");
                        usage()
                    }
                }
            }
            "--sanitize" => args.sanitize = true,
            "--devices" => args.devices = count("--devices", &value("--devices")),
            "--requests" => args.requests = count("--requests", &value("--requests")),
            "--walk-app" => args.walk_app = value("--walk-app"),
            "--walks" => args.walks = count("--walks", &value("--walks")),
            "--length" => args.length = count("--length", &value("--length")),
            "--alpha" => args.alpha = value("--alpha").parse().unwrap_or_else(|_| usage()),
            "--p" => args.p = value("--p").parse().unwrap_or_else(|_| usage()),
            "--q" => args.q = value("--q").parse().unwrap_or_else(|_| usage()),
            "--seed" => args.seed = value("--seed").parse().unwrap_or_else(|_| usage()),
            _ => {
                eprintln!("unknown flag {flag:?}");
                usage();
            }
        }
    }
    check_combinations(&args);
    args
}

/// Refuse (exit 2) flag values that are only wrong together, before any
/// graph is loaded or generated.
fn check_combinations(args: &Args) {
    if args.engine == "subway" && !args.out_of_core {
        eprintln!("--engine subway needs --out-of-core");
        exit(2);
    }
    if !matches!(args.command, Command::Walk) {
        return;
    }
    match args.walk_app.as_str() {
        "ppr" => {
            if !(args.alpha > 0.0 && args.alpha < 1.0) {
                eprintln!("--alpha must lie in (0, 1), got {}", args.alpha);
                exit(2);
            }
        }
        "node2vec" | "n2v" => {
            for (flag, v) in [("--p", args.p), ("--q", args.q)] {
                if !(v > 0.0 && v.is_finite()) {
                    eprintln!("{flag} must be positive and finite, got {v}");
                    exit(2);
                }
            }
        }
        other => {
            eprintln!("unknown walk app {other:?} (want ppr|node2vec)");
            usage()
        }
    }
}

fn load_graph(args: &Args) -> Csr {
    if let Some(path) = &args.graph {
        let p = Path::new(path);
        let file = std::fs::File::open(p).unwrap_or_else(|e| {
            eprintln!("cannot open {path}: {e}");
            exit(1)
        });
        let result = if path.ends_with(".sagecsr") {
            io::read_csr_binary(file)
        } else {
            io::read_edge_list(file)
        };
        result.unwrap_or_else(|e| {
            eprintln!("cannot parse {path}: {e}");
            exit(1)
        })
    } else if let Some(name) = &args.dataset {
        let d = Dataset::ALL
            .iter()
            .find(|d| d.name() == name)
            .unwrap_or_else(|| {
                eprintln!("unknown dataset {name:?}");
                usage()
            });
        d.generate(args.scale)
    } else {
        eprintln!("one of --graph or --dataset is required");
        usage()
    }
}

/// The simulated device of a run or walk: the default configuration, under
/// the race sanitizer with `--sanitize`.
fn device(args: &Args) -> Device {
    Device::new(DeviceConfig {
        sanitize: args.sanitize,
        ..DeviceConfig::default()
    })
}

/// `sage_cli walk`: run a deterministic random-walk batch on the adaptive
/// runtime and print the terminal distribution of the hottest nodes.
fn walk_mode(args: &Args, csr: Csr) {
    use sage::walk::{Node2vec, Ppr, WalkApp, WalkSpec, WalkWeights};
    use sage::SageRuntime;

    if (args.source as usize) >= csr.num_nodes() {
        eprintln!("source {} out of range", args.source);
        exit(1);
    }
    // parse_args accepted the app and its parameters
    let app: Box<dyn WalkApp> = if args.walk_app == "ppr" {
        Box::new(Ppr::new(args.alpha))
    } else {
        Box::new(Node2vec::new(args.p, args.q))
    };
    let spec = WalkSpec {
        walks_per_source: args.walks,
        max_length: args.length,
        seed: args.seed,
        weights: WalkWeights::Synthetic,
    };

    let mut dev = device(args);
    say!(
        "graph: {} nodes, {} edges | app: {} | {} walks x {} steps, seed {}",
        csr.num_nodes(),
        csr.num_edges(),
        app.name(),
        spec.walks_per_source,
        spec.max_length,
        spec.seed,
    );
    let rt = SageRuntime::new(&mut dev, csr);
    let host_start = Instant::now();
    let out = rt.run_walk(&mut dev, app.as_ref(), &spec, &[args.source]);
    let host_seconds = host_start.elapsed().as_secs_f64();
    let r = &out.report;
    say!(
        "run 0: {r} | host {:.1} ms | {} walkers, {} steps",
        host_seconds * 1e3,
        out.walkers,
        out.steps,
    );

    let scores = out.endpoint_scores(0);
    let mut ranked: Vec<(u32, f32)> = scores
        .iter()
        .enumerate()
        .filter(|&(_, &s)| s > 0.0)
        .map(|(v, &s)| (v as u32, s))
        .collect();
    ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
    say!("top terminal nodes:");
    for (v, s) in ranked.iter().take(8) {
        say!("  node {v:<10} mass {s:.4}");
    }

    epilogue(args, &dev);
}

/// `sage_cli serve`: stand up the query service on a device pool and drive
/// a mixed closed-loop workload against the loaded graph.
fn serve_mode(args: &Args, csr: Csr) {
    use sage_serve::{AppKind, QueryRequest, SageService, ServiceConfig};

    let nodes = csr.num_nodes();
    if nodes == 0 {
        eprintln!("graph has no nodes: nothing to serve");
        exit(1);
    }
    let cfg = ServiceConfig {
        devices: args.devices,
        queue_capacity: args.requests.max(64) * 2,
        device_config: DeviceConfig {
            sanitize: args.sanitize,
            ..DeviceConfig::default()
        },
        ..ServiceConfig::default()
    };
    say!(
        "serving {} nodes / {} edges on {} devices ({} requests)",
        nodes,
        csr.num_edges(),
        cfg.devices,
        args.requests
    );
    let service = SageService::start(cfg);
    let g = service.register_graph("cli", csr);

    let apps = [AppKind::Bfs, AppKind::Pr, AppKind::Sssp, AppKind::Cc];
    let requests: Vec<QueryRequest> = (0..args.requests)
        .map(|i| QueryRequest {
            app: apps[i % apps.len()],
            graph: g,
            source: ((i * 13) % nodes) as u32,
        })
        .collect();

    // replay the same workload until the runtime's reordering converges
    // (a round that leaves the graph epoch unchanged no longer sweeps the
    // cache), then the warm round demonstrates the epoch-keyed cache.
    let run_round = |label: &str| {
        let before = service.stats();
        let tickets: Vec<_> = requests
            .iter()
            .map(|&request| {
                service
                    .submit(request)
                    .expect("queue sized for the workload")
            })
            .collect();
        let mut latencies: Vec<f64> = tickets
            .into_iter()
            .map(|t| {
                t.wait()
                    .expect("serving must not fail")
                    .latency()
                    .total_seconds()
            })
            .collect();
        latencies.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let pct = |q: f64| latencies[((q * latencies.len() as f64).ceil() as usize).max(1) - 1];
        let after = service.stats();
        let epoch = service.graph_epoch(g).unwrap_or(0);
        say!(
            "{label:<6} p50 {:.3} ms  p95 {:.3} ms  p99 {:.3} ms | cache {} hits / {} misses, {:.1} KiB held | epoch {epoch}",
            pct(0.50) * 1e3,
            pct(0.95) * 1e3,
            pct(0.99) * 1e3,
            after.cache_hits - before.cache_hits,
            after.cache_misses - before.cache_misses,
            after.cache_bytes as f64 / 1024.0,
        );
        epoch
    };

    let mut epoch = run_round("cold");
    for _ in 0..4 {
        let now = run_round("adapt");
        let settled = now == epoch;
        epoch = now;
        if settled {
            break;
        }
    }
    run_round("warm");
    let hazards = service.stats().hazards;
    service.shutdown();
    if hazards > 0 {
        eprintln!("sanitizer: {hazards} hazards detected across the device pool");
        exit(1);
    }
}

fn main() {
    let args = parse_args();
    let csr = load_graph(&args);
    let make_app = match args.command {
        Command::App(make) => make,
        Command::Walk => return walk_mode(&args, csr),
        Command::Serve => return serve_mode(&args, csr),
    };
    say!(
        "graph: {} nodes, {} edges | engine: {} | app: {}{}",
        csr.num_nodes(),
        csr.num_edges(),
        args.engine,
        args.app,
        if args.out_of_core {
            " | out-of-core"
        } else {
            ""
        }
    );
    if (args.source as usize) >= csr.num_nodes() {
        eprintln!("source {} out of range", args.source);
        exit(1);
    }

    let mut dev = device(&args);
    let mut engine = (args.make_engine)(&mut dev, &csr);
    let g = if args.out_of_core {
        // host-resident graphs stay push-only: the in-edge view would
        // double the PCIe-resident footprint
        DeviceGraph::upload_host(&mut dev, csr)
    } else {
        DeviceGraph::upload(&mut dev, csr).with_in_edges(&mut dev)
    };

    let mut app = make_app(&mut dev);

    let runner = if args.push_only {
        Runner::push_only()
    } else {
        Runner::new()
    };
    for i in 0..args.repeat {
        let host_start = Instant::now();
        let r = runner.run(&mut dev, &g, engine.as_mut(), app.as_mut(), args.source);
        let host_seconds = host_start.elapsed().as_secs_f64();
        say!("run {i}: {r} | host {:.1} ms", host_seconds * 1e3);
    }
    epilogue(&args, &dev);
}
