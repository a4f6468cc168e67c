//! Integration: the three architectural scenarios (§7.2) — single-GPU,
//! out-of-core, multi-GPU — plus the dynamic-graph workflow.

use gpu_sim::Device;
use sage::app::{Bfs, PageRank};
use sage::engine::{ResidentEngine, SubwayEngine};
use sage::multigpu::{bfs_multi_distances, run_bfs_multi, MgKind, MultiGpuConfig};
use sage::ooc::sage_out_of_core;
use sage::{reference, DeviceGraph, Runner, SageRuntime};
use sage_graph::datasets::Dataset;
use sage_graph::update::UpdateBatch;

#[test]
fn out_of_core_matches_in_core_results() {
    let csr = Dataset::Ljournal.generate(0.03);
    let expect = reference::bfs_levels(&csr, 4);

    let mut dev = Device::default_device();
    let (g, mut engine) = sage_out_of_core(&mut dev, csr.clone());
    let mut app = Bfs::new(&mut dev);
    let _ = Runner::new().run(&mut dev, &g, &mut engine, &mut app, 4);
    assert_eq!(app.distances(), expect.as_slice());
    assert!(dev.profiler().pcie_bytes > 0);

    let mut dev2 = Device::default_device();
    let mut subway = SubwayEngine::new(&mut dev2, csr.num_edges());
    let g2 = DeviceGraph::upload_host(&mut dev2, csr);
    let mut app2 = Bfs::new(&mut dev2);
    let _ = Runner::new().run(&mut dev2, &g2, &mut subway, &mut app2, 4);
    assert_eq!(app2.distances(), expect.as_slice());
}

#[test]
fn out_of_core_pagerank_works() {
    let csr = Dataset::Uk2002.generate(0.02);
    let expect = reference::pagerank(&csr, 3);
    let mut dev = Device::default_device();
    let (g, mut engine) = sage_out_of_core(&mut dev, csr);
    let mut app = PageRank::new(&mut dev, 3, 0.0);
    let _ = Runner::new().run(&mut dev, &g, &mut engine, &mut app, 0);
    for (i, (&got, &want)) in app.ranks().iter().zip(&expect).enumerate() {
        assert!(
            (f64::from(got) - want).abs() < 1e-4 + 5e-2 * want,
            "pr[{i}]: {got} vs {want}"
        );
    }
}

#[test]
fn multi_gpu_all_strategies_correct() {
    let csr = Dataset::Uk2002.generate(0.02);
    let expect = reference::bfs_levels(&csr, 6);
    for gpus in [1usize, 2] {
        let cfg = MultiGpuConfig {
            gpus,
            kind: MgKind::Sage,
            metis: false,
        };
        assert_eq!(
            bfs_multi_distances(&cfg, &csr, 6),
            expect,
            "multi-GPU BFS wrong with {gpus} GPUs"
        );
    }
}

#[test]
fn multi_gpu_reports_cover_same_traversal() {
    let csr = Dataset::Ljournal.generate(0.02);
    let mut edge_counts = Vec::new();
    for kind in [MgKind::Sage, MgKind::Gunrock, MgKind::Groute] {
        let cfg = MultiGpuConfig {
            gpus: 2,
            kind,
            metis: false,
        };
        let r = run_bfs_multi(&cfg, &csr, 0);
        assert!(r.seconds > 0.0);
        edge_counts.push(r.edges);
    }
    assert!(
        edge_counts.iter().all(|&e| e == edge_counts[0]),
        "all strategies traverse the same edges: {edge_counts:?}"
    );
}

#[test]
fn dynamic_updates_then_immediate_queries() {
    // §7.2: once the CSR receives updates, SAGE answers immediately and can
    // re-adapt by sampling; preprocessing-based orders would be invalidated.
    let csr = Dataset::Ljournal.generate(0.02);
    let mut batch = UpdateBatch::new();
    let n = csr.num_nodes() as u32;
    for i in 0..200u32 {
        batch.insert_undirected((i * 37) % n, (i * 101 + 5) % n);
    }
    let updated = batch.apply(&csr);
    let expect = reference::bfs_levels(&updated, 0);

    let mut dev = Device::default_device();
    let mut rt = SageRuntime::new(&mut dev, updated);
    let mut app = Bfs::new(&mut dev);
    let r = rt.run(&mut dev, &mut app, 0);
    assert_eq!(rt.to_original_order(app.distances()), expect);
    assert!(r.seconds > 0.0);

    // adaptation still works on the updated graph
    rt.maybe_reorder(&mut dev);
    let _ = rt.run(&mut dev, &mut app, 0);
    assert_eq!(rt.to_original_order(app.distances()), expect);
}

#[test]
fn single_gpu_resident_engine_is_fastest_of_the_three_scenarios() {
    // in-core must beat out-of-core; 1-GPU in-core on a small graph should
    // not lose to 2-GPU (sync overheads dominate at this scale)
    let csr = Dataset::Ljournal.generate(0.02);
    let in_core = {
        let mut dev = Device::default_device();
        let g = DeviceGraph::upload(&mut dev, csr.clone());
        let mut engine = ResidentEngine::new();
        let mut app = Bfs::new(&mut dev);
        Runner::new()
            .run(&mut dev, &g, &mut engine, &mut app, 0)
            .seconds
    };
    let ooc = {
        let mut dev = Device::default_device();
        let (g, mut engine) = sage_out_of_core(&mut dev, csr.clone());
        let mut app = Bfs::new(&mut dev);
        Runner::new()
            .run(&mut dev, &g, &mut engine, &mut app, 0)
            .seconds
    };
    assert!(
        in_core < ooc,
        "in-core {in_core} must beat out-of-core {ooc}"
    );
}

/// Run `sage_cli` with `args` and return its exit code and stderr.
fn sage_cli(args: &[&str]) -> (Option<i32>, String) {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_sage_cli"))
        .args(args)
        .output()
        .expect("sage_cli starts");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn cli_refuses_bad_input_without_panicking() {
    let empty = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("empty_edges.txt");
    std::fs::write(&empty, "").expect("write empty edge list");
    let empty = empty.to_str().expect("utf-8 path");
    let walk = ["walk", "--dataset", "brain", "--scale", "0.05"];
    let bfs = ["bfs", "--dataset", "brain", "--scale", "0.05"];
    let serve = ["serve", "--dataset", "brain", "--scale", "0.05"];
    let cases: [(Vec<&str>, i32); 13] = [
        (vec!["serve", "--graph", empty, "--requests", "4"], 1),
        (
            [&walk[..], &["--walk-app", "node2vec", "--p", "0"]].concat(),
            2,
        ),
        (
            [&walk[..], &["--walk-app", "node2vec", "--q", "nan"]].concat(),
            2,
        ),
        (vec!["bfs", "--dataset", "brain", "--scale", "nan"], 2),
        (vec!["bfs", "--dataset", "brain", "--scale", "-1"], 2),
        (vec!["bfs", "--dataset", "brain", "--scale", "0"], 2),
        (vec!["mis", "--dataset", "brain", "--scale", "0.05"], 2),
        (vec!["kcore", "--dataset", "brain", "--scale", "0.05"], 2),
        ([&bfs[..], &["--repeat", "0"]].concat(), 2),
        ([&serve[..], &["--devices", "0"]].concat(), 2),
        ([&serve[..], &["--requests", "0"]].concat(), 2),
        ([&walk[..], &["--walks", "0"]].concat(), 2),
        ([&walk[..], &["--length", "0"]].concat(), 2),
    ];
    for (args, want) in cases {
        let (code, stderr) = sage_cli(&args);
        assert!(!stderr.contains("panicked"), "{args:?} panicked: {stderr}");
        assert_eq!(code, Some(want), "{args:?} exit code; stderr: {stderr}");
        assert!(!stderr.trim().is_empty(), "{args:?} gave no message");
    }

    // a reader that closes stdout before the first line (`| head -0`)
    // ends the run quietly with exit 0
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_sage_cli"))
        .args(walk)
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("sage_cli starts");
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("sage_cli exits");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !stderr.contains("panicked"),
        "closed stdout panicked: {stderr}"
    );
    assert_eq!(
        out.status.code(),
        Some(0),
        "closed stdout; stderr: {stderr}"
    );
}
