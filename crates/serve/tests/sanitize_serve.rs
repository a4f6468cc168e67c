//! The serving path must be hazard-free under the race sanitizer: every
//! app kind (including the fused multi-source BFS/SSSP pipelines and the
//! runtime's reordering rounds) across a batched workload reports zero
//! hazards.

use gpu_sim::{Device, DeviceConfig};
use sage::SageRuntime;
use sage_graph::gen::uniform_graph;
use sage_serve::{AppKind, MsBfs, MsSssp, QueryRequest, SageService, ServiceConfig};

fn sanitized_service(devices: usize) -> SageService {
    let mut cfg = ServiceConfig::test_config(devices);
    cfg.device_config.sanitize = true;
    SageService::start(cfg)
}

#[test]
fn each_app_kind_is_hazard_free_under_sanitizer() {
    for app in [
        AppKind::Bfs,
        AppKind::Pr,
        AppKind::Bc,
        AppKind::Sssp,
        AppKind::Cc,
    ] {
        let service = sanitized_service(1);
        let csr = uniform_graph(300, 2400, 11);
        let nodes = csr.num_nodes();
        let g = service.register_graph("t", csr);
        // several sources so BFS/SSSP take the fused multi-source path, and
        // several rounds so the runtime's reordering kernels run too
        for round in 0..3 {
            for i in 0..6u32 {
                let resp = service
                    .query(QueryRequest {
                        app,
                        graph: g,
                        source: (i * 37 + round) % nodes as u32,
                    })
                    .unwrap();
                assert!(
                    resp.report.hazards.is_empty(),
                    "{app} flagged: {:?}",
                    resp.report.hazards
                );
            }
        }
        let hazards = service.stats().hazards;
        service.shutdown();
        assert_eq!(hazards, 0, "{app} left hazards on the device ledger");
    }
}

/// The fused multi-source apps exercised directly (not through the service
/// batcher): their interleaved per-source mask/distance writes must be
/// hazard-free under the sanitizer.
#[test]
fn fused_multi_source_apps_hazard_free_under_sanitizer() {
    let cfg = DeviceConfig {
        num_sms: 8,
        sanitize: true,
        ..DeviceConfig::test_tiny()
    };
    let csr = uniform_graph(300, 2400, 13);
    let sources = [0u32, 17, 42, 99];

    let mut dev = Device::new(cfg.clone());
    let mut rt = SageRuntime::new(&mut dev, csr.clone());
    let mut bfs = MsBfs::new(&mut dev, &sources);
    let report = rt.run(&mut dev, &mut bfs, sources[0]);
    assert!(
        report.hazards.is_empty(),
        "MsBfs flagged: {:?}",
        report.hazards
    );
    for (j, &s) in sources.iter().enumerate() {
        assert_eq!(bfs.distances_for(j)[s as usize], 0, "source {s} depth");
    }

    let mut dev = Device::new(cfg);
    let mut rt = SageRuntime::new(&mut dev, csr);
    let mut sssp = MsSssp::new(&mut dev, &sources);
    let report = rt.run(&mut dev, &mut sssp, sources[0]);
    assert!(
        report.hazards.is_empty(),
        "MsSssp flagged: {:?}",
        report.hazards
    );
    for (j, &s) in sources.iter().enumerate() {
        assert_eq!(sssp.distances_for(j)[s as usize], 0, "source {s} dist");
    }
    assert_eq!(dev.hazard_count(), 0, "device-level ledger agrees");
}
