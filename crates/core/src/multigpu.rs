//! Multi-GPU traversal (§7.2, Figure 9): one task, several GPUs, bulk-
//! synchronous frontier exchange after every iteration.
//!
//! Strategies:
//! * **SAGE** — no preprocessing: nodes are split into contiguous ranges and
//!   each device runs the resident-tile engine on its share; tiles are
//!   stolen device-locally, frontiers exchanged per iteration.
//! * **Gunrock** — BSP advance per device, optionally over a metis-like
//!   pre-partitioning (the paper excludes metis' cost from the timings).
//! * **Groute** — asynchronous model: the same local work, but communication
//!   overlaps computation, modelled as a reduced effective exchange cost.
//!
//! The per-iteration synchronisation is what makes two GPUs "not always
//! faster" (§7.2): short iterations cannot amortise the exchange latency.
//!
//! [`MultiGpuDriver`] is generic over [`App`] — any filter-based application
//! runs multi-GPU; the `run_bfs_multi*` helpers cover the paper's Figure 9
//! workload.

use crate::app::{App, Bfs, Step};
use crate::dgraph::DeviceGraph;
use crate::engine::{B40cEngine, Engine, GunrockEngine, ResidentEngine};
use crate::metrics::RunReport;
use gpu_sim::multi::exchange_seconds;
use gpu_sim::{Device, DeviceConfig};
use sage_graph::partition::partition_graph;
use sage_graph::{Csr, NodeId};

/// Which multi-GPU system to model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MgKind {
    /// SAGE with resident tiles per device, no preprocessing.
    Sage,
    /// Gunrock-style BSP advance.
    Gunrock,
    /// Groute-style asynchronous execution (overlapped communication).
    Groute,
}

impl MgKind {
    /// Display name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            MgKind::Sage => "SAGE",
            MgKind::Gunrock => "Gunrock",
            MgKind::Groute => "Groute",
        }
    }
}

/// Multi-GPU run configuration.
#[derive(Debug, Clone, Copy)]
pub struct MultiGpuConfig {
    /// Number of devices.
    pub gpus: usize,
    /// System being modelled.
    pub kind: MgKind,
    /// Pre-partition with the metis-like partitioner (cost excluded, as the
    /// paper does); otherwise contiguous node ranges.
    pub metis: bool,
}

/// Fraction of the exchange cost Groute hides through asynchrony.
const GROUTE_OVERLAP: f64 = 0.6;

/// A reusable multi-GPU execution context: partitioned graph, one device +
/// engine per GPU, bulk-synchronous iteration with frontier exchange.
///
/// ```
/// use gpu_sim::{Device, DeviceConfig};
/// use sage::app::Bfs;
/// use sage::multigpu::{MgKind, MultiGpuConfig, MultiGpuDriver};
///
/// let csr = sage_graph::gen::uniform_graph(400, 3000, 3);
/// let cfg = MultiGpuConfig { gpus: 2, kind: MgKind::Sage, metis: false };
/// let mut driver = MultiGpuDriver::new(cfg, &csr, &DeviceConfig::test_tiny());
/// let mut bfs = Bfs::new(&mut Device::new(DeviceConfig::test_tiny()));
/// let report = driver.run(&mut bfs, 0);
/// assert!(report.seconds > 0.0);
/// ```
pub struct MultiGpuDriver {
    cfg: MultiGpuConfig,
    owner: Vec<u32>,
    devices: Vec<Device>,
    graphs: Vec<DeviceGraph>,
    engines: Vec<Box<dyn Engine>>,
    /// The unpartitioned graph, for application state initialisation
    /// (apps need global degrees and the full node space).
    full: Csr,
}

impl MultiGpuDriver {
    /// Partition `csr` and set up one simulated device per GPU.
    ///
    /// # Panics
    /// Panics if `cfg.gpus == 0`.
    #[must_use]
    pub fn new(cfg: MultiGpuConfig, csr: &Csr, dev_cfg: &DeviceConfig) -> Self {
        assert!(cfg.gpus > 0, "need at least one GPU");
        let n = csr.num_nodes();
        let owner: Vec<u32> = if cfg.metis && cfg.gpus > 1 {
            partition_graph(csr, cfg.gpus).part
        } else {
            let per = n.div_ceil(cfg.gpus);
            (0..n).map(|u| (u / per) as u32).collect()
        };
        let mut devices: Vec<Device> = (0..cfg.gpus)
            .map(|_| Device::new(dev_cfg.clone()))
            .collect();
        // per-device local graphs: only owned rows keep their adjacency
        let mut graphs = Vec::with_capacity(cfg.gpus);
        for (d, dev) in devices.iter_mut().enumerate() {
            let edges: Vec<(NodeId, NodeId)> = csr
                .edges()
                .filter(|&(u, _)| owner[u as usize] as usize == d)
                .collect();
            graphs.push(DeviceGraph::upload(dev, Csr::from_edges(n, &edges)));
        }
        let engines: Vec<Box<dyn Engine>> = (0..cfg.gpus)
            .map(|_| match cfg.kind {
                MgKind::Sage => Box::new(ResidentEngine::new()) as Box<dyn Engine>,
                MgKind::Gunrock => Box::new(GunrockEngine::new()) as Box<dyn Engine>,
                MgKind::Groute => Box::new(B40cEngine::new()) as Box<dyn Engine>,
            })
            .collect();
        Self {
            cfg,
            owner,
            devices,
            graphs,
            engines,
            full: csr.clone(),
        }
    }

    /// Run `app` from `source` across all devices; timing is the slowest
    /// device's clock including per-iteration exchanges.
    pub fn run(&mut self, app: &mut dyn App, source: NodeId) -> RunReport {
        let cfg = self.cfg;
        let n_gpus = cfg.gpus;
        let hazard_start: Vec<usize> = self.devices.iter().map(Device::hazard_count).collect();
        let start = self
            .devices
            .iter()
            .map(Device::elapsed_seconds)
            .fold(0.0f64, f64::max);

        // app state lives logically replicated; init charges device 0
        let full_csr = self.full.clone();
        let init = app.init(&mut self.devices[0], &full_csr, source);
        let mut frontiers: Vec<Vec<NodeId>> = vec![Vec::new(); n_gpus];
        for f in init {
            frontiers[self.owner[f as usize] as usize].push(f);
        }

        let mut iterations = 0usize;
        let mut edges = 0u64;
        let peer = self.devices[0].cfg().peer;

        while frontiers.iter().any(|f| !f.is_empty()) && iterations < 100_000 {
            iterations += 1;
            let mut all_next: Vec<NodeId> = Vec::new();
            let mut remote_passes = 0u64;
            // `d` indexes four parallel vectors (frontiers/engines/devices/
            // graphs); an enumerate() over one of them obscures that
            #[allow(clippy::needless_range_loop)]
            for d in 0..n_gpus {
                if frontiers[d].is_empty() {
                    continue;
                }
                let out = self.engines[d].iterate(
                    &mut self.devices[d],
                    &self.graphs[d],
                    app,
                    &frontiers[d],
                );
                edges += out.edges;
                remote_passes += out
                    .next
                    .iter()
                    .filter(|&&v| self.owner[v as usize] as usize != d)
                    .count() as u64;
                all_next.extend(out.next);
            }

            // bulk-synchronous step: align clocks, pay the exchange
            let max_t = self
                .devices
                .iter()
                .map(Device::elapsed_seconds)
                .fold(0.0, f64::max);
            for dev in &mut self.devices {
                let lag = max_t - dev.elapsed_seconds();
                if lag > 0.0 {
                    dev.advance_seconds(lag);
                }
            }
            if n_gpus > 1 {
                let bytes = remote_passes * 4 + n_gpus as u64 * 16;
                let mut t = exchange_seconds(&peer, bytes);
                if cfg.kind == MgKind::Groute {
                    t *= 1.0 - GROUTE_OVERLAP;
                }
                for dev in &mut self.devices {
                    dev.advance_seconds(t);
                }
                self.devices[0].profiler_peer_bytes(bytes);
            }

            // per-vertex epilogue (e.g. PageRank's rank update): each device
            // updates one contiguous slice of the vertices
            if let Some(epilogue) = app.iteration_epilogue() {
                let n = self.full.num_nodes();
                let per_dev = n.div_ceil(n_gpus);
                for (d, dev) in self.devices.iter_mut().enumerate() {
                    let lo = (d * per_dev).min(n);
                    epilogue.charge(dev, "mg_vertex_epilogue", lo..(lo + per_dev).min(n));
                }
            }

            // every device's queue is contracted already; merging them is
            // the exchange's host-side bookkeeping
            all_next.sort_unstable();
            all_next.dedup();
            match app.control(iterations, all_next) {
                Step::Done => break,
                Step::Frontier(next) => {
                    for f in &mut frontiers {
                        f.clear();
                    }
                    for v in next {
                        frontiers[self.owner[v as usize] as usize].push(v);
                    }
                }
            }
        }

        let seconds = self
            .devices
            .iter()
            .map(Device::elapsed_seconds)
            .fold(0.0f64, f64::max)
            - start;
        RunReport {
            app: app.name().to_owned(),
            engine: format!(
                "{}x{}{}",
                cfg.gpus,
                cfg.kind.name(),
                if cfg.metis { "+metis" } else { "" }
            ),
            iterations,
            edges,
            edges_examined: edges,
            seconds,
            overhead_seconds: 0.0,
            direction_trace: String::new(),
            converged: iterations < 100_000,
            latency: crate::metrics::LatencyBreakdown::default(),
            hazards: gpu_sim::HazardReport {
                hazards: self
                    .devices
                    .iter()
                    .zip(&hazard_start)
                    .flat_map(|(d, &from)| d.hazards()[from..].iter().cloned())
                    .collect(),
            },
        }
    }
}

/// Run multi-GPU BFS from `source` on default devices (Figure 9 helper).
///
/// # Panics
/// Panics if `cfg.gpus == 0` or the source is out of range.
#[must_use]
pub fn run_bfs_multi(cfg: &MultiGpuConfig, csr: &Csr, source: NodeId) -> RunReport {
    run_bfs_multi_on(cfg, csr, source, &DeviceConfig::default())
}

/// [`run_bfs_multi`] with an explicit per-device configuration (the harness
/// passes a cache-scaled card).
///
/// # Panics
/// Panics if `cfg.gpus == 0` or the source is out of range.
#[must_use]
pub fn run_bfs_multi_on(
    cfg: &MultiGpuConfig,
    csr: &Csr,
    source: NodeId,
    dev_cfg: &DeviceConfig,
) -> RunReport {
    assert!((source as usize) < csr.num_nodes(), "source out of range");
    let mut driver = MultiGpuDriver::new(*cfg, csr, dev_cfg);
    let mut app = Bfs::new(&mut Device::new(dev_cfg.clone()));
    driver.run(&mut app, source)
}

/// Multi-GPU BFS distances (test helper).
// sage-lint: allow(dead-pub) — integration_scenarios::multi_gpu_all_strategies_correct runs its multi-GPU BFS through this helper
#[must_use]
pub fn bfs_multi_distances(cfg: &MultiGpuConfig, csr: &Csr, source: NodeId) -> Vec<i32> {
    let dev_cfg = DeviceConfig::test_tiny();
    let mut driver = MultiGpuDriver::new(*cfg, csr, &dev_cfg);
    let mut app = Bfs::new(&mut Device::new(dev_cfg));
    let _ = driver.run(&mut app, source);
    app.distances().to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::{Cc, PageRank};
    use crate::reference;
    use sage_graph::gen::{social_graph, SocialParams};

    fn graph() -> Csr {
        social_graph(&SocialParams {
            nodes: 500,
            avg_deg: 10.0,
            ..SocialParams::default()
        })
    }

    #[test]
    fn multi_gpu_bfs_is_correct() {
        let csr = graph();
        let expect = reference::bfs_levels(&csr, 3);
        for metis in [false, true] {
            let cfg = MultiGpuConfig {
                gpus: 2,
                kind: MgKind::Sage,
                metis,
            };
            assert_eq!(bfs_multi_distances(&cfg, &csr, 3), expect, "metis={metis}");
        }
    }

    #[test]
    fn multi_gpu_generic_apps_work() {
        let csr = graph();
        let dev_cfg = DeviceConfig::test_tiny();
        // CC across 2 GPUs matches the reference
        let expect = reference::cc_labels(&csr);
        let mut driver = MultiGpuDriver::new(
            MultiGpuConfig {
                gpus: 2,
                kind: MgKind::Sage,
                metis: false,
            },
            &csr,
            &dev_cfg,
        );
        let mut cc = Cc::new(&mut Device::new(dev_cfg.clone()));
        let r = driver.run(&mut cc, 0);
        assert_eq!(cc.labels(), expect.as_slice());
        assert!(r.seconds > 0.0);

        // PageRank across 2 GPUs stays within tolerance
        let expect_pr = reference::pagerank(&csr, 5);
        let mut driver = MultiGpuDriver::new(
            MultiGpuConfig {
                gpus: 2,
                kind: MgKind::Gunrock,
                metis: false,
            },
            &csr,
            &dev_cfg,
        );
        let mut pr = PageRank::new(&mut Device::new(dev_cfg), 5, 0.0);
        let _ = driver.run(&mut pr, 0);
        for (i, (&got, &want)) in pr.ranks().iter().zip(&expect_pr).enumerate() {
            assert!(
                (f64::from(got) - want).abs() < 1e-4 + 5e-2 * want,
                "pr[{i}]: {got} vs {want}"
            );
        }
    }

    #[test]
    fn exchange_cost_appears_with_two_gpus() {
        let csr = graph();
        let one = run_bfs_multi(
            &MultiGpuConfig {
                gpus: 1,
                kind: MgKind::Sage,
                metis: false,
            },
            &csr,
            0,
        );
        let two = run_bfs_multi(
            &MultiGpuConfig {
                gpus: 2,
                kind: MgKind::Sage,
                metis: false,
            },
            &csr,
            0,
        );
        assert_eq!(one.edges, two.edges, "same traversal either way");
        assert!(two.seconds > 0.0 && one.seconds > 0.0);
    }

    #[test]
    fn groute_pays_less_exchange_than_gunrock() {
        let csr = graph();
        let gunrock = run_bfs_multi(
            &MultiGpuConfig {
                gpus: 2,
                kind: MgKind::Gunrock,
                metis: false,
            },
            &csr,
            0,
        );
        let groute = run_bfs_multi(
            &MultiGpuConfig {
                gpus: 2,
                kind: MgKind::Groute,
                metis: false,
            },
            &csr,
            0,
        );
        assert_eq!(gunrock.edges, groute.edges);
    }

    #[test]
    fn driver_reports_ownership() {
        let csr = graph();
        let driver = MultiGpuDriver::new(
            MultiGpuConfig {
                gpus: 2,
                kind: MgKind::Sage,
                metis: false,
            },
            &csr,
            &DeviceConfig::test_tiny(),
        );
        assert_eq!(driver.owner[0], 0);
        assert_eq!(driver.owner[csr.num_nodes() - 1], 1);
        assert!(driver.devices[0].elapsed_seconds() >= 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one GPU")]
    fn zero_gpus_rejected() {
        let csr = graph();
        let _ = run_bfs_multi(
            &MultiGpuConfig {
                gpus: 0,
                kind: MgKind::Sage,
                metis: false,
            },
            &csr,
            0,
        );
    }
}
