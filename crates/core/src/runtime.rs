//! The self-adaptive SAGE runtime: Resident Tile Stealing plus round-based
//! Sampling-based Reordering over a live [`DeviceGraph`].
//!
//! "By continuously processing the graph on-the-fly, SAGE is able to
//! optimize the GPU efficiency of processing graph data incrementally"
//! (§1) — every traversal run samples its own tile accesses; once the
//! sampling threshold (|E| edge accesses by default, §7.2) is reached, the
//! three-stage reordering derives a permutation, the CSR is rebuilt in
//! place, and subsequent runs get better memory locality.

use crate::app::App;
use crate::dgraph::DeviceGraph;
use crate::engine::{Engine, ResidentEngine};
use crate::metrics::RunReport;
use crate::pipeline::Runner;
use crate::reorder::Sampler;
use crate::walk::{self, WalkApp, WalkOutput, WalkSpec};
use gpu_sim::Device;
use sage_graph::{Csr, NodeId, Permutation};
use std::sync::OnceLock;

/// True when `SAGE_DEBUG` is set in the environment (checked once).
fn debug_enabled() -> bool {
    static ENABLED: OnceLock<bool> = OnceLock::new();
    *ENABLED.get_or_init(|| std::env::var_os("SAGE_DEBUG").is_some())
}

macro_rules! debug_log {
    ($($arg:tt)*) => {
        if debug_enabled() {
            eprintln!("[sage] {}", format!($($arg)*));
        }
    };
}

/// SAGE with self-adaptive reordering enabled.
///
/// ```
/// use gpu_sim::Device;
/// use sage::app::Bfs;
/// use sage::SageRuntime;
///
/// let mut dev = Device::default_device();
/// let csr = sage_graph::gen::uniform_graph(500, 4000, 7);
/// let mut rt = SageRuntime::new(&mut dev, csr);
/// let mut bfs = Bfs::new(&mut dev);
/// let first = rt.run(&mut dev, &mut bfs, 0);
/// rt.maybe_reorder(&mut dev); // adapts once the sampler saturates
/// let again = rt.run(&mut dev, &mut bfs, 0);
/// assert_eq!(first.edges, again.edges);
/// ```
pub struct SageRuntime {
    graph: DeviceGraph,
    engine: ResidentEngine,
    /// Composition of every applied round: original id → current id.
    perm: Permutation,
    rounds: usize,
    /// Monotone version of the id mapping: bumped on every committed *and*
    /// every rolled-back round. Anything keyed on node ids (result caches,
    /// precomputed frontiers) is stale once this changes.
    epoch: u64,
    runner: Runner,
    /// Normalised sampled locality of the previous round (per edge access).
    prev_locality: Option<f64>,
    /// The last committed round's permutation, kept to undo it if it
    /// turns out to have hurt: its inverse recomputes the previous order.
    undo: Option<Permutation>,
    /// Rounds that regressed and were rolled back.
    regressions: usize,
    /// Consecutive rounds with no meaningful locality gain.
    plateau: usize,
    /// Set once locality regressed repeatedly: the order has converged
    /// "to a relatively high level" (§6).
    converged: bool,
}

impl SageRuntime {
    /// Load a CSR onto the device with the default sampling threshold |E|.
    #[must_use]
    pub fn new(dev: &mut Device, csr: Csr) -> Self {
        let threshold = csr.num_edges() as u64;
        Self::with_threshold(dev, csr, threshold)
    }

    /// Load with an explicit sampling threshold (edge accesses per stage).
    #[must_use]
    pub fn with_threshold(dev: &mut Device, csr: Csr, threshold: u64) -> Self {
        let n = csr.num_nodes();
        let graph = DeviceGraph::upload(dev, csr).with_in_edges(dev);
        let mut engine = ResidentEngine::new();
        engine.sampler = Some(Sampler::new(n, threshold));
        Self {
            graph,
            engine,
            perm: Permutation::identity(n),
            rounds: 0,
            epoch: 0,
            runner: Runner::new(),
            prev_locality: None,
            undo: None,
            regressions: 0,
            plateau: 0,
            converged: false,
        }
    }

    /// The live (possibly reordered) graph.
    #[must_use]
    pub fn graph(&self) -> &DeviceGraph {
        &self.graph
    }

    /// Reordering rounds applied so far.
    #[must_use]
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// Version of the current id mapping. Bumped whenever a reordering
    /// round commits *or* rolls back — i.e. whenever previously captured
    /// current-id data (cached results, saved frontiers) may be stale.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The composed permutation applied so far: original id → current id.
    #[must_use]
    pub fn permutation(&self) -> &Permutation {
        &self.perm
    }

    /// Current id of an original node id.
    #[must_use]
    pub fn current_id(&self, original: NodeId) -> NodeId {
        self.perm.map(original)
    }

    /// Map per-current-id values back to original ids.
    #[must_use]
    pub fn to_original_order<T: Clone>(&self, values_by_current: &[T]) -> Vec<T> {
        self.perm.inverse().apply_values(values_by_current)
    }

    /// Run `app` from `source` (an *original* node id), sampling tile
    /// accesses along the way.
    pub fn run(&mut self, dev: &mut Device, app: &mut dyn App, source: NodeId) -> RunReport {
        let src = self.perm.map(source);
        self.runner
            .run(dev, &self.graph, &mut self.engine, app, src)
    }

    /// Run a random-walk batch from `sources` (*original* node ids) and
    /// return its output re-mapped into original-id space. Synthetic edge
    /// weights hash original ids, so the sampled distribution is invariant
    /// under reordering.
    pub fn run_walk(
        &self,
        dev: &mut Device,
        app: &dyn WalkApp,
        spec: &WalkSpec,
        sources: &[NodeId],
    ) -> WalkOutput {
        let cur_sources: Vec<NodeId> = sources.iter().map(|&s| self.perm.map(s)).collect();
        let inv = self.perm.inverse();
        let out = walk::run_batch(
            dev,
            &self.graph,
            app,
            spec,
            &cur_sources,
            Some(inv.as_slice()),
        );
        // re-map per-node outputs back to original ids
        let visits = inv.apply_values(&out.visits);
        let mut endpoints = Vec::with_capacity(out.endpoints.len());
        for slot in 0..out.num_sources {
            endpoints.extend(inv.apply_values(out.endpoints_for(slot)));
        }
        WalkOutput {
            endpoints,
            visits,
            ..out
        }
    }

    /// True once reordering has converged (a round regressed and was
    /// rolled back); further rounds are skipped.
    #[must_use]
    pub fn converged(&self) -> bool {
        self.converged
    }

    /// If the sampler has reached its threshold, execute one reordering
    /// round (stages 2–3 + representation update) and return true.
    pub fn maybe_reorder(&mut self, dev: &mut Device) -> bool {
        let saturated = self.engine.sampler.as_ref().is_some_and(Sampler::saturated);
        if !saturated {
            return false;
        }
        self.force_reorder(dev)
    }

    /// Execute one reordering round regardless of the threshold.
    ///
    /// Each round first compares the freshly sampled locality against the
    /// previous round's (the paper's Stage-1/Stage-3 comparison applied at
    /// round granularity): if the last reordering *reduced* locality, it is
    /// rolled back and the order is frozen as converged.
    pub fn force_reorder(&mut self, dev: &mut Device) -> bool {
        if self.converged {
            return false;
        }
        let Some(sampler) = self.engine.sampler.as_mut() else {
            return false;
        };
        if sampler.sampled() == 0 {
            return false;
        }
        let cur_locality = sampler.total_locality() as f64 / sampler.sampled() as f64;
        if let (Some(prev), Some(last_perm)) = (self.prev_locality, self.undo.take()) {
            if cur_locality < prev * 1.03 {
                // no meaningful gain: the order is approaching convergence
                self.plateau += 1;
            } else {
                self.plateau = 0;
            }
            if cur_locality < prev * 0.99 {
                // the last round hurt: roll it back; after two failed
                // attempts the order is declared converged. Rows are
                // strictly ascending, so relabelling by the inverse
                // rebuilds the previous CSR bit for bit.
                let undo = last_perm.inverse();
                let prev_csr = undo.apply_csr(self.graph.csr());
                self.graph.replace_csr(prev_csr);
                self.perm = self.perm.then(&undo);
                self.engine.reset();
                self.rounds -= 1;
                self.epoch += 1;
                self.regressions += 1;
                debug_log!(
                    "reorder round rolled back (locality {cur_locality:.4} < {:.4}), \
                     epoch -> {}, regressions {}",
                    prev * 0.99,
                    self.epoch,
                    self.regressions
                );
                if self.regressions >= 2 {
                    self.converged = true;
                    debug_log!("reordering converged after {} rounds", self.rounds);
                }
                // discard the samples taken on the rolled-back order
                if let Some(smp) = self.engine.sampler.as_mut() {
                    let _ = smp.finish_round(dev);
                }
                return false;
            }
            if self.plateau >= 2 {
                // two rounds without progress: stop adapting (§6:
                // "until convergence to a relatively high level")
                self.converged = true;
                debug_log!(
                    "reordering plateaued after {} rounds (locality {cur_locality:.4}); frozen",
                    self.rounds
                );
                if let Some(smp) = self.engine.sampler.as_mut() {
                    let _ = smp.finish_round(dev);
                }
                return false;
            }
        }

        let Some(round_perm) = self.engine.sampler.as_mut().unwrap().finish_round(dev) else {
            return false;
        };
        // rebuild the CSR in place and invalidate resident tiles (their
        // offsets moved)
        let new_csr = round_perm.apply_csr(self.graph.csr());
        self.graph.replace_csr(new_csr);
        self.engine.reset();
        self.perm = self.perm.then(&round_perm);
        self.undo = Some(round_perm);
        self.prev_locality = Some(cur_locality);
        self.rounds += 1;
        self.epoch += 1;
        debug_log!(
            "reorder round {} committed (sampled locality {cur_locality:.4}), epoch -> {}",
            self.rounds,
            self.epoch
        );
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::Bfs;
    use crate::reference;
    use gpu_sim::DeviceConfig;
    use sage_graph::gen::{social_graph, SocialParams};

    fn graph() -> Csr {
        social_graph(&SocialParams {
            nodes: 600,
            avg_deg: 12.0,
            p_intra: 0.8,
            ..SocialParams::default()
        })
    }

    #[test]
    fn results_stay_correct_across_reordering_rounds() {
        let csr = graph();
        let expect = reference::bfs_levels(&csr, 5);
        let mut dev = Device::new(DeviceConfig::test_tiny());
        let mut rt = SageRuntime::with_threshold(&mut dev, csr, 1000);
        let mut app = Bfs::new(&mut dev);
        for i in 0..4 {
            if i > 0 {
                // reorder between runs so the final run's state matches the
                // final id space
                rt.maybe_reorder(&mut dev);
            }
            let _ = rt.run(&mut dev, &mut app, 5);
        }
        assert!(rt.rounds() > 0, "threshold 1000 must trigger rounds");
        let got = rt.to_original_order(app.distances());
        assert_eq!(got, expect, "distances must be invariant under reordering");
    }

    #[test]
    fn reordering_improves_traversal_time() {
        let csr = graph();
        let mut dev = Device::new(DeviceConfig::test_tiny());
        let mut rt = SageRuntime::new(&mut dev, csr);
        let mut app = Bfs::new(&mut dev);
        let first = rt.run(&mut dev, &mut app, 0);
        // several sampling+reorder rounds
        for _ in 0..6 {
            rt.maybe_reorder(&mut dev);
            let _ = rt.run(&mut dev, &mut app, 0);
        }
        let later = rt.run(&mut dev, &mut app, 0);
        assert!(
            later.seconds < first.seconds,
            "round-by-round adaptation should speed up traversal: {} -> {}",
            first.seconds,
            later.seconds
        );
    }

    #[test]
    fn maybe_reorder_respects_threshold() {
        let csr = graph();
        let edges = csr.num_edges() as u64;
        let mut dev = Device::new(DeviceConfig::test_tiny());
        // huge threshold: one run cannot saturate it
        let mut rt = SageRuntime::with_threshold(&mut dev, csr, edges * 100);
        let mut app = Bfs::new(&mut dev);
        let _ = rt.run(&mut dev, &mut app, 0);
        assert!(!rt.maybe_reorder(&mut dev));
        assert_eq!(rt.rounds(), 0);
    }

    #[test]
    fn epoch_bumps_on_committed_rounds_and_tracks_permutation() {
        let csr = graph();
        let mut dev = Device::new(DeviceConfig::test_tiny());
        let mut rt = SageRuntime::with_threshold(&mut dev, csr, 500);
        assert_eq!(rt.epoch(), 0);
        assert!(rt
            .permutation()
            .as_slice()
            .iter()
            .enumerate()
            .all(|(i, &p)| i as NodeId == p));
        let mut app = Bfs::new(&mut dev);
        let _ = rt.run(&mut dev, &mut app, 0);
        let committed = rt.maybe_reorder(&mut dev);
        if committed {
            assert_eq!(rt.epoch(), 1);
            // composed permutation maps every original id to its current id
            for u in 0..16u32 {
                assert_eq!(rt.permutation().map(u), rt.current_id(u));
            }
        } else {
            assert_eq!(rt.epoch(), 0);
        }
    }

    #[test]
    fn walk_endpoint_mass_conserved_across_reordering() {
        use crate::walk::{Node2vec, WalkSpec, WalkWeights};
        let csr = graph();
        let mut dev = Device::new(DeviceConfig::test_tiny());
        let mut rt = SageRuntime::with_threshold(&mut dev, csr, 500);
        let spec = WalkSpec {
            walks_per_source: 32,
            max_length: 5,
            weights: WalkWeights::Uniform,
            ..WalkSpec::default()
        };
        let app = Node2vec::new(1.0, 1.0);
        let out = rt.run_walk(&mut dev, &app, &spec, &[2, 9]);
        let mass: u64 = out.endpoints.iter().map(|&c| u64::from(c)).sum();
        assert_eq!(mass, out.walkers as u64);
        let mut bfs = Bfs::new(&mut dev);
        let _ = rt.run(&mut dev, &mut bfs, 0);
        rt.force_reorder(&mut dev);
        let out2 = rt.run_walk(&mut dev, &app, &spec, &[2, 9]);
        let mass2: u64 = out2.endpoints.iter().map(|&c| u64::from(c)).sum();
        assert_eq!(mass2, out2.walkers as u64);
        // visit mass: every walker visits its source plus one node per step
        assert_eq!(
            out2.visits.iter().map(|&c| u64::from(c)).sum::<u64>(),
            out2.walkers as u64 + out2.steps
        );
    }

    #[test]
    fn rollback_restores_the_pre_commit_graph_and_permutation_bitwise() {
        use crate::app::PageRank;
        let mut dev = Device::new(DeviceConfig::test_tiny());
        let mut rt =
            SageRuntime::with_threshold(&mut dev, sage_graph::gen::rmat_graph(11, 8, 0), 4000);
        let mut bfs = Bfs::new(&mut dev);
        let mut pr = PageRank::new(&mut dev, 10, 0.0);
        let mut pre_commit: Option<(Csr, Permutation)> = None;
        let (mut commits, mut rollbacks) = (0, 0);
        for op in 0..40u32 {
            if op % 4 == 3 {
                let _ = rt.run(&mut dev, &mut pr, 0);
            } else {
                let _ = rt.run(&mut dev, &mut bfs, op * 37 % 2048);
            }
            let snapshot = (rt.graph().csr().clone(), rt.permutation().clone());
            let rounds = rt.rounds();
            rt.maybe_reorder(&mut dev);
            if rt.rounds() > rounds {
                commits += 1;
                pre_commit = Some(snapshot);
            } else if rt.rounds() < rounds {
                rollbacks += 1;
                let (csr, perm) = pre_commit.take().expect("a rollback follows a commit");
                assert_eq!(*rt.graph().csr(), csr, "rollback {rollbacks}: CSR differs");
                assert_eq!(*rt.permutation(), perm, "rollback {rollbacks}: permutation");
                assert_eq!(*rt.graph().in_csr().unwrap(), rt.graph().csr().reversed());
            }
        }
        assert!(
            rollbacks > 0,
            "no rollback in 40 operations ({commits} commits)"
        );
    }

    #[test]
    fn current_id_tracks_composed_permutation() {
        let csr = graph();
        let mut dev = Device::new(DeviceConfig::test_tiny());
        let mut rt = SageRuntime::with_threshold(&mut dev, csr.clone(), 500);
        let mut app = Bfs::new(&mut dev);
        let _ = rt.run(&mut dev, &mut app, 0);
        rt.maybe_reorder(&mut dev);
        // adjacency of the mapped id must equal the mapped adjacency
        let u: NodeId = 10;
        let cu = rt.current_id(u);
        let mut expect: Vec<NodeId> = csr.neighbors(u).iter().map(|&v| rt.current_id(v)).collect();
        expect.sort_unstable();
        assert_eq!(rt.graph().csr().neighbors(cu), expect.as_slice());
    }
}
