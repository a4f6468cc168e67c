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
use crate::reorder::{charge_representation_update, Sampler};
use crate::walk::{self, WalkApp, WalkOutput, WalkSpec};
use gpu_sim::Device;
use sage_graph::{Csr, NodeId, Permutation};

/// The reorder decisions of one graph's layout (§6, Algorithm 4 applied
/// round by round): the composed permutation, the epoch, and the
/// bookkeeping that commits, rolls back or freezes each round.
///
/// A lone [`SageRuntime`] owns one and decides through it. Several
/// runtimes serving one graph share one through
/// [`SageRuntime::adapt_shared`], so the graph has a single layout and a
/// single epoch however many devices hold a copy of it.
#[derive(Debug, Clone)]
pub struct ReorderSession {
    /// Composition of every applied round: original id → current id.
    perm: Permutation,
    rounds: usize,
    /// Monotone version of the id mapping: bumped on every committed *and*
    /// every rolled-back round. Anything keyed on node ids (result caches,
    /// precomputed frontiers) is stale once this changes.
    epoch: u64,
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

/// One decided round: the relabel (current id → next current id) every
/// copy of the graph applies, and whether it committed or rolled back.
struct Round {
    relabel: Permutation,
    committed: bool,
}

impl ReorderSession {
    /// A session over `n` nodes in their original order, at epoch 0.
    #[must_use]
    pub fn new(n: usize) -> Self {
        Self {
            perm: Permutation::identity(n),
            rounds: 0,
            epoch: 0,
            prev_locality: None,
            undo: None,
            regressions: 0,
            plateau: 0,
            converged: false,
        }
    }

    /// Net committed rounds (a rollback undoes one).
    #[must_use]
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// Version of the id mapping: committed plus rolled-back rounds.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The composed permutation: original id → current id.
    #[must_use]
    pub fn permutation(&self) -> &Permutation {
        &self.perm
    }

    /// Rounds rolled back because they lowered the sampled locality. Each
    /// rollback undid one committed round, so `rounds() + rollbacks()`
    /// rounds have committed so far.
    #[must_use]
    pub fn rollbacks(&self) -> usize {
        self.regressions
    }

    /// True once the session froze: after two rollbacks, or after two
    /// rounds in a row without a meaningful locality gain. A frozen
    /// session decides no further round.
    #[must_use]
    pub fn converged(&self) -> bool {
        self.converged
    }

    /// Sampled locality (per edge access) of the last committed round, the
    /// value the next round is compared against; `None` before the first
    /// commit.
    #[must_use]
    pub fn locality(&self) -> Option<f64> {
        self.prev_locality
    }

    /// Decide one round from `sampler`'s samples, taken on this session's
    /// current layout.
    ///
    /// Each round first compares the freshly sampled locality against the
    /// previous round's (the paper's Stage-1/Stage-3 comparison applied at
    /// round granularity): if the last reordering *reduced* locality, it is
    /// rolled back and the order is frozen as converged. Returns the
    /// relabel to apply when the layout changed.
    fn decide(&mut self, dev: &mut Device, sampler: &mut Sampler) -> Option<Round> {
        if self.converged || sampler.sampled() == 0 {
            return None;
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
                self.perm = self.perm.then(&undo);
                self.rounds -= 1;
                self.epoch += 1;
                self.regressions += 1;
                if self.regressions >= 2 {
                    self.converged = true;
                }
                // discard the samples taken on the rolled-back order
                let _ = sampler.finish_round(dev);
                return Some(Round {
                    relabel: undo,
                    committed: false,
                });
            }
            if self.plateau >= 2 {
                // two rounds without progress: stop adapting (§6:
                // "until convergence to a relatively high level")
                self.converged = true;
                let _ = sampler.finish_round(dev);
                return None;
            }
        }

        let round_perm = sampler.finish_round(dev)?;
        self.perm = self.perm.then(&round_perm);
        self.undo = Some(round_perm.clone());
        self.prev_locality = Some(cur_locality);
        self.rounds += 1;
        self.epoch += 1;
        Some(Round {
            relabel: round_perm,
            committed: true,
        })
    }
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
    runner: Runner,
    /// The session this runtime's layout belongs to. A lone runtime
    /// decides through it; one that adapts through a shared session keeps
    /// a copy of that session as of its last adoption.
    session: ReorderSession,
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
            runner: Runner::new(),
            session: ReorderSession::new(n),
        }
    }

    /// Reordering rounds applied so far.
    #[must_use]
    pub fn rounds(&self) -> usize {
        self.session.rounds
    }

    /// This runtime's reorder session: its rollbacks, whether it froze and
    /// its last sampled locality, beside the rounds and epoch read here.
    #[must_use]
    pub fn session(&self) -> &ReorderSession {
        &self.session
    }

    /// Version of the current id mapping. Bumped whenever a reordering
    /// round commits *or* rolls back — i.e. whenever previously captured
    /// current-id data (cached results, saved frontiers) may be stale.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.session.epoch
    }

    /// The composed permutation applied so far: original id → current id.
    #[must_use]
    pub fn permutation(&self) -> &Permutation {
        &self.session.perm
    }

    /// Current id of an original node id.
    #[must_use]
    pub fn current_id(&self, original: NodeId) -> NodeId {
        self.session.perm.map(original)
    }

    /// Map per-current-id values back to original ids.
    #[must_use]
    pub fn to_original_order<T: Clone>(&self, values_by_current: &[T]) -> Vec<T> {
        self.session.perm.inverse().apply_values(values_by_current)
    }

    /// Run `app` from `source` (an *original* node id), sampling tile
    /// accesses along the way.
    pub fn run(&mut self, dev: &mut Device, app: &mut dyn App, source: NodeId) -> RunReport {
        let src = self.session.perm.map(source);
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
        let cur_sources: Vec<NodeId> = sources.iter().map(|&s| self.session.perm.map(s)).collect();
        let inv = self.session.perm.inverse();
        let out = walk::run_batch(dev, &self.graph, app, spec, &cur_sources, inv.as_slice());
        // re-map each slot's endpoint counts back to original ids
        let mut endpoints = Vec::with_capacity(out.endpoints.len());
        for slot in 0..out.num_sources {
            endpoints.extend(inv.apply_values(out.endpoints_for(slot)));
        }
        WalkOutput { endpoints, ..out }
    }

    /// True once this runtime's session froze (see
    /// [`ReorderSession::converged`]); further rounds are skipped.
    #[must_use]
    pub fn converged(&self) -> bool {
        self.session.converged
    }

    /// True once the sampler has reached its threshold on this layout.
    fn saturated(&self) -> bool {
        self.engine.sampler.as_ref().is_some_and(Sampler::saturated)
    }

    /// If the sampler has reached its threshold, execute one reordering
    /// round (stages 2–3 + representation update) and return true.
    pub fn maybe_reorder(&mut self, dev: &mut Device) -> bool {
        if !self.saturated() {
            return false;
        }
        self.force_reorder(dev)
    }

    /// Execute one reordering round regardless of the threshold; true when
    /// it committed (see [`ReorderSession`] for rollbacks).
    pub fn force_reorder(&mut self, dev: &mut Device) -> bool {
        let Some(sampler) = self.engine.sampler.as_mut() else {
            return false;
        };
        let Some(round) = self.session.decide(dev, sampler) else {
            return false;
        };
        self.relabel(&round.relabel);
        round.committed
    }

    /// Adapt through `shared`, the one session of every runtime on this
    /// graph. First adopt every relabel it published since this runtime
    /// last called: rebuild the CSR in the shared layout, drop the resident
    /// tiles and the samples taken on the old layout, and charge the device
    /// the representation-update pass. Then, if this runtime's sampler
    /// saturated on the shared layout, decide the next round against
    /// `shared`. Returns true when this call published a round (`shared`'s
    /// epoch moved).
    pub fn adapt_shared(&mut self, dev: &mut Device, shared: &mut ReorderSession) -> bool {
        if self.session.epoch != shared.epoch {
            let relabel = self.session.perm.inverse().then(&shared.perm);
            self.relabel(&relabel);
            if let Some(sampler) = self.engine.sampler.as_mut() {
                sampler.clear();
            }
            let csr = self.graph.csr();
            charge_representation_update(dev, (csr.num_nodes() + csr.num_edges()) as u64);
            self.session.clone_from(shared);
        }
        if shared.converged || !self.saturated() {
            return false;
        }
        let Some(sampler) = self.engine.sampler.as_mut() else {
            return false;
        };
        let round = shared.decide(dev, sampler);
        if let Some(round) = &round {
            self.relabel(&round.relabel);
        }
        self.session.clone_from(shared);
        round.is_some()
    }

    /// Rebuild the CSR in place under `relabel` (current id → new current
    /// id) and invalidate the resident tiles (their offsets moved).
    fn relabel(&mut self, relabel: &Permutation) {
        let csr = relabel.apply_csr(self.graph.csr());
        self.graph.replace_csr(csr);
        self.engine.reset();
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
    fn sssp_distances_invariant_under_reordering() {
        use crate::app::Sssp;
        let csr = graph();
        let expect = reference::sssp_dists(&csr, 5);
        let mut dev = Device::new(DeviceConfig::test_tiny());
        let mut rt = SageRuntime::with_threshold(&mut dev, csr, 1000);
        let mut bfs = Bfs::new(&mut dev);
        for _ in 0..3 {
            let _ = rt.run(&mut dev, &mut bfs, 5);
            rt.force_reorder(&mut dev);
        }
        assert!(rt.rounds() > 0, "threshold 1000 must commit a round");
        let mut sssp = Sssp::new(&mut dev, rt.permutation().inverse().as_slice().to_vec());
        let _ = rt.run(&mut dev, &mut sssp, 5);
        let got = rt.to_original_order(sssp.distances());
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
        let sources = [2, 9];
        let hops: Vec<Vec<i32>> = sources
            .iter()
            .map(|&s| reference::bfs_levels(&csr, s))
            .collect();
        let mut dev = Device::new(DeviceConfig::test_tiny());
        let mut rt = SageRuntime::with_threshold(&mut dev, csr, 500);
        let spec = WalkSpec {
            walks_per_source: 32,
            max_length: 2,
            weights: WalkWeights::Uniform,
            ..WalkSpec::default()
        };
        let app = Node2vec::new(1.0, 1.0);
        let out = rt.run_walk(&mut dev, &app, &spec, &sources);
        let mass: u64 = out.endpoints.iter().map(|&c| u64::from(c)).sum();
        assert_eq!(mass, out.walkers as u64);
        let mut bfs = Bfs::new(&mut dev);
        let _ = rt.run(&mut dev, &mut bfs, 0);
        assert!(rt.force_reorder(&mut dev), "threshold 500 must commit");
        let out2 = rt.run_walk(&mut dev, &app, &spec, &sources);
        // each slot keeps its walkers, and after the remap every endpoint
        // lies within two hops of its source in the original graph
        for (slot, hop) in hops.iter().enumerate() {
            let counts = out2.endpoints_for(slot);
            let mass2: u64 = counts.iter().map(|&c| u64::from(c)).sum();
            assert_eq!(mass2, spec.walks_per_source as u64);
            for (v, &c) in counts.iter().enumerate() {
                assert!(
                    c == 0 || (0..=2).contains(&hop[v]),
                    "slot {slot}: {c} walkers ended at node {v}, {} hops out",
                    hop[v]
                );
            }
        }
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
            let snapshot = (rt.graph.csr().clone(), rt.permutation().clone());
            let rounds = rt.rounds();
            rt.maybe_reorder(&mut dev);
            if rt.rounds() > rounds {
                commits += 1;
                pre_commit = Some(snapshot);
            } else if rt.rounds() < rounds {
                rollbacks += 1;
                let (csr, perm) = pre_commit.take().expect("a rollback follows a commit");
                assert_eq!(*rt.graph.csr(), csr, "rollback {rollbacks}: CSR differs");
                assert_eq!(*rt.permutation(), perm, "rollback {rollbacks}: permutation");
                assert_eq!(*rt.graph.in_csr().unwrap(), rt.graph.csr().reversed());
            }
        }
        assert!(
            rollbacks > 0,
            "no rollback in 40 operations ({commits} commits)"
        );
        let session = rt.session();
        assert_eq!(session.rollbacks(), rollbacks);
        assert_eq!(session.rounds() + session.rollbacks(), commits);
        assert_eq!(session.converged(), rt.converged());
        assert!(
            session.locality().is_some(),
            "{commits} commits, none sampled"
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
        assert_eq!(rt.graph.csr().neighbors(cu), expect.as_slice());
    }
}
