//! Maximal Independent Set (Luby's algorithm) on the filter interface —
//! a two-phase-per-round pattern: a *contest* phase where undecided
//! neighbors beat each other with random priorities, then an *exclusion*
//! phase where the round's winners knock out their neighbors.
//!
//! Demonstrates that the §4 pipeline expresses algorithms whose per-round
//! structure goes beyond single-relaxation filters.

use super::{App, Step, VertexEpilogue};
use crate::access::AccessRecorder;
use gpu_sim::{AccessKind, Device, DeviceArray};
use sage_graph::{Csr, NodeId};

/// Node decision state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u32)]
pub enum MisStatus {
    /// Still contending.
    Undecided = 0,
    /// Selected into the independent set.
    InSet = 1,
    /// Adjacent to a selected node.
    Excluded = 2,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Contest,
    Exclude,
}

/// Deterministic per-round priority.
fn priority(u: NodeId, round: u32) -> u32 {
    let h = (u as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((round as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F));
    (h >> 32) as u32
}

/// Luby-style MIS.
pub struct Mis {
    status: DeviceArray<u32>,
    beaten: DeviceArray<u32>,
    phase: Phase,
    round: u32,
    n: usize,
}

impl Mis {
    /// Create an uninitialised MIS app.
    #[must_use]
    pub fn new(dev: &mut Device) -> Self {
        Self {
            status: dev.alloc_array(0, 0),
            beaten: dev.alloc_array(0, 0),
            phase: Phase::Contest,
            round: 0,
            n: 0,
        }
    }

    /// Per-node status after a run.
    #[must_use]
    pub fn statuses(&self) -> Vec<MisStatus> {
        self.status
            .as_slice()
            .iter()
            .map(|&s| match s {
                1 => MisStatus::InSet,
                2 => MisStatus::Excluded,
                _ => MisStatus::Undecided,
            })
            .collect()
    }

    /// Nodes selected into the set.
    #[must_use]
    pub fn members(&self) -> Vec<NodeId> {
        self.status
            .as_slice()
            .iter()
            .enumerate()
            .filter(|&(_, &s)| s == 1)
            .map(|(u, _)| u as NodeId)
            .collect()
    }

    fn undecided(&self) -> Vec<NodeId> {
        self.status
            .as_slice()
            .iter()
            .enumerate()
            .filter(|&(_, &s)| s == 0)
            .map(|(u, _)| u as NodeId)
            .collect()
    }
}

impl App for Mis {
    fn name(&self) -> &'static str {
        "mis"
    }

    fn init(&mut self, dev: &mut Device, g: &Csr, _source: NodeId) -> Vec<NodeId> {
        let n = g.num_nodes();
        self.n = n;
        if self.status.len() != n {
            self.status = dev.alloc_array(n, 0);
            self.beaten = dev.alloc_array(n, 0);
        } else {
            self.status.fill(0);
            self.beaten.fill(0);
        }
        self.phase = Phase::Contest;
        self.round = 0;
        (0..n as NodeId).collect()
    }

    fn on_frontier(&mut self, frontier: NodeId, rec: &mut AccessRecorder) {
        rec.read(self.status.addr(frontier as usize));
    }

    fn filter(&mut self, frontier: NodeId, neighbor: NodeId, rec: &mut AccessRecorder) -> bool {
        let f = frontier as usize;
        let n = neighbor as usize;
        match self.phase {
            Phase::Contest => {
                rec.read(self.status.addr(n));
                if self.status[f] == 0 && self.status[n] == 0 {
                    // the lower-priority endpoint is beaten this round
                    let (pf, pn) = (
                        priority(frontier, self.round),
                        priority(neighbor, self.round),
                    );
                    if pf > pn || (pf == pn && frontier > neighbor) {
                        self.beaten[n] = 1;
                        // dirty: racing contestants all store 1 — §7.2 benign write-write race
                        rec.write_dirty(self.beaten.addr(n));
                    }
                }
                false
            }
            Phase::Exclude => {
                rec.read(self.status.addr(n));
                if self.status[n] == 0 {
                    self.status[n] = 2; // atomic exclusion
                    rec.atomic(self.status.addr(n));
                }
                false
            }
        }
    }

    fn iteration_epilogue(&mut self) -> Option<VertexEpilogue> {
        if self.phase != Phase::Contest {
            return None;
        }
        // decision kernel: unbeaten undecided nodes join the set, and every
        // beaten flag resets for the next round
        for u in 0..self.n {
            if self.status[u] == 0 && self.beaten[u] == 0 {
                self.status[u] = 1;
            }
        }
        self.beaten.fill(0);
        // the join stores land in the status sectors the kernel just read
        Some(VertexEpilogue {
            arrays: vec![
                (AccessKind::Read, self.status.addr(0)),
                (AccessKind::Read, self.beaten.addr(0)),
                (AccessKind::Write, self.beaten.addr(0)),
            ],
        })
    }

    fn control(&mut self, _iter: usize, _contracted: Vec<NodeId>) -> Step {
        match self.phase {
            Phase::Contest => {
                // winners of this round knock out their neighbors
                let winners: Vec<NodeId> = self
                    .status
                    .as_slice()
                    .iter()
                    .enumerate()
                    .filter(|&(_, &s)| s == 1)
                    .map(|(u, _)| u as NodeId)
                    .collect();
                self.phase = Phase::Exclude;
                // winners of previous rounds already excluded their
                // neighbors; restrict to fresh winners via the round trick:
                // all current InSet nodes re-excluding is idempotent
                if winners.is_empty() {
                    Step::Done
                } else {
                    Step::Frontier(winners)
                }
            }
            Phase::Exclude => {
                self.phase = Phase::Contest;
                self.round += 1;
                let undecided = self.undecided();
                if undecided.is_empty() {
                    Step::Done
                } else {
                    Step::Frontier(undecided)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ResidentEngine;
    use crate::pipeline::Runner;
    use crate::DeviceGraph;
    use gpu_sim::DeviceConfig;
    use sage_graph::gen::{social_graph, uniform_graph, SocialParams};

    fn run_mis(csr: &Csr) -> Mis {
        let mut dev = Device::new(DeviceConfig::test_tiny());
        let g = DeviceGraph::upload(&mut dev, csr.clone());
        let mut engine = ResidentEngine::with_geometry(16, 4, true);
        let mut app = Mis::new(&mut dev);
        let _ = Runner::new().run(&mut dev, &g, &mut engine, &mut app, 0);
        app
    }

    fn check_independent_and_maximal(csr: &Csr, mis: &Mis) {
        let st = mis.statuses();
        // no undecided nodes remain
        assert!(st.iter().all(|&s| s != MisStatus::Undecided));
        // independence: no two adjacent members
        for (u, v) in csr.edges() {
            assert!(
                !(st[u as usize] == MisStatus::InSet && st[v as usize] == MisStatus::InSet),
                "adjacent members {u} and {v}"
            );
        }
        // maximality: every excluded node has a member neighbor
        for u in 0..csr.num_nodes() as NodeId {
            if st[u as usize] == MisStatus::Excluded {
                assert!(
                    csr.neighbors(u)
                        .iter()
                        .any(|&v| st[v as usize] == MisStatus::InSet),
                    "excluded node {u} has no member neighbor"
                );
            }
        }
    }

    #[test]
    fn mis_on_uniform_graph_is_independent_and_maximal() {
        let csr = uniform_graph(300, 1800, 5);
        let mis = run_mis(&csr);
        check_independent_and_maximal(&csr, &mis);
        assert!(!mis.members().is_empty());
    }

    #[test]
    fn mis_on_skewed_graph_is_independent_and_maximal() {
        let csr = social_graph(&SocialParams {
            nodes: 500,
            avg_deg: 12.0,
            alpha: 1.9,
            max_deg_frac: 0.2,
            ..SocialParams::default()
        });
        let mis = run_mis(&csr);
        check_independent_and_maximal(&csr, &mis);
    }

    #[test]
    fn isolated_nodes_always_join() {
        let csr = Csr::from_edges(5, &[(0, 1), (1, 0)]);
        let mis = run_mis(&csr);
        let st = mis.statuses();
        for u in [2usize, 3, 4] {
            assert_eq!(st[u], MisStatus::InSet, "isolated node {u} must join");
        }
    }

    #[test]
    fn clique_selects_exactly_one() {
        let mut edges = Vec::new();
        for a in 0..8u32 {
            for b in 0..8u32 {
                if a != b {
                    edges.push((a, b));
                }
            }
        }
        let csr = Csr::from_edges(8, &edges);
        let mis = run_mis(&csr);
        assert_eq!(mis.members().len(), 1, "a clique admits exactly one member");
    }

    #[test]
    fn deterministic() {
        let csr = uniform_graph(200, 1000, 9);
        assert_eq!(run_mis(&csr).members(), run_mis(&csr).members());
    }
}
