//! **Sampling-based Reordering** (§6, Algorithm 4, Figure 5).
//!
//! Minimising the sectors touched per tile access is NP-hard (Theorem 6.1:
//! reduction to minimum linear arrangement with binary distancing), so SAGE
//! samples the live tile accesses and improves node indices greedily, round
//! after round:
//!
//! * **Stage 1** — while tiles execute, count for every node how many of its
//!   intra-tile co-members fall in its memory sector (the locality measure);
//!   alongside, keep a bounded per-node reservoir of *anchor votes* (this is
//!   the "sampling" — the full co-access list would be |E|-sized).
//! * **Stage 2** — for each node, search the sampled co-access distribution
//!   for a better index. Our instantiation (the paper leaves the search
//!   under-specified, see DESIGN.md §5a): each tile votes for its minimum
//!   member id, weighted by tile width; the winning anchor is the candidate
//!   index, so every member of a co-access group converges on the *same*
//!   target and the group becomes contiguous after the sort.
//! * **Stage 3** — accept the candidate only if the anchor tile's
//!   same-sector potential exceeds the locality the node already measures
//!   across all its sampled tiles (keeps natively-ordered graphs intact).
//!
//! The accepted expected indices are then sorted (the paper uses
//! bb\_segsort \[17\] on the GPU) to resolve duplicates into an actual
//! permutation, and the CSR is rebuilt in place — `O(|V| + |E|)`.
//! [`crate::SageRuntime`] additionally validates each *round* against the
//! previous round's sampled locality and rolls back regressions.

use crate::engine::common::TileObserver;
use crate::engine::sage_tp::SECTOR_NODES;
use gpu_sim::{AccessKind, Device};
use sage_graph::{NodeId, Permutation};

/// Anchor-vote slots kept per node (the sampling reservoir).
pub const ANCHOR_SLOTS: usize = 4;

/// Collects tile-access samples during traversal (Algorithm 4) and derives
/// one reordering round from them.
#[derive(Debug, Clone)]
pub struct Sampler {
    /// Stage-1 locality measure per node: the stage-3 yardstick a vote's
    /// potential must exceed.
    locality: Vec<u32>,
    /// Anchor votes per node: up to [`ANCHOR_SLOTS`] `(anchor, weight,
    /// potential)` triples, where the anchor of a tile is its minimum member
    /// id, the weight accumulates the tile widths, and the potential
    /// accumulates the same-sector co-accesses the node would score if it
    /// sat next to the anchor (capped at one sector per observation). All members of a tile share its
    /// anchor, which is what lets a co-access group agree on a meeting
    /// point (a per-node independent search cannot converge — the group
    /// members would all chase each other's moving targets).
    votes: Vec<[(NodeId, u32, u32); ANCHOR_SLOTS]>,
    /// Edge-accesses sampled so far this round.
    sampled: u64,
    /// Sampling threshold: switch stages after this many edge accesses
    /// (the paper uses |E|).
    pub threshold: u64,
    scratch: Vec<(u32, NodeId)>,
}

impl Sampler {
    /// A sampler for `n` nodes with the given stage-switch threshold.
    #[must_use]
    pub fn new(n: usize, threshold: u64) -> Self {
        Self {
            locality: vec![0; n],
            votes: vec![[(0, 0, 0); ANCHOR_SLOTS]; n],
            sampled: 0,
            threshold,
            scratch: Vec::new(),
        }
    }

    /// Edge accesses sampled so far.
    #[must_use]
    pub fn sampled(&self) -> u64 {
        self.sampled
    }

    /// True once the sampling threshold is reached.
    #[must_use]
    pub fn saturated(&self) -> bool {
        self.sampled >= self.threshold
    }

    /// Total locality score (diagnostics).
    #[must_use]
    pub fn total_locality(&self) -> u64 {
        self.locality.iter().map(|&x| u64::from(x)).sum()
    }

    /// Charge the sampling instructions to the device (the shared-memory
    /// counting of Algorithm 4 is lightweight but not free) and reset the
    /// per-round state, returning the permutation for this round.
    ///
    /// Returns `None` when nothing was sampled.
    pub fn finish_round(&mut self, dev: &mut Device) -> Option<Permutation> {
        if self.sampled == 0 {
            return None;
        }
        let n = self.locality.len();

        // Stage 2+3 kernel cost: O(log|V| · |T|) (§6 complexity analysis).
        let levels = (n.max(2) as f64).log2().ceil() as u64;
        let mut k = dev.launch("sampling_reorder_stages");
        let sms = k.num_sms();
        let per_sm = (self.sampled * levels / 32).div_ceil(sms as u64);
        for sm in 0..sms {
            k.shard(sm).exec_uniform(per_sm.max(1));
        }
        let _ = k.finish();

        // Stage 2: search a better index per node. Each node's densest
        // sampled tile defines a candidate neighborhood; the tile's minimum
        // member id is the concrete index the search converges to (every
        // member of the tile lands on the same anchor, so the group becomes
        // contiguous after the sort).
        // Stage 3: keep the candidate only when it improves on the current
        // placement — a node already sitting within a sector of its anchor
        // gains nothing by moving.
        let mut expected: Vec<(u32, NodeId)> = Vec::with_capacity(n);
        for u in 0..n {
            let cur_index = u as u32;
            let (anchor, weight, potential) = self.votes[u]
                .iter()
                .copied()
                .max_by_key(|&(_, w, _)| w)
                .unwrap_or((cur_index, 0, 0));
            if weight < 2 {
                expected.push((cur_index, u as NodeId));
                continue;
            }
            // Stage 3: compare the locality the move could gain (the anchor
            // tile's same-sector potential) against the locality the node
            // already scores across *all* its sampled tiles. This is what
            // keeps SAGE from shuffling graphs whose native order is already
            // good (crawl-ordered web, lattice-ordered brain): there, every
            // tile contributes locality, so no single-tile move can win.
            let gain = potential;
            let loss = self.locality[u];
            let improves = gain > loss;
            let well_placed = cur_index.abs_diff(anchor) < SECTOR_NODES;
            let target = if improves && !well_placed {
                anchor
            } else {
                cur_index
            };
            expected.push((target, u as NodeId));
        }

        // Sort the expected-index array (bb_segsort stand-in) to resolve
        // duplicate/discontinuous expected indices into a dense order.
        expected.sort_unstable();
        let order: Vec<NodeId> = expected.iter().map(|&(_, u)| u).collect();

        charge_representation_update(dev, n as u64 + self.sampled);
        self.clear();
        Some(Permutation::from_order(&order))
    }

    /// Drop this round's samples without deriving a permutation, e.g. when
    /// they were taken on a layout that has since been replaced.
    pub(crate) fn clear(&mut self) {
        self.locality.fill(0);
        self.votes.fill([(0, 0, 0); ANCHOR_SLOTS]);
        self.sampled = 0;
    }
}

/// Charge the representation-update kernel (§6): `elements` node and edge
/// entries streamed once to rebuild the CSR under a new labelling.
pub(crate) fn charge_representation_update(dev: &mut Device, elements: u64) {
    let mut k = dev.launch("sampling_reorder_apply");
    let sms = k.num_sms();
    let stream = elements.div_ceil(sms as u64);
    let mut addrs: Vec<u64> = Vec::with_capacity(32);
    for sm in 0..sms {
        let mut sh = k.shard(sm);
        sh.exec_uniform(stream.div_ceil(32).max(1));
        addrs.clear();
        for i in 0..32u64 {
            addrs.push((1 << 30) + (sm as u64 * 4096) + i * 4);
        }
        sh.access(AccessKind::Write, &addrs, 4);
    }
    let _ = k.finish();
}

impl TileObserver for Sampler {
    fn observe(&mut self, members: &[NodeId]) {
        if self.saturated() {
            // past the threshold the stage is closed: freeze both counters
            // so the locality/sampled ratio stays a consistent per-round
            // measurement
            return;
        }
        self.sampled += members.len() as u64;
        if members.len() < 2 {
            return;
        }

        // Stage 1: count intra-tile same-sector co-members per member.
        self.scratch.clear();
        self.scratch
            .extend(members.iter().map(|&m| (m / SECTOR_NODES, m)));
        self.scratch.sort_unstable();
        let mut i = 0;
        while i < self.scratch.len() {
            let sector = self.scratch[i].0;
            let mut j = i + 1;
            while j < self.scratch.len() && self.scratch[j].0 == sector {
                j += 1;
            }
            let same = (j - i) as u32;
            if same > 1 {
                for k in i..j {
                    let node = self.scratch[k].1 as usize;
                    self.locality[node] += same - 1;
                }
            }
            i = j;
        }

        // Vote: the tile's minimum member id is its anchor; each member
        // credits the anchor with the tile width. A node co-accessed from
        // several parents gravitates to the community it is co-accessed
        // with the most.
        let len = members.len() as u32;
        let tile_min = *members.iter().min().expect("non-empty tile");
        let per_obs_cap = len.min(SECTOR_NODES) - 1;
        for &m in members {
            let slots = &mut self.votes[m as usize];
            if let Some(slot) = slots.iter_mut().find(|s| s.0 == tile_min && s.1 > 0) {
                slot.1 += len;
                slot.2 += per_obs_cap;
            } else {
                // replace the weakest slot
                let weakest = slots
                    .iter_mut()
                    .min_by_key(|s| s.1)
                    .expect("slots non-empty");
                if weakest.1 < len {
                    *weakest = (tile_min, len, per_obs_cap);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::DeviceConfig;

    fn dev() -> Device {
        Device::new(DeviceConfig::test_tiny())
    }

    #[test]
    fn empty_sampler_yields_no_permutation() {
        let mut s = Sampler::new(16, 100);
        assert_eq!(s.finish_round(&mut dev()), None);
    }

    #[test]
    fn stage1_counts_same_sector_co_members() {
        let mut s = Sampler::new(64, 1000);
        // nodes 0..8 share sector 0; node 63 is alone in its sector
        s.observe(&[0, 1, 2, 63]);
        assert_eq!(s.total_locality(), 6); // 3 members × 2 co-members
        assert!(s.sampled() == 4);
    }

    #[test]
    fn figure5_example_moves_node8_toward_sector0() {
        // Figure 5: tiles {0,1,2,8}, {1,2,5,8}, {2,4,8,9}, {8,12,14,15},
        // sector width 4 in the figure; ours is 8, so scale ids by 2 to put
        // 0..3 -> sector 0 etc. Instead run with raw ids: most of node 8's
        // co-members (0,1,2,1,2,5,2,4) live in sector 0 (ids 0..7).
        let mut s = Sampler::new(16, 1000);
        s.observe(&[0, 1, 2, 8]);
        s.observe(&[1, 2, 5, 8]);
        s.observe(&[2, 4, 8, 9]);
        s.observe(&[8, 12, 14, 15]);
        let p = s.finish_round(&mut dev()).unwrap();
        // node 8 should be pulled next to 0..7 (its new index < 12)
        assert!(
            p.map(8) < 12,
            "node 8 should move toward sector 0, got {}",
            p.map(8)
        );
        // result is a valid permutation over 16 nodes
        assert_eq!(p.len(), 16);
        let _ = p.inverse();
    }

    #[test]
    fn round_improves_co_access_locality() {
        // co-access groups scattered across the index space
        let groups: Vec<Vec<NodeId>> = vec![
            vec![0, 17, 34, 51],
            vec![1, 18, 35, 52],
            vec![2, 19, 36, 53],
        ];
        let sector_count = |tiles: &[Vec<NodeId>], map: &dyn Fn(NodeId) -> NodeId| -> usize {
            tiles
                .iter()
                .map(|t| {
                    let mut sectors: Vec<u32> = t.iter().map(|&m| map(m) / SECTOR_NODES).collect();
                    sectors.sort_unstable();
                    sectors.dedup();
                    sectors.len()
                })
                .sum()
        };
        let mut s = Sampler::new(64, 1_000_000);
        for _ in 0..20 {
            for t in &groups {
                s.observe(t);
            }
        }
        let p = s.finish_round(&mut dev()).unwrap();
        let before = sector_count(&groups, &|m| m);
        let after = sector_count(&groups, &|m| p.map(m));
        assert!(
            after < before,
            "reordering should reduce sectors per tile: {before} -> {after}"
        );
    }

    #[test]
    fn saturation_stops_sampling() {
        let mut s = Sampler::new(32, 8);
        s.observe(&[0, 1, 2, 3, 4, 5, 6, 7]);
        assert!(s.saturated());
        let before = s.votes[0];
        s.observe(&[0, 9, 10, 11, 12, 13, 14, 15, 16]);
        assert_eq!(s.votes[0], before, "no sampling past the threshold");
    }

    #[test]
    fn round_resets_state() {
        let mut s = Sampler::new(16, 100);
        s.observe(&[0, 1, 2, 3]);
        let _ = s.finish_round(&mut dev());
        assert_eq!(s.sampled(), 0);
        assert_eq!(s.total_locality(), 0);
    }

    #[test]
    fn charge_appears_on_device() {
        let mut d = dev();
        let mut s = Sampler::new(16, 100);
        s.observe(&[0, 1, 2, 3]);
        let before = d.elapsed_seconds();
        let _ = s.finish_round(&mut d);
        assert!(d.elapsed_seconds() > before, "round must charge the device");
    }
}
