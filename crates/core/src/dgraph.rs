//! The graph as it sits in (simulated) device or host memory.
//!
//! SAGE's whole premise is operating on the ubiquitous CSR directly: load
//! `u_offset` and `v` onto the device and answer queries immediately, no
//! preprocessing (§1). [`DeviceGraph`] is that uploaded CSR — it pairs the
//! functional [`Csr`] with the device (or host, for out-of-core) addresses
//! of its two arrays so engines can charge their expansion traffic, and
//! with the device addresses of the frontier queue and bitmap every
//! traversal on the graph contracts into.
//!
//! The graph also owns its layout: Sampling-based Reordering (§6) relabels
//! the CSR in place round after round, and [`DeviceGraph::relabel`] composes
//! every round into the graph's [`OriginalIds`], so apps and result remaps
//! read original ids from the graph they run on.

use gpu_sim::Device;
use sage_graph::{Csr, NodeId, Permutation};
use std::sync::Arc;

/// Where the CSR arrays live.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum GraphPlacement {
    /// Both arrays in device memory (single-GPU / multi-GPU scenarios).
    Device,
    /// Both arrays in host memory, accessed over PCIe (out-of-core).
    Host,
    /// No arrays at all: a view apps initialise on, never traversed.
    Unplaced,
}

/// A layout's current → original id map. Clones share one allocation, so
/// an app holding the map of the graph it was initialised on copies no ids.
/// The identity until the graph's first relabel.
#[derive(Debug, Clone, Default)]
pub struct OriginalIds(Option<Arc<Permutation>>);

impl OriginalIds {
    /// The original id of current id `u`.
    #[inline]
    #[must_use]
    pub fn of(&self, u: NodeId) -> NodeId {
        self.0.as_ref().map_or(u, |ids| ids.map(u))
    }

    /// Per-current-id values rearranged by original id: `out[of(u)] =
    /// values[u]`.
    ///
    /// # Panics
    /// Panics on a length other than the node count of a relabelled graph.
    #[must_use]
    pub fn to_original_order<T: Clone>(&self, values_by_current: &[T]) -> Vec<T> {
        match &self.0 {
            Some(ids) => ids.apply_values(values_by_current),
            None => values_by_current.to_vec(),
        }
    }

    /// The map after `relabel` (current id → next current id): undo the
    /// relabel, then map as before.
    fn relabelled(&self, relabel: &Permutation) -> Self {
        let undo = relabel.inverse();
        Self(Some(Arc::new(match &self.0 {
            Some(ids) => undo.then(ids),
            None => undo,
        })))
    }
}

/// The in-edge (CSC) view that pull and matrix iterations scan.
#[derive(Debug, Clone)]
enum InEdges {
    /// Not materialized: the graph never takes the pull path.
    Absent,
    /// Symmetric graph: the in-edges are the out-edges, so the view is
    /// the CSR itself and no second copy is kept.
    Shared,
    /// Directed graph: an owned reversed copy.
    Owned(Csr),
}

impl InEdges {
    /// The view for `csr`: shared when symmetric, reversed otherwise.
    fn of(csr: &Csr) -> Self {
        if csr.is_symmetric() {
            Self::Shared
        } else {
            Self::Owned(csr.reversed())
        }
    }
}

/// A CSR uploaded to the simulated memory system.
///
/// Optionally also carries the reversed (in-edge / CSC) view, which pull
/// iterations scan. Build it with [`DeviceGraph::with_in_edges`]; graphs
/// uploaded without it simply never take the pull path. The view's device
/// arrays are always reserved and placed like the forward ones, so
/// simulated addresses and traffic do not depend on symmetry; only the
/// host copy is shared when the graph is symmetric.
#[derive(Debug, Clone)]
pub struct DeviceGraph {
    csr: Csr,
    ids: OriginalIds,
    offsets_base: u64,
    targets_base: u64,
    in_edges: InEdges,
    in_offsets_base: u64,
    in_targets_base: u64,
    queue_base: u64,
    bitmap_base: u64,
    placement: GraphPlacement,
}

impl DeviceGraph {
    /// Upload into device memory.
    #[must_use]
    pub fn upload(dev: &mut Device, csr: Csr) -> Self {
        let offsets = dev.alloc_array::<u32>(csr.num_nodes() + 1, 0);
        let targets = dev.alloc_array::<u32>(csr.num_edges().max(1), 0);
        // Edge lists are scanned in single-touch streaming order; when the
        // array exceeds the L2 way capacity the device treats its reads as
        // cache-bypassing (`ld.global.cs`) and the replay backend can elide
        // them. Offsets stay cacheable — frontier expansion re-reads them.
        dev.mark_streaming(targets.base(), csr.num_edges().max(1) as u64 * 4);
        Self::placed(
            dev,
            csr,
            offsets.base(),
            targets.base(),
            GraphPlacement::Device,
        )
    }

    /// Upload into *host* memory: every access becomes PCIe traffic
    /// (out-of-core scenario, §3.3). The frontier queue and bitmap stay in
    /// device memory.
    #[must_use]
    pub fn upload_host(dev: &mut Device, csr: Csr) -> Self {
        let offsets = dev.alloc_host_array::<u32>(csr.num_nodes() + 1, 0);
        let targets = dev.alloc_host_array::<u32>(csr.num_edges().max(1), 0);
        Self::placed(
            dev,
            csr,
            offsets.base(),
            targets.base(),
            GraphPlacement::Host,
        )
    }

    /// The graph with no simulated arrays behind it, for the multi-GPU
    /// path, which initialises apps on a graph no single device holds:
    /// apps read its node space and degrees, but no engine may traverse it.
    #[must_use]
    pub(crate) fn unplaced(csr: Csr) -> Self {
        Self {
            csr,
            ids: OriginalIds::default(),
            offsets_base: 0,
            targets_base: 0,
            in_edges: InEdges::Absent,
            in_offsets_base: 0,
            in_targets_base: 0,
            queue_base: 0,
            bitmap_base: 0,
            placement: GraphPlacement::Unplaced,
        }
    }

    /// The graph over placed CSR arrays, plus its frontier queue (one
    /// `u32` per node) and dense-frontier bitmap (one bit per node) in
    /// device memory. Every run on the graph contracts into these same
    /// two buffers, so they stay warm in L2 from one run to the next.
    fn placed(
        dev: &mut Device,
        csr: Csr,
        offsets_base: u64,
        targets_base: u64,
        placement: GraphPlacement,
    ) -> Self {
        let n = csr.num_nodes();
        let queue = dev.alloc_array::<u32>(n.max(1), 0);
        let bitmap = dev.alloc_array::<u64>(n.div_ceil(64).max(1), 0);
        Self {
            offsets_base,
            targets_base,
            queue_base: queue.base(),
            bitmap_base: bitmap.base(),
            placement,
            ..Self::unplaced(csr)
        }
    }

    /// Materialize the in-edge (CSC) view and place it alongside the CSR
    /// (same placement: device memory, or host memory for out-of-core).
    /// Required before a runner can choose pull iterations. A symmetric
    /// graph shares its CSR as the view; a directed one keeps a reversed
    /// copy.
    #[must_use]
    pub fn with_in_edges(mut self, dev: &mut Device) -> Self {
        // the reversed view has the CSR's node and edge counts
        let (n, m) = (self.csr.num_nodes(), self.csr.num_edges().max(1));
        let (in_offsets, in_targets) = match self.placement {
            GraphPlacement::Device => {
                let in_off = dev.alloc_array::<u32>(n + 1, 0).base();
                let in_tgt = dev.alloc_array::<u32>(m, 0).base();
                dev.mark_streaming(in_tgt, m as u64 * 4);
                (in_off, in_tgt)
            }
            GraphPlacement::Host => (
                dev.alloc_host_array::<u32>(n + 1, 0).base(),
                dev.alloc_host_array::<u32>(m, 0).base(),
            ),
            GraphPlacement::Unplaced => (0, 0),
        };
        self.in_offsets_base = in_offsets;
        self.in_targets_base = in_targets;
        self.in_edges = InEdges::of(&self.csr);
        self
    }

    /// True when the in-edge view has been materialized.
    #[must_use]
    pub fn has_in_edges(&self) -> bool {
        !matches!(self.in_edges, InEdges::Absent)
    }

    /// The in-edge (reversed) CSR, if materialized: the CSR itself when
    /// the graph is symmetric.
    #[must_use]
    pub fn in_csr(&self) -> Option<&Csr> {
        match &self.in_edges {
            InEdges::Absent => None,
            InEdges::Shared => Some(&self.csr),
            InEdges::Owned(rev) => Some(rev),
        }
    }

    /// Address of `in_offset[u]` in the reversed CSR.
    ///
    /// # Panics
    /// Panics if the in-edge view was not materialized.
    #[inline]
    #[must_use]
    pub fn in_offset_addr(&self, u: NodeId) -> u64 {
        debug_assert!(self.has_in_edges(), "in-edge view not materialized");
        self.in_offsets_base + u64::from(u) * 4
    }

    /// Address of `in_v[idx]` (the reversed target array).
    ///
    /// # Panics
    /// Panics if the in-edge view was not materialized.
    #[inline]
    #[must_use]
    pub fn in_target_addr(&self, idx: u32) -> u64 {
        debug_assert!(self.has_in_edges(), "in-edge view not materialized");
        self.in_targets_base + u64::from(idx) * 4
    }

    /// Device address of the frontier queue: the contraction at the end of
    /// every iteration writes the next frontier here.
    #[must_use]
    pub fn queue_base(&self) -> u64 {
        self.queue_base
    }

    /// Device address of the dense-frontier bitmap's word array.
    #[must_use]
    pub fn bitmap_base(&self) -> u64 {
        self.bitmap_base
    }

    /// The functional graph.
    #[must_use]
    pub fn csr(&self) -> &Csr {
        &self.csr
    }

    /// Address of `u_offset[u]`.
    #[inline]
    #[must_use]
    pub fn offset_addr(&self, u: NodeId) -> u64 {
        self.offsets_base + u64::from(u) * 4
    }

    /// Address of `v[idx]` (the target array).
    #[inline]
    #[must_use]
    pub fn target_addr(&self, idx: u32) -> u64 {
        self.targets_base + u64::from(idx) * 4
    }

    /// The current → original id map of this layout.
    #[must_use]
    pub fn original_ids(&self) -> &OriginalIds {
        &self.ids
    }

    /// Relabel the graph in place under `relabel` (current id → next
    /// current id) after a reordering round: rebuild the CSR and, if
    /// materialized, the in-edge view, and compose the round into the
    /// original-id map. The array addresses are reused — the paper updates
    /// the representation in place.
    ///
    /// # Panics
    /// Panics if `relabel` is not over the graph's node count.
    pub fn relabel(&mut self, relabel: &Permutation) {
        let csr = relabel.apply_csr(&self.csr);
        if self.has_in_edges() {
            // same node/edge counts, so the reversed view fits the
            // already-allocated arrays; symmetry is decided afresh.
            self.in_edges = InEdges::of(&csr);
        }
        self.csr = csr;
        self.ids = self.ids.relabelled(relabel);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::DeviceConfig;

    fn graph() -> Csr {
        Csr::from_edges(4, &[(0, 1), (0, 2), (1, 3)])
    }

    #[test]
    fn device_upload_addresses() {
        let mut d = Device::new(DeviceConfig::test_tiny());
        let g = DeviceGraph::upload(&mut d, graph());
        assert_eq!(g.placement, GraphPlacement::Device);
        assert_eq!(g.offset_addr(1) - g.offset_addr(0), 4);
        assert_eq!(g.target_addr(2) - g.target_addr(0), 8);
        assert!(!gpu_sim::mem::is_host_addr(g.target_addr(0)));
    }

    #[test]
    fn host_upload_lands_in_host_space() {
        let mut d = Device::new(DeviceConfig::test_tiny());
        let g = DeviceGraph::upload_host(&mut d, graph());
        assert_eq!(g.placement, GraphPlacement::Host);
        assert!(gpu_sim::mem::is_host_addr(g.offset_addr(0)));
        assert!(gpu_sim::mem::is_host_addr(g.target_addr(0)));
        // the frontier buffers stay on the device
        assert!(!gpu_sim::mem::is_host_addr(g.queue_base()));
        assert!(!gpu_sim::mem::is_host_addr(g.bitmap_base()));
    }

    #[test]
    fn frontier_buffers_follow_the_csr_arrays() {
        let mut d = Device::new(DeviceConfig::test_tiny());
        let g = DeviceGraph::upload(&mut d, graph());
        // one u32 queue slot per node, then the bitmap words
        assert!(g.queue_base() > g.target_addr(0));
        assert!(g.bitmap_base() >= g.queue_base() + 4 * 4);
    }

    #[test]
    fn relabel_keeps_addresses_and_composes_original_ids() {
        let mut d = Device::new(DeviceConfig::test_tiny());
        let mut g = DeviceGraph::upload(&mut d, graph());
        let before = g.target_addr(0);
        assert_eq!(g.original_ids().of(3), 3, "identity before any relabel");
        // two rounds: the map composes both
        let (p1, p2) = (Permutation::random(4, 1), Permutation::random(4, 2));
        g.relabel(&p1);
        g.relabel(&p2);
        assert_eq!(g.target_addr(0), before);
        assert_eq!(*g.csr(), p1.then(&p2).apply_csr(&graph()));
        for u in 0..4 {
            assert_eq!(g.original_ids().of(p2.map(p1.map(u))), u);
        }
        // values by current id land at their original ids
        let by_current: Vec<NodeId> = (0..4).map(|c| g.original_ids().of(c) * 10).collect();
        assert_eq!(
            g.original_ids().to_original_order(&by_current),
            [0, 10, 20, 30]
        );
    }

    #[test]
    #[should_panic(expected = "node count mismatch")]
    fn replace_with_different_size_rejected() {
        let mut d = Device::new(DeviceConfig::test_tiny());
        let mut g = DeviceGraph::upload(&mut d, graph());
        g.relabel(&Permutation::identity(3));
    }

    #[test]
    fn in_edge_view_reverses_adjacency() {
        let mut d = Device::new(DeviceConfig::test_tiny());
        let g = DeviceGraph::upload(&mut d, graph()).with_in_edges(&mut d);
        assert!(g.has_in_edges());
        let rev = g.in_csr().unwrap();
        assert_eq!(rev.neighbors(3), &[1]);
        assert_eq!(rev.neighbors(1), &[0]);
        assert_eq!(g.in_offset_addr(1) - g.in_offset_addr(0), 4);
        assert!(!gpu_sim::mem::is_host_addr(g.in_target_addr(0)));
    }

    #[test]
    fn in_edge_view_follows_host_placement() {
        let mut d = Device::new(DeviceConfig::test_tiny());
        let g = DeviceGraph::upload_host(&mut d, graph()).with_in_edges(&mut d);
        assert!(gpu_sim::mem::is_host_addr(g.in_offset_addr(0)));
        assert!(gpu_sim::mem::is_host_addr(g.in_target_addr(0)));
    }

    #[test]
    fn relabel_rebuilds_in_edges() {
        let mut d = Device::new(DeviceConfig::test_tiny());
        let mut g = DeviceGraph::upload(&mut d, graph()).with_in_edges(&mut d);
        let perm = Permutation::random(4, 1);
        let expected = perm.apply_csr(&graph()).reversed();
        g.relabel(&perm);
        assert_eq!(g.in_csr().unwrap().targets(), expected.targets());
    }

    fn symmetric() -> Csr {
        Csr::from_coo_symmetric(&graph().to_coo())
    }

    #[test]
    fn symmetric_upload_shares_the_csr_as_its_in_edge_view() {
        let mut d = Device::new(DeviceConfig::test_tiny());
        let g = DeviceGraph::upload(&mut d, symmetric()).with_in_edges(&mut d);
        assert!(std::ptr::eq(g.in_csr().unwrap(), g.csr()));
        // the device arrays are still reserved separately
        assert_ne!(g.in_target_addr(0), g.target_addr(0));
        assert_ne!(g.in_offset_addr(0), g.offset_addr(0));
    }

    #[test]
    fn directed_upload_owns_a_reversed_view() {
        let mut d = Device::new(DeviceConfig::test_tiny());
        let g = DeviceGraph::upload(&mut d, graph()).with_in_edges(&mut d);
        let view = g.in_csr().unwrap();
        assert!(!std::ptr::eq(view, g.csr()));
        assert_eq!(*view, graph().reversed());
    }

    #[test]
    fn relabel_keeps_the_in_edge_view_kind() {
        let mut d = Device::new(DeviceConfig::test_tiny());
        let perm = Permutation::random(4, 1);
        // a relabel preserves symmetry: a symmetric graph keeps sharing its
        // CSR as the view, a directed one keeps an owned reversed copy
        let mut sym = DeviceGraph::upload(&mut d, symmetric()).with_in_edges(&mut d);
        let addrs = (sym.in_offset_addr(0), sym.in_target_addr(0));
        sym.relabel(&perm);
        assert!(std::ptr::eq(sym.in_csr().unwrap(), sym.csr()));
        assert_eq!(*sym.in_csr().unwrap(), sym.csr().reversed());
        assert_eq!((sym.in_offset_addr(0), sym.in_target_addr(0)), addrs);
        let mut dir = DeviceGraph::upload(&mut d, graph()).with_in_edges(&mut d);
        dir.relabel(&perm);
        assert!(!std::ptr::eq(dir.in_csr().unwrap(), dir.csr()));
        assert_eq!(*dir.in_csr().unwrap(), dir.csr().reversed());
    }

    #[test]
    fn empty_graph_uploads() {
        let mut d = Device::new(DeviceConfig::test_tiny());
        let g = DeviceGraph::upload(&mut d, Csr::from_edges(1, &[]));
        assert_eq!(g.csr().num_edges(), 0);
    }
}
