//! The graph as it sits in (simulated) device or host memory.
//!
//! SAGE's whole premise is operating on the ubiquitous CSR directly: load
//! `u_offset` and `v` onto the device and answer queries immediately, no
//! preprocessing (§1). [`DeviceGraph`] is that uploaded CSR — it pairs the
//! functional [`Csr`] with the device (or host, for out-of-core) addresses
//! of its two arrays so engines can charge their expansion traffic, and
//! with the device addresses of the frontier queue and bitmap every
//! traversal on the graph contracts into.

use gpu_sim::Device;
use sage_graph::{Csr, NodeId};

/// Where the CSR arrays live.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum GraphPlacement {
    /// Both arrays in device memory (single-GPU / multi-GPU scenarios).
    Device,
    /// Both arrays in host memory, accessed over PCIe (out-of-core).
    Host,
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
            csr,
            offsets_base,
            targets_base,
            in_edges: InEdges::Absent,
            in_offsets_base: 0,
            in_targets_base: 0,
            queue_base: queue.base(),
            bitmap_base: bitmap.base(),
            placement,
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

    /// Replace the CSR (after a reordering round). The array addresses are
    /// reused — the paper updates the representation in place.
    ///
    /// # Panics
    /// Panics if node or edge counts change.
    pub fn replace_csr(&mut self, csr: Csr) {
        assert_eq!(csr.num_nodes(), self.csr.num_nodes(), "node count changed");
        assert_eq!(csr.num_edges(), self.csr.num_edges(), "edge count changed");
        if self.has_in_edges() {
            // same node/edge counts, so the reversed view fits the
            // already-allocated arrays; symmetry is decided afresh.
            self.in_edges = InEdges::of(&csr);
        }
        self.csr = csr;
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
    fn replace_csr_keeps_addresses() {
        let mut d = Device::new(DeviceConfig::test_tiny());
        let mut g = DeviceGraph::upload(&mut d, graph());
        let before = g.target_addr(0);
        // a relabelled graph with the same counts
        let perm = sage_graph::Permutation::random(4, 1);
        g.replace_csr(perm.apply_csr(&graph()));
        assert_eq!(g.target_addr(0), before);
    }

    #[test]
    #[should_panic(expected = "edge count changed")]
    fn replace_with_different_size_rejected() {
        let mut d = Device::new(DeviceConfig::test_tiny());
        let mut g = DeviceGraph::upload(&mut d, graph());
        g.replace_csr(Csr::from_edges(4, &[(0, 1)]));
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
    fn replace_csr_rebuilds_in_edges() {
        let mut d = Device::new(DeviceConfig::test_tiny());
        let mut g = DeviceGraph::upload(&mut d, graph()).with_in_edges(&mut d);
        let perm = sage_graph::Permutation::random(4, 1);
        let relabelled = perm.apply_csr(&graph());
        let expected = relabelled.reversed();
        g.replace_csr(relabelled);
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
    fn replace_csr_redecides_symmetry() {
        let mut d = Device::new(DeviceConfig::test_tiny());
        let mut g = DeviceGraph::upload(&mut d, symmetric()).with_in_edges(&mut d);
        let addrs = (g.in_offset_addr(0), g.in_target_addr(0));
        let perm = sage_graph::Permutation::random(4, 1);
        // symmetric -> directed (same six edges' worth of slots): an owned
        // reversed copy
        let directed = Csr::from_edges(4, &[(0, 1), (1, 0), (0, 2), (1, 3), (2, 3), (3, 2)]);
        g.replace_csr(directed.clone());
        assert!(!std::ptr::eq(g.in_csr().unwrap(), g.csr()));
        assert_eq!(*g.in_csr().unwrap(), directed.reversed());
        // directed -> symmetric: shared again
        g.replace_csr(perm.apply_csr(&symmetric()));
        assert!(std::ptr::eq(g.in_csr().unwrap(), g.csr()));
        assert_eq!(*g.in_csr().unwrap(), g.csr().reversed());
        assert_eq!((g.in_offset_addr(0), g.in_target_addr(0)), addrs);
    }

    #[test]
    fn empty_graph_uploads() {
        let mut d = Device::new(DeviceConfig::test_tiny());
        let g = DeviceGraph::upload(&mut d, Csr::from_edges(1, &[]));
        assert_eq!(g.csr().num_edges(), 0);
    }
}
