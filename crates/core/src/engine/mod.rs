//! Traversal engines: the paper's SAGE (Tiled Partitioning + Resident Tile
//! Stealing) and every baseline it is compared against.
//!
//! An engine owns the *expansion scheduling* strategy — how the frontier's
//! adjacency is mapped onto warps, tiles and SMs — while the application
//! supplies the filter (§4). All engines produce identical functional
//! results (up to float-accumulation order) and differ only in the cost
//! events they generate on the simulated device.

pub mod b40c;
pub mod common;
pub mod gunrock;
pub mod ligra;
pub mod naive;
pub mod resident;
pub mod sage_tp;
pub mod spmv;
pub mod subway;
pub mod tigr;

pub use b40c::B40cEngine;
pub use gunrock::GunrockEngine;
pub use ligra::LigraEngine;
pub use naive::NaiveEngine;
pub use resident::ResidentEngine;
pub use sage_tp::TiledPartitioningEngine;
pub use subway::SubwayEngine;
pub use tigr::TigrEngine;

use crate::app::App;
use crate::dgraph::DeviceGraph;
use crate::frontier::BitFrontier;
use gpu_sim::Device;
use sage_graph::NodeId;

/// Result of one expansion+filtering iteration.
#[derive(Debug, Clone, Default)]
pub struct IterationOutput {
    /// Neighbors that passed the filter (pre-contraction, may contain
    /// duplicates).
    pub next: Vec<NodeId>,
    /// Edges traversed (filter invocations).
    pub edges: u64,
    /// Seconds attributable to runtime scheduling overhead — elections,
    /// shuffles, partitions (Table 3's numerator).
    pub overhead_seconds: f64,
}

/// A traversal engine.
pub trait Engine {
    /// Name as printed in figures ("SAGE", "B40C", ...).
    fn name(&self) -> &'static str;

    /// Expand `frontier` and run the app's filter over every incident edge,
    /// charging the simulated device.
    fn iterate(
        &mut self,
        dev: &mut Device,
        g: &DeviceGraph,
        app: &mut dyn App,
        frontier: &[NodeId],
    ) -> IterationOutput;

    /// True when the engine has a native pull (bottom-up) iteration path.
    /// The default `iterate_pull` falls back to expanding the bitmap into a
    /// queue and pushing, so push-only baselines stay correct when a runner
    /// hands them a dense frontier.
    fn supports_pull(&self) -> bool {
        false
    }

    /// Pull iteration: scan candidate vertices' in-edges against the dense
    /// `frontier` bitmap. Only called when the graph has an in-edge view and
    /// the app supports pull. `next` comes back sorted and duplicate-free
    /// (candidates are scanned in ascending order).
    ///
    /// `queue_base` is the device address of the sparse frontier queue: the
    /// pull kernel fuses the bitmap build (prologue) and the next-queue
    /// writes (atomic-cursor append) into its single launch, so the runner
    /// skips the separate conversion and contraction kernels in pull
    /// iterations.
    fn iterate_pull(
        &mut self,
        dev: &mut Device,
        g: &DeviceGraph,
        app: &mut dyn App,
        frontier: &BitFrontier,
        queue_base: u64,
    ) -> IterationOutput {
        let _ = queue_base;
        let sparse = frontier.to_vec();
        self.iterate(dev, g, app, &sparse)
    }

    /// True when the engine has a native matrix (SpMV) iteration path on
    /// the tensor units. The default `iterate_matrix` falls back to pull
    /// (which itself falls back to push), so runners can force the matrix
    /// mode without breaking scalar-only baselines.
    fn supports_matrix(&self) -> bool {
        false
    }

    /// Matrix iteration: execute the step as `next = (A^T ⊙ mask) · f` —
    /// masked SpMV of the reversed adjacency against the dense `frontier`
    /// bitmap, processed as `block_dim`-square blocks on the matrix units
    /// instead of lane-by-lane CSR scans. Only called when the graph has an
    /// in-edge view and the app supports pull (the matrix mode applies
    /// updates through the same pull contract, in the same ascending order,
    /// so outputs stay bitwise identical to push). `queue_base` plays the
    /// same fused-epilogue role as in [`Engine::iterate_pull`].
    fn iterate_matrix(
        &mut self,
        dev: &mut Device,
        g: &DeviceGraph,
        app: &mut dyn App,
        frontier: &BitFrontier,
        queue_base: u64,
    ) -> IterationOutput {
        self.iterate_pull(dev, g, app, frontier, queue_base)
    }

    /// Drop any cross-run cached state (e.g. resident tiles).
    fn reset(&mut self) {}
}
