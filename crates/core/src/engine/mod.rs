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
use common::PullConfig;
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

    /// The engine's bottom-up geometry, or `None` for a push-only engine.
    /// The runner asks once per run and drives the shared pull scan
    /// ([`common::pull_iterate`]) and masked SpMV ([`spmv::matrix_iterate`])
    /// itself, so every engine keeps its push-side scheduling character in
    /// both bottom-up gears.
    fn bottom_up(&self, dev: &Device, g: &DeviceGraph) -> Option<PullConfig> {
        let _ = (dev, g);
        None
    }

    /// Drop any cross-run cached state (e.g. resident tiles).
    fn reset(&mut self) {}
}
