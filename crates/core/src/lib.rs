//! # sage — Self-adaptive Graph Traversal on (simulated) GPUs
//!
//! A full reproduction of **SAGE** (Sha, Li, Tan; SIGMOD 2021): a
//! preprocessing-free, node-centric graph-traversal framework that adapts to
//! the hardware and the data at runtime through three techniques:
//!
//! 1. **Tiled Partitioning** (§5.1) — [`engine::TiledPartitioningEngine`];
//! 2. **Resident Tile Stealing** (§5.2) — [`engine::ResidentEngine`];
//! 3. **Sampling-based Reordering** (§6) — [`reorder`].
//!
//! Plus every baseline of the paper's evaluation: thread-per-vertex, B40C's
//! three-bucket strategy, Tigr's UDT transformation, a Ligra-style CPU
//! engine, Subway's out-of-core preloading, and Gunrock/Groute-style
//! multi-GPU drivers.
//!
//! ## Quick start
//!
//! ```
//! use gpu_sim::Device;
//! use sage::app::Bfs;
//! use sage::engine::ResidentEngine;
//! use sage::{DeviceGraph, Runner};
//!
//! let mut dev = Device::default_device();
//! let csr = sage_graph::gen::uniform_graph(1000, 8000, 42);
//! let g = DeviceGraph::upload(&mut dev, csr);
//! let mut engine = ResidentEngine::new();
//! let mut bfs = Bfs::new(&mut dev);
//! let report = Runner::new().run(&mut dev, &g, &mut engine, &mut bfs, 0);
//! println!("{report}");
//! assert!(report.gteps() > 0.0);
//! ```

pub mod access;
pub mod app;
pub mod dgraph;
pub mod engine;
pub mod frontier;
pub mod metrics;
pub mod multigpu;
pub mod ooc;
pub mod pipeline;
pub mod reference;
pub mod reorder;
pub mod runtime;
pub mod walk;

pub use access::AccessRecorder;
pub use dgraph::{DeviceGraph, OriginalIds};
pub use frontier::BitFrontier;
pub use metrics::{LatencyBreakdown, RunReport};
pub use pipeline::{DirectionPolicy, Runner};
pub use runtime::{ReorderSession, SageRuntime};
