//! # sage-graph — graph substrate for the SAGE reproduction
//!
//! Everything the paper assumes about graphs, built from scratch:
//!
//! * [`coo`] / [`csr`] — the two ubiquitous representations of Figure 1
//!   (Coordinate format and Compressed Sparse Row);
//! * [`gen`] — deterministic synthetic generators reproducing the
//!   topological character of the paper's five datasets (Table 1);
//! * [`datasets`] — the five datasets at configurable scale;
//! * [`io`] — edge-list text and binary load/store;
//! * [`stats`] — degree-distribution and skew metrics;
//! * [`reorder`] — the reordering baselines of §7: RCM, LLP, Gorder, plus
//!   utility orders (identity, random, degree);
//! * [`sample`] — weighted neighbor samplers for random walks (per-row
//!   alias tables and inverse-transform sampling);
//! * [`partition`] — a METIS-like balanced edge-cut partitioner for the
//!   multi-GPU scenario;
//! * [`update`] — dynamic edge insertion (the paper's dynamic-graph
//!   discussion in §7.2).

pub mod coo;
pub mod csr;
pub mod datasets;
pub mod gen;
mod ingest;
pub mod io;
pub mod partition;
pub mod reorder;
pub mod sample;
pub mod stats;
pub mod update;

/// Node identifier: 4-byte indices exactly as the paper's CSR uses.
pub type NodeId = u32;

/// Edge-array index. `u32` matches the paper's 4-byte `u_offset` entries;
/// scaled datasets stay well under 2^32 edges.
pub type EdgeIdx = u32;

pub use coo::Coo;
pub use csr::Csr;
pub use io::ReadError;
pub use reorder::Permutation;
pub use sample::AliasTable;
