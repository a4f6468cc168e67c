//! # sage-bench — the experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation (§7)
//! through one binary, `all_experiments`, backed by the registry
//! [`experiments::ALL`]:
//!
//! | Id | Content | `--only` name |
//! |----|---------|---------------|
//! | Table 1 | dataset statistics | `table1` |
//! | Figure 6 | SAGE on reordered replicas (Original/RCM/LLP/Gorder/SAGE₁/SAGE₁₀₀) | `fig6` |
//! | Table 2 | reordering cost | `table2` |
//! | Figure 7 | SAGE vs PGP baselines ± Gorder | `fig7` |
//! | Figure 8 | out-of-core: SAGE vs Subway | `fig8` |
//! | Figure 9 | multi-GPU: SAGE vs Gunrock/Groute ± metis | `fig9` |
//! | Figure 10 | ablation: +TP, +RTS, +SR | `fig10` |
//! | Table 3 | Tiled Partitioning overhead | `table3` |
//! | extension | tile-size / block-size / alignment / threshold sweeps | `ablation_extra` |
//! | extension | out-of-core strategies | `ooc_ablation` |
//! | extension | dynamic-graph update epochs | `dynamic_graphs` |
//!
//! `all_experiments` with no flag runs the eight paper entries in this
//! order and can write a Markdown report; `--only <name>` runs one entry.
//!
//! Environment knobs: `SAGE_SCALE` (dataset scale, default 1.0),
//! `SAGE_SOURCES` (sources averaged per measurement, default 3),
//! `SAGE_ROUNDS` (self-reordering rounds for the "SAGE_N" bars, default 30),
//! `SAGE_PR_ITERS` (PageRank iterations per timed run, default 5).

pub mod experiments;
pub mod harness;
pub mod table;

pub use harness::BenchConfig;
pub use table::ExpTable;
