//! Figure 6: SAGE traversal speed on reordered graph replicas —
//! Original (= SAGE₁), RCM, LLP, Gorder, and SAGE after self-adaptive
//! rounds (SAGE₁₀₀ in the paper; `SAGE_ROUNDS` here).
//!
//! All bars use the SAGE traversal engine; only the node order differs,
//! isolating the memory-locality effect of each reordering (§7.2).

use crate::experiments::AppKind;
use crate::harness::{measure_adapted, BenchConfig};
use crate::table::{fmt_gteps, ExpTable};
use sage_graph::datasets::Dataset;
use sage_graph::reorder::{gorder_order, llp_order, rcm_order, LlpParams, Permutation};
use sage_graph::Csr;

/// Measure SAGE on `csr` after at most `rounds` self-adaptive reordering
/// rounds driven by the same application. With no rounds this is SAGE on a
/// fixed replica, with the same in-edge view (and thus the same adaptive
/// direction policy) as the adapted bar, so the figure isolates the node
/// order only. The sampling threshold is |E| (§7.2), so roughly one full
/// traversal saturates a stage.
fn measure_order(cfg: &BenchConfig, csr: &Csr, app: AppKind, rounds: usize, seed: u64) -> f64 {
    measure_adapted(cfg, csr, app, seed, csr.num_edges() as u64, rounds).gteps()
}

/// The orders evaluated by Figure 6, computed once per dataset.
pub struct Orders {
    /// RCM permutation.
    pub rcm: Permutation,
    /// LLP permutation.
    pub llp: Permutation,
    /// Gorder permutation (window 5).
    pub gorder: Permutation,
}

/// Compute all baseline orders for a graph.
#[must_use]
pub fn baseline_orders(csr: &Csr) -> Orders {
    Orders {
        rcm: rcm_order(csr),
        llp: llp_order(csr, &LlpParams::default()),
        gorder: gorder_order(csr, 5),
    }
}

/// Regenerate Figure 6: one table per application.
#[must_use]
pub fn run(cfg: &BenchConfig) -> Vec<ExpTable> {
    let sage_n = format!("SAGE_{}", cfg.rounds + 1);
    let mut tables: Vec<ExpTable> = AppKind::ALL
        .iter()
        .map(|a| {
            ExpTable::new(
                format!(
                    "Figure 6 — {} traversal speed by node order (GTEPS)",
                    a.name()
                ),
                &["Dataset", "SAGE_1", "RCM", "LLP", "Gorder", sage_n.as_str()],
            )
        })
        .collect();

    for d in Dataset::ALL {
        let csr = d.generate(cfg.scale);
        let orders = baseline_orders(&csr);
        // the four fixed replicas, then the original order after adaptation
        let bars = [
            (csr.clone(), 0),
            (orders.rcm.apply_csr(&csr), 0),
            (orders.llp.apply_csr(&csr), 0),
            (orders.gorder.apply_csr(&csr), 0),
            (csr, cfg.rounds),
        ];
        for (ai, app) in AppKind::ALL.iter().enumerate() {
            let mut cells = vec![d.name().to_owned()];
            for (g, rounds) in &bars {
                cells.push(fmt_gteps(measure_order(cfg, g, *app, *rounds, 0xf16)));
            }
            tables[ai].row(cells);
        }
    }
    tables
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig6_produces_three_tables_with_five_rows() {
        let cfg = BenchConfig::test_config();
        let tables = run(&cfg);
        assert_eq!(tables.len(), 3);
        for t in &tables {
            assert_eq!(t.rows.len(), 5);
            assert_eq!(t.header.len(), 6);
        }
    }

    #[test]
    fn self_adaptive_not_slower_than_original_on_social_graph() {
        let cfg = BenchConfig {
            rounds: 5,
            ..BenchConfig::test_config()
        };
        let csr = Dataset::Twitter.generate(cfg.scale);
        let base = measure_order(&cfg, &csr, AppKind::Bfs, 0, 1);
        let adapted = measure_order(&cfg, &csr, AppKind::Bfs, cfg.rounds, 1);
        assert!(
            adapted > base * 0.9,
            "adaptation should not hurt: {base} -> {adapted}"
        );
    }
}
