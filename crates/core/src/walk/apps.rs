//! Walk applications: Monte-Carlo personalized PageRank and node2vec.

use super::{EdgeProbe, WalkApp, WalkControl};
use sage_graph::NodeId;

/// Convert a probability in `[0, 1]` to a Q32 threshold for comparison
/// against the low 32 bits of a uniform draw.
fn q32(p: f64) -> u32 {
    let scaled = (p.clamp(0.0, 1.0) * 4_294_967_296.0).round();
    if scaled >= 4_294_967_295.0 {
        u32::MAX
    } else {
        scaled as u32
    }
}

/// Monte-Carlo personalized PageRank: each walker terminates with
/// probability `alpha` per step; the endpoint histogram, normalized,
/// estimates the PPR vector of the walker's source (teleport probability
/// `alpha`, i.e. damping `1 − alpha`). Dangling nodes teleport back to the
/// source, matching the power iteration's handling of rank sinks.
#[derive(Debug, Clone, Copy)]
pub struct Ppr {
    alpha_q32: u32,
}

impl Ppr {
    /// A PPR walk with termination probability `alpha` per step.
    ///
    /// # Panics
    /// Panics unless `0 < alpha < 1`.
    #[must_use]
    pub fn new(alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha < 1.0, "alpha must be in (0, 1)");
        Self {
            alpha_q32: q32(alpha),
        }
    }
}

impl WalkApp for Ppr {
    fn name(&self) -> &'static str {
        "ppr"
    }

    fn control(&self, rng: u64) -> WalkControl {
        if (rng as u32) < self.alpha_q32 {
            WalkControl::Terminate
        } else {
            WalkControl::Continue
        }
    }

    fn at_dangling(&self) -> WalkControl {
        WalkControl::Restart
    }
}

/// node2vec second-order biased walks (Grover & Leskovec): a proposed hop
/// `cur → next` is re-weighted by the walker's previous node — `1/p` to
/// return to it, `1` to a common neighbor, `1/q` to everywhere else —
/// realized by rejection sampling over the first-order proposals of the
/// engine's sampler. Walks run to the full `max_length`.
#[derive(Debug, Clone, Copy)]
pub struct Node2vec {
    return_q32: u32,
    inward_q32: u32,
    outward_q32: u32,
}

impl Node2vec {
    /// A node2vec walk with return parameter `p` and in-out parameter `q`.
    ///
    /// # Panics
    /// Panics unless both parameters are positive and finite.
    #[must_use]
    pub fn new(p: f64, q: f64) -> Self {
        assert!(p > 0.0 && p.is_finite(), "p must be positive");
        assert!(q > 0.0 && q.is_finite(), "q must be positive");
        let (wr, wi, wo) = (1.0 / p, 1.0, 1.0 / q);
        let m = wr.max(wi).max(wo);
        Self {
            return_q32: q32(wr / m),
            inward_q32: q32(wi / m),
            outward_q32: q32(wo / m),
        }
    }
}

impl WalkApp for Node2vec {
    fn name(&self) -> &'static str {
        "node2vec"
    }

    fn at_dangling(&self) -> WalkControl {
        WalkControl::Terminate
    }

    fn accept_q32(
        &self,
        prev: Option<NodeId>,
        _cur: NodeId,
        next: NodeId,
        probe: &mut EdgeProbe<'_>,
    ) -> u32 {
        let Some(prev) = prev else {
            return u32::MAX; // first hop is unbiased
        };
        if next == prev {
            self.return_q32
        } else if probe.has_edge(prev, next) {
            self.inward_q32
        } else {
            self.outward_q32
        }
    }

    fn fixed_length(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::super::{run_batch, WalkSpec, WalkWeights};
    use super::*;
    use crate::dgraph::DeviceGraph;
    use gpu_sim::{Device, DeviceConfig};
    use sage_graph::Csr;

    #[test]
    fn ppr_terminates_at_roughly_alpha_rate() {
        let alpha = 0.25;
        let app = Ppr::new(alpha);
        let stops = (0..40_000u64)
            .filter(|&i| {
                app.control(super::super::counter_rng(9, i, 0, 0)) == WalkControl::Terminate
            })
            .count();
        let rate = stops as f64 / 40_000.0;
        assert!((rate - alpha).abs() < 0.01, "rate = {rate}");
    }

    #[test]
    fn ppr_endpoints_follow_personalised_pagerank() {
        // 12 nodes, out-degree 2 or 3 everywhere (no dangling node, so no
        // teleport), uneven in-degrees so the PPR vector is far from flat
        let n = 12u32;
        let mut edges: Vec<(u32, u32)> = (0..n)
            .flat_map(|u| [(u, (u + 1) % n), (u, (u + 3) % n), (u, (2 * u + 5) % n)])
            .filter(|&(u, v)| u != v)
            .collect();
        edges.sort_unstable();
        edges.dedup();
        let csr = Csr::from_edges(n as usize, &edges);
        let (alpha, source, walkers) = (0.15, 4u32, 20_000usize);

        // exact PPR by power iteration: pi = alpha * sum_t (1 - alpha)^t
        // e_s P^t, stopped once the remaining mass is below 1e-15
        let mut x = vec![0.0f64; n as usize];
        x[source as usize] = 1.0;
        let mut pi = vec![0.0f64; n as usize];
        let mut weight = alpha;
        while weight > 1e-15 {
            let mut next = vec![0.0f64; n as usize];
            for u in 0..n {
                let row = csr.neighbors(u);
                pi[u as usize] += weight * x[u as usize];
                for &v in row {
                    next[v as usize] += x[u as usize] / row.len() as f64;
                }
            }
            x = next;
            weight *= 1.0 - alpha;
        }

        // 200 steps leave 0.85^200 < 1e-14 of the walkers to truncation
        let mut dev = Device::new(DeviceConfig::test_tiny());
        let g = DeviceGraph::upload(&mut dev, csr);
        let spec = WalkSpec {
            walks_per_source: walkers,
            max_length: 200,
            seed: 3,
            weights: WalkWeights::Uniform,
        };
        let out = run_batch(&mut dev, &g, &Ppr::new(alpha), &spec, &[source]);

        // Pearson's chi-square over the 12 nodes (11 degrees of freedom;
        // every expected count exceeds 5). 31.264 is the 0.999 quantile, so
        // a correct engine fails this at a fixed seed with probability 1e-3.
        let chi2: f64 = out
            .endpoints_for(0)
            .iter()
            .zip(&pi)
            .map(|(&got, &p)| {
                let want = p * walkers as f64;
                assert!(want > 5.0, "expected count {want} too small for chi-square");
                (f64::from(got) - want).powi(2) / want
            })
            .sum();
        assert!(
            chi2 < 31.264,
            "chi-square {chi2} over 11 dof: endpoints {:?}, PPR {pi:?}",
            out.endpoints_for(0)
        );
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn ppr_rejects_degenerate_alpha() {
        let _ = Ppr::new(1.0);
    }

    #[test]
    fn node2vec_weights_normalize_to_max() {
        // p = 4 (rarely return), q = 1: inward weight is the max
        let app = Node2vec::new(4.0, 1.0);
        assert_eq!(app.inward_q32, u32::MAX);
        assert_eq!(app.outward_q32, u32::MAX);
        assert!(app.return_q32 < u32::MAX / 2);
    }

    #[test]
    fn node2vec_low_p_biases_toward_returning() {
        // path graph 0-1-2-...-9 (both directions); start in the middle
        let n = 10usize;
        let edges: Vec<(u32, u32)> = (0..n as u32 - 1)
            .flat_map(|u| vec![(u, u + 1), (u + 1, u)])
            .collect();
        let run = |p: f64, q: f64| -> u64 {
            let mut dev = Device::new(DeviceConfig::test_tiny());
            let g = DeviceGraph::upload(&mut dev, Csr::from_edges(n, &edges));
            let spec = WalkSpec {
                walks_per_source: 512,
                max_length: 6,
                seed: 11,
                weights: WalkWeights::Uniform,
            };
            let out = run_batch(&mut dev, &g, &Node2vec::new(p, q), &spec, &[5]);
            // walkers that ended far from the source
            out.endpoints
                .iter()
                .enumerate()
                .filter(|(v, _)| (*v as i64 - 5).unsigned_abs() >= 3)
                .map(|(_, &c)| u64::from(c))
                .sum()
        };
        let returny = run(0.05, 1.0); // strong return bias hugs the source
        let explorey = run(10.0, 0.2); // DFS-like: pushes outward
        assert!(
            explorey > returny,
            "exploration {explorey} should exceed return-biased {returny}"
        );
    }
}
