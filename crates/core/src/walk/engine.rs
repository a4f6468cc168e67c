//! The walk engine: batches of walkers stepping in lock-step as one
//! simulated kernel, with per-warp coalesced neighbor fetches. It keeps no
//! state between batches, so nothing goes stale when the graph is
//! reordered or updated.

use super::{counter_rng, EdgeProbe, WalkApp, WalkControl, WalkSpec, WalkWeights};
use crate::access::AccessRecorder;
use crate::app::layout_weight;
use crate::dgraph::DeviceGraph;
use crate::metrics::RunReport;
use gpu_sim::{AccessKind, Device};
use sage_graph::{sample, NodeId};

/// Rejection-sampling attempts per step before the engine accepts the last
/// proposal unconditionally. Bounds per-step work (and RNG draws) at the
/// cost of a small, deterministic bias when every proposal keeps losing
/// the acceptance draw — the same escape hatch GPU node2vec kernels use.
const MAX_REJECTION_ATTEMPTS: usize = 8;

/// Sentinel for "walker has no previous node" (fresh start or teleport).
const NO_PREV: NodeId = NodeId::MAX;

/// Everything a finished walk batch produced.
#[derive(Debug, Clone)]
pub struct WalkOutput {
    /// Number of distinct source slots in the batch.
    pub num_sources: usize,
    /// Endpoint counts, slot-major: `endpoints[slot * n + v]` is how many
    /// of slot `slot`'s walkers terminated at node `v`. A batch records
    /// nothing else per node: the tally is each walker's one atomic.
    pub endpoints: Vec<u32>,
    /// Walkers launched.
    pub walkers: usize,
    /// Edge transitions taken across the batch.
    pub steps: u64,
    /// Simulated-cost report (kernel cycles, memory traffic, hazards).
    pub report: RunReport,
}

impl WalkOutput {
    /// Endpoint counts of one source slot.
    ///
    /// # Panics
    /// Panics when `slot` is out of range.
    #[must_use]
    pub fn endpoints_for(&self, slot: usize) -> &[u32] {
        assert!(slot < self.num_sources, "slot out of range");
        let n = self.endpoints.len() / self.num_sources;
        &self.endpoints[slot * n..(slot + 1) * n]
    }

    /// Endpoint counts of one slot normalized to a probability vector —
    /// the Monte-Carlo PPR estimate when the app is `ppr`.
    #[must_use]
    pub fn endpoint_scores(&self, slot: usize) -> Vec<f32> {
        let counts = self.endpoints_for(slot);
        let total: u64 = counts.iter().map(|&c| u64::from(c)).sum();
        if total == 0 {
            return vec![0.0; counts.len()];
        }
        counts
            .iter()
            .map(|&c| (f64::from(c) / total as f64) as f32)
            .collect()
    }
}

/// Run one batch: `spec.walks_per_source` walkers from each node of
/// `sources` (current-id space), all stepping in lock-step inside a
/// single `walk` kernel launch. Synthetic weights hash the original ids
/// of `g`'s layout, so they survive reordering. The batch writes one
/// endpoint tally per walker, its only atomic, and returns those tallies
/// with the step count.
///
/// # Panics
/// Panics when `sources` is empty or contains an out-of-range id.
pub fn run_batch(
    dev: &mut Device,
    g: &DeviceGraph,
    app: &dyn WalkApp,
    spec: &WalkSpec,
    sources: &[NodeId],
) -> WalkOutput {
    let csr = g.csr();
    let ids = g.original_ids();
    let n = csr.num_nodes();
    let k_src = sources.len();
    assert!(k_src > 0, "walk batch needs at least one source");
    for &s in sources {
        assert!((s as usize) < n, "source {s} out of range");
    }
    let total = k_src * spec.walks_per_source;
    assert!(total > 0, "walks_per_source must be positive");

    let start = dev.elapsed_seconds();
    let hazard_start = dev.hazard_count();

    let mut endpoints = dev.alloc_array::<u32>((k_src * n).max(1), 0);

    let mut k = dev.launch("walk");
    let warp = k.cfg().warp_size;
    let sms = k.num_sms();
    let warps_total = total.div_ceil(warp);
    k.set_concurrency((warps_total as f64 / sms as f64).max(1.0));

    // walker state, one lane each: lane w serves source slot
    // w / walks_per_source
    let mut cur: Vec<NodeId> = (0..total)
        .map(|w| sources[w / spec.walks_per_source])
        .collect();
    let mut prev: Vec<NodeId> = vec![NO_PREV; total];
    let mut alive: Vec<bool> = vec![true; total];
    let mut live = total;

    let mut rec = AccessRecorder::new();
    let mut addrs: Vec<u64> = Vec::with_capacity(warp * 2);
    let mut steps_taken = 0u64;
    let mut edges_examined = 0u64;
    let mut rounds = 0usize;

    for step in 0..spec.max_length {
        if live == 0 {
            break;
        }
        rounds += 1;
        for (wi, lo) in (0..total).step_by(warp).enumerate() {
            let hi = (lo + warp).min(total);
            let active = (lo..hi).filter(|&w| alive[w]).count();
            if active == 0 {
                continue;
            }
            let mut sh = k.shard(wi % sms);
            // control draw + per-lane bookkeeping
            sh.exec(6, active, warp);
            // each live lane reads its node's offset pair
            addrs.clear();
            for w in lo..hi {
                if alive[w] {
                    addrs.push(g.offset_addr(cur[w]));
                    addrs.push(g.offset_addr(cur[w] + 1));
                }
            }
            sh.access(AccessKind::Read, &addrs, 4);

            let mut extra_attempts = 0usize;
            for w in lo..hi {
                if !alive[w] {
                    continue;
                }
                let slot = w / spec.walks_per_source;
                let wid = w as u64;
                match app.control(counter_rng(spec.seed, wid, step as u64, 0)) {
                    WalkControl::Terminate => {
                        endpoints[slot * n + cur[w] as usize] += 1;
                        rec.atomic(endpoints.addr(slot * n + cur[w] as usize));
                        alive[w] = false;
                        live -= 1;
                        continue;
                    }
                    WalkControl::Restart => {
                        prev[w] = NO_PREV;
                        cur[w] = sources[slot];
                        continue;
                    }
                    WalkControl::Continue => {}
                }

                let d = csr.degree(cur[w]) as u64;
                if d == 0 {
                    match app.at_dangling() {
                        WalkControl::Terminate | WalkControl::Continue => {
                            endpoints[slot * n + cur[w] as usize] += 1;
                            rec.atomic(endpoints.addr(slot * n + cur[w] as usize));
                            alive[w] = false;
                            live -= 1;
                        }
                        WalkControl::Restart => {
                            prev[w] = NO_PREV;
                            cur[w] = sources[slot];
                        }
                    }
                    continue;
                }

                let off = csr.offset(cur[w]);
                let prev_opt = (prev[w] != NO_PREV).then_some(prev[w]);
                let mut chosen: Option<NodeId> = None;
                for attempt in 0..MAX_REJECTION_ATTEMPTS {
                    // each attempt owns three draws: the first picks the
                    // neighbor and the third decides acceptance; the second
                    // stays unused so the draw streams keep their layout
                    // (golden_sim pins walks drawn with it)
                    let base = 1 + 3 * attempt as u64;
                    let r_slot = counter_rng(spec.seed, wid, step as u64, base);
                    let r_bias = counter_rng(spec.seed, wid, step as u64, base + 2);
                    let next = match spec.weights {
                        WalkWeights::Uniform => {
                            // uniform ITS degenerates to a single modulo
                            // pick plus a read of the chosen target word
                            edges_examined += 1;
                            let idx = (r_slot % d) as u32;
                            rec.read(g.target_addr(off + idx));
                            csr.neighbors(cur[w])[idx as usize]
                        }
                        WalkWeights::Synthetic => {
                            // the warp cooperatively streams the whole row
                            sh.access_range(AccessKind::Read, g.target_addr(off), d, 4);
                            edges_examined += d;
                            sample::its_sample(csr, cur[w], r_slot, |u, v| layout_weight(ids, u, v))
                                .expect("non-sink row")
                                .0
                        }
                    };
                    let threshold = {
                        let mut probe = EdgeProbe::new(g, &mut rec);
                        app.accept_q32(prev_opt, cur[w], next, &mut probe)
                    };
                    let last = attempt + 1 == MAX_REJECTION_ATTEMPTS;
                    if threshold == u32::MAX || (r_bias as u32) < threshold || last {
                        chosen = Some(next);
                        break;
                    }
                    extra_attempts += 1;
                }
                let next = chosen.expect("rejection loop always proposes");
                prev[w] = cur[w];
                cur[w] = next;
                steps_taken += 1;
            }
            if extra_attempts > 0 {
                sh.exec(4, extra_attempts.min(warp), warp);
            }
            rec.flush(&mut sh);
        }
    }

    // epilogue: walkers that hit the length cap record their endpoint
    let truncated = live;
    if live > 0 {
        let survivors: Vec<usize> = (0..total).filter(|&w| alive[w]).collect();
        for (ci, chunk) in survivors.chunks(warp).enumerate() {
            let mut sh = k.shard(ci % sms);
            sh.exec(2, chunk.len(), warp);
            for &w in chunk {
                let slot = w / spec.walks_per_source;
                endpoints[slot * n + cur[w] as usize] += 1;
                rec.atomic(endpoints.addr(slot * n + cur[w] as usize));
            }
            rec.flush(&mut sh);
        }
    }
    let _ = k.finish();

    let report = RunReport {
        app: app.name().to_owned(),
        engine: "walk".to_owned(),
        iterations: rounds,
        edges: steps_taken,
        edges_examined,
        seconds: dev.elapsed_seconds() - start,
        overhead_seconds: 0.0,
        direction_trace: String::new(),
        converged: app.fixed_length() || truncated == 0,
        latency: crate::metrics::LatencyBreakdown::default(),
        hazards: gpu_sim::HazardReport {
            hazards: dev.hazards()[hazard_start..].to_vec(),
        },
    };
    WalkOutput {
        num_sources: k_src,
        endpoints: endpoints.as_slice().to_vec(),
        walkers: total,
        steps: steps_taken,
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::super::apps::{Node2vec, Ppr};
    use super::*;
    use gpu_sim::DeviceConfig;
    use sage_graph::Csr;

    fn ring(n: usize) -> Csr {
        let edges: Vec<(u32, u32)> = (0..n as u32)
            .flat_map(|u| vec![(u, (u + 1) % n as u32), (u, (u + 2) % n as u32)])
            .collect();
        Csr::from_edges(n, &edges)
    }

    /// A device and the ring on it.
    fn setup(n: usize) -> (Device, DeviceGraph) {
        let mut dev = Device::new(DeviceConfig::test_tiny());
        let g = DeviceGraph::upload(&mut dev, ring(n));
        (dev, g)
    }

    fn spec() -> WalkSpec {
        WalkSpec {
            walks_per_source: 16,
            max_length: 8,
            seed: 7,
            weights: WalkWeights::Synthetic,
        }
    }

    #[test]
    fn batch_is_deterministic() {
        let (mut d1, g1) = setup(32);
        let (mut d2, g2) = setup(32);
        let o1 = run_batch(&mut d1, &g1, &Ppr::new(0.2), &spec(), &[0, 5]);
        let o2 = run_batch(&mut d2, &g2, &Ppr::new(0.2), &spec(), &[0, 5]);
        assert_eq!(o1.endpoints, o2.endpoints);
        assert_eq!(o1.steps, o2.steps);
        assert_eq!(o1.report.seconds.to_bits(), o2.report.seconds.to_bits());
    }

    #[test]
    fn every_walker_terminates_somewhere() {
        let (mut dev, g) = setup(16);
        let out = run_batch(&mut dev, &g, &Node2vec::new(1.0, 1.0), &spec(), &[3]);
        let total: u64 = out.endpoints.iter().map(|&c| u64::from(c)).sum();
        assert_eq!(total, out.walkers as u64);
        assert!(out.report.converged);
    }

    #[test]
    fn endpoint_scores_normalize() {
        let (mut dev, g) = setup(16);
        let out = run_batch(&mut dev, &g, &Ppr::new(0.3), &spec(), &[2]);
        let s = out.endpoint_scores(0);
        let sum: f32 = s.iter().sum();
        assert!((sum - 1.0).abs() < 1e-4, "sum = {sum}");
    }

    #[test]
    fn each_walker_charges_one_atomic() {
        // the endpoint tally is a walker's only atomic, whether it stops
        // early (PPR) or runs to the length cap (node2vec)
        let apps: [&dyn WalkApp; 2] = [&Ppr::new(0.2), &Node2vec::new(2.0, 0.5)];
        for app in apps {
            let (mut dev, g) = setup(32);
            let out = run_batch(&mut dev, &g, app, &spec(), &[0, 5, 9]);
            assert!(out.steps > 0);
            assert_eq!(dev.profiler().atomics, out.walkers as u64, "{}", app.name());
        }
    }

    #[test]
    #[should_panic(expected = "at least one source")]
    fn empty_sources_rejected() {
        let (mut dev, g) = setup(8);
        let _ = run_batch(&mut dev, &g, &Ppr::new(0.2), &spec(), &[]);
    }
}
