//! Per-fault-class skew attribution over the streaming pulse feed.
//!
//! A fault campaign changes *where* skew lives, not just how large it
//! gets: the gradient mechanism concentrates disturbance around faulty
//! positions, and the interesting question for a density sweep is how
//! much of the measured skew is **frontier** skew (pairs adjacent to a
//! fault's blast radius) versus **healthy** skew (pairs with no faulty
//! node anywhere near). [`FaultClassSkew`] partitions the intra-layer
//! skew fold by that frontier and keeps one running aggregate per class.
//! Intra-layer pairs lie within one row, so it folds each row as it
//! arrives and stores no pulse front, only `O(nodes)` faulty and
//! frontier flags; runs merge as [`FaultClassStats`] snapshots, like
//! [`crate::SkewStats`].
//!
//! **Frontier definition.** A correct node is *frontier* iff a faulty
//! position (as announced by [`Observer::on_faulty`]) is in its closed
//! same-layer base neighborhood or among its grid predecessors — i.e. it
//! either borders a fault on its own layer or consumes a faulty node's
//! messages directly. An intra-layer pair is classified frontier if
//! either endpoint is frontier, healthy otherwise; pairs with a faulty
//! endpoint are excluded outright, exactly as in the paper's skew
//! definitions.

use crate::streaming::{Histogram, RunningStat};
use trix_sim::Observer;
use trix_time::Time;
use trix_topology::{BaseGraph, LayeredGraph, NodeId};

/// Plain-data snapshot of a completed [`FaultClassSkew`] run: one
/// max/mean/sample-count triple per fault class.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultClassStats {
    /// Worst per-pulse intra-layer maximum over frontier pairs.
    pub frontier_max: f64,
    /// Mean of the per-pulse frontier maxima.
    pub frontier_mean: f64,
    /// Pulses that recorded at least one frontier pair.
    pub frontier_pulses: u64,
    /// Worst per-pulse intra-layer maximum over healthy pairs.
    pub healthy_max: f64,
    /// Mean of the per-pulse healthy maxima.
    pub healthy_mean: f64,
    /// Pulses that recorded at least one healthy pair.
    pub healthy_pulses: u64,
}

impl FaultClassStats {
    /// Folds another snapshot into this one (independent-run partials,
    /// like [`crate::SkewStats::merge`]): maxima fold with `max`, sample
    /// counts add, means combine sample-count-weighted.
    pub fn merge(&mut self, other: &FaultClassStats) {
        fn fold(max: &mut f64, mean: &mut f64, count: &mut u64, o_max: f64, o_mean: f64, o_n: u64) {
            *max = max.max(o_max);
            if *count + o_n > 0 {
                *mean = (*mean * *count as f64 + o_mean * o_n as f64) / (*count + o_n) as f64;
            }
            *count += o_n;
        }
        fold(
            &mut self.frontier_max,
            &mut self.frontier_mean,
            &mut self.frontier_pulses,
            other.frontier_max,
            other.frontier_mean,
            other.frontier_pulses,
        );
        fold(
            &mut self.healthy_max,
            &mut self.healthy_mean,
            &mut self.healthy_pulses,
            other.healthy_max,
            other.healthy_mean,
            other.healthy_pulses,
        );
    }
}

/// Streaming intra-layer skew, partitioned by the faulty/healthy
/// frontier.
///
/// Feed it to either dataflow driver (alone or tuple-composed with a
/// [`crate::StreamingSkew`]), call [`FaultClassSkew::finish`], then read
/// [`FaultClassSkew::snapshot`]. It takes whole rows through
/// [`Observer::on_pulse_row`], pulse-major, after every
/// [`Observer::on_faulty`] announcement; its [`Observer::on_pulse`] is
/// the trait's no-op. With no faults announced, every pair is healthy
/// and the healthy aggregate equals the plain intra-layer fold.
#[derive(Clone, Debug)]
pub struct FaultClassSkew {
    /// The base graph, read for its adjacency only. A clone carries the
    /// distance matrix if the source graph has built one; none of the
    /// monitor's callers queries distances on the graphs they simulate,
    /// so the clone holds `O(n + m)` state.
    base: BaseGraph,
    width: usize,
    layer_count: usize,
    faulty: Vec<bool>,
    frontier: Vec<bool>,
    /// The pulse being folded.
    cur_k: usize,
    /// Pulse `cur_k`'s maxima so far, per class.
    pulse_frontier: Option<f64>,
    pulse_healthy: Option<f64>,
    finished: bool,
    frontier_intra: RunningStat,
    healthy_intra: RunningStat,
}

impl FaultClassSkew {
    /// Creates a monitor for executions of `g`.
    pub fn new(g: &LayeredGraph) -> Self {
        let n = g.node_count();
        let hist = Histogram::new(1.0, crate::StreamingSkew::DEFAULT_HIST_BINS);
        Self {
            base: g.base().clone(),
            width: g.width(),
            layer_count: g.layer_count(),
            faulty: vec![false; n],
            frontier: vec![false; n],
            cur_k: 0,
            pulse_frontier: None,
            pulse_healthy: None,
            finished: false,
            frontier_intra: RunningStat::new(hist.clone()),
            healthy_intra: RunningStat::new(hist),
        }
    }

    /// Records the folded pulse's per-class maxima.
    fn end_pulse(&mut self) {
        if let Some(s) = self.pulse_frontier.take() {
            self.frontier_intra.record(s);
        }
        if let Some(s) = self.pulse_healthy.take() {
            self.healthy_intra.record(s);
        }
    }

    /// Finalizes the last pulse; idempotent. Must run before
    /// [`FaultClassSkew::snapshot`].
    pub fn finish(&mut self) {
        if !self.finished {
            self.end_pulse();
            self.finished = true;
        }
    }

    /// Running aggregate of the per-pulse frontier maxima.
    pub fn frontier(&self) -> &RunningStat {
        &self.frontier_intra
    }

    /// Running aggregate of the per-pulse healthy maxima.
    pub fn healthy(&self) -> &RunningStat {
        &self.healthy_intra
    }

    /// Plain-data snapshot of the completed run.
    ///
    /// # Panics
    ///
    /// Panics if [`FaultClassSkew::finish`] has not been called.
    pub fn snapshot(&self) -> FaultClassStats {
        assert!(
            self.finished,
            "call FaultClassSkew::finish() before snapshot()"
        );
        FaultClassStats {
            frontier_max: self.frontier_intra.max(),
            frontier_mean: self.frontier_intra.mean(),
            frontier_pulses: self.frontier_intra.count(),
            healthy_max: self.healthy_intra.max(),
            healthy_mean: self.healthy_intra.mean(),
            healthy_pulses: self.healthy_intra.count(),
        }
    }
}

impl Observer for FaultClassSkew {
    fn on_faulty(&mut self, node: NodeId) {
        let (v, layer) = (node.v as usize, node.layer as usize);
        let w = self.width;
        self.faulty[layer * w + v] = true;
        self.frontier[layer * w + v] = true;
        // Same-layer base neighbors border the fault.
        for &u in self.base.neighbors(v) {
            self.frontier[layer * w + u] = true;
        }
        // Grid successors consume its messages directly.
        if layer + 1 < self.layer_count {
            self.frontier[(layer + 1) * w + v] = true;
            for &u in self.base.neighbors(v) {
                self.frontier[(layer + 1) * w + u] = true;
            }
        }
    }

    /// Ends every earlier pulse, then folds each intra-layer edge of the
    /// row into its class's maximum, edges in [`BaseGraph::edges`] order.
    fn on_pulse_row(&mut self, k: usize, layer: u32, row: &[Option<Time>]) {
        debug_assert!(!self.finished, "pulse after finish()");
        debug_assert!(k >= self.cur_k, "pulse emissions must be pulse-major");
        if k > self.cur_k {
            self.end_pulse();
            self.cur_k = k;
        }
        let start = layer as usize * self.width;
        for (a, b) in self.base.edges() {
            let (ia, ib) = (start + a, start + b);
            if self.faulty[ia] || self.faulty[ib] {
                continue;
            }
            let (Some(ta), Some(tb)) = (row[a], row[b]) else {
                continue;
            };
            let skew = (ta - tb).abs().as_f64();
            let slot = if self.frontier[ia] || self.frontier[ib] {
                &mut self.pulse_frontier
            } else {
                &mut self.pulse_healthy
            };
            *slot = Some(slot.map_or(skew, |m| m.max(skew)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::feed_pulse;
    use trix_topology::BaseGraph;

    fn grid() -> LayeredGraph {
        LayeredGraph::new(BaseGraph::line_with_replicated_ends(6), 4)
    }

    /// Synthetic feed: node (4, 2) is faulty; its lateral neighbors and
    /// successors are perturbed by 5, everything else is flat. All of the
    /// perturbation must land in the frontier class.
    #[test]
    fn perturbation_near_the_fault_is_attributed_to_the_frontier() {
        let g = grid();
        let mut m = FaultClassSkew::new(&g);
        let bad = g.node(4, 2);
        m.on_faulty(bad);
        for k in 0..2usize {
            feed_pulse(&mut m, &g, k, |n| {
                let near_fault = (n.layer == 2 || n.layer == 3)
                    && (n.v == 4 || g.base().neighbors(4).contains(&(n.v as usize)));
                if n == bad {
                    1e9 // excluded outright
                } else if near_fault {
                    5.0
                } else {
                    0.0
                }
            });
        }
        m.finish();
        let s = m.snapshot();
        assert_eq!(s.frontier_max, 5.0);
        assert_eq!(s.healthy_max, 0.0);
        assert_eq!(s.frontier_pulses, 2);
        assert_eq!(s.healthy_pulses, 2);
    }

    #[test]
    fn without_faults_everything_is_healthy() {
        let g = grid();
        let mut m = FaultClassSkew::new(&g);
        feed_pulse(&mut m, &g, 0, |n| n.v as f64);
        m.finish();
        let s = m.snapshot();
        assert_eq!(s.frontier_pulses, 0);
        assert_eq!(s.frontier_max, 0.0);
        assert!(s.healthy_max > 0.0);
        assert_eq!(s.healthy_pulses, 1);
    }

    /// Per-seed partials merge as snapshots into the componentwise fold:
    /// maxima fold with `max`, pulse counts add, and means pool by
    /// pulse count.
    #[test]
    fn partials_merge_like_snapshots() {
        let g = grid();
        let run = |scale: f64| {
            let mut m = FaultClassSkew::new(&g);
            m.on_faulty(g.node(0, 1));
            for k in 0..3usize {
                feed_pulse(&mut m, &g, k, |n| n.v as f64 * scale + k as f64);
            }
            m.finish();
            m.snapshot()
        };
        let (a, b) = (run(1.0), run(2.0));
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.frontier_max, a.frontier_max.max(b.frontier_max));
        assert_eq!(merged.healthy_max, a.healthy_max.max(b.healthy_max));
        assert_eq!(
            merged.frontier_pulses,
            a.frontier_pulses + b.frontier_pulses
        );
        assert_eq!(merged.healthy_pulses, a.healthy_pulses + b.healthy_pulses);
        let pooled = (a.healthy_mean * a.healthy_pulses as f64
            + b.healthy_mean * b.healthy_pulses as f64)
            / (a.healthy_pulses + b.healthy_pulses) as f64;
        assert!((merged.healthy_mean - pooled).abs() < 1e-12);
        // Every pulse's widest healthy edge is (0, 2) on layer 0, at
        // 2·scale: three pulses at 2 and three at 4.
        assert_eq!((a.healthy_max, b.healthy_max), (2.0, 4.0));
        assert_eq!(merged.healthy_mean, 3.0);
    }

    #[test]
    #[should_panic(expected = "finish()")]
    fn snapshot_requires_finish() {
        let g = grid();
        let _ = FaultClassSkew::new(&g).snapshot();
    }
}
