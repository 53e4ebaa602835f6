//! Per-fault-class skew attribution over the streaming pulse feed.
//!
//! A fault campaign changes *where* skew lives, not just how large it
//! gets: the gradient mechanism concentrates disturbance around faulty
//! positions, and the interesting question for a density sweep is how
//! much of the measured skew is **frontier** skew (pairs adjacent to a
//! fault's blast radius) versus **healthy** skew (pairs with no faulty
//! node anywhere near). [`FaultClassSkew`] partitions the intra-layer
//! skew fold by that frontier and keeps one maximum per class.
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

use trix_sim::Observer;
use trix_time::Time;
use trix_topology::{BaseGraph, LayeredGraph, NodeId};

/// Plain-data snapshot of a [`FaultClassSkew`] run: one maximum per
/// fault class, `0` where the class had no pair.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct FaultClassStats {
    /// Worst intra-layer skew over frontier pairs.
    pub frontier_max: f64,
    /// Worst intra-layer skew over healthy pairs.
    pub healthy_max: f64,
}

impl FaultClassStats {
    /// Folds another snapshot into this one (independent-run partials,
    /// like [`crate::SkewStats::merge`]): each maximum folds with `max`.
    pub fn merge(&mut self, other: &FaultClassStats) {
        self.frontier_max = self.frontier_max.max(other.frontier_max);
        self.healthy_max = self.healthy_max.max(other.healthy_max);
    }
}

/// Streaming intra-layer skew, partitioned by the faulty/healthy
/// frontier.
///
/// Feed it to either dataflow driver (alone or tuple-composed with a
/// [`crate::StreamingSkew`]), then read [`FaultClassSkew::snapshot`]. It
/// takes whole rows through [`Observer::on_pulse_row`], after every
/// [`Observer::on_faulty`] announcement; its [`Observer::on_pulse`] is
/// the trait's no-op. With no faults announced, every pair is healthy
/// and the healthy maximum is the plain intra-layer maximum.
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
    stats: FaultClassStats,
}

impl FaultClassSkew {
    /// Creates a monitor for executions of `g`.
    pub fn new(g: &LayeredGraph) -> Self {
        let n = g.node_count();
        Self {
            base: g.base().clone(),
            width: g.width(),
            layer_count: g.layer_count(),
            faulty: vec![false; n],
            frontier: vec![false; n],
            stats: FaultClassStats::default(),
        }
    }

    /// Plain-data snapshot of the rows folded so far.
    pub fn snapshot(&self) -> FaultClassStats {
        self.stats
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

    /// Folds each intra-layer edge of the row into its class's maximum.
    fn on_pulse_row(&mut self, _k: usize, layer: u32, row: &[Option<Time>]) {
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
            let max = if self.frontier[ia] || self.frontier[ib] {
                &mut self.stats.frontier_max
            } else {
                &mut self.stats.healthy_max
            };
            *max = max.max(skew);
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
        let s = m.snapshot();
        assert_eq!(s.frontier_max, 5.0);
        assert_eq!(s.healthy_max, 0.0);
    }

    #[test]
    fn without_faults_everything_is_healthy() {
        let g = grid();
        let mut m = FaultClassSkew::new(&g);
        feed_pulse(&mut m, &g, 0, |n| n.v as f64);
        let s = m.snapshot();
        assert_eq!(s.frontier_max, 0.0);
        assert!(s.healthy_max > 0.0);
    }

    /// Per-seed partials merge as snapshots into the componentwise fold:
    /// maxima fold with `max`.
    #[test]
    fn partials_merge_like_snapshots() {
        let g = grid();
        let run = |scale: f64| {
            let mut m = FaultClassSkew::new(&g);
            m.on_faulty(g.node(0, 1));
            for k in 0..3usize {
                feed_pulse(&mut m, &g, k, |n| n.v as f64 * scale + k as f64);
            }
            m.snapshot()
        };
        let (a, b) = (run(1.0), run(2.0));
        let mut merged = a;
        merged.merge(&b);
        assert_eq!(merged.frontier_max, a.frontier_max.max(b.frontier_max));
        assert_eq!(merged.healthy_max, a.healthy_max.max(b.healthy_max));
        // Every pulse's widest healthy edge is (0, 2) on layer 0, at
        // 2·scale.
        assert_eq!((a.healthy_max, b.healthy_max), (2.0, 4.0));
        assert_eq!(merged.healthy_max, 4.0);
    }
}
