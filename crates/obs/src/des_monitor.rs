//! Online skew monitoring for the event-driven engine.
//!
//! The DES delimits iterations by each node's own broadcasts and — per
//! the diagonal reindexing of Lemma A.1 — same-index pulses of adjacent
//! positions are staggered by up to a full period `Λ`, so the dataflow
//! monitor's pulse-index alignment does not transfer. What *is* physically
//! meaningful in a converged event-driven execution is the
//! **nearest-fire misalignment**: corresponding pulses of adjacent nodes
//! land within the local skew of each other, far under `Λ/2`.
//!
//! [`DesSkew`] exploits that: it keeps only each node's last broadcast
//! time (`O(nodes)` memory), and whenever a monitored node fires it
//! records `|t − t_peer|` for every monitored peer whose last fire is
//! within half a period — each adjacent pulse pair is thus sampled by
//! whichever endpoint fires second, and pairs more than `Λ/2` apart
//! (different iterations) are left for their matching alignment. The
//! running aggregates are monitor semantics — worst observed misalignment
//! — not a bit-exact replay of the post-hoc analyzer (which the dataflow
//! [`crate::StreamingSkew`] provides).

use crate::streaming::{Histogram, RunningStat};
use trix_sim::Observer;
use trix_time::{Duration, Time};
use trix_topology::LayeredGraph;

/// Pair classes tracked by [`DesSkew`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum PairKind {
    Intra,
    Inter,
}

/// An online nearest-fire skew monitor over an explicit set of engine
/// node pairs.
///
/// The adjacency is stored CSR-style (one flat peer array plus per-node
/// offsets) and last-fire times as bare `f64`s with a NaN sentinel, so
/// the per-broadcast work is a short contiguous scan — the monitor sits
/// on the DES hot loop.
#[derive(Clone, Debug)]
pub struct DesSkew {
    half_period: f64,
    /// Last broadcast time per node; NaN = never fired.
    last: Vec<f64>,
    /// CSR offsets into `peers`: node `i`'s peers are
    /// `peers[offsets[i]..offsets[i + 1]]`.
    offsets: Vec<u32>,
    peers: Vec<(u32, PairKind)>,
    /// Pairs staged before [`DesSkew::freeze`] builds the CSR layout.
    staged: Vec<(u32, u32, PairKind)>,
    intra: RunningStat,
    inter: RunningStat,
}

impl DesSkew {
    /// Creates a monitor for `node_count` engine nodes with no pairs and
    /// the given nominal period `Λ`.
    ///
    /// # Panics
    ///
    /// Panics unless the period is positive and the node count fits the
    /// engine's packed `u32` indices.
    pub fn new(node_count: usize, period: Duration) -> Self {
        assert!(period > Duration::ZERO, "period must be positive");
        assert!(u32::try_from(node_count).is_ok(), "node count too large");
        let hist = Histogram::new(1.0, 16);
        Self {
            half_period: period.as_f64() / 2.0,
            last: vec![f64::NAN; node_count],
            offsets: vec![0; node_count + 1],
            peers: Vec::new(),
            staged: Vec::new(),
            intra: RunningStat::new(hist.clone()),
            inter: RunningStat::new(hist),
        }
    }

    /// Monitors the pair `{a, b}` (recorded from whichever side fires
    /// second).
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    fn add_pair(&mut self, a: usize, b: usize, kind: PairKind) {
        assert!(
            a < self.last.len() && b < self.last.len(),
            "pair out of range"
        );
        self.staged.push((a as u32, b as u32, kind));
    }

    /// Builds the CSR adjacency from the staged pairs.
    fn freeze(&mut self) {
        let n = self.last.len();
        let mut degree = vec![0u32; n];
        for &(a, b, _) in &self.staged {
            degree[a as usize] += 1;
            degree[b as usize] += 1;
        }
        self.offsets = vec![0; n + 1];
        for (i, &d) in degree.iter().enumerate() {
            self.offsets[i + 1] = self.offsets[i] + d;
        }
        let mut cursor: Vec<u32> = self.offsets[..n].to_vec();
        self.peers = vec![(0, PairKind::Intra); 2 * self.staged.len()];
        for &(a, b, kind) in &self.staged {
            self.peers[cursor[a as usize] as usize] = (b, kind);
            cursor[a as usize] += 1;
            self.peers[cursor[b as usize] as usize] = (a, kind);
            cursor[b as usize] += 1;
        }
        self.staged.clear();
    }

    /// Builds the monitor for a full grid deployment wired like
    /// `trix_core::GridNetwork`: engine id `offset + ℓ·width + v` for grid
    /// node `(v, ℓ)` (the standard builder uses `offset = 1`, engine 0
    /// being the clock source, whose broadcasts are ignored).
    ///
    /// Monitored pairs: every base-graph edge on every layer (intra) and
    /// every grid edge (inter).
    pub fn for_grid(g: &LayeredGraph, offset: usize, period: Duration) -> Self {
        let mut m = Self::new(offset + g.node_count(), period);
        let engine = |v: usize, layer: usize| offset + layer * g.width() + v;
        for layer in 0..g.layer_count() {
            for (a, b) in g.base().edges() {
                m.add_pair(engine(a, layer), engine(b, layer), PairKind::Intra);
            }
        }
        for n in g.nodes() {
            for (succ, _) in g.successors(n) {
                m.add_pair(
                    engine(n.v as usize, n.layer as usize),
                    engine(succ.v as usize, succ.layer as usize),
                    PairKind::Inter,
                );
            }
        }
        m.freeze();
        m
    }

    /// Worst observed intra-layer nearest-fire misalignment.
    pub fn max_intra(&self) -> Duration {
        Duration::from(self.intra.max())
    }

    /// Worst observed inter-layer nearest-fire misalignment.
    pub fn max_inter(&self) -> Duration {
        Duration::from(self.inter.max())
    }

    /// Running aggregate of the intra-layer samples.
    pub fn intra(&self) -> &RunningStat {
        &self.intra
    }

    /// Running aggregate of the inter-layer samples.
    pub fn inter(&self) -> &RunningStat {
        &self.inter
    }
}

impl Observer for DesSkew {
    #[inline]
    fn on_broadcast(&mut self, node: usize, t: Time) {
        if node >= self.last.len() {
            return;
        }
        debug_assert!(self.staged.is_empty(), "freeze() must run before use");
        let t = t.as_f64();
        let (lo, hi) = (self.offsets[node] as usize, self.offsets[node + 1] as usize);
        for &(peer, kind) in &self.peers[lo..hi] {
            let d = (t - self.last[peer as usize]).abs();
            // NaN (never fired) fails the comparison and is skipped.
            if d <= self.half_period {
                match kind {
                    PairKind::Intra => self.intra.record(d),
                    PairKind::Inter => self.inter.record(d),
                }
            }
        }
        self.last[node] = t;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trix_topology::BaseGraph;

    #[test]
    fn nearest_fire_samples_within_half_period() {
        let g = LayeredGraph::new(BaseGraph::cycle(3), 1);
        // Pairs on layer 0: cycle edges (0,1), (1,2), (0,2); period 10 →
        // cutoff 5.
        let mut m = DesSkew::for_grid(&g, 0, Duration::from(10.0));
        // Fires: node 0 at 5 and 15; node 1 at 6 and 16; node 2 at 11.
        m.on_broadcast(0, Time::from(5.0));
        m.on_broadcast(1, Time::from(6.0)); // vs 0@5 → 1
        m.on_broadcast(2, Time::from(11.0)); // vs 0@5 → 6 (skip), vs 1@6 → 5 (record)
        m.on_broadcast(0, Time::from(15.0)); // vs 1@6 → 9 (skip), vs 2@11 → 4
        m.on_broadcast(1, Time::from(16.0)); // vs 0@15 → 1, vs 2@11 → 5
        assert_eq!(m.intra().count(), 5);
        assert_eq!(m.max_intra(), Duration::from(5.0));
        assert_eq!(m.max_inter(), Duration::ZERO);
    }

    #[test]
    fn out_of_range_and_unmonitored_nodes_are_ignored() {
        let g = LayeredGraph::new(BaseGraph::cycle(3), 2);
        let mut m = DesSkew::for_grid(&g, 1, Duration::from(10.0));
        // Engine 0 (the clock source) has no pairs; engine ids beyond the
        // grid are ignored outright.
        m.on_broadcast(0, Time::from(1.0));
        m.on_broadcast(999, Time::from(1.0));
        assert_eq!(m.intra().count() + m.inter().count(), 0);
    }

    #[test]
    fn grid_monitor_tracks_inter_layer_pairs() {
        let g = LayeredGraph::new(BaseGraph::cycle(3), 2);
        let mut m = DesSkew::for_grid(&g, 0, Duration::from(100.0));
        // (0,0) fires, then its own copy (0,1): inter pair.
        m.on_broadcast(0, Time::from(10.0));
        m.on_broadcast(3, Time::from(12.0));
        assert_eq!(m.inter().count(), 1);
        assert_eq!(m.max_inter(), Duration::from(2.0));
    }
}
