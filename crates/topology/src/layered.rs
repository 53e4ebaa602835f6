//! The layered synchronization DAG `G` (paper §2, Figure 3).

use crate::BaseGraph;
use core::fmt;

/// Identifier of a node `(v, ℓ)` of the layered graph.
///
/// `v` indexes into the base graph, `layer` is `ℓ`. This is a passive
/// compound identifier, so its fields are public.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId {
    /// Layer index `ℓ`.
    pub layer: u32,
    /// Base-graph node index `v`.
    pub v: u32,
}

impl NodeId {
    /// Creates a node identifier.
    pub const fn new(v: u32, layer: u32) -> Self {
        Self { layer, v }
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.v, self.layer)
    }
}

/// Splits the column range `0 .. width` into at most `chunks` contiguous,
/// **non-empty** ranges of near-equal (ceil) size.
///
/// This is the canonical chunking used by the parallel dataflow drivers:
/// ceil-sized chunks can need fewer workers than requested (width 5 over 4
/// workers → chunks of 2 → only 3 chunks), so callers must size their
/// worker pool from the returned partition, never from the request. The
/// returned ranges always tile `0 .. width` exactly — degenerate inputs
/// (width 1, prime widths, `chunks > width`) included.
///
/// # Examples
///
/// ```
/// use trix_topology::chunk_partition;
///
/// assert_eq!(chunk_partition(5, 4), vec![(0, 2), (2, 4), (4, 5)]);
/// assert_eq!(chunk_partition(1, 8), vec![(0, 1)]);
/// ```
///
/// # Panics
///
/// Panics if `width == 0` or `chunks == 0`.
pub fn chunk_partition(width: usize, chunks: usize) -> Vec<(usize, usize)> {
    assert!(width > 0, "cannot partition an empty column range");
    assert!(chunks > 0, "need at least one chunk");
    let size = width.div_ceil(chunks);
    let count = width.div_ceil(size);
    (0..count)
        .map(|c| (c * size, ((c + 1) * size).min(width)))
        .collect()
}

/// The *external* predecessor columns of the column chunk `lo .. hi`:
/// every column outside the chunk that is a base-graph neighbor of a
/// column inside it, sorted and deduplicated. Every layer boundary is a
/// copy of `base`, so a chunk may compute layer `ℓ` once each of these
/// columns has published layer `ℓ − 1`.
///
/// # Examples
///
/// ```
/// use trix_topology::{boundary_preds, BaseGraph};
///
/// let base = BaseGraph::cycle(6);
/// assert_eq!(boundary_preds(&base, 0, 3), vec![3, 5]);
/// assert!(boundary_preds(&base, 0, 6).is_empty()); // full width
/// ```
pub fn boundary_preds(base: &BaseGraph, lo: usize, hi: usize) -> Vec<usize> {
    let mut out: Vec<usize> = (lo..hi)
        .flat_map(|w| base.neighbors(w))
        .copied()
        .filter(|&p| p < lo || p >= hi)
        .collect();
    out.sort_unstable();
    out.dedup();
    out
}

/// Dense index of a directed edge of the layered graph.
///
/// Edge indices are stable and contiguous: they index per-edge state such as
/// link delays. The edge from `(v, ℓ)` to `(w, ℓ+1)` is addressed at its
/// *target*: each target node owns a contiguous block of in-edge slots, with
/// slot 0 the "own" edge from `(w, ℓ)` and slots `1..` the neighbor edges in
/// sorted neighbor order (see [`LayeredGraph::in_edge_block`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EdgeId(pub usize);

/// The layered DAG `G` derived from a base graph `H` (paper Figure 3).
///
/// Layers `0 .. layer_count` are copies of `V(H)`; node `(v, ℓ)` has edges to
/// `(v, ℓ+1)` and `(w, ℓ+1)` for every `{v, w} ∈ E(H)`. With the Figure 2
/// base graph most nodes have in- and out-degree 3, nodes adjacent to the
/// replicated boundary have 4.
///
/// # Examples
///
/// ```
/// use trix_topology::{BaseGraph, LayeredGraph};
///
/// let g = LayeredGraph::new(BaseGraph::cycle(5), 8);
/// assert_eq!(g.node_count(), 40);
/// let n = g.node(2, 3);
/// assert_eq!(g.in_degree(n.v as usize), 3); // self + two cycle neighbors
/// ```
#[derive(Clone, Debug)]
pub struct LayeredGraph {
    base: BaseGraph,
    layer_count: usize,
}

impl LayeredGraph {
    /// Builds the layered graph with the given number of layers (≥ 1).
    ///
    /// The paper caps the layer count at `Θ(√n)` for a square chip; this
    /// constructor accepts any count so experiments can sweep it.
    ///
    /// # Panics
    ///
    /// Panics if `layer_count == 0`.
    pub fn new(base: BaseGraph, layer_count: usize) -> Self {
        assert!(layer_count >= 1, "need at least one layer");
        Self { base, layer_count }
    }

    /// The base graph `H`.
    #[inline]
    pub fn base(&self) -> &BaseGraph {
        &self.base
    }

    /// Number of layers.
    #[inline]
    pub fn layer_count(&self) -> usize {
        self.layer_count
    }

    /// Number of nodes per layer, `|V(H)|`.
    #[inline]
    pub fn width(&self) -> usize {
        self.base.node_count()
    }

    /// Total number of nodes `|V_G|`.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.layer_count * self.width()
    }

    /// Total number of directed edges `|E_G|`.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.layer_count.saturating_sub(1) * self.edges_per_boundary()
    }

    /// Number of directed edges between two consecutive layers, `n + 2m`:
    /// one own edge per column and both directions of every base edge.
    #[inline]
    pub fn edges_per_boundary(&self) -> usize {
        self.width() + 2 * self.base.edge_count()
    }

    /// The node `(v, layer)`.
    ///
    /// # Panics
    ///
    /// Panics if `v` or `layer` is out of range.
    pub fn node(&self, v: usize, layer: usize) -> NodeId {
        assert!(v < self.width(), "base node index out of range");
        assert!(layer < self.layer_count, "layer out of range");
        NodeId::new(v as u32, layer as u32)
    }

    /// Dense index of a node, for indexing per-node state vectors.
    #[inline]
    pub fn node_index(&self, n: NodeId) -> usize {
        n.layer as usize * self.width() + n.v as usize
    }

    /// Inverse of [`LayeredGraph::node_index`].
    #[inline]
    pub fn node_at(&self, index: usize) -> NodeId {
        let w = self.width();
        NodeId::new((index % w) as u32, (index / w) as u32)
    }

    /// Iterates over all nodes in (layer, v) order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.layer_count)
            .flat_map(move |l| (0..self.width()).map(move |v| NodeId::new(v as u32, l as u32)))
    }

    /// In-degree of the copies of base node `w` on layers ≥ 1:
    /// `1 + deg_H(w)`.
    #[inline]
    pub fn in_degree(&self, w: usize) -> usize {
        1 + self.base.degree(w)
    }

    /// Out-degree of the copies of base node `v` on non-final layers:
    /// `1 + deg_H(v)`.
    #[inline]
    pub fn out_degree(&self, v: usize) -> usize {
        1 + self.base.degree(v)
    }

    /// Offset of the in-edge block of every copy `(w, ℓ ≥ 1)` within one
    /// layer boundary. The block is `w`'s base-graph row with the own edge
    /// in front: slot 0 is the edge from `(w, ℓ − 1)`, slot `1 + i` the
    /// edge from `w`'s `i`-th sorted neighbor. The blocks of columns
    /// `0 .. w` hold `w` own edges and, in the base graph's concatenated
    /// rows, the neighbor edges that precede `w`'s row, so
    /// `in_edge_block(width())` is [`LayeredGraph::edges_per_boundary`].
    ///
    /// # Examples
    ///
    /// ```
    /// use trix_topology::{BaseGraph, EdgeId, LayeredGraph};
    ///
    /// let g = LayeredGraph::new(BaseGraph::cycle(5), 4);
    /// assert_eq!(g.in_edge_block(2), 6); // columns 0 and 1 own 3 slots each
    /// let target = g.node(2, 3);
    /// let boundary_base = 2 * g.edges_per_boundary();
    /// assert_eq!(g.own_in_edge(target), EdgeId(boundary_base + 6));
    /// assert_eq!(g.neighbor_in_edge(target, 1), EdgeId(boundary_base + 8));
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `w > width()`.
    #[inline]
    pub fn in_edge_block(&self, w: usize) -> usize {
        self.base.row_start(w) + w
    }

    /// The edge from `(w, ℓ-1)` to `(w, ℓ)` ("own" edge, slot 0 of the
    /// target's in-edge block).
    ///
    /// # Panics
    ///
    /// Panics if `target.layer == 0` or `target.v` is out of range.
    pub fn own_in_edge(&self, target: NodeId) -> EdgeId {
        assert!(target.layer > 0, "layer-0 nodes have no in-edges in G");
        assert!(
            (target.v as usize) < self.width(),
            "base node index out of range"
        );
        let boundary = (target.layer - 1) as usize;
        EdgeId(boundary * self.edges_per_boundary() + self.in_edge_block(target.v as usize))
    }

    /// The edge from neighbor `(x, ℓ-1)` to `(w, ℓ)`, where `x` is the
    /// `slot`-th sorted neighbor of `w` in `H`.
    ///
    /// # Panics
    ///
    /// Panics if `target.layer == 0` or `slot ≥ deg_H(w)`.
    pub fn neighbor_in_edge(&self, target: NodeId, slot: usize) -> EdgeId {
        let own = self.own_in_edge(target);
        assert!(
            slot < self.base.degree(target.v as usize),
            "neighbor slot out of range"
        );
        EdgeId(own.0 + 1 + slot)
    }

    /// Predecessors of a node: `(v, ℓ-1)` first, then `(x, ℓ-1)` for each
    /// sorted neighbor `x`, each paired with the connecting edge.
    ///
    /// Layer-0 nodes have no predecessors in `G` (they are driven by the
    /// layer-0 line of Appendix A).
    pub fn predecessors(&self, n: NodeId) -> impl Iterator<Item = (NodeId, EdgeId)> + '_ {
        let items: Vec<(NodeId, EdgeId)> = if n.layer == 0 {
            Vec::new()
        } else {
            let mut out = Vec::with_capacity(self.in_degree(n.v as usize));
            out.push((NodeId::new(n.v, n.layer - 1), self.own_in_edge(n)));
            for (slot, &x) in self.base.neighbors(n.v as usize).iter().enumerate() {
                out.push((
                    NodeId::new(x as u32, n.layer - 1),
                    self.neighbor_in_edge(n, slot),
                ));
            }
            out
        };
        items.into_iter()
    }

    /// Successors of a node: `(v, ℓ+1)` first, then `(x, ℓ+1)` for each
    /// sorted neighbor `x`, each paired with the connecting edge.
    pub fn successors(&self, n: NodeId) -> impl Iterator<Item = (NodeId, EdgeId)> + '_ {
        let items: Vec<(NodeId, EdgeId)> = if (n.layer as usize) + 1 >= self.layer_count {
            Vec::new()
        } else {
            let mut out = Vec::with_capacity(self.out_degree(n.v as usize));
            let own_target = NodeId::new(n.v, n.layer + 1);
            out.push((own_target, self.own_in_edge(own_target)));
            for &x in self.base.neighbors(n.v as usize) {
                let target = NodeId::new(x as u32, n.layer + 1);
                // Find which slot of the target's block we occupy: n.v's
                // position among x's sorted neighbors.
                let slot = self
                    .base
                    .neighbors(x)
                    .binary_search(&(n.v as usize))
                    .expect("undirected adjacency must be symmetric");
                out.push((target, self.neighbor_in_edge(target, slot)));
            }
            out
        };
        items.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> LayeredGraph {
        LayeredGraph::new(BaseGraph::line_with_replicated_ends(5), 6)
    }

    #[test]
    fn counts() {
        let g = sample();
        assert_eq!(g.width(), 7);
        assert_eq!(g.node_count(), 42);
        let per_boundary: usize = (0..7).map(|v| 1 + g.base().degree(v)).sum();
        assert_eq!(g.edges_per_boundary(), per_boundary);
        assert_eq!(g.edge_count(), 5 * per_boundary);
    }

    #[test]
    fn degrees_match_figure_3() {
        // Figure 3: most nodes have in- and out-degree 3, some 4.
        let g = sample();
        let degrees: Vec<usize> = (0..g.width()).map(|v| g.in_degree(v)).collect();
        assert!(degrees.iter().all(|&d| d == 3 || d == 4));
        assert!(degrees.contains(&3));
        assert!(degrees.contains(&4));
    }

    #[test]
    fn node_index_round_trip() {
        let g = sample();
        for n in g.nodes() {
            assert_eq!(g.node_at(g.node_index(n)), n);
        }
        let all: Vec<usize> = g.nodes().map(|n| g.node_index(n)).collect();
        let mut sorted = all.clone();
        sorted.sort_unstable();
        assert_eq!(all, sorted, "nodes() iterates in dense-index order");
    }

    #[test]
    fn predecessors_structure() {
        let g = sample();
        let n = g.node(3, 2);
        let preds: Vec<_> = g.predecessors(n).collect();
        assert_eq!(preds.len(), 1 + g.base().degree(3));
        assert_eq!(preds[0].0, g.node(3, 1), "own edge first");
        for (p, _) in &preds[1..] {
            assert!(g.base().neighbors(3).contains(&(p.v as usize)));
            assert_eq!(p.layer, 1);
        }
        assert!(g.predecessors(g.node(0, 0)).next().is_none());
    }

    #[test]
    fn successors_and_predecessors_agree() {
        let g = sample();
        for n in g.nodes() {
            for (succ, edge) in g.successors(n) {
                let found = g.predecessors(succ).find(|&(p, e)| p == n && e == edge);
                assert!(found.is_some(), "edge {edge:?} must appear at target");
            }
        }
    }

    #[test]
    fn edge_ids_are_dense_and_unique() {
        let g = sample();
        let mut seen = vec![false; g.edge_count()];
        for n in g.nodes().filter(|n| n.layer > 0) {
            for (_, EdgeId(e)) in g.predecessors(n) {
                assert!(e < g.edge_count());
                assert!(!seen[e], "edge id {e} duplicated");
                seen[e] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "all edge ids must be covered");
    }

    #[test]
    fn chunk_partition_tiles_exactly() {
        // Degenerate shapes the schedulers must survive: width 1, prime
        // widths, more chunks than columns, single chunk.
        for width in [1usize, 2, 3, 5, 7, 11, 13, 16, 17, 100] {
            for chunks in [1usize, 2, 3, 4, 5, 7, 8, 16, 64] {
                let parts = chunk_partition(width, chunks);
                assert!(!parts.is_empty());
                assert!(parts.len() <= chunks, "never more chunks than asked");
                assert_eq!(parts[0].0, 0);
                assert_eq!(parts.last().unwrap().1, width);
                for pair in parts.windows(2) {
                    assert_eq!(pair[0].1, pair[1].0, "contiguous tiling");
                }
                for &(lo, hi) in &parts {
                    assert!(lo < hi, "no empty chunk for width {width} / {chunks}");
                }
            }
        }
    }

    #[test]
    fn boundary_preds_are_external_sorted_and_complete() {
        for g in [sample(), LayeredGraph::new(BaseGraph::cycle(6), 3)] {
            for (lo, hi) in chunk_partition(g.width(), 3) {
                let preds = boundary_preds(g.base(), lo, hi);
                // Sorted, deduplicated, strictly external.
                assert!(preds.windows(2).all(|w| w[0] < w[1]));
                assert!(preds.iter().all(|&p| p < lo || p >= hi));
                // Complete: every external in-edge pred appears.
                for w in lo..hi {
                    for (p, _) in g.predecessors(g.node(w, 1)) {
                        let p = p.v as usize;
                        if p < lo || p >= hi {
                            assert!(preds.contains(&p));
                        }
                    }
                }
            }
            // A full-width chunk has no external boundary.
            assert!(boundary_preds(g.base(), 0, g.width()).is_empty());
        }
    }

    #[test]
    fn boundary_preds_on_one_wide_graph_are_empty() {
        let g = LayeredGraph::new(BaseGraph::from_edges(1, &[]), 4);
        assert_eq!(g.width(), 1);
        // The only in-edge of (0, ℓ) is its own edge from (0, ℓ−1).
        let preds: Vec<_> = g.predecessors(g.node(0, 1)).collect();
        assert_eq!(preds, vec![(g.node(0, 0), g.own_in_edge(g.node(0, 1)))]);
        assert!(boundary_preds(g.base(), 0, 1).is_empty());
        assert_eq!(chunk_partition(1, 8), vec![(0, 1)]);
    }

    #[test]
    fn square_helper() {
        // The paper's square setting: a line of 8 with replicated ends,
        // 8 layers.
        let g = LayeredGraph::new(BaseGraph::line_with_replicated_ends(8), 8);
        assert_eq!(g.layer_count(), 8);
        assert_eq!(g.width(), 10);
        assert_eq!(g.base().diameter(), 7);
    }

    #[test]
    #[should_panic(expected = "layer out of range")]
    fn node_rejects_bad_layer() {
        let g = sample();
        let _ = g.node(0, 99);
    }

    #[test]
    #[should_panic(expected = "no in-edges")]
    fn own_in_edge_rejects_layer_zero() {
        let g = sample();
        let _ = g.own_in_edge(g.node(0, 0));
    }

    /// Column `width` would read one past the last block, which is the
    /// next boundary's first edge.
    #[test]
    #[should_panic(expected = "out of range")]
    fn own_in_edge_rejects_column_past_the_width() {
        let g = sample();
        let _ = g.own_in_edge(NodeId::new(g.width() as u32, 1));
    }
}
