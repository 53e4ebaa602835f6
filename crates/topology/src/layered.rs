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

/// One in-edge of a target column in the [`InEdgeCsr`] table.
///
/// `pred` is the predecessor's base-graph column; `edge` is the edge's
/// dense index *within one layer boundary* — the global [`EdgeId`] of the
/// edge into `(w, ℓ)` is `boundary_base + edge` where `boundary_base =
/// (ℓ − 1) · edges_per_boundary()`. Both fields are `u32` so an entry is
/// 8 bytes and a whole row fits in a cache line for degree-3 columns.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InEdge {
    /// Predecessor base-graph column.
    pub pred: u32,
    /// Edge index within a single layer boundary.
    pub edge: u32,
}

/// Flattened per-target in-edge table of one layer boundary, in CSR
/// layout.
///
/// The boundary between any two consecutive layers is identical (every
/// layer is a copy of the base graph), so one table serves the whole
/// layered graph: each dataflow driver builds it once per run and the
/// inner loop becomes a contiguous scan instead of re-deriving
/// [`LayeredGraph::own_in_edge`] / [`LayeredGraph::neighbor_in_edge`] and
/// re-pushing neighbor lists per node.
///
/// Row `w` (see [`InEdgeCsr::in_edges`]) lists the in-edges of every copy
/// `(w, ℓ≥1)`: slot 0 is the "own" edge from `(w, ℓ−1)`, slots `1..` the
/// neighbor edges in sorted base-graph neighbor order — exactly the order
/// [`LayeredGraph::predecessors`] yields.
///
/// For the parallel drivers, [`InEdgeCsr::boundary_preds`] **is the
/// scheduling contract**: a column chunk may advance to layer `ℓ` exactly
/// when every column it returns has published layer `ℓ − 1`. The frontier
/// driver precomputes these per-chunk dependency lists and tracks per-chunk
/// progress against them; there is no global layer barrier anymore.
///
/// # Examples
///
/// ```
/// use trix_topology::{BaseGraph, EdgeId, LayeredGraph};
///
/// let g = LayeredGraph::new(BaseGraph::cycle(5), 4);
/// let csr = g.in_edge_csr();
/// let row = csr.in_edges(2);
/// assert_eq!(row[0].pred, 2); // own edge first
/// let target = g.node(2, 3);
/// let boundary_base = 2 * g.edges_per_boundary();
/// assert_eq!(
///     g.own_in_edge(target),
///     EdgeId(boundary_base + row[0].edge as usize)
/// );
/// ```
#[derive(Clone, Debug)]
pub struct InEdgeCsr {
    /// Row bounds: column `w`'s entries are
    /// `entries[offsets[w] .. offsets[w + 1]]`.
    offsets: Vec<u32>,
    entries: Vec<InEdge>,
}

impl InEdgeCsr {
    fn build(g: &LayeredGraph) -> Self {
        let width = g.width();
        let mut offsets = Vec::with_capacity(width + 1);
        let mut entries = Vec::with_capacity(g.edges_per_boundary());
        offsets.push(0);
        for w in 0..width {
            let block = g.in_edge_offsets[w];
            entries.push(InEdge {
                pred: w as u32,
                edge: block as u32,
            });
            for (slot, &x) in g.base.neighbors(w).iter().enumerate() {
                entries.push(InEdge {
                    pred: x as u32,
                    edge: (block + 1 + slot) as u32,
                });
            }
            offsets.push(entries.len() as u32);
        }
        Self { offsets, entries }
    }

    /// The in-edges of every copy of base column `w` on layers ≥ 1: own
    /// edge first, then sorted neighbors.
    ///
    /// # Panics
    ///
    /// Panics if `w` is out of range.
    #[inline]
    pub fn in_edges(&self, w: usize) -> &[InEdge] {
        &self.entries[self.offsets[w] as usize..self.offsets[w + 1] as usize]
    }

    /// Number of columns (the graph's width).
    #[inline]
    pub fn width(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Largest in-degree over all columns (scratch-buffer sizing).
    pub fn max_in_degree(&self) -> usize {
        self.offsets
            .windows(2)
            .map(|w| (w[1] - w[0]) as usize)
            .max()
            .unwrap_or(0)
    }

    /// The *external* predecessor columns of the contiguous column chunk
    /// `lo .. hi`: every base column outside the chunk that some column
    /// inside it reads across a layer boundary, sorted and deduplicated.
    ///
    /// Because every layer boundary is the same copy of the base graph,
    /// one answer serves all layers — this is the chunk's in-edge
    /// boundary that a frontier scheduler must see published before it
    /// can advance the chunk to the next layer. For the paper's
    /// degree-≤4 base graphs the result has `O(1)` entries regardless of
    /// chunk size.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi` or `hi` exceeds the width.
    pub fn boundary_preds(&self, lo: usize, hi: usize) -> Vec<u32> {
        assert!(lo < hi && hi <= self.width(), "chunk out of range");
        let mut out: Vec<u32> = (lo..hi)
            .flat_map(|w| self.in_edges(w))
            .map(|e| e.pred)
            .filter(|&p| (p as usize) < lo || p as usize >= hi)
            .collect();
        out.sort_unstable();
        out.dedup();
        out
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

/// Dense index of a directed edge of the layered graph.
///
/// Edge indices are stable and contiguous: they index per-edge state such as
/// link delays. The edge from `(v, ℓ)` to `(w, ℓ+1)` is addressed at its
/// *target*: each target node owns a contiguous block of in-edge slots, with
/// slot 0 the "own" edge from `(w, ℓ)` and slots `1..` the neighbor edges in
/// sorted neighbor order.
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
    /// Per base node `w`: offset of its in-edge block within one layer
    /// boundary. Block size is `1 + deg(w)`.
    in_edge_offsets: Vec<usize>,
    /// Total number of directed edges between two consecutive layers.
    edges_per_boundary: usize,
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
        let mut in_edge_offsets = Vec::with_capacity(base.node_count());
        let mut acc = 0usize;
        for w in 0..base.node_count() {
            in_edge_offsets.push(acc);
            acc += 1 + base.degree(w);
        }
        Self {
            base,
            layer_count,
            in_edge_offsets,
            edges_per_boundary: acc,
        }
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
        self.layer_count.saturating_sub(1) * self.edges_per_boundary
    }

    /// Number of directed edges between two consecutive layers.
    #[inline]
    pub fn edges_per_boundary(&self) -> usize {
        self.edges_per_boundary
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

    /// The edge from `(w, ℓ-1)` to `(w, ℓ)` ("own" edge, slot 0 of the
    /// target's in-edge block).
    ///
    /// # Panics
    ///
    /// Panics if `target.layer == 0`.
    pub fn own_in_edge(&self, target: NodeId) -> EdgeId {
        assert!(target.layer > 0, "layer-0 nodes have no in-edges in G");
        let boundary = (target.layer - 1) as usize;
        EdgeId(boundary * self.edges_per_boundary + self.in_edge_offsets[target.v as usize])
    }

    /// The edge from neighbor `(x, ℓ-1)` to `(w, ℓ)`, where `x` is the
    /// `slot`-th sorted neighbor of `w` in `H`.
    ///
    /// # Panics
    ///
    /// Panics if `target.layer == 0` or `slot ≥ deg_H(w)`.
    pub fn neighbor_in_edge(&self, target: NodeId, slot: usize) -> EdgeId {
        assert!(target.layer > 0, "layer-0 nodes have no in-edges in G");
        assert!(
            slot < self.base.degree(target.v as usize),
            "neighbor slot out of range"
        );
        let boundary = (target.layer - 1) as usize;
        EdgeId(
            boundary * self.edges_per_boundary + self.in_edge_offsets[target.v as usize] + 1 + slot,
        )
    }

    /// Builds the flattened [`InEdgeCsr`] in-edge table (one boundary's
    /// worth; see its docs for how global [`EdgeId`]s are reconstructed).
    ///
    /// For parallel execution, the table's [`InEdgeCsr::boundary_preds`]
    /// defines the cross-chunk dependency contract: a chunk `lo .. hi`
    /// may compute layer `ℓ` once every column in
    /// `boundary_preds(lo, hi)` has published layer `ℓ − 1`. A chunk with
    /// no external predecessors (e.g. the single chunk of a width-1
    /// graph, or a full-width chunk) depends on nothing outside itself
    /// and may free-run through all layers.
    pub fn in_edge_csr(&self) -> InEdgeCsr {
        InEdgeCsr::build(self)
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

    /// The CSR table reproduces `predecessors`/`own_in_edge`/
    /// `neighbor_in_edge` exactly, on every layer boundary.
    #[test]
    fn in_edge_csr_matches_predecessor_iteration() {
        for g in [sample(), LayeredGraph::new(BaseGraph::cycle(4), 3)] {
            let csr = g.in_edge_csr();
            assert_eq!(csr.width(), g.width());
            for n in g.nodes().filter(|n| n.layer > 0) {
                let boundary_base = (n.layer as usize - 1) * g.edges_per_boundary();
                let row = csr.in_edges(n.v as usize);
                assert_eq!(row.len(), g.in_degree(n.v as usize));
                let preds: Vec<_> = g.predecessors(n).collect();
                for (entry, (p, e)) in row.iter().zip(&preds) {
                    assert_eq!(entry.pred, p.v);
                    assert_eq!(EdgeId(boundary_base + entry.edge as usize), *e);
                }
            }
            assert_eq!(
                csr.max_in_degree(),
                (0..g.width()).map(|w| g.in_degree(w)).max().unwrap()
            );
        }
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
            let csr = g.in_edge_csr();
            for (lo, hi) in chunk_partition(g.width(), 3) {
                let preds = csr.boundary_preds(lo, hi);
                // Sorted, deduplicated, strictly external.
                assert!(preds.windows(2).all(|w| w[0] < w[1]));
                assert!(preds.iter().all(|&p| (p as usize) < lo || p as usize >= hi));
                // Complete: every external in-edge pred appears.
                for w in lo..hi {
                    for e in csr.in_edges(w) {
                        let p = e.pred as usize;
                        if p < lo || p >= hi {
                            assert!(preds.contains(&e.pred));
                        }
                    }
                }
            }
            // A full-width chunk has no external boundary.
            assert!(csr.boundary_preds(0, g.width()).is_empty());
        }
    }

    /// The documented boundary contract on a 1-wide graph: the single
    /// full-width chunk has no external predecessors, so a frontier
    /// scheduler may free-run it through every layer.
    #[test]
    fn boundary_preds_on_one_wide_graph_are_empty() {
        let g = LayeredGraph::new(BaseGraph::from_edges(1, &[]), 4);
        assert_eq!(g.width(), 1);
        let csr = g.in_edge_csr();
        assert_eq!(csr.width(), 1);
        // The only in-edge of (0, ℓ) is its own edge from (0, ℓ−1).
        let row = csr.in_edges(0);
        assert_eq!(row.len(), 1);
        assert_eq!(row[0].pred, 0);
        assert!(csr.boundary_preds(0, 1).is_empty());
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
}
