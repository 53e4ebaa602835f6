//! The HEX grid topology of Dolev, Függer, Lenzen, Perner, Schmid
//! (DFL+16), used as a baseline (paper Table 1, Figure 1 right).
//!
//! HEX arranges nodes in layers of fixed width. Each node `(i, ℓ)` with
//! `ℓ ≥ 1` has **four** in-neighbors: two on the *previous* layer —
//! `(i, ℓ−1)` and `(i−1, ℓ−1)` — and two on the *same* layer — `(i−1, ℓ)`
//! and `(i+1, ℓ)`. A node fires its pulse when it has received the pulse
//! from **two** distinct in-neighbors. Layers wrap around (a honeycomb on a
//! cylinder), matching the original paper's construction.
//!
//! The paper's Figure 1 uses this structure to illustrate HEX's weakness:
//! because two in-neighbors are on the same layer, a crashed previous-layer
//! neighbor forces a node to wait for an in-layer pulse, incurring a skew of
//! a full message delay `d` rather than the uncertainty `u`.

use crate::NodeId;

/// A HEX grid with `width` nodes per layer (wrapping) and `layer_count`
/// layers.
///
/// Nodes are [`NodeId`]s, with the position `i` within its layer as `v`.
/// [`HexGrid::node_index`] numbers them densely in `(layer, i)` order,
/// the order of [`HexGrid::nodes`]; the HEX baseline uses it as the
/// discrete-event engine's node index.
///
/// # Examples
///
/// ```
/// use trix_topology::HexGrid;
///
/// let g = HexGrid::new(8, 5);
/// let n = g.node(3, 2);
/// assert_eq!(g.in_neighbors(n).len(), 4);
/// assert_eq!(g.node_index(n), 2 * 8 + 3);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HexGrid {
    width: usize,
    layer_count: usize,
}

impl HexGrid {
    /// Creates a HEX grid.
    ///
    /// # Panics
    ///
    /// Panics if `width < 3` or `layer_count < 1`.
    pub fn new(width: usize, layer_count: usize) -> Self {
        assert!(width >= 3, "HEX layers need at least 3 nodes to wrap");
        assert!(layer_count >= 1, "need at least one layer");
        Self { width, layer_count }
    }

    /// Nodes per layer.
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of layers.
    #[inline]
    pub fn layer_count(&self) -> usize {
        self.layer_count
    }

    /// Total node count.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.width * self.layer_count
    }

    /// The node `(i, layer)`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn node(&self, i: usize, layer: usize) -> NodeId {
        assert!(i < self.width && layer < self.layer_count, "out of range");
        NodeId::new(i as u32, layer as u32)
    }

    /// Dense index for per-node state vectors.
    #[inline]
    pub fn node_index(&self, n: NodeId) -> usize {
        n.layer as usize * self.width + n.v as usize
    }

    /// The four in-neighbors of a node on layer ≥ 1; two on the previous
    /// layer, two on the same layer. Layer-0 nodes have none (driven
    /// externally).
    pub fn in_neighbors(&self, n: NodeId) -> Vec<NodeId> {
        if n.layer == 0 {
            return Vec::new();
        }
        let w = self.width as u32;
        let left = (n.v + w - 1) % w;
        vec![
            NodeId::new(n.v, n.layer - 1),
            NodeId::new(left, n.layer - 1),
            NodeId::new(left, n.layer),
            NodeId::new((n.v + 1) % w, n.layer),
        ]
    }

    /// Out-neighbors: mirror image of [`HexGrid::in_neighbors`].
    pub fn out_neighbors(&self, n: NodeId) -> Vec<NodeId> {
        let w = self.width as u32;
        let right = (n.v + 1) % w;
        let mut out = Vec::with_capacity(4);
        // Same-layer broadcasts go both ways; layer 0 is externally driven
        // and consumes no in-layer pulses, so it has none.
        if n.layer > 0 {
            out.push(NodeId::new((n.v + w - 1) % w, n.layer));
            out.push(NodeId::new(right, n.layer));
        }
        if (n.layer as usize) + 1 < self.layer_count {
            out.push(NodeId::new(n.v, n.layer + 1));
            out.push(NodeId::new(right, n.layer + 1));
        }
        out
    }

    /// Iterates over all nodes in (layer, i) order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.layer_count as u32)
            .flat_map(move |l| (0..self.width as u32).map(move |i| NodeId::new(i, l)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_neighbors_split_across_layers() {
        let g = HexGrid::new(6, 4);
        let n = g.node(2, 2);
        let ins = g.in_neighbors(n);
        assert_eq!(ins.len(), 4);
        assert_eq!(ins.iter().filter(|m| m.layer == 1).count(), 2);
        assert_eq!(ins.iter().filter(|m| m.layer == 2).count(), 2);
    }

    #[test]
    fn wrapping_at_boundary() {
        let g = HexGrid::new(6, 4);
        let ins = g.in_neighbors(g.node(0, 1));
        assert!(ins.contains(&g.node(5, 0)));
        assert!(ins.contains(&g.node(5, 1)));
        assert!(ins.contains(&g.node(1, 1)));
    }

    #[test]
    fn in_out_consistency_across_layers() {
        let g = HexGrid::new(5, 3);
        for n in g.nodes() {
            for m in g.out_neighbors(n) {
                assert!(
                    g.in_neighbors(m).contains(&n),
                    "{n} -> {m} must be an in-edge of {m}"
                );
            }
        }
    }

    #[test]
    fn layer_zero_has_no_in_neighbors() {
        let g = HexGrid::new(5, 3);
        assert!(g.in_neighbors(g.node(1, 0)).is_empty());
    }

    #[test]
    fn node_index_is_dense() {
        let g = HexGrid::new(5, 3);
        let idx: Vec<usize> = g.nodes().map(|n| g.node_index(n)).collect();
        assert_eq!(idx, (0..15).collect::<Vec<_>>());
    }
}
