//! Incremental base-graph mutation for open-world churn.
//!
//! Every topology family lowers to an immutable [`CsrGraph`], which is
//! what makes the determinism contract cheap to state — but an
//! open-world deployment adds and removes nodes *mid-run*. Rebuilding
//! the CSR arrays from scratch after every membership event would be
//! `O(n + m)` per event; [`MutableCsr`] instead maintains the same
//! sorted-row / no-duplicate invariants incrementally (`O(deg)` per
//! edge mutation), marks removed nodes with **tombstones** so live node
//! ids stay stable between events, and compacts the id space only at
//! explicit **epoch** boundaries. [`MutableCsr::freeze`] canonicalizes
//! the live graph back into a [`CsrGraph`] — bit-identical to a
//! from-scratch rebuild of the same edge set, which is exactly the
//! differential property `crates/topology/tests/prop.rs` pins — so a
//! churn campaign can re-derive a [`crate::LayeredGraph`] at every
//! epoch without ever exposing the simulation engines to a half-mutated
//! graph.

use crate::CsrGraph;
use std::collections::VecDeque;

/// A [`CsrGraph`] under incremental mutation: tombstoned removals,
/// sorted-row edge maintenance, and epoch-stamped compaction.
///
/// Slots are identified by *stable* ids: the ids a node had when it was
/// added survive every later mutation until the next
/// [`MutableCsr::compact`], which densely renumbers the live slots (in
/// ascending stable-id order) and bumps the epoch counter. All edge
/// operations keep each live row sorted and duplicate-free, so
/// [`MutableCsr::freeze`] never has to re-validate what the mutation
/// API already enforced.
///
/// # Examples
///
/// ```
/// use trix_topology::{CsrGraph, MutableCsr};
///
/// let ring = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
/// let mut m = MutableCsr::from_csr(&ring);
/// let v = m.add_node();
/// m.add_edge(v, 0);
/// m.add_edge(v, 2);
/// m.remove_edge(1, 2);
/// let frozen = m.freeze();
/// assert_eq!(frozen, CsrGraph::from_edges(5, &[(0, 1), (2, 3), (3, 0), (4, 0), (4, 2)]));
/// ```
#[derive(Clone, Debug)]
pub struct MutableCsr {
    /// Per-slot sorted neighbor lists in stable-id space; rows of dead
    /// slots are empty.
    adjacency: Vec<Vec<usize>>,
    /// Tombstone map: `live[v]` is false once slot `v` was removed.
    live: Vec<bool>,
    /// Live slot count (cached; `live.iter().filter(|l| **l).count()`).
    live_count: usize,
    /// Live undirected edge count.
    edge_count: usize,
    /// Compaction epoch: bumped by every [`MutableCsr::compact`].
    epoch: u64,
}

impl MutableCsr {
    /// Starts a mutation epoch from an existing immutable graph.
    pub fn from_csr(csr: &CsrGraph) -> Self {
        let n = csr.node_count();
        Self {
            adjacency: (0..n).map(|v| csr.neighbors(v).to_vec()).collect(),
            live: vec![true; n],
            live_count: n,
            edge_count: csr.edge_count(),
            epoch: 0,
        }
    }

    /// Number of live nodes.
    #[inline]
    pub fn live_count(&self) -> usize {
        self.live_count
    }

    /// Number of slots, live or tombstoned (the stable-id range).
    #[inline]
    pub fn slot_count(&self) -> usize {
        self.live.len()
    }

    /// Number of tombstoned slots awaiting compaction.
    #[inline]
    pub fn tombstone_count(&self) -> usize {
        self.live.len() - self.live_count
    }

    /// Number of live undirected edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// The compaction epoch (0 until the first [`MutableCsr::compact`]).
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Whether slot `v` is live.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not a slot.
    #[inline]
    pub fn is_live(&self, v: usize) -> bool {
        self.live[v]
    }

    /// Sorted live neighbors of live slot `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not a live slot.
    pub fn neighbors(&self, v: usize) -> &[usize] {
        assert!(self.live[v], "node {v} is tombstoned");
        &self.adjacency[v]
    }

    /// The live slots, in ascending stable-id order (the order
    /// compaction and [`MutableCsr::freeze`] renumber them in).
    pub fn live_nodes(&self) -> Vec<usize> {
        (0..self.live.len()).filter(|&v| self.live[v]).collect()
    }

    /// Whether the live edge `{a, b}` exists.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is not a live slot.
    pub fn has_edge(&self, a: usize, b: usize) -> bool {
        assert!(
            self.live[a] && self.live[b],
            "edge query on tombstoned endpoint ({a}, {b})"
        );
        self.adjacency[a].binary_search(&b).is_ok()
    }

    /// Adds a fresh isolated node and returns its stable id (always a
    /// new slot — tombstoned ids are never reused within an epoch, so
    /// an id observed once means the same node for the whole epoch).
    pub fn add_node(&mut self) -> usize {
        let id = self.live.len();
        self.adjacency.push(Vec::new());
        self.live.push(true);
        self.live_count += 1;
        id
    }

    /// Tombstones live slot `v`, detaching all of its edges.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not a live slot.
    pub fn remove_node(&mut self, v: usize) {
        assert!(self.live[v], "node {v} is already tombstoned");
        let row = std::mem::take(&mut self.adjacency[v]);
        self.edge_count -= row.len();
        for w in row {
            let i = self.adjacency[w]
                .binary_search(&v)
                .expect("adjacency rows out of sync");
            self.adjacency[w].remove(i);
        }
        self.live[v] = false;
        self.live_count -= 1;
    }

    /// Inserts the undirected edge `{a, b}` between live slots, keeping
    /// both rows sorted.
    ///
    /// # Panics
    ///
    /// Panics on a self-loop, a duplicate edge, or a tombstoned / out of
    /// range endpoint.
    pub fn add_edge(&mut self, a: usize, b: usize) {
        assert_ne!(a, b, "self-loops are not allowed");
        assert!(
            self.live[a] && self.live[b],
            "edge endpoint tombstoned: ({a}, {b})"
        );
        let ia = match self.adjacency[a].binary_search(&b) {
            Err(i) => i,
            Ok(_) => panic!("duplicate edge ({a}, {b})"),
        };
        self.adjacency[a].insert(ia, b);
        let ib = self.adjacency[b]
            .binary_search(&a)
            .expect_err("adjacency rows out of sync");
        self.adjacency[b].insert(ib, a);
        self.edge_count += 1;
    }

    /// Removes the undirected edge `{a, b}`.
    ///
    /// # Panics
    ///
    /// Panics if the edge does not exist between live slots.
    pub fn remove_edge(&mut self, a: usize, b: usize) {
        assert!(
            self.live[a] && self.live[b],
            "edge endpoint tombstoned: ({a}, {b})"
        );
        let ia = self.adjacency[a]
            .binary_search(&b)
            .unwrap_or_else(|_| panic!("no such edge ({a}, {b})"));
        self.adjacency[a].remove(ia);
        let ib = self.adjacency[b]
            .binary_search(&a)
            .expect("adjacency rows out of sync");
        self.adjacency[b].remove(ib);
        self.edge_count -= 1;
    }

    /// Whether the live subgraph is connected (vacuously true when no
    /// node is live). [`MutableCsr::freeze`] requires this; mid-epoch
    /// states are allowed to pass through disconnected configurations.
    pub fn is_connected(&self) -> bool {
        let Some(src) = self.live.iter().position(|&l| l) else {
            return true;
        };
        let mut seen = vec![false; self.live.len()];
        let mut queue = VecDeque::from([src]);
        seen[src] = true;
        let mut reached = 1;
        while let Some(u) = queue.pop_front() {
            for &w in &self.adjacency[u] {
                if !seen[w] {
                    seen[w] = true;
                    reached += 1;
                    queue.push_back(w);
                }
            }
        }
        reached == self.live_count
    }

    /// Drops tombstoned slots, densely renumbering live slots in
    /// ascending stable-id order, and bumps the epoch. Returns the
    /// renumbering: `map[old_id]` is `Some(new_id)` for slots that
    /// survived, `None` for tombstones — callers holding stable ids
    /// (e.g. a churn campaign's membership table) translate through it.
    pub fn compact(&mut self) -> Vec<Option<usize>> {
        let mut map = vec![None; self.live.len()];
        let mut next = 0usize;
        for (old, slot) in map.iter_mut().enumerate() {
            if self.live[old] {
                *slot = Some(next);
                next += 1;
            }
        }
        let mut adjacency = Vec::with_capacity(next);
        for old in 0..self.live.len() {
            if !self.live[old] {
                continue;
            }
            let mut row = std::mem::take(&mut self.adjacency[old]);
            for w in &mut row {
                *w = map[*w].expect("live row references tombstoned slot");
            }
            // The renumbering is monotone on live ids, so sorted rows
            // stay sorted.
            adjacency.push(row);
        }
        self.adjacency = adjacency;
        self.live = vec![true; next];
        self.live_count = next;
        self.epoch += 1;
        map
    }

    /// The live edge list in *dense* (post-compaction) id space, each
    /// edge once with `a < b` — exactly the input a from-scratch
    /// [`CsrGraph::from_edges`] rebuild takes.
    pub fn frozen_edges(&self) -> Vec<(usize, usize)> {
        let mut map = vec![usize::MAX; self.live.len()];
        let mut next = 0usize;
        for (old, slot) in map.iter_mut().enumerate() {
            if self.live[old] {
                *slot = next;
                next += 1;
            }
        }
        let mut edges = Vec::with_capacity(self.edge_count);
        for a in 0..self.live.len() {
            if !self.live[a] {
                continue;
            }
            for &b in &self.adjacency[a] {
                if a < b {
                    edges.push((map[a], map[b]));
                }
            }
        }
        edges
    }

    /// Canonicalizes the live graph into an immutable [`CsrGraph`] —
    /// the epoch boundary a churn campaign re-derives its
    /// [`crate::LayeredGraph`] from. The
    /// result is bit-identical to `CsrGraph::from_edges` over the same
    /// live edge set (the differential property test's oracle).
    ///
    /// # Panics
    ///
    /// Panics if no node is live or the live subgraph is disconnected
    /// (an epoch boundary must hand the engines a valid base graph).
    pub fn freeze(&self) -> CsrGraph {
        CsrGraph::from_edges(self.live_count, &self.frozen_edges())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{families, BaseGraph, LayeredGraph};

    fn ring(n: usize) -> CsrGraph {
        let edges: Vec<(usize, usize)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        CsrGraph::from_edges(n, &edges)
    }

    #[test]
    fn identity_freeze_is_bit_identical() {
        let g = families::torus(3, 4).graph().csr().clone();
        let m = MutableCsr::from_csr(&g);
        assert_eq!(m.freeze(), g);
        assert_eq!(m.live_count(), g.node_count());
        assert_eq!(m.edge_count(), g.edge_count());
        assert_eq!(m.epoch(), 0);
    }

    #[test]
    fn add_and_remove_edges_keep_rows_sorted() {
        let mut m = MutableCsr::from_csr(&ring(6));
        m.add_edge(0, 3);
        m.add_edge(2, 5);
        m.remove_edge(1, 2);
        for v in m.live_nodes() {
            let row = m.neighbors(v);
            assert!(row.windows(2).all(|w| w[0] < w[1]), "row {v}: {row:?}");
        }
        assert!(m.has_edge(0, 3) && !m.has_edge(1, 2));
        assert_eq!(m.edge_count(), 7);
    }

    #[test]
    fn remove_node_tombstones_and_detaches() {
        let mut m = MutableCsr::from_csr(&ring(5));
        m.remove_node(2);
        assert!(!m.is_live(2));
        assert_eq!(m.live_count(), 4);
        assert_eq!(m.tombstone_count(), 1);
        assert_eq!(m.edge_count(), 3);
        assert_eq!(m.neighbors(1), &[0]);
        assert_eq!(m.neighbors(3), &[4]);
        // A ring minus one node is a path — still connected.
        assert!(m.is_connected());
        m.add_edge(1, 3);
        // Dense remap: live ids 0,1,3,4 → 0,1,2,3.
        let frozen = m.freeze();
        assert_eq!(
            frozen,
            CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)])
        );
    }

    #[test]
    fn new_arrivals_get_fresh_slots() {
        let mut m = MutableCsr::from_csr(&ring(4));
        m.remove_node(1);
        let v = m.add_node();
        assert_eq!(v, 4, "tombstoned ids are not reused within an epoch");
        m.add_edge(v, 0);
        m.add_edge(v, 2);
        assert!(m.is_connected());
        assert_eq!(m.freeze().node_count(), 4);
    }

    #[test]
    fn compact_renumbers_and_bumps_epoch() {
        let mut m = MutableCsr::from_csr(&ring(6));
        m.remove_node(0);
        m.remove_node(3);
        m.add_edge(1, 5);
        m.add_edge(2, 4);
        let before = m.freeze();
        let map = m.compact();
        assert_eq!(m.epoch(), 1);
        assert_eq!(m.slot_count(), 4);
        assert_eq!(m.tombstone_count(), 0);
        assert_eq!(map[0], None);
        assert_eq!(map[1], Some(0));
        assert_eq!(map[4], Some(2));
        // Compaction is invisible to the canonical form.
        assert_eq!(m.freeze(), before);
    }

    #[test]
    fn frozen_graph_rederives_a_layered_view() {
        let mut m = MutableCsr::from_csr(families::supernode_overlay(3, 4).graph().csr());
        let fresh = m.add_node();
        m.add_edge(fresh, 0);
        m.add_edge(fresh, 1);
        let base = BaseGraph::from_csr(m.freeze());
        assert!(base.min_degree() >= 2);
        let g = LayeredGraph::new(base, 5);
        assert_eq!(g.layer_count(), 5);
        assert_eq!(g.width(), m.live_count());
    }

    #[test]
    #[should_panic(expected = "duplicate edge")]
    fn rejects_duplicate_edge() {
        let mut m = MutableCsr::from_csr(&ring(4));
        m.add_edge(0, 1);
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn rejects_self_loop() {
        let mut m = MutableCsr::from_csr(&ring(4));
        m.add_edge(2, 2);
    }

    #[test]
    #[should_panic(expected = "tombstoned")]
    fn rejects_edges_to_tombstones() {
        let mut m = MutableCsr::from_csr(&ring(4));
        m.remove_node(1);
        m.add_edge(0, 1);
    }

    #[test]
    #[should_panic(expected = "connected")]
    fn freeze_rejects_disconnected_live_graph() {
        let mut m = MutableCsr::from_csr(&ring(6));
        m.remove_node(1);
        m.remove_node(4);
        let _ = m.freeze();
    }
}
