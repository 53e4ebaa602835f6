//! The general CSR graph core every topology family lowers to.
//!
//! [`CsrGraph`] is the substrate beneath [`crate::BaseGraph`]: a simple,
//! connected, undirected graph stored as two flat arrays (row offsets +
//! concatenated sorted neighbor lists), with its diameter computed at
//! construction by a bit-parallel BFS that runs 64 sources at a time in
//! `O(n)` memory. Everything a generator produces — tori, hypercubes,
//! random-geometric graphs, pod meshes, supernode overlays (see
//! [`crate::families`]) — is validated and canonicalized here, which is
//! what makes the three-legged determinism contract independent of
//! *which* family a sweep runs on: neighbor iteration order is the
//! sorted CSR row order, full stop.

/// A simple, connected, undirected graph in compressed-sparse-row form.
///
/// Nodes are `usize` indices `0..node_count()`; each row of the CSR table
/// is sorted, so neighbor iteration — and therefore every simulation
/// driven by this graph — is deterministic by construction.
///
/// Unlike [`crate::BaseGraph`] (which builds the all-pairs distance
/// matrix on its first [`crate::BaseGraph::distance`] query), a
/// `CsrGraph` keeps only `O(n + m)` state; single-source distances are
/// available on demand via [`CsrGraph::bfs_distances`].
///
/// # Examples
///
/// ```
/// use trix_topology::CsrGraph;
///
/// let g = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
/// assert_eq!(g.node_count(), 4);
/// assert_eq!(g.edge_count(), 4);
/// assert_eq!(g.neighbors(0), &[1, 3]);
/// assert_eq!(g.diameter(), 2);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CsrGraph {
    /// Row bounds: node `v`'s neighbors are
    /// `targets[offsets[v] .. offsets[v + 1]]`.
    offsets: Vec<usize>,
    /// Concatenated neighbor lists, sorted within each row.
    targets: Vec<usize>,
    /// The diameter, computed once at construction.
    diameter: u32,
}

impl CsrGraph {
    /// Builds a CSR graph from an undirected edge list over `n` nodes.
    ///
    /// Self-loops and duplicate edges are rejected; the graph must be
    /// connected (the layered synchronization DAG of a disconnected base
    /// graph would fall apart into independent components with unbounded
    /// mutual skew).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, an endpoint is out of range, an edge is a
    /// self-loop or duplicated, or the graph is disconnected.
    pub fn from_edges(n: usize, edges: &[(usize, usize)]) -> Self {
        assert!(n > 0, "base graph must have at least one node");
        let mut adjacency = vec![Vec::new(); n];
        for &(a, b) in edges {
            assert!(a < n && b < n, "edge endpoint out of range: ({a}, {b})");
            assert_ne!(a, b, "self-loops are not allowed");
            adjacency[a].push(b);
            adjacency[b].push(a);
        }
        let mut offsets = Vec::with_capacity(n + 1);
        let mut targets = Vec::with_capacity(2 * edges.len());
        offsets.push(0);
        for list in &mut adjacency {
            list.sort_unstable();
            let len_before = list.len();
            list.dedup();
            assert_eq!(len_before, list.len(), "duplicate edge in base graph");
            targets.extend_from_slice(list);
            offsets.push(targets.len());
        }
        let mut g = Self {
            offsets,
            targets,
            diameter: 0,
        };
        g.diameter = g.compute_diameter().expect("base graph must be connected");
        g
    }

    /// Exact diameter by bit-parallel multi-source BFS (MS-BFS, Then et
    /// al., PVLDB 8(4), 2014); `None` if the graph is disconnected.
    ///
    /// Sources run in batches of 64 that share one traversal. Bit `i` of
    /// `seen[v]` says source `first + i` has reached `v`; `visit[v]`
    /// holds the bits that reached `v` at the current level, and only
    /// nodes with such bits sit on the `frontier` list. A level step
    /// pushes each frontier node's bits to the neighbors that lack them.
    /// The diameter is the last level at which any bit was new, and a
    /// node missing a bit once its batch is done is unreachable from
    /// that source.
    fn compute_diameter(&self) -> Option<u32> {
        let n = self.node_count();
        let mut seen = vec![0u64; n];
        let mut visit = vec![0u64; n];
        let mut visit_next = vec![0u64; n];
        let mut frontier = Vec::with_capacity(n);
        let mut next = Vec::with_capacity(n);
        let mut diameter = 0u32;
        for first in (0..n).step_by(64) {
            let batch = (n - first).min(64);
            let all = u64::MAX >> (64 - batch);
            seen.fill(0);
            for i in 0..batch {
                seen[first + i] = 1 << i;
                visit[first + i] = 1 << i;
                frontier.push(first + i);
            }
            let mut level = 0u32;
            while !frontier.is_empty() {
                for &v in &frontier {
                    let bits = std::mem::take(&mut visit[v]);
                    for &w in self.neighbors(v) {
                        let new = bits & !seen[w];
                        if new != 0 {
                            if visit_next[w] == 0 {
                                next.push(w);
                            }
                            visit_next[w] |= new;
                            seen[w] |= new;
                        }
                    }
                }
                std::mem::swap(&mut visit, &mut visit_next);
                std::mem::swap(&mut frontier, &mut next);
                next.clear();
                if !frontier.is_empty() {
                    level += 1;
                }
            }
            if seen.iter().any(|&s| s != all) {
                return None;
            }
            diameter = diameter.max(level);
        }
        Some(diameter)
    }

    /// BFS from `src` into `dist` (all `u32::MAX` on entry). Each node
    /// enters `queue` at most once, so a `Vec` read from the front by
    /// index is the FIFO.
    pub(crate) fn bfs_into(&self, src: usize, dist: &mut [u32], queue: &mut Vec<usize>) {
        dist[src] = 0;
        queue.clear();
        queue.push(src);
        let mut head = 0;
        while let Some(&u) = queue.get(head) {
            head += 1;
            let du = dist[u];
            for &w in self.neighbors(u) {
                if dist[w] == u32::MAX {
                    dist[w] = du + 1;
                    queue.push(w);
                }
            }
        }
    }

    /// Single-source BFS hop distances from `src` (`O(n)` memory, computed
    /// on demand — the graph stores no distance matrix).
    ///
    /// # Panics
    ///
    /// Panics if `src` is out of range.
    pub fn bfs_distances(&self, src: usize) -> Vec<u32> {
        assert!(src < self.node_count(), "source out of range");
        let mut dist = vec![u32::MAX; self.node_count()];
        let mut queue = Vec::with_capacity(self.node_count());
        self.bfs_into(src, &mut dist, &mut queue);
        dist
    }

    /// Number of nodes `|V|`.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges `|E|`.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.targets.len() / 2
    }

    /// Sorted neighbors of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn neighbors(&self, v: usize) -> &[usize] {
        &self.targets[self.offsets[v]..self.offsets[v + 1]]
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: usize) -> usize {
        self.offsets[v + 1] - self.offsets[v]
    }

    /// Minimum degree over all nodes.
    pub fn min_degree(&self) -> usize {
        (0..self.node_count())
            .map(|v| self.degree(v))
            .min()
            .unwrap_or(0)
    }

    /// Maximum degree over all nodes.
    pub fn max_degree(&self) -> usize {
        (0..self.node_count())
            .map(|v| self.degree(v))
            .max()
            .unwrap_or(0)
    }

    /// The diameter `D`.
    #[inline]
    pub fn diameter(&self) -> u32 {
        self.diameter
    }

    /// Iterates over all undirected edges `(a, b)` with `a < b`.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        (0..self.node_count()).flat_map(move |a| {
            self.neighbors(a)
                .iter()
                .filter(move |&&b| a < b)
                .map(move |&b| (a, b))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_in_csr_form() {
        let g = CsrGraph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]);
        assert_eq!(g.node_count(), 5);
        assert_eq!(g.edge_count(), 5);
        assert_eq!(g.min_degree(), 2);
        assert_eq!(g.max_degree(), 2);
        assert_eq!(g.diameter(), 2);
        assert_eq!(g.neighbors(0), &[1, 4]);
        assert_eq!(g.edges().count(), 5);
    }

    #[test]
    fn bfs_distances_match_structure() {
        let g = CsrGraph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]);
        let d = g.bfs_distances(0);
        assert_eq!(d, vec![0, 1, 2, 3, 2, 1]);
        assert_eq!(g.diameter(), 3);
    }

    #[test]
    fn rows_are_sorted_regardless_of_input_order() {
        let g = CsrGraph::from_edges(4, &[(3, 0), (0, 2), (2, 1), (1, 3), (0, 1)]);
        for v in 0..4 {
            let ns = g.neighbors(v);
            assert!(ns.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn rejects_self_loop() {
        let _ = CsrGraph::from_edges(2, &[(0, 0)]);
    }

    #[test]
    #[should_panic(expected = "duplicate edge")]
    fn rejects_duplicate_edge() {
        let _ = CsrGraph::from_edges(2, &[(0, 1), (1, 0)]);
    }

    #[test]
    #[should_panic(expected = "connected")]
    fn rejects_disconnected() {
        let _ = CsrGraph::from_edges(4, &[(0, 1), (2, 3)]);
    }

    #[test]
    fn single_node_graph_is_degenerate_but_valid() {
        let g = CsrGraph::from_edges(1, &[]);
        assert_eq!(g.node_count(), 1);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.diameter(), 0);
        assert!(g.neighbors(0).is_empty());
    }
}
