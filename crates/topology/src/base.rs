//! Base graphs `H` (paper §2, Figure 2).

use std::sync::OnceLock;

/// A simple, connected, undirected base graph `H = (V, E)`.
///
/// The Gradient TRIX algorithm requires minimum degree 2 (each node of the
/// layered graph then has at least three predecessors, enough to out-vote a
/// single faulty one). Constructors that can produce lower-degree graphs
/// (e.g. [`BaseGraph::path`]) are provided for baselines and negative tests;
/// [`BaseGraph::min_degree`] and [`BaseGraph::validate_for_gcs`] make the
/// requirement checkable.
///
/// Nodes are `usize` indices `0..node_count()`. The graph is stored in
/// compressed-sparse-row form: two flat arrays, row offsets and the
/// concatenated neighbor lists, each row sorted, so neighbor iteration —
/// and therefore every simulation driven by this graph — is deterministic
/// by construction. The diameter is computed at construction. The
/// all-pairs distance matrix that the ancestor-cone queries
/// ([`crate::distance_ancestors`]) need in their inner loop is built by
/// the first [`BaseGraph::distance`] call, so graphs that are only
/// simulated keep `O(n + m)` state and never pay its `O(n²)` memory.
/// Equality compares the graphs, not whether the matrix has been built.
///
/// # Examples
///
/// ```
/// use trix_topology::BaseGraph;
///
/// let g = BaseGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
/// assert_eq!(g.node_count(), 4);
/// assert_eq!(g.edge_count(), 4);
/// assert_eq!(g.neighbors(0), &[1, 3]);
/// assert_eq!(g.diameter(), 2);
/// assert_eq!(g.distance(0, 2), 2);
/// ```
#[derive(Clone, Debug)]
pub struct BaseGraph {
    /// Row bounds: node `v`'s neighbors are
    /// `targets[offsets[v] .. offsets[v + 1]]`.
    offsets: Vec<usize>,
    /// Concatenated neighbor lists, sorted within each row.
    targets: Vec<usize>,
    /// The diameter, computed once at construction.
    diameter: u32,
    /// All-pairs hop distances, row-major, filled on first use.
    distances: OnceLock<Vec<u32>>,
}

impl PartialEq for BaseGraph {
    fn eq(&self, other: &Self) -> bool {
        self.offsets == other.offsets && self.targets == other.targets
    }
}

impl Eq for BaseGraph {}

impl BaseGraph {
    /// Builds a base graph from an undirected edge list over `n` nodes.
    ///
    /// Self-loops and duplicate edges are rejected; the graph must be
    /// connected (the layered synchronization DAG of a disconnected base
    /// graph would fall apart into independent components with unbounded
    /// mutual skew). No distances are computed here: the first
    /// [`BaseGraph::distance`] call builds the all-pairs matrix.
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
            distances: OnceLock::new(),
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
    fn bfs_into(&self, src: usize, dist: &mut [u32], queue: &mut Vec<usize>) {
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

    /// The paper's base graph (Figure 2): a line of `line_len` nodes whose
    /// two endpoints are replicated to guarantee minimum degree 2.
    ///
    /// Layout (indices): `0` and `1` are the two copies of the left end,
    /// `2 ..= line_len - 1` are the middle nodes of the line (if any), and
    /// the last two indices are the two copies of the right end. The two
    /// copies of each end are adjacent to each other and both to the nearest
    /// middle node (or, for `line_len == 2`, to both copies of the other
    /// end); middle nodes form a path.
    ///
    /// `line_len` counts the underlying line *including* its endpoints, so
    /// the resulting graph has `line_len + 2` nodes and the same diameter
    /// `line_len − 1` as the line.
    ///
    /// # Panics
    ///
    /// Panics if `line_len < 2`.
    pub fn line_with_replicated_ends(line_len: usize) -> Self {
        assert!(line_len >= 2, "need a line of at least 2 nodes");
        let n = line_len + 2;
        let (right0, right1) = (n - 2, n - 1);
        let mut edges = vec![(0, 1), (right0, right1)];
        if line_len == 2 {
            // No middle nodes: connect the end-copy pairs directly.
            edges.extend([(0, right0), (0, right1), (1, right0), (1, right1)]);
        } else {
            let (first_mid, last_mid) = (2, line_len - 1);
            edges.extend([(0, first_mid), (1, first_mid)]);
            edges.extend([(last_mid, right0), (last_mid, right1)]);
            for i in first_mid..last_mid {
                edges.push((i, i + 1));
            }
        }
        Self::from_edges(n, &edges)
    }

    /// A cycle on `n` nodes (minimum degree 2 for `n ≥ 3`).
    ///
    /// # Panics
    ///
    /// Panics if `n < 3`.
    pub fn cycle(n: usize) -> Self {
        assert!(n >= 3, "cycle needs at least 3 nodes");
        let edges: Vec<_> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        Self::from_edges(n, &edges)
    }

    /// The `k`-th power of a cycle on `n` nodes: every node is adjacent to
    /// its `k` nearest neighbors on each side (degree `2k`).
    ///
    /// Used by the in-degree-`2f+1` extension experiments (the paper's
    /// "Bigger Picture" item (3)): tolerating `f` faults per neighborhood
    /// needs node connectivity `2f+1`, which the `f`-th cycle power
    /// provides with in-degree `2f+1` in the layered graph.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `n < 2k + 1`.
    pub fn cycle_power(n: usize, k: usize) -> Self {
        assert!(k >= 1, "power must be at least 1");
        assert!(n > 2 * k, "cycle power needs n >= 2k+1");
        let mut edges = Vec::new();
        for i in 0..n {
            for hop in 1..=k {
                edges.push((i, (i + hop) % n));
            }
        }
        Self::from_edges(n, &edges)
    }

    /// A simple path on `n` nodes (minimum degree 1 — *not* valid for the
    /// fault-tolerant algorithm; used by baselines and negative tests).
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn path(n: usize) -> Self {
        assert!(n >= 2, "path needs at least 2 nodes");
        let edges: Vec<_> = (0..n - 1).map(|i| (i, i + 1)).collect();
        Self::from_edges(n, &edges)
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

    /// Where `v`'s row starts in the concatenated neighbor lists: the
    /// summed degrees of nodes `0 .. v`.
    ///
    /// # Panics
    ///
    /// Panics if `v > node_count()`.
    #[inline]
    pub(crate) fn row_start(&self, v: usize) -> usize {
        self.offsets[v]
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

    /// The diameter `D` of `H`.
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

    /// Single-source BFS hop distances from `src` (`O(n)` memory, computed
    /// on demand; unlike [`BaseGraph::distance`], it builds no matrix).
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

    /// Hop distance `d(v, w)` in `H`.
    ///
    /// The first call builds the all-pairs matrix, one BFS per source
    /// (`O(n·(n + m))` time, `O(n²)` memory); later calls are a lookup.
    ///
    /// # Panics
    ///
    /// Panics if `v` or `w` is out of range.
    #[inline]
    pub fn distance(&self, v: usize, w: usize) -> u32 {
        let n = self.node_count();
        assert!(
            v < n && w < n,
            "node out of range: d({v}, {w}) on {n} nodes"
        );
        self.distance_matrix()[v * n + w]
    }

    /// The row-major all-pairs matrix, built on first use.
    fn distance_matrix(&self) -> &[u32] {
        self.distances.get_or_init(|| {
            let n = self.node_count();
            let mut matrix = vec![u32::MAX; n * n];
            let mut queue = Vec::with_capacity(n);
            for (src, row) in matrix.chunks_exact_mut(n).enumerate() {
                self.bfs_into(src, row, &mut queue);
            }
            matrix
        })
    }

    /// Checks the paper's structural requirement (§2): connected, minimum
    /// degree ≥ 2.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the violated requirement.
    pub fn validate_for_gcs(&self) -> Result<(), String> {
        if self.min_degree() < 2 {
            return Err(format!(
                "base graph minimum degree is {}, the algorithm requires ≥ 2",
                self.min_degree()
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_with_replicated_ends_structure() {
        // interior = 4: line a-b-c-d, ends a and d replicated.
        let g = BaseGraph::line_with_replicated_ends(4);
        assert_eq!(g.node_count(), 6);
        assert!(g.min_degree() >= 2);
        assert!(g.validate_for_gcs().is_ok());
        // End copies are adjacent to each other and the first interior node.
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.neighbors(1), &[0, 2]);
        // Node next to the boundary has degree 3.
        assert_eq!(g.degree(2), 3);
        assert_eq!(g.neighbors(2), &[0, 1, 3]);
        assert_eq!(g.degree(3), 3);
        assert_eq!(g.neighbors(3), &[2, 4, 5]);
        assert_eq!(g.neighbors(4), &[3, 5]);
        assert_eq!(g.neighbors(5), &[3, 4]);
    }

    #[test]
    fn line_with_replicated_ends_smallest() {
        let g = BaseGraph::line_with_replicated_ends(2);
        // Line a-b with both ends replicated: K4.
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.min_degree(), 3);
        assert_eq!(g.diameter(), 1);
    }

    #[test]
    fn line_diameter_matches_underlying_line() {
        for line_len in [2usize, 3, 5, 10, 33] {
            let g = BaseGraph::line_with_replicated_ends(line_len);
            assert_eq!(g.diameter() as usize, line_len - 1, "line_len={line_len}");
        }
    }

    #[test]
    fn cycle_structure() {
        let g = BaseGraph::cycle(8);
        assert_eq!(g.node_count(), 8);
        assert_eq!(g.min_degree(), 2);
        assert_eq!(g.max_degree(), 2);
        assert_eq!(g.diameter(), 4);
        assert_eq!(g.distance(0, 4), 4);
        assert_eq!(g.distance(0, 7), 1);
        assert_eq!(g.edge_count(), 8);
    }

    #[test]
    fn cycle_power_structure() {
        let g = BaseGraph::cycle_power(9, 2);
        assert_eq!(g.node_count(), 9);
        assert_eq!(g.min_degree(), 4);
        assert_eq!(g.max_degree(), 4);
        assert!(g.neighbors(0).contains(&1));
        assert!(g.neighbors(0).contains(&2));
        assert!(g.neighbors(0).contains(&7));
        assert!(g.neighbors(0).contains(&8));
        assert!(!g.neighbors(0).contains(&3));
        // Power 1 is the plain cycle.
        assert_eq!(BaseGraph::cycle_power(7, 1), BaseGraph::cycle(7));
        // Diameter shrinks by the power factor.
        assert_eq!(BaseGraph::cycle_power(12, 2).diameter(), 3);
    }

    #[test]
    #[should_panic(expected = "n >= 2k+1")]
    fn cycle_power_rejects_small_n() {
        let _ = BaseGraph::cycle_power(4, 2);
    }

    #[test]
    fn path_is_flagged_invalid_for_gcs() {
        let g = BaseGraph::path(5);
        assert_eq!(g.min_degree(), 1);
        assert!(g.validate_for_gcs().is_err());
        assert_eq!(g.diameter(), 4);
    }

    #[test]
    fn distances_are_symmetric_and_triangle() {
        let g = BaseGraph::line_with_replicated_ends(7);
        let n = g.node_count();
        for a in 0..n {
            assert_eq!(g.distance(a, a), 0);
            for b in 0..n {
                assert_eq!(g.distance(a, b), g.distance(b, a));
                for c in 0..n {
                    assert!(g.distance(a, c) <= g.distance(a, b) + g.distance(b, c));
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn distance_rejects_out_of_range_target() {
        // Row-major indexing alone would read d(1, 0) here.
        let _ = BaseGraph::path(7).distance(0, 7);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn distance_rejects_out_of_range_source() {
        let _ = BaseGraph::path(7).distance(7, 0);
    }

    #[test]
    fn distance_matrix_is_built_on_first_use() {
        let a = BaseGraph::cycle(9);
        let b = BaseGraph::cycle(9);
        assert!(a.distances.get().is_none(), "construction builds no matrix");
        assert_eq!(a.distance(0, 4), 4);
        assert!(a.distances.get().is_some(), "first query builds it");
        for v in 0..a.node_count() {
            let row: Vec<u32> = (0..a.node_count()).map(|w| a.distance(v, w)).collect();
            assert_eq!(row, a.bfs_distances(v));
        }
        // Equality and clones see the graph, not the cache.
        assert!(b.distances.get().is_none());
        assert_eq!(a, b);
        assert_eq!(a.clone(), b);
        assert_eq!(b.clone(), a);
    }

    #[test]
    fn base_graph_is_sync() {
        // The frontier workers share `&LayeredGraph`, and so its base
        // graph, across threads; the lazy matrix must keep that legal.
        fn sync<T: Send + Sync>() {}
        sync::<BaseGraph>();
    }

    #[test]
    fn edges_iterator_matches_edge_count() {
        let g = BaseGraph::line_with_replicated_ends(5);
        assert_eq!(g.edges().count(), g.edge_count());
        for (a, b) in g.edges() {
            assert!(a < b);
            assert!(g.neighbors(a).contains(&b));
        }
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn rejects_self_loop() {
        let _ = BaseGraph::from_edges(2, &[(0, 0)]);
    }

    #[test]
    #[should_panic(expected = "duplicate edge")]
    fn rejects_duplicate_edge() {
        let _ = BaseGraph::from_edges(2, &[(0, 1), (1, 0)]);
    }

    #[test]
    #[should_panic(expected = "connected")]
    fn rejects_disconnected() {
        let _ = BaseGraph::from_edges(4, &[(0, 1), (2, 3)]);
    }

    #[test]
    fn adjacency_is_sorted_for_determinism() {
        let g = BaseGraph::from_edges(4, &[(3, 0), (0, 2), (2, 1), (1, 3), (0, 1)]);
        for v in 0..4 {
            let ns = g.neighbors(v);
            assert!(ns.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn bfs_distances_match_structure() {
        let g = BaseGraph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]);
        let d = g.bfs_distances(0);
        assert_eq!(d, vec![0, 1, 2, 3, 2, 1]);
        assert_eq!(g.diameter(), 3);
    }

    #[test]
    fn single_node_graph_is_degenerate_but_valid() {
        let g = BaseGraph::from_edges(1, &[]);
        assert_eq!(g.node_count(), 1);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.diameter(), 0);
        assert!(g.neighbors(0).is_empty());
    }
}
