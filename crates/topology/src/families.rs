//! Deterministic base-graph family generators.
//!
//! Every generator lowers its edge list to a [`BaseGraph`] (sorted CSR
//! rows, validated by [`BaseGraph::from_edges`]) and returns a
//! [`Family`]: the graph plus a **versioned topology descriptor** that
//! experiment records stamp into `BENCH_*.json` (the schema-v6
//! `topology` field), so trajectory tooling can group skew envelopes by
//! graph shape the way it groups fault records by campaign.
//!
//! The generator contract (see ARCHITECTURE.md, *Topology guide*) has
//! three clauses, all enforced structurally:
//!
//! 1. **Determinism** — identical arguments (including the seed, where
//!    one exists) produce a byte-identical CSR: edge sets are built in
//!    ordered containers, randomness comes from a local SplitMix64
//!    stream, and ties break by node index.
//! 2. **Validity** — every family yields a simple, connected graph of
//!    minimum degree ≥ 2 (the algorithm's §2 requirement; checked by
//!    construction and again by `BaseGraph::validate_for_gcs`).
//! 3. **Self-description** — the descriptor embeds the generator
//!    version, the family name, the construction parameters, and the
//!    derived `n`/`m`/degree/diameter, so a record is interpretable
//!    without re-running the generator.

use crate::BaseGraph;
use std::collections::BTreeSet;

/// Version stamp of the topology descriptors generators emit.
///
/// Bump when a generator's construction (and therefore the graph behind
/// an identical descriptor) changes, so old `BENCH_*.json` records are
/// never mistaken for the new shapes.
pub const TOPOLOGY_DESCRIPTOR_VERSION: u32 = 1;

/// A generated base graph together with its versioned descriptor.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Family {
    graph: BaseGraph,
    descriptor: String,
}

impl Family {
    fn new(name: &str, params: String, graph: BaseGraph) -> Self {
        let descriptor = format!(
            "v{TOPOLOGY_DESCRIPTOR_VERSION} {name} {params} n={} m={} deg={}..{} D={}",
            graph.node_count(),
            graph.edge_count(),
            graph.min_degree(),
            graph.max_degree(),
            graph.diameter(),
        );
        Self { graph, descriptor }
    }

    /// The generated base graph.
    #[inline]
    pub fn graph(&self) -> &BaseGraph {
        &self.graph
    }

    /// Consumes the family, returning the graph.
    pub fn into_graph(self) -> BaseGraph {
        self.graph
    }

    /// The versioned topology descriptor, e.g.
    /// `"v1 torus rows=3 cols=4 n=12 m=24 deg=4..4 D=3"`.
    #[inline]
    pub fn descriptor(&self) -> &str {
        &self.descriptor
    }
}

/// A 2D torus: the `rows × cols` grid with both dimensions wrapped.
///
/// Every node has degree 4, and the diameter is
/// `⌊rows/2⌋ + ⌊cols/2⌋` — the family to sweep when diameter should grow
/// like `√n` at constant degree.
///
/// # Examples
///
/// ```
/// use trix_topology::families::torus;
///
/// let t = torus(3, 3);
/// assert_eq!(t.graph().node_count(), 9);
/// assert_eq!(t.graph().edge_count(), 18);
/// assert_eq!(t.graph().diameter(), 2);
/// assert_eq!(t.graph().min_degree(), 4);
/// ```
///
/// # Panics
///
/// Panics if either dimension is below 3 (a wrapped dimension of 1 or 2
/// would produce self-loops or duplicate edges).
pub fn torus(rows: usize, cols: usize) -> Family {
    assert!(rows >= 3 && cols >= 3, "torus dimensions must be >= 3");
    let id = |r: usize, c: usize| r * cols + c;
    let mut edges = Vec::with_capacity(2 * rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            edges.push((id(r, c), id(r, (c + 1) % cols)));
            edges.push((id(r, c), id((r + 1) % rows, c)));
        }
    }
    Family::new(
        "torus",
        format!("rows={rows} cols={cols}"),
        BaseGraph::from_edges(rows * cols, &edges),
    )
}

/// The `dim`-dimensional hypercube: `2^dim` nodes, an edge per bit flip.
///
/// Degree and diameter both equal `dim` — the family where diameter
/// grows like `log₂ n`, making the Theorem 1.1 envelope `4κ(2 + log₂ D)`
/// nearly flat in `n`.
///
/// # Examples
///
/// ```
/// use trix_topology::families::hypercube;
///
/// let h = hypercube(2); // the 4-cycle
/// assert_eq!(h.graph().node_count(), 4);
/// assert_eq!(h.graph().edge_count(), 4);
/// assert_eq!(h.graph().diameter(), 2);
/// ```
///
/// # Panics
///
/// Panics if `dim < 2` (dimension 1 has minimum degree 1) or
/// `dim > 20` (a size guard: `2^20` nodes is already far beyond any
/// experiment here).
pub fn hypercube(dim: u32) -> Family {
    assert!(
        (2..=20).contains(&dim),
        "hypercube dimension must be in 2..=20"
    );
    let n = 1usize << dim;
    let mut edges = Vec::with_capacity(n * dim as usize / 2);
    for v in 0..n {
        for bit in 0..dim {
            let w = v ^ (1 << bit);
            if v < w {
                edges.push((v, w));
            }
        }
    }
    Family::new(
        "hypercube",
        format!("dim={dim}"),
        BaseGraph::from_edges(n, &edges),
    )
}

/// A seeded random-geometric graph: `n` points in the unit square, each
/// linked to its `k` nearest neighbors (symmetrized), then knitted
/// connected by adding the shortest possible edges between components.
///
/// Same seed ⇒ byte-identical graph: points come from a local SplitMix64
/// stream, nearest-neighbor and knitting ties break by node index, and
/// the edge set lives in an ordered container throughout. Minimum degree
/// is at least `k`, so `k ≥ 2` satisfies the §2 requirement.
///
/// # Examples
///
/// ```
/// use trix_topology::families::random_geometric;
///
/// let a = random_geometric(8, 2, 7);
/// let b = random_geometric(8, 2, 7);
/// assert_eq!(a, b); // same seed, same graph, byte for byte
/// assert_eq!(a.graph().node_count(), 8);
/// assert!(a.graph().edge_count() >= 8); // >= n*k/2 after symmetrization
/// assert!(a.graph().min_degree() >= 2);
/// assert!(a.graph().diameter() >= 1);
/// ```
///
/// # Panics
///
/// Panics if `k < 2` or `n <= k`.
pub fn random_geometric(n: usize, k: usize, seed: u64) -> Family {
    assert!(k >= 2, "need k >= 2 for minimum degree 2");
    assert!(n > k, "need more nodes than neighbors per node");
    let mut state = seed;
    let unit = |s: &mut u64| (splitmix64(s) >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
    let points: Vec<(f64, f64)> = (0..n)
        .map(|_| (unit(&mut state), unit(&mut state)))
        .collect();
    let dist2 = |a: usize, b: usize| {
        let (dx, dy) = (points[a].0 - points[b].0, points[a].1 - points[b].1);
        dx * dx + dy * dy
    };
    let mut edges: BTreeSet<(usize, usize)> = BTreeSet::new();
    for v in 0..n {
        let mut order: Vec<usize> = (0..n).filter(|&w| w != v).collect();
        order.sort_by(|&a, &b| dist2(v, a).total_cmp(&dist2(v, b)).then(a.cmp(&b)));
        for &w in &order[..k] {
            edges.insert((v.min(w), v.max(w)));
        }
    }
    // Knit components together with the globally shortest cross edge,
    // smallest indices first on exact ties.
    let mut comp: Vec<usize> = (0..n).collect();
    let root = |comp: &mut Vec<usize>, mut v: usize| {
        while comp[v] != v {
            comp[v] = comp[comp[v]];
            v = comp[v];
        }
        v
    };
    for &(a, b) in &edges {
        let (ra, rb) = (root(&mut comp, a), root(&mut comp, b));
        comp[ra.max(rb)] = ra.min(rb);
    }
    loop {
        let mut best: Option<(f64, usize, usize)> = None;
        for a in 0..n {
            for b in (a + 1)..n {
                if root(&mut comp, a) == root(&mut comp, b) {
                    continue;
                }
                let d = dist2(a, b);
                let better = match best {
                    None => true,
                    Some((bd, ba, bb)) => d.total_cmp(&bd).then((a, b).cmp(&(ba, bb))).is_lt(),
                };
                if better {
                    best = Some((d, a, b));
                }
            }
        }
        match best {
            None => break,
            Some((_, a, b)) => {
                edges.insert((a, b));
                let (ra, rb) = (root(&mut comp, a), root(&mut comp, b));
                comp[ra.max(rb)] = ra.min(rb);
            }
        }
    }
    let edges: Vec<(usize, usize)> = edges.into_iter().collect();
    Family::new(
        "geometric",
        format!("n={n} k={k} seed={seed}"),
        BaseGraph::from_edges(n, &edges),
    )
}

/// Octopus-style sparse interleaved pods: `pods` cliques of `pod_size`
/// nodes arranged in a ring, with `pod_size` *interleaved* links between
/// consecutive pods — member `j` of pod `i` connects to member
/// `(j + 1) mod pod_size` of pod `i + 1`, so no single member pair
/// carries all inter-pod traffic.
///
/// Every node has degree `pod_size + 1` (clique plus one link each way),
/// and the diameter grows like `pods / 2`: dense locally, sparse
/// globally — the CXL-pod regime of the Octopus study.
///
/// # Examples
///
/// ```
/// use trix_topology::families::octopus_pods;
///
/// let o = octopus_pods(3, 2);
/// assert_eq!(o.graph().node_count(), 6);
/// assert_eq!(o.graph().edge_count(), 9); // 3 intra + 6 interleaved
/// assert_eq!(o.graph().min_degree(), 3);
/// assert_eq!(o.graph().diameter(), 2);
/// ```
///
/// # Panics
///
/// Panics if `pods < 3` (two pods would duplicate the interleaved links)
/// or `pod_size < 2`.
pub fn octopus_pods(pods: usize, pod_size: usize) -> Family {
    assert!(pods >= 3, "need at least 3 pods for a simple ring");
    assert!(pod_size >= 2, "need at least 2 nodes per pod");
    let id = |pod: usize, member: usize| pod * pod_size + member;
    let mut edges = Vec::new();
    for pod in 0..pods {
        for a in 0..pod_size {
            for b in (a + 1)..pod_size {
                edges.push((id(pod, a), id(pod, b)));
            }
            edges.push((id(pod, a), id((pod + 1) % pods, (a + 1) % pod_size)));
        }
    }
    Family::new(
        "pods",
        format!("pods={pods} pod_size={pod_size}"),
        BaseGraph::from_edges(pods * pod_size, &edges),
    )
}

/// Skype-style two-tier supernode overlay: a cycle of `supernodes` core
/// nodes, each serving `leaves_per` leaves; every leaf is homed on its
/// supernode and backed up on the next one around the ring, so leaves
/// keep minimum degree 2 and survive a single supernode fault.
///
/// Supernode degree is `2 + 2·leaves_per` (ring plus own and backed-up
/// leaves); the diameter grows like `supernodes / 2 + 2` — a few hub
/// hops end-to-end, matching the measured Skype overlay shape.
///
/// # Examples
///
/// ```
/// use trix_topology::families::supernode_overlay;
///
/// let s = supernode_overlay(3, 1);
/// assert_eq!(s.graph().node_count(), 6);
/// assert_eq!(s.graph().edge_count(), 9); // 3 core + 3 leaves x 2 uplinks
/// assert_eq!(s.graph().min_degree(), 2); // the leaves
/// assert_eq!(s.graph().diameter(), 2);
/// ```
///
/// # Panics
///
/// Panics if `supernodes < 3` or `leaves_per == 0`.
pub fn supernode_overlay(supernodes: usize, leaves_per: usize) -> Family {
    assert!(supernodes >= 3, "need at least 3 supernodes for a cycle");
    assert!(leaves_per >= 1, "need at least one leaf per supernode");
    let leaf = |s: usize, j: usize| supernodes + s * leaves_per + j;
    let mut edges = Vec::new();
    for s in 0..supernodes {
        edges.push((s, (s + 1) % supernodes));
        for j in 0..leaves_per {
            edges.push((leaf(s, j), s));
            edges.push((leaf(s, j), (s + 1) % supernodes));
        }
    }
    Family::new(
        "supernode",
        format!("supernodes={supernodes} leaves_per={leaves_per}"),
        BaseGraph::from_edges(supernodes * (1 + leaves_per), &edges),
    )
}

/// SplitMix64 step — the same constants as `trix_sim::splitmix64`,
/// reimplemented locally because the dependency points the other way
/// (`trix-sim` builds on this crate).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn torus_structure_and_descriptor() {
        let t = torus(3, 5);
        let g = t.graph();
        assert_eq!(g.node_count(), 15);
        assert_eq!(g.edge_count(), 30);
        assert_eq!(g.min_degree(), 4);
        assert_eq!(g.max_degree(), 4);
        assert_eq!(g.diameter(), 3); // 3/2 + 5/2 = 1 + 2
        assert!(g.validate_for_gcs().is_ok());
        assert_eq!(
            t.descriptor(),
            "v1 torus rows=3 cols=5 n=15 m=30 deg=4..4 D=3"
        );
    }

    #[test]
    fn torus_diameter_formula() {
        for (rows, cols) in [(3, 3), (4, 4), (3, 8), (5, 6)] {
            let g = torus(rows, cols).into_graph();
            assert_eq!(
                g.diameter() as usize,
                rows / 2 + cols / 2,
                "torus({rows},{cols})"
            );
        }
    }

    #[test]
    fn hypercube_structure() {
        let h = hypercube(4);
        let g = h.graph();
        assert_eq!(g.node_count(), 16);
        assert_eq!(g.edge_count(), 32);
        assert_eq!(g.min_degree(), 4);
        assert_eq!(g.max_degree(), 4);
        assert_eq!(g.diameter(), 4);
        assert!(h.descriptor().starts_with("v1 hypercube dim=4 "));
    }

    #[test]
    fn geometric_is_deterministic_and_valid() {
        for seed in [0u64, 1, 42, u64::MAX] {
            let a = random_geometric(20, 3, seed);
            let b = random_geometric(20, 3, seed);
            assert_eq!(a, b, "seed {seed} must be reproducible");
            let g = a.graph();
            assert_eq!(g.node_count(), 20);
            assert!(g.min_degree() >= 3);
            assert!(g.validate_for_gcs().is_ok());
            assert!(a.descriptor().contains(&format!("seed={seed}")));
        }
        assert_ne!(
            random_geometric(20, 3, 1).graph(),
            random_geometric(20, 3, 2).graph(),
            "different seeds should (generically) differ"
        );
    }

    #[test]
    fn pods_structure() {
        let o = octopus_pods(4, 3);
        let g = o.graph();
        assert_eq!(g.node_count(), 12);
        // Intra: 4 pods x C(3,2)=3; inter: 4 boundaries x 3 links.
        assert_eq!(g.edge_count(), 4 * 3 + 4 * 3);
        assert_eq!(g.min_degree(), 4); // pod_size + 1
        assert_eq!(g.max_degree(), 4);
        assert!(g.validate_for_gcs().is_ok());
    }

    #[test]
    fn supernode_structure() {
        let s = supernode_overlay(5, 2);
        let g = s.graph();
        assert_eq!(g.node_count(), 15);
        assert_eq!(g.edge_count(), 5 + 5 * 2 * 2);
        assert_eq!(g.min_degree(), 2); // leaves
        assert_eq!(g.max_degree(), 2 + 2 * 2); // ring + own leaves + backups
        assert!(g.validate_for_gcs().is_ok());
        // Every leaf reaches its backup supernode directly.
        for sn in 0..5 {
            for j in 0..2 {
                let leaf = 5 + sn * 2 + j;
                assert!(g.neighbors(leaf).contains(&sn));
                assert!(g.neighbors(leaf).contains(&((sn + 1) % 5)));
            }
        }
    }

    #[test]
    fn descriptors_are_versioned_and_self_describing() {
        for f in [
            torus(3, 3),
            hypercube(2),
            random_geometric(8, 2, 7),
            octopus_pods(3, 2),
            supernode_overlay(3, 1),
        ] {
            let d = f.descriptor();
            assert!(d.starts_with("v1 "), "{d}");
            let g = f.graph();
            assert!(d.contains(&format!("n={}", g.node_count())), "{d}");
            assert!(d.contains(&format!("m={}", g.edge_count())), "{d}");
            assert!(d.contains(&format!("D={}", g.diameter())), "{d}");
        }
    }

    #[test]
    #[should_panic(expected = "dimensions must be >= 3")]
    fn torus_rejects_wrap_degenerate_dims() {
        let _ = torus(2, 5);
    }
}
