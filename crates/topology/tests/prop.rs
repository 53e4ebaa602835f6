//! Property tests for graph invariants.

use proptest::prelude::*;
use trix_topology::{distance_ancestors, families, BaseGraph, LayeredGraph};

/// SplitMix64 step — drives the random graphs from one proptest seed
/// (the topology crate has no RNG dependency by design).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Reference diameter: one BFS per source, `max_src max_v d(src, v)`.
fn per_source_diameter(g: &BaseGraph) -> u32 {
    (0..g.node_count())
        .flat_map(|src| g.bfs_distances(src))
        .max()
        .expect("graphs have at least one node")
}

/// Node counts at and next to the edges of the 64-source batches that
/// `BaseGraph`'s bit-parallel diameter runs in.
const BATCH_EDGE_SIZES: [usize; 14] = [
    1, 2, 63, 64, 65, 127, 128, 129, 191, 192, 193, 255, 256, 257,
];

/// The edges of a random connected graph on `n` nodes: a spanning tree
/// in which node `v` hangs off one of its `window` predecessors
/// (`window == 1` is a line), plus up to `chords` random extra edges,
/// all under a random relabeling so that no batch of sources is a
/// contiguous stretch of the tree.
fn random_connected(n: usize, window: usize, chords: usize, seed: u64) -> Vec<(usize, usize)> {
    let mut state = seed;
    let mut label: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        label.swap(i, (splitmix64(&mut state) % (i as u64 + 1)) as usize);
    }
    let mut edges = std::collections::BTreeSet::new();
    let mut link = |a: usize, b: usize| {
        let (a, b) = (label[a], label[b]);
        edges.insert((a.min(b), a.max(b)));
    };
    for v in 1..n {
        link(v - 1 - (splitmix64(&mut state) as usize) % v.min(window), v);
    }
    for _ in 0..chords {
        let a = (splitmix64(&mut state) % n as u64) as usize;
        let b = (splitmix64(&mut state) % n as u64) as usize;
        if a != b {
            link(a, b);
        }
    }
    edges.into_iter().collect()
}

/// A stray component confined to the last, partial batch of 64 sources
/// still fails construction.
#[test]
#[should_panic(expected = "connected")]
fn stray_component_in_last_partial_batch_is_rejected() {
    let mut edges: Vec<(usize, usize)> = (1..128).map(|v| (v - 1, v)).collect();
    edges.push((128, 129));
    let _ = BaseGraph::from_edges(130, &edges);
}

proptest! {
    /// Line-with-replicated-ends: size, degree, and diameter invariants
    /// for every width.
    #[test]
    fn line_invariants(width in 2usize..320) {
        let g = BaseGraph::line_with_replicated_ends(width);
        prop_assert_eq!(g.node_count(), width + 2);
        prop_assert!(g.min_degree() >= 2);
        prop_assert_eq!(g.diameter() as usize, width - 1);
        prop_assert!(g.validate_for_gcs().is_ok());
    }

    /// Cycle powers: regular of degree 2k, diameter ⌈(n/2)/k⌉.
    #[test]
    fn cycle_power_invariants(n in 5usize..60, k in 1usize..3) {
        prop_assume!(n > 2 * k);
        let g = BaseGraph::cycle_power(n, k);
        prop_assert_eq!(g.min_degree(), 2 * k);
        prop_assert_eq!(g.max_degree(), 2 * k);
        prop_assert_eq!(g.diameter() as usize, (n / 2).div_ceil(k));
    }

    /// The bit-parallel diameter equals the per-source BFS sweep on
    /// random connected graphs, half of them sized at a batch edge, with
    /// lines (`window_log == 0`, diameter up to 298) among them.
    #[test]
    fn diameter_matches_per_source_sweep(
        at_batch_edge in any::<bool>(),
        edge_size in 0usize..BATCH_EDGE_SIZES.len(),
        size in 1usize..300,
        window_log in 0u32..9,
        chords in 0usize..6,
        seed in any::<u64>(),
    ) {
        let n = if at_batch_edge { BATCH_EDGE_SIZES[edge_size] } else { size };
        let g = BaseGraph::from_edges(n, &random_connected(n, 1 << window_log, chords, seed));
        prop_assert_eq!(g.diameter(), per_source_diameter(&g), "n={}", n);
    }

    /// Distances form a metric on every generated graph.
    #[test]
    fn distances_are_a_metric(width in 2usize..30) {
        let g = BaseGraph::line_with_replicated_ends(width);
        let n = g.node_count();
        for a in 0..n {
            prop_assert_eq!(g.distance(a, a), 0);
            for b in (a + 1)..n {
                let d = g.distance(a, b);
                prop_assert!(d >= 1);
                prop_assert_eq!(d, g.distance(b, a));
                for c in 0..n {
                    prop_assert!(g.distance(a, c) <= d + g.distance(b, c));
                }
            }
        }
    }

    /// Layered-graph edge ids are a bijection onto 0..edge_count, and
    /// successors mirror predecessors.
    #[test]
    fn layered_edge_ids_bijective(width in 2usize..20, layers in 2usize..8) {
        let g = LayeredGraph::new(BaseGraph::line_with_replicated_ends(width), layers);
        let mut seen = vec![false; g.edge_count()];
        for node in g.nodes().filter(|n| n.layer > 0) {
            for (pred, e) in g.predecessors(node) {
                prop_assert!(!seen[e.0]);
                seen[e.0] = true;
                let back = g
                    .successors(pred)
                    .find(|&(s, e2)| s == node && e2 == e);
                prop_assert!(back.is_some());
            }
        }
        prop_assert!(seen.iter().all(|&s| s));
    }

    /// Generator determinism (clause 1 of the topology contract): the
    /// same arguments produce a byte-identical CSR — equal rows, equal
    /// descriptor — and the result satisfies the §2 validity clause.
    #[test]
    fn generators_are_deterministic_and_valid(
        rows in 3usize..8,
        cols in 3usize..8,
        dim in 2u32..6,
        n in 8usize..24,
        k in 2usize..4,
        seed in any::<u64>(),
        pods in 3usize..7,
        pod_size in 2usize..5,
        supernodes in 3usize..7,
        leaves in 1usize..4,
    ) {
        let make = |which: usize| match which {
            0 => families::torus(rows, cols),
            1 => families::hypercube(dim),
            2 => families::random_geometric(n, k, seed),
            3 => families::octopus_pods(pods, pod_size),
            _ => families::supernode_overlay(supernodes, leaves),
        };
        for which in 0..5 {
            let (a, b) = (make(which), make(which));
            prop_assert_eq!(&a, &b, "family {} must be reproducible", which);
            let g = a.graph();
            prop_assert!(g == b.graph());
            prop_assert!(g.validate_for_gcs().is_ok(), "family {}", which);
            prop_assert!(g.diameter() >= 1);
            prop_assert_eq!(g.diameter(), per_source_diameter(g), "family {}", which);
            for v in 0..g.node_count() {
                let ns = g.neighbors(v);
                prop_assert!(ns.windows(2).all(|w| w[0] < w[1]), "sorted rows");
            }
        }
    }

    /// Ancestor cones: every claimed ancestor is reachable (distance
    /// bound) and no closer node is omitted.
    #[test]
    fn ancestor_cone_is_exact(width in 3usize..15, layers in 2usize..8, delta in 1usize..5) {
        let g = LayeredGraph::new(BaseGraph::cycle(width), layers);
        let node = g.node(width / 2, layers - 1);
        let anc = distance_ancestors(&g, node, delta);
        let set: std::collections::HashSet<_> = anc.iter().copied().collect();
        prop_assert_eq!(set.len(), anc.len(), "no duplicates");
        for j in 1..=delta.min(node.layer as usize) {
            let layer = node.layer as usize - j;
            for w in 0..g.width() {
                let in_cone = g.base().distance(w, node.v as usize) as usize <= j;
                let claimed = set.contains(&g.node(w, layer));
                prop_assert_eq!(in_cone, claimed, "w={} layer={}", w, layer);
            }
        }
    }
}
