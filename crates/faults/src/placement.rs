//! Fault placement strategies and the 1-locality check (paper §2).
//!
//! The fault model: each node fails independently with probability
//! `p ∈ o(n^{-1/2})`, which implies — with probability `1 − o(1)` — that
//! faults are **1-local**: for every `ℓ` and `v`,
//! `|({(v,ℓ)} ∪ {(w,ℓ) : {v,w} ∈ E}) ∩ F| ≤ 1` (no closed in-neighborhood
//! on a layer contains two faults, hence no node has two faulty
//! predecessors).

use std::collections::HashSet;
use trix_sim::Rng;
use trix_topology::{LayeredGraph, NodeId};

/// Checks the paper's 1-locality condition on a fault set.
///
/// For every layer `ℓ` and base node `v`, at most one element of
/// `{(v, ℓ)} ∪ {(w, ℓ) : w ∈ N(v)}` is faulty. This implies every node of
/// layer `ℓ+1` has at most one faulty predecessor.
///
/// Two distinct nodes of a layer share a closed neighborhood exactly
/// when their base distance is 1 or 2, so the check visits only each
/// fault's same-layer 2-ball: its cost scales with the fault count, not
/// the node count. Positions outside `g` lie in no neighborhood and are
/// ignored.
pub fn is_one_local(g: &LayeredGraph, faults: &HashSet<NodeId>) -> bool {
    let base = g.base();
    let faulty = |w: usize, layer: u32| faults.contains(&NodeId::new(w as u32, layer));
    faults.iter().all(|f| {
        let (v, layer) = (f.v as usize, f.layer);
        if v >= g.width() || layer as usize >= g.layer_count() {
            return true;
        }
        // Every other node within base distance 2 must be correct.
        let clear = |w: usize| w == v || !faulty(w, layer);
        base.neighbors(v)
            .iter()
            .all(|&w| clear(w) && base.neighbors(w).iter().all(|&x| clear(x)))
    })
}

/// Samples each node of layers ≥ `min_layer` independently with
/// probability `p`.
///
/// With `min_layer = 1` this matches the Theorem 1.2/1.3 setting
/// ("none in layer 0"; Appendix A argues layer-0 faults have probability
/// `o(1)` anyway). `min_layer = 0` permits layer-0 faults — outside the
/// theorems' setting, available for ablations — and a `min_layer` at or
/// beyond the layer count yields the empty set (the RNG is still
/// consulted once per eligible node, i.e. not at all, so downstream
/// draws are unaffected).
///
/// # Panics
///
/// Panics if `p` is outside `[0, 1]`.
pub fn sample_iid(g: &LayeredGraph, p: f64, min_layer: usize, rng: &mut Rng) -> HashSet<NodeId> {
    let mask = iid_mask(g, p, min_layer, rng);
    nodes_of(g, &mask)
}

/// [`sample_iid`] as a dense mask indexed by [`LayeredGraph::node_index`]:
/// one Bernoulli draw per node of layers ≥ `min_layer`, in `(layer, v)`
/// order.
fn iid_mask(g: &LayeredGraph, p: f64, min_layer: usize, rng: &mut Rng) -> Vec<bool> {
    assert!((0.0..=1.0).contains(&p), "probability out of range");
    let first = min_layer.min(g.layer_count()) * g.width();
    (0..g.node_count())
        .map(|i| i >= first && rng.bernoulli(p))
        .collect()
}

/// The nodes a dense mask marks.
fn nodes_of(g: &LayeredGraph, mask: &[bool]) -> HashSet<NodeId> {
    mask.iter()
        .enumerate()
        .filter(|&(_, &faulty)| faulty)
        .map(|(i, _)| g.node_at(i))
        .collect()
}

/// Samples iid faults and greedily removes nodes until the set is 1-local.
///
/// The thinning is **deterministic in the sampled set** (a `HashSet`
/// retains no sampling order): neighborhoods are scanned layer-major,
/// then by base column, each closed neighborhood listing the center node
/// first and its base neighbors in ascending index — and the member
/// dropped from the *first* violating neighborhood is the **last one in
/// that scan order** (the highest-indexed involved neighbor), not the
/// "most recently sampled" node. Re-running the thinning on the same set
/// always removes the same nodes.
///
/// The thinning is one pass over a dense mask of the graph: a drop
/// re-checks the neighborhood it came from instead of restarting the
/// scan, so the cost does not grow with the number of drops.
///
/// `min_layer` is enforced by the sampling step and preserved by the
/// thinning (which only removes nodes), so the returned set never
/// contains a node below `min_layer`; a `min_layer` at or beyond the
/// layer count yields the empty set. On a degenerate one-wide graph
/// (single-node base graph) every closed neighborhood is a singleton, so
/// any sample is already 1-local and the drop count is always zero.
///
/// Returns the thinned set and the number of dropped nodes. With
/// `p ∈ o(n^{-1/2})` the expected number of drops is `o(1)`, so this
/// conditioning matches the paper's "we assume this to be the case
/// throughout our analysis".
///
/// # Panics
///
/// Panics if `p` is outside `[0, 1]`.
pub fn sample_one_local(
    g: &LayeredGraph,
    p: f64,
    min_layer: usize,
    rng: &mut Rng,
) -> (HashSet<NodeId>, usize) {
    let mut mask = iid_mask(g, p, min_layer, rng);
    let width = g.width();
    let mut dropped = 0;
    for row in mask.chunks_mut(width) {
        for v in 0..width {
            // A drop only shrinks neighborhoods, so the ones scanned
            // before stay clean: a rescan from the start would stop here
            // again. Re-check this one until it is clean, then go on.
            loop {
                let (mut members, mut last) = (0, v);
                for w in std::iter::once(v).chain(g.base().neighbors(v).iter().copied()) {
                    if row[w] {
                        members += 1;
                        last = w;
                    }
                }
                if members <= 1 {
                    break;
                }
                row[last] = false;
                dropped += 1;
            }
        }
    }
    (nodes_of(g, &mask), dropped)
}

/// The worst-case clustered placement used by the Theorem 1.2 experiments:
/// `f` faults in the same base-graph column `v`, on layers
/// `start_layer, start_layer + spacing, …`.
///
/// Stacked same-column faults maximize compounding: each fault perturbs
/// the pulse time fed to the next faulty node's neighborhood before the
/// gradient mechanism has re-converged (spacing controls how much recovery
/// time the algorithm gets — spacing 1 is the harshest 1-local
/// configuration).
///
/// Edge cases, pinned by the unit tests below:
///
/// * **Any valid column works, including boundary columns.** 1-locality
///   constrains *same-layer* closed neighborhoods only, and this
///   placement puts at most one fault per layer — so it is 1-local for
///   every `v < width`, including the replicated-end copies (columns
///   `0`/`1` and the last two), which are adjacent to *each other* in
///   the base graph. The `spacing ≥ 1` assert is what rules out two
///   faults sharing a layer.
/// * **`f = 0`** returns the empty set (vacuously 1-local) without
///   touching the layer bound.
/// * **`start_layer` may be 0**, placing a fault on layer 0 — outside
///   the Theorem 1.2 setting ("none in layer 0"); callers reproducing
///   the theorem pass `start_layer ≥ 1`.
/// * **Degenerate one-wide grids** (single-node base graph) are
///   accepted: column 0 is the only column and the stack is 1-local.
///
/// # Panics
///
/// Panics if `v` is not a base-graph column (via [`LayeredGraph::node`]'s
/// bounds check), if the placement exceeds the layer count, or if
/// `spacing` is 0 (two faults on one layer would violate 1-locality).
pub fn clustered_column(
    g: &LayeredGraph,
    v: usize,
    start_layer: usize,
    spacing: usize,
    f: usize,
) -> HashSet<NodeId> {
    assert!(spacing >= 1, "spacing 0 would violate 1-locality");
    let mut out = HashSet::new();
    for i in 0..f {
        let layer = start_layer + i * spacing;
        assert!(
            layer < g.layer_count(),
            "placement exceeds layer count: {layer}"
        );
        out.insert(g.node(v, layer));
    }
    debug_assert!(is_one_local(g, &out));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use trix_topology::BaseGraph;

    fn grid() -> LayeredGraph {
        LayeredGraph::new(BaseGraph::line_with_replicated_ends(10), 12)
    }

    #[test]
    fn empty_set_is_one_local() {
        let g = grid();
        assert!(is_one_local(&g, &HashSet::new()));
    }

    #[test]
    fn adjacent_same_layer_faults_are_not_one_local() {
        let g = grid();
        let faults: HashSet<_> = [g.node(4, 3), g.node(5, 3)].into_iter().collect();
        assert!(!is_one_local(&g, &faults));
    }

    #[test]
    fn same_column_adjacent_layers_are_one_local() {
        let g = grid();
        let faults: HashSet<_> = [g.node(4, 3), g.node(4, 4)].into_iter().collect();
        assert!(is_one_local(&g, &faults));
    }

    #[test]
    fn distant_faults_are_one_local() {
        let g = grid();
        let faults: HashSet<_> = [g.node(2, 3), g.node(8, 3)].into_iter().collect();
        assert!(is_one_local(&g, &faults));
    }

    #[test]
    fn sample_iid_respects_min_layer_and_probability() {
        let g = grid();
        let mut rng = Rng::seed_from(1);
        let faults = sample_iid(&g, 0.2, 1, &mut rng);
        assert!(faults.iter().all(|n| n.layer >= 1));
        let expected = 0.2 * (g.node_count() - g.width()) as f64;
        let count = faults.len() as f64;
        assert!(
            (count - expected).abs() < expected * 0.5 + 10.0,
            "count {count} too far from expectation {expected}"
        );
    }

    #[test]
    fn sample_one_local_produces_one_local_sets() {
        let g = grid();
        for seed in 0..10 {
            let mut rng = Rng::seed_from(seed);
            let (faults, _) = sample_one_local(&g, 0.05, 1, &mut rng);
            assert!(is_one_local(&g, &faults), "seed {seed}");
        }
    }

    #[test]
    fn thinning_reports_drops_under_dense_sampling() {
        let g = grid();
        let mut rng = Rng::seed_from(3);
        let (faults, dropped) = sample_one_local(&g, 0.3, 1, &mut rng);
        assert!(dropped > 0, "30% density must force drops");
        assert!(is_one_local(&g, &faults));
    }

    #[test]
    fn clustered_column_is_one_local() {
        let g = grid();
        let faults = clustered_column(&g, 5, 2, 1, 4);
        assert_eq!(faults.len(), 4);
        assert!(is_one_local(&g, &faults));
        assert!(faults.contains(&g.node(5, 2)));
        assert!(faults.contains(&g.node(5, 5)));
    }

    #[test]
    #[should_panic(expected = "spacing 0")]
    fn clustered_column_rejects_zero_spacing() {
        let g = grid();
        let _ = clustered_column(&g, 5, 2, 0, 2);
    }

    /// A one-wide grid: a single-node base graph, the degenerate end of
    /// the placement APIs. Every closed neighborhood is a singleton, so
    /// *any* fault set is 1-local, iid sampling never needs thinning,
    /// and the clustered column (the only column) is accepted.
    #[test]
    fn degenerate_one_wide_grid() {
        let g = LayeredGraph::new(BaseGraph::from_edges(1, &[]), 6);
        assert_eq!(g.width(), 1);
        // Saturate every layer: still 1-local.
        let all: HashSet<_> = g.nodes().collect();
        assert!(is_one_local(&g, &all));
        // Dense sampling never drops a node.
        let mut rng = Rng::seed_from(2);
        let (faults, dropped) = sample_one_local(&g, 0.9, 1, &mut rng);
        assert_eq!(dropped, 0);
        assert!(faults.iter().all(|n| n.layer >= 1));
        // The only column stacks fine.
        let stack = clustered_column(&g, 0, 0, 1, 6);
        assert_eq!(stack.len(), 6);
        assert!(is_one_local(&g, &stack));
    }

    /// `min_layer` edge cases: the thinning preserves the sampling
    /// invariant (it only removes nodes), `min_layer = 0` permits
    /// layer-0 faults, and a `min_layer` beyond the grid yields the
    /// empty set.
    #[test]
    fn min_layer_is_preserved_by_thinning_and_saturates() {
        let g = grid();
        for min_layer in [0usize, 1, 3] {
            let mut rng = Rng::seed_from(9);
            let (faults, _) = sample_one_local(&g, 0.3, min_layer, &mut rng);
            assert!(
                faults.iter().all(|n| n.layer as usize >= min_layer),
                "min_layer {min_layer}"
            );
        }
        let mut rng = Rng::seed_from(9);
        assert!(sample_iid(&g, 0.9, g.layer_count(), &mut rng).is_empty());
        let (faults, dropped) = sample_one_local(&g, 0.9, g.layer_count() + 5, &mut rng);
        assert!(faults.is_empty());
        assert_eq!(dropped, 0);
    }

    /// The thinning is a pure function of the sampled set — re-running
    /// it on the same sample removes the same nodes (the documented
    /// scan-order drop rule, not a "sampling order" that a `HashSet`
    /// could not retain anyway).
    #[test]
    fn thinning_is_deterministic_in_the_sampled_set() {
        let g = grid();
        for seed in 0..8u64 {
            let (a, da) = sample_one_local(&g, 0.25, 1, &mut Rng::seed_from(seed));
            let (b, db) = sample_one_local(&g, 0.25, 1, &mut Rng::seed_from(seed));
            assert_eq!(a, b, "seed {seed}");
            assert_eq!(da, db, "seed {seed}");
        }
    }

    /// Boundary columns: same-column stacks are 1-local on *every*
    /// column, including the replicated-end copies that are adjacent to
    /// each other in the base graph — and mixing the two end copies on
    /// the *same* layer is exactly what 1-locality forbids.
    #[test]
    fn clustered_column_accepts_boundary_columns() {
        let g = grid();
        for v in [0usize, 1, g.width() - 2, g.width() - 1] {
            let faults = clustered_column(&g, v, 1, 1, 4);
            assert!(is_one_local(&g, &faults), "column {v}");
        }
        // f = 0: empty, vacuously 1-local, no layer-bound interaction.
        assert!(clustered_column(&g, 0, g.layer_count() + 7, 1, 0).is_empty());
        // start_layer 0 is allowed (outside the Thm 1.2 setting).
        assert!(clustered_column(&g, 3, 0, 2, 3).contains(&g.node(3, 0)));
        // The two end copies on one layer violate 1-locality.
        let ends: HashSet<_> = [g.node(0, 2), g.node(1, 2)].into_iter().collect();
        assert!(!is_one_local(&g, &ends));
    }

    /// The placement APIs are graph-generic: 1-locality on non-grid
    /// families is judged by the *family's* adjacency (torus wrap edges,
    /// hypercube bit-flips, supernode uplinks), not an assumed line.
    #[test]
    fn placement_is_graph_generic_on_families() {
        use trix_topology::families;

        // Torus: the wrap edge joins index-distant columns 0 and cols-1
        // on each row — same-layer faults there are NOT 1-local, even
        // though an index-line view would call them distant.
        let torus = LayeredGraph::new(families::torus(3, 5).into_graph(), 6);
        let wrap: HashSet<_> = [torus.node(0, 2), torus.node(4, 2)].into_iter().collect();
        assert!(torus.base().neighbors(0).contains(&4));
        assert!(!is_one_local(&torus, &wrap));

        // Hypercube: bit-flip neighbors clash, antipodal nodes do not.
        let cube = LayeredGraph::new(families::hypercube(3).into_graph(), 4);
        let flip: HashSet<_> = [cube.node(0, 1), cube.node(4, 1)].into_iter().collect();
        assert!(!is_one_local(&cube, &flip));
        let antipodal: HashSet<_> = [cube.node(0, 1), cube.node(7, 1)].into_iter().collect();
        assert!(is_one_local(&cube, &antipodal));

        // Supernode overlay: a leaf and its *backup* supernode share a
        // closed neighborhood — 1-locality must see the uplink.
        let overlay = LayeredGraph::new(families::supernode_overlay(4, 2).into_graph(), 5);
        let leaf = 4; // first leaf of supernode 0; backup is supernode 1
        assert!(overlay.base().neighbors(leaf).contains(&1));
        let uplink: HashSet<_> = [overlay.node(leaf, 2), overlay.node(1, 2)]
            .into_iter()
            .collect();
        assert!(!is_one_local(&overlay, &uplink));

        // Sampling + thinning produce 1-local sets on every family, and
        // clustered columns stay 1-local (one fault per layer).
        for g in [&torus, &cube, &overlay] {
            for seed in 0..4 {
                let mut rng = Rng::seed_from(seed);
                let (faults, _) = sample_one_local(g, 0.15, 1, &mut rng);
                assert!(is_one_local(g, &faults), "seed {seed}");
            }
            let stack = clustered_column(g, g.width() - 1, 1, 1, 3);
            assert!(is_one_local(g, &stack));
        }
    }

    #[test]
    #[should_panic(expected = "base node index out of range")]
    fn clustered_column_rejects_out_of_range_columns() {
        let g = grid();
        let _ = clustered_column(&g, g.width(), 1, 1, 1);
    }

    #[test]
    #[should_panic(expected = "placement exceeds layer count")]
    fn clustered_column_rejects_layer_overflow() {
        let g = grid();
        let _ = clustered_column(&g, 4, g.layer_count() - 1, 1, 2);
    }
}
