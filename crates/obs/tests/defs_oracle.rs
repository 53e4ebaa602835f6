//! Property test: the shared skew definitions in `trix_obs::defs` against
//! brute-force folds that read the layered graph only through
//! `LayeredGraph::successors` and `LayeredGraph::predecessors`.
//!
//! The streaming-versus-batch properties (`prop.rs` here and the
//! workspace's `tests/streaming_equivalence.rs`) route both sides through
//! `defs`, so they cannot see a change inside it. This test can: every
//! fold below visits its pairs in a different order and a different way
//! (all ordered pairs, edges found from the target side), and `max` over
//! the same set of `|a − b|` values is exact in any order.

use proptest::prelude::*;
use trix_obs::defs;
use trix_sim::Rng;
use trix_time::{Duration, Time};
use trix_topology::{families, BaseGraph, LayeredGraph, NodeId};

/// Base-graph adjacency read off the successor lists of layer 0: `w` is a
/// neighbor of `v` when `(w, 1)` succeeds `(v, 0)` and `w ≠ v`.
fn adjacency(g: &LayeredGraph) -> Vec<Vec<bool>> {
    let mut adj = vec![vec![false; g.width()]; g.width()];
    for (v, row) in adj.iter_mut().enumerate() {
        for (succ, _) in g.successors(g.node(v, 0)) {
            if succ.v as usize != v {
                row[succ.v as usize] = true;
            }
        }
    }
    adj
}

fn fold(worst: &mut Option<Duration>, a: Time, b: Time) {
    let skew = (a - b).abs();
    *worst = Some(worst.map_or(skew, |w| w.max(skew)));
}

/// `L_ℓ` over every ordered adjacent pair of the layer.
fn brute_intra(
    adj: &[Vec<bool>],
    layer: u32,
    time: &impl Fn(NodeId) -> Option<Time>,
) -> Option<Duration> {
    let mut worst = None;
    for (v, row) in adj.iter().enumerate() {
        for (w, _) in row.iter().enumerate().filter(|(_, &a)| a) {
            let a = time(NodeId::new(v as u32, layer));
            let b = time(NodeId::new(w as u32, layer));
            if let (Some(a), Some(b)) = (a, b) {
                fold(&mut worst, a, b);
            }
        }
    }
    worst
}

/// `L_{ℓ,ℓ+1}` over the in-edges of every node of layer `ℓ + 1`.
fn brute_inter(
    g: &LayeredGraph,
    layer: usize,
    upper: &impl Fn(NodeId) -> Option<Time>,
    lower: &impl Fn(NodeId) -> Option<Time>,
) -> Option<Duration> {
    if layer + 1 >= g.layer_count() {
        return None;
    }
    let mut worst = None;
    for w in 0..g.width() {
        let to = g.node(w, layer + 1);
        for (from, _) in g.predecessors(to) {
            if let (Some(a), Some(b)) = (upper(from), lower(to)) {
                fold(&mut worst, a, b);
            }
        }
    }
    worst
}

/// Global skew as the worst difference over all pairs of the layer.
fn brute_spread(
    width: usize,
    layer: u32,
    time: &impl Fn(NodeId) -> Option<Time>,
) -> Option<Duration> {
    let mut worst = None;
    for v in 0..width as u32 {
        for w in 0..width as u32 {
            if let (Some(a), Some(b)) = (time(NodeId::new(v, layer)), time(NodeId::new(w, layer))) {
                fold(&mut worst, a, b);
            }
        }
    }
    worst
}

fn bits(d: Option<Duration>) -> Option<u64> {
    d.map(|d| d.as_f64().to_bits())
}

proptest! {
    /// On the paper grid, tori, hypercubes and supernode overlays, with
    /// random missing and faulty slots and times on a coarse lattice (so
    /// pairs tie), every `defs` fold equals its brute-force fold bit for
    /// bit on every layer.
    #[test]
    fn defs_folds_equal_brute_force_folds(
        family in 0usize..4,
        size in 0usize..4,
        layers in 2usize..5,
        seed in any::<u64>(),
        missing in 0.0f64..0.5,
        faulty in 0.0f64..0.2,
    ) {
        let base = match family {
            0 => BaseGraph::line_with_replicated_ends(2 + 3 * size),
            1 => families::torus(3 + size, 4 + size).into_graph(),
            2 => families::hypercube(2 + size as u32).into_graph(),
            _ => families::supernode_overlay(3 + size, 1 + size).into_graph(),
        };
        let g = LayeredGraph::new(base, layers);
        let mut rng = Rng::seed_from(seed);
        let mut row = || -> Vec<Option<Time>> {
            (0..g.node_count())
                .map(|_| {
                    (!rng.bernoulli(missing))
                        .then(|| Time::from(rng.usize_below(40) as f64 * 0.75 + 1e3))
                })
                .collect()
        };
        let (upper_row, lower_row) = (row(), row());
        let faulty_at: Vec<bool> = (0..g.node_count()).map(|_| rng.bernoulli(faulty)).collect();
        let lookup = |times: Vec<Option<Time>>| {
            let (faulty_at, g) = (&faulty_at, &g);
            move |n: NodeId| {
                let i = g.node_index(n);
                if faulty_at[i] {
                    None
                } else {
                    times[i]
                }
            }
        };
        let (upper, lower) = (lookup(upper_row), lookup(lower_row));
        let adj = adjacency(&g);
        let csr = g.base().csr();
        for layer in 0..g.layer_count() {
            prop_assert_eq!(
                bits(defs::worst_intra_layer(csr, layer, &upper)),
                bits(brute_intra(&adj, layer as u32, &upper)),
                "intra, layer {}", layer
            );
            prop_assert_eq!(
                bits(defs::worst_inter_layer(csr, g.layer_count(), layer, &upper, &lower)),
                bits(brute_inter(&g, layer, &upper, &lower)),
                "inter, layer {}", layer
            );
            prop_assert_eq!(
                bits(defs::layer_spread(g.width(), layer, &upper)),
                bits(brute_spread(g.width(), layer as u32, &upper)),
                "spread, layer {}", layer
            );
        }
    }
}
