//! Property test: the shared skew definitions in `trix_obs::defs` against
//! brute-force folds that read the layered graph only through
//! `LayeredGraph::successors` and `LayeredGraph::predecessors`.
//!
//! The streaming-versus-batch properties (`prop.rs` here and the
//! workspace's `tests/streaming_equivalence.rs`) route both sides through
//! `defs`, so they cannot see a change inside it. This test can: the
//! `defs` folds run over masked dense rows and flat pair lists, while
//! every fold below looks times up node by node, visits its pairs in a
//! different order and a different way (all ordered pairs, edges found
//! from the target side), and folds with `Duration::max`. A maximum over
//! the same set of `|a − b|` values is exact in any order.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use trix_obs::defs::{self, MaskedRows, SkewPairs};
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

/// A pair whose times are the same infinity: `∞ − ∞` is NaN, which
/// `Time` subtraction rejects in debug builds, in `defs` as here.
struct SharedInfinity;

fn fold(worst: &mut Option<Duration>, a: Time, b: Time) -> Result<(), SharedInfinity> {
    if a == b && !a.is_finite() {
        return Err(SharedInfinity);
    }
    let skew = (a - b).abs();
    *worst = Some(worst.map_or(skew, |w| w.max(skew)));
    Ok(())
}

/// `L_ℓ` over every ordered adjacent pair of the layer.
fn brute_intra(
    adj: &[Vec<bool>],
    layer: u32,
    time: &impl Fn(NodeId) -> Option<Time>,
) -> Result<Option<Duration>, SharedInfinity> {
    let mut worst = None;
    for (v, row) in adj.iter().enumerate() {
        for (w, _) in row.iter().enumerate().filter(|(_, &a)| a) {
            let a = time(NodeId::new(v as u32, layer));
            let b = time(NodeId::new(w as u32, layer));
            if let (Some(a), Some(b)) = (a, b) {
                fold(&mut worst, a, b)?;
            }
        }
    }
    Ok(worst)
}

/// `L_{ℓ,ℓ+1}` over the in-edges of every node of layer `ℓ + 1`.
fn brute_inter(
    g: &LayeredGraph,
    layer: usize,
    upper: &impl Fn(NodeId) -> Option<Time>,
    lower: &impl Fn(NodeId) -> Option<Time>,
) -> Result<Option<Duration>, SharedInfinity> {
    let mut worst = None;
    for w in 0..g.width() {
        let to = g.node(w, layer + 1);
        for (from, _) in g.predecessors(to) {
            if let (Some(a), Some(b)) = (upper(from), lower(to)) {
                fold(&mut worst, a, b)?;
            }
        }
    }
    Ok(worst)
}

/// Global skew as the worst difference over all pairs of the layer. Pairs
/// sharing an infinity (a node with itself, among others) are skipped:
/// they never hold the spread unless every time of the layer is that one
/// infinity, where `max − min` is `∞ − ∞` and the layer is skipped.
fn brute_spread(
    width: usize,
    layer: u32,
    time: &impl Fn(NodeId) -> Option<Time>,
) -> Result<Option<Duration>, SharedInfinity> {
    let mut worst = None;
    let mut any = false;
    for v in 0..width as u32 {
        for w in 0..width as u32 {
            if let (Some(a), Some(b)) = (time(NodeId::new(v, layer)), time(NodeId::new(w, layer))) {
                any = true;
                let _ = fold(&mut worst, a, b);
            }
        }
    }
    if any && worst.is_none() {
        return Err(SharedInfinity);
    }
    Ok(worst)
}

fn bits(d: Option<Duration>) -> Option<u64> {
    d.map(|d| d.as_f64().to_bits())
}

/// A base graph from one of four families, growing with `size`.
fn base_graph(family: usize, size: usize) -> BaseGraph {
    match family {
        0 => BaseGraph::line_with_replicated_ends(2 + 3 * size),
        1 => families::torus(3 + size, 4 + size).into_graph(),
        2 => families::hypercube(2 + size as u32).into_graph(),
        _ => families::supernode_overlay(3 + size, 1 + size).into_graph(),
    }
}

/// Node-by-node time lookup: `None` for faulty or unfired nodes.
fn lookup<'a>(
    g: &'a LayeredGraph,
    times: &'a [Option<Time>],
    faulty_at: &'a [bool],
) -> impl Fn(NodeId) -> Option<Time> + 'a {
    move |n| {
        let i = g.node_index(n);
        if faulty_at[i] {
            None
        } else {
            times[i]
        }
    }
}

/// Compares every `defs` fold with its brute-force fold on every layer
/// of `g`. `upper` and `lower` hold one time per node (layer-major) and
/// `faulty_at` one flag per node. A fold is skipped only where a valid
/// pair shares an infinity.
fn check_layers(
    g: &LayeredGraph,
    upper: &[Option<Time>],
    lower: &[Option<Time>],
    faulty_at: &[bool],
) -> Result<(), TestCaseError> {
    let (width, layers) = (g.width(), g.layer_count());
    let masked = |times: &[Option<Time>]| {
        let mut rows = MaskedRows::new(width, layers);
        for layer in 0..layers {
            let span = layer * width..(layer + 1) * width;
            rows.set(layer, &times[span.clone()], &faulty_at[span]);
        }
        rows
    };
    let (upper_rows, lower_rows) = (masked(upper), masked(lower));
    let (up, lo) = (lookup(g, upper, faulty_at), lookup(g, lower, faulty_at));
    let adj = adjacency(g);
    let pairs = SkewPairs::new(g.base());
    for layer in 0..layers {
        let row = upper_rows.row(layer);
        if let Ok(want) = brute_intra(&adj, layer as u32, &up) {
            prop_assert_eq!(
                bits(defs::worst_intra_layer(&pairs, row)),
                bits(want),
                "intra, layer {}",
                layer
            );
        }
        if layer + 1 < layers {
            if let Ok(want) = brute_inter(g, layer, &up, &lo) {
                prop_assert_eq!(
                    bits(defs::worst_inter_layer(
                        &pairs,
                        row,
                        lower_rows.row(layer + 1)
                    )),
                    bits(want),
                    "inter, layer {}",
                    layer
                );
            }
        }
        if let Ok(want) = brute_spread(width, layer as u32, &up) {
            prop_assert_eq!(
                bits(defs::layer_spread(row)),
                bits(want),
                "spread, layer {}",
                layer
            );
        }
    }
    Ok(())
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
        let g = LayeredGraph::new(base_graph(family, size), layers);
        let mut rng = Rng::seed_from(seed);
        let mut row = || -> Vec<Option<Time>> {
            (0..g.node_count())
                .map(|_| {
                    (!rng.bernoulli(missing))
                        .then(|| Time::from(rng.usize_below(40) as f64 * 0.75 + 1e3))
                })
                .collect()
        };
        let (upper, lower) = (row(), row());
        let faulty_at: Vec<bool> = (0..g.node_count()).map(|_| rng.bernoulli(faulty)).collect();
        check_layers(&g, &upper, &lower, &faulty_at)?;
    }

    /// The same comparison at the edges of the row API: times drawn from
    /// `±0.0`, `±∞` and lattices around origins up to 1e22 (at 1e17 and
    /// above the `κ/4` steps round onto each other), with whole rows
    /// missing or faulty, so rows end up fully masked.
    #[test]
    fn defs_folds_equal_brute_force_folds_at_the_edges(
        family in 0usize..4,
        size in 0usize..3,
        layers in 2usize..5,
        seed in any::<u64>(),
        special in 0.0f64..0.4,
        missing in 0.0f64..0.3,
        blank in 0.0f64..0.25,
    ) {
        const ORIGINS: [f64; 6] = [0.0, -1e3, 1e17, -1e17, 3e17, 1e22];
        const SPECIAL: [f64; 4] = [0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY];
        let g = LayeredGraph::new(base_graph(family, size), layers);
        let mut rng = Rng::seed_from(seed);
        let origin = ORIGINS[rng.usize_below(ORIGINS.len())];
        let width = g.width();
        let mut matrix = || -> Vec<Option<Time>> {
            let mut times = Vec::with_capacity(g.node_count());
            for _ in 0..layers {
                let blank_row = rng.bernoulli(blank);
                for _ in 0..width {
                    let t = if rng.bernoulli(special) {
                        SPECIAL[rng.usize_below(SPECIAL.len())]
                    } else {
                        origin + rng.usize_below(40) as f64 * 0.75
                    };
                    times.push((!blank_row && !rng.bernoulli(missing)).then(|| Time::from(t)));
                }
            }
            times
        };
        let (upper, lower) = (matrix(), matrix());
        let mut faulty_at = Vec::with_capacity(g.node_count());
        for _ in 0..layers {
            let all_faulty = rng.bernoulli(blank / 2.0);
            faulty_at.extend((0..width).map(|_| all_faulty || rng.bernoulli(0.1)));
        }
        check_layers(&g, &upper, &lower, &faulty_at)?;
    }
}
