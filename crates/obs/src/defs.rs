//! The paper's skew definitions (§2, "Output and Skew") as pure folds
//! over a time lookup.
//!
//! Both consumers — the post-hoc analyzer (`trix_analysis::skew`, which
//! looks times up in a full `PulseTrace`) and the online monitor
//! ([`crate::StreamingSkew`], which looks them up in its `O(nodes)` pulse
//! fronts) — delegate to these functions, so the two *cannot drift*: they
//! iterate the same edges in the same order and fold with the same `max`.
//!
//! Lookups return `None` for nodes that are faulty or did not fire; the
//! folds skip those pairs, exactly as the paper restricts skew to correct
//! nodes.

use trix_time::{Duration, Time};
use trix_topology::{CsrGraph, NodeId};

/// Intra-layer local skew `L_ℓ` of one layer for one pulse: worst
/// `|t_v − t_w|` over base-graph edges `{v, w}`, with both endpoints'
/// times drawn from `time`.
///
/// Returns `None` if no adjacent pair has both times.
pub fn worst_intra_layer(
    base: &CsrGraph,
    layer: usize,
    mut time: impl FnMut(NodeId) -> Option<Time>,
) -> Option<Duration> {
    let layer = layer as u32;
    let mut worst: Option<Duration> = None;
    for (a, b) in base.edges() {
        let (Some(ta), Some(tb)) = (
            time(NodeId::new(a as u32, layer)),
            time(NodeId::new(b as u32, layer)),
        ) else {
            continue;
        };
        let skew = (ta - tb).abs();
        worst = Some(worst.map_or(skew, |w| w.max(skew)));
    }
    worst
}

/// Inter-layer local skew `L_{ℓ,ℓ+1}` for one pulse pair: worst
/// `|t^{k+1}_{v,ℓ} − t^k_{w,ℓ+1}|` over grid edges `((v,ℓ), (w,ℓ+1))`
/// of a graph with `layer_count` layers over `base`.
///
/// `upper` supplies the pulse-`k+1` times on layer `layer`; `lower` the
/// pulse-`k` times on layer `layer + 1` (consecutive pulse indices,
/// because each layer lags one period). Each `(v, ℓ)` is paired with its
/// successors in `LayeredGraph::successors` order: `(v, ℓ+1)` first,
/// then its sorted base neighbors. Returns `None` for the last layer or
/// when no edge has both times.
pub fn worst_inter_layer(
    base: &CsrGraph,
    layer_count: usize,
    layer: usize,
    mut upper: impl FnMut(NodeId) -> Option<Time>,
    mut lower: impl FnMut(NodeId) -> Option<Time>,
) -> Option<Duration> {
    if layer + 1 >= layer_count {
        return None;
    }
    let (from_layer, to_layer) = (layer as u32, layer as u32 + 1);
    let mut worst: Option<Duration> = None;
    for v in 0..base.node_count() {
        let Some(t_from) = upper(NodeId::new(v as u32, from_layer)) else {
            continue;
        };
        for &x in std::iter::once(&v).chain(base.neighbors(v)) {
            let Some(t_to) = lower(NodeId::new(x as u32, to_layer)) else {
                continue;
            };
            let skew = (t_from - t_to).abs();
            worst = Some(worst.map_or(skew, |w| w.max(skew)));
        }
    }
    worst
}

/// Global skew of one layer for one pulse: the spread `max − min` of the
/// available times over *all* `width` positions of the layer, adjacent
/// or not (Ψ⁰ in the paper's potential notation).
pub fn layer_spread(
    width: usize,
    layer: usize,
    mut time: impl FnMut(NodeId) -> Option<Time>,
) -> Option<Duration> {
    let layer = layer as u32;
    let mut min: Option<Time> = None;
    let mut max: Option<Time> = None;
    for v in 0..width {
        let Some(t) = time(NodeId::new(v as u32, layer)) else {
            continue;
        };
        min = Some(min.map_or(t, |m| m.min(t)));
        max = Some(max.map_or(t, |m| m.max(t)));
    }
    Some(max? - min?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use trix_topology::{BaseGraph, LayeredGraph};

    fn setup() -> LayeredGraph {
        LayeredGraph::new(BaseGraph::cycle(4), 3)
    }

    #[test]
    fn intra_layer_worst_pair() {
        let g = setup();
        // t = v on layer 1; worst cycle edge is the wraparound (0, 3).
        let s = worst_intra_layer(g.base().csr(), 1, |n| Some(Time::from(n.v as f64)));
        assert_eq!(s, Some(Duration::from(3.0)));
    }

    #[test]
    fn missing_nodes_are_skipped() {
        let g = setup();
        let s = worst_intra_layer(g.base().csr(), 0, |n| {
            (n.v != 3).then(|| Time::from(n.v as f64 * 10.0))
        });
        // Without node 3, the worst remaining edge is (1, 2) or (0, 1): 10.
        assert_eq!(s, Some(Duration::from(10.0)));
        assert_eq!(worst_intra_layer(g.base().csr(), 0, |_| None), None);
    }

    #[test]
    fn inter_layer_compares_consecutive_pulses() {
        let g = setup();
        // Upper (pulse k+1, layer 0): t = v + 100; lower (pulse k,
        // layer 1): t = v. Differences are 100 + (v − w); worst over grid
        // edges = 103 (wraparound neighbor pair).
        let s = worst_inter_layer(
            g.base().csr(),
            g.layer_count(),
            0,
            |n| Some(Time::from(n.v as f64 + 100.0)),
            |n| Some(Time::from(n.v as f64)),
        );
        assert_eq!(s, Some(Duration::from(103.0)));
        // Last layer has no successors.
        assert_eq!(
            worst_inter_layer(
                g.base().csr(),
                g.layer_count(),
                2,
                |_| Some(Time::ZERO),
                |_| Some(Time::ZERO)
            ),
            None
        );
    }

    #[test]
    fn layer_spread_is_max_minus_min() {
        let g = setup();
        let s = layer_spread(g.width(), 2, |n| Some(Time::from((n.v as f64 - 1.5).abs())));
        assert_eq!(s, Some(Duration::from(1.0)));
        assert_eq!(layer_spread(g.width(), 2, |_| None), None);
    }
}
