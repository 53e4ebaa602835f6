//! Skew metrics (paper §2, "Output and Skew").
//!
//! The paper defines, for correct nodes only:
//!
//! * `L_ℓ`  — intra-layer local skew: worst `|t^k_{v,ℓ} − t^k_{w,ℓ}|` over
//!   base-graph edges `{v, w}`;
//! * `L_{ℓ,ℓ+1}` — inter-layer local skew: worst
//!   `|t^{k+1}_{v,ℓ} − t^k_{w,ℓ+1}|` over grid edges `((v,ℓ), (w,ℓ+1))`
//!   (consecutive pulse indices, because each layer lags one period);
//! * `L = sup_ℓ max(L_ℓ, L_{ℓ,ℓ+1})` — the full local skew;
//! * the global skew — worst same-layer pulse-time difference over *all*
//!   pairs, adjacent or not.
//!
//! The pair lists, the row masking and the worst-pair folds live in
//! `trix_obs::defs`, shared with the streaming monitor
//! (`trix_obs::StreamingSkew`): this module masks rows of the trace, one
//! per call, and `defs` folds them, so the post-hoc and online
//! computations cannot drift.

use trix_obs::defs::{self, MaskedRows, SkewPairs};
use trix_sim::PulseTrace;
use trix_time::Duration;
use trix_topology::LayeredGraph;

/// Pulse `k`'s row of `layer`, masked: faulty and unfired nodes drop out.
fn masked(trace: &PulseTrace, k: usize, layer: usize) -> MaskedRows {
    let mut row = MaskedRows::new(trace.width(), 1);
    row.set(0, trace.row(k, layer), trace.faulty_row(layer));
    row
}

fn intra(pairs: &SkewPairs, trace: &PulseTrace, k: usize, layer: usize) -> Option<Duration> {
    defs::worst_intra_layer(pairs, masked(trace, k, layer).row(0))
}

fn inter(
    g: &LayeredGraph,
    pairs: &SkewPairs,
    trace: &PulseTrace,
    k: usize,
    layer: usize,
) -> Option<Duration> {
    if k + 1 >= trace.pulses() || layer + 1 >= g.layer_count() {
        return None;
    }
    let upper = masked(trace, k + 1, layer);
    let lower = masked(trace, k, layer + 1);
    defs::worst_inter_layer(pairs, upper.row(0), lower.row(0))
}

/// Intra-layer local skew `L_ℓ` of layer `layer` for pulse `k`.
///
/// Returns `None` if no adjacent correct pair fired.
pub fn intra_layer_skew(
    g: &LayeredGraph,
    trace: &PulseTrace,
    k: usize,
    layer: usize,
) -> Option<Duration> {
    intra(&SkewPairs::new(g.base()), trace, k, layer)
}

/// Inter-layer local skew `L_{ℓ,ℓ+1}`: worst
/// `|t^{k+1}_{v,ℓ} − t^k_{w,ℓ+1}|` over grid edges, for pulse `k`
/// (requires pulse `k+1` to be recorded; `None` for the last layer).
pub fn inter_layer_skew(
    g: &LayeredGraph,
    trace: &PulseTrace,
    k: usize,
    layer: usize,
) -> Option<Duration> {
    inter(g, &SkewPairs::new(g.base()), trace, k, layer)
}

/// The maximum intra-layer skew over all layers and the given pulses —
/// the quantity bounded by Theorems 1.1–1.3.
pub fn max_intra_layer_skew(
    g: &LayeredGraph,
    trace: &PulseTrace,
    k_range: core::ops::Range<usize>,
) -> Duration {
    let pairs = SkewPairs::new(g.base());
    let mut worst = Duration::ZERO;
    for k in k_range {
        for layer in 0..g.layer_count() {
            if let Some(s) = intra(&pairs, trace, k, layer) {
                worst = worst.max(s);
            }
        }
    }
    worst
}

/// The full local skew `L` (intra- and inter-layer) over the given pulses
/// — the quantity bounded by Theorem 1.4 / Corollary 1.5.
///
/// The inter-layer component compares pulse `k+1` on layer `ℓ` with pulse
/// `k` on layer `ℓ+1`, with the nominal period `Λ` *not* subtracted — in a
/// converged execution consecutive pulses are exactly one period apart, so
/// this is the physically meaningful adjacency skew.
pub fn full_local_skew(
    g: &LayeredGraph,
    trace: &PulseTrace,
    k_range: core::ops::Range<usize>,
) -> Duration {
    let pairs = SkewPairs::new(g.base());
    let mut worst = max_intra_layer_skew(g, trace, k_range.clone());
    for k in k_range {
        for layer in 0..g.layer_count() {
            if let Some(s) = inter(g, &pairs, trace, k, layer) {
                worst = worst.max(s);
            }
        }
    }
    worst
}

/// Global skew of one layer and pulse: worst pulse-time difference over
/// all correct pairs (Ψ⁰ in the paper's potential notation).
pub fn global_skew(
    g: &LayeredGraph,
    trace: &PulseTrace,
    k: usize,
    layer: usize,
) -> Option<Duration> {
    debug_assert_eq!(g.width(), trace.width(), "trace of another graph");
    defs::layer_spread(masked(trace, k, layer).row(0))
}

/// Per-layer intra-layer skew series for one pulse (a "figure" series:
/// skew as a function of depth).
pub fn skew_by_layer(g: &LayeredGraph, trace: &PulseTrace, k: usize) -> Vec<Option<f64>> {
    let pairs = SkewPairs::new(g.base());
    (0..g.layer_count())
        .map(|l| intra(&pairs, trace, k, l).map(|d| d.as_f64()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use trix_sim::PulseTrace;
    use trix_time::Time;
    use trix_topology::BaseGraph;

    fn setup() -> (LayeredGraph, PulseTrace) {
        let g = LayeredGraph::new(BaseGraph::cycle(4), 3);
        let mut trace = PulseTrace::new(&g, 2);
        // Pulse 0: layer times with a known tilt.
        for n in g.nodes() {
            let t = 100.0 * n.layer as f64 + n.v as f64;
            trace.set_time(0, n, Some(Time::from(t)));
            trace.set_time(1, n, Some(Time::from(t + 100.0)));
        }
        (g, trace)
    }

    #[test]
    fn intra_layer_skew_finds_wraparound_pair() {
        let (g, trace) = setup();
        // Cycle edge (0, 3): |0 − 3| = 3 is the worst adjacent gap.
        assert_eq!(
            intra_layer_skew(&g, &trace, 0, 1),
            Some(Duration::from(3.0))
        );
    }

    #[test]
    fn global_skew_exceeds_local() {
        let (g, trace) = setup();
        assert_eq!(global_skew(&g, &trace, 0, 1), Some(Duration::from(3.0)));
        // Make one node an outlier; global catches it even though it is
        // not adjacent to the minimum.
        let mut trace = trace;
        trace.set_time(0, g.node(2, 1), Some(Time::from(150.0)));
        assert_eq!(global_skew(&g, &trace, 0, 1), Some(Duration::from(50.0)));
    }

    #[test]
    fn inter_layer_uses_consecutive_pulses() {
        let (g, trace) = setup();
        // t^{k+1}_{v,ℓ} = 100ℓ + v + 100; t^k_{w,ℓ+1} = 100(ℓ+1) + w.
        // Difference = v − w, worst over edges = 3 (wraparound).
        assert_eq!(
            inter_layer_skew(&g, &trace, 0, 0),
            Some(Duration::from(3.0))
        );
    }

    #[test]
    fn faulty_nodes_are_excluded() {
        let (g, mut trace) = setup();
        trace.set_time(0, g.node(3, 1), Some(Time::from(1e9)));
        trace.set_faulty(g.node(3, 1));
        // Worst remaining adjacent pair on the cycle: (0,1),(1,2): 1.
        assert_eq!(
            intra_layer_skew(&g, &trace, 0, 1),
            Some(Duration::from(1.0))
        );
    }

    #[test]
    fn max_and_full_skew_aggregate() {
        let (g, trace) = setup();
        assert_eq!(max_intra_layer_skew(&g, &trace, 0..2), Duration::from(3.0));
        assert_eq!(full_local_skew(&g, &trace, 0..2), Duration::from(3.0));
        let series = skew_by_layer(&g, &trace, 0);
        assert_eq!(series, vec![Some(3.0); 3]);
    }
}
