//! The potential functions of the analysis (paper Definition 4.1).
//!
//! For nodes `v, w` of the base graph and level `s ∈ ℕ`:
//!
//! ```text
//! ψ^s_{v,w}(ℓ) = t_{v,ℓ} − t_{w,ℓ} − 4sκ·d(v,w)        Ψ^s(ℓ) = max_{v,w} ψ^s_{v,w}(ℓ)
//! ξ^s_{v,w}(ℓ) = t_{v,ℓ} − t_{w,ℓ} − (4s−2)κ·d(v,w)    Ξ^s(ℓ) = max_{v,w} ξ^s_{v,w}(ℓ)
//! ```
//!
//! `Ψ⁰` is the global skew; `Ψ^s ≤ B` implies `L_ℓ ≤ B + 4sκ`
//! (Observation 4.2). The proofs bound `Ψ^s ≤ 2^{2−s}·κD` level by level
//! (Lemma 4.25 / Theorem 1.1); the `cor423_global` experiment plots these
//! trajectories.

use trix_core::Params;
use trix_sim::PulseTrace;
use trix_time::Duration;
use trix_topology::LayeredGraph;

/// Evaluates `Ψ^s(ℓ)` on a recorded pulse `k` (correct nodes only).
///
/// Returns `None` if fewer than two correct nodes fired on the layer.
pub fn psi(
    g: &LayeredGraph,
    trace: &PulseTrace,
    params: &Params,
    k: usize,
    layer: usize,
    s: u32,
) -> Option<Duration> {
    potential(g, trace, params, k, layer, 4.0 * s as f64)
}

/// Evaluates `Ξ^s(ℓ)` on a recorded pulse `k` (correct nodes only).
pub fn xi(
    g: &LayeredGraph,
    trace: &PulseTrace,
    params: &Params,
    k: usize,
    layer: usize,
    s: u32,
) -> Option<Duration> {
    assert!(s >= 1, "Ξ^s is defined for s ≥ 1");
    potential(g, trace, params, k, layer, 4.0 * s as f64 - 2.0)
}

fn potential(
    g: &LayeredGraph,
    trace: &PulseTrace,
    params: &Params,
    k: usize,
    layer: usize,
    kappas_per_hop: f64,
) -> Option<Duration> {
    let kappa = params.kappa();
    let mut best: Option<Duration> = None;
    let times: Vec<(usize, trix_time::Time)> = trace.layer_times(k, layer).collect();
    if times.len() < 2 {
        return None;
    }
    // The max runs over all pairs, `v = w` included (Definition 4.1), so
    // the zero pair keeps every level at or above 0.
    for &(v, tv) in &times {
        for &(w, tw) in &times {
            let dist = g.base().distance(v, w) as f64;
            let value = (tv - tw) - kappa * (kappas_per_hop * dist);
            best = Some(best.map_or(value, |b| b.max(value)));
        }
    }
    best
}

/// Observation 4.2 as a check: `L_ℓ ≤ Ψ^s(ℓ) + 4sκ` for every `s`.
pub fn observation_4_2_holds(
    g: &LayeredGraph,
    trace: &PulseTrace,
    params: &Params,
    k: usize,
    layer: usize,
    s_max: u32,
) -> bool {
    let Some(local) = crate::intra_layer_skew(g, trace, k, layer) else {
        return true;
    };
    for s in 0..=s_max {
        let Some(p) = psi(g, trace, params, k, layer, s) else {
            return true;
        };
        let bound = p + params.kappa() * (4.0 * s as f64);
        if local > bound + Duration::from(1e-9) {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use trix_time::Time;
    use trix_topology::BaseGraph;

    fn params() -> Params {
        Params::with_standard_lambda(Duration::from(2000.0), Duration::from(1.0), 1.0001)
    }

    fn setup(tilt: f64) -> (LayeredGraph, PulseTrace) {
        let g = LayeredGraph::new(BaseGraph::path(5), 2);
        let mut trace = PulseTrace::new(&g, 1);
        for n in g.nodes() {
            trace.set_time(0, n, Some(Time::from(tilt * n.v as f64)));
        }
        (g, trace)
    }

    #[test]
    fn psi_zero_equals_global_spread() {
        let (g, trace) = setup(3.0);
        let p = params();
        // Max difference = 4 hops * 3 = 12 at distance discount 0.
        assert_eq!(psi(&g, &trace, &p, 0, 0, 0), Some(Duration::from(12.0)));
    }

    #[test]
    fn psi_discounts_by_distance() {
        let (g, trace) = setup(12.0);
        let p = params();
        let k = p.kappa().as_f64();
        // Per-hop tilt 12 vs discount 4κ ≈ 9.6: every extra hop gains, so
        // the best pair is the extreme one, 4 hops apart: 4·(12 − 4κ).
        let expected = 4.0 * (12.0 - 4.0 * k);
        let got = psi(&g, &trace, &p, 0, 0, 1).unwrap().as_f64();
        assert!((got - expected).abs() < 1e-9, "got {got}, want {expected}");
    }

    #[test]
    fn xi_uses_4s_minus_2() {
        let (g, trace) = setup(6.0);
        let p = params();
        let k = p.kappa().as_f64();
        // Per-hop tilt 6 beats Ξ¹'s discount (4·1−2)κ ≈ 4.8 but not Ψ¹'s
        // 4κ: Ξ¹ is the extreme pair's 4·(6 − 2κ), Ψ¹ the zero pair's 0.
        let expected = 4.0 * (6.0 - 2.0 * k);
        let got = xi(&g, &trace, &p, 0, 0, 1).unwrap().as_f64();
        assert!((got - expected).abs() < 1e-9, "got {got}, want {expected}");
        assert_eq!(psi(&g, &trace, &p, 0, 0, 1), Some(Duration::ZERO));
    }

    #[test]
    fn observation_4_2_on_synthetic_trace() {
        let (g, trace) = setup(1.0);
        let p = params();
        assert!(observation_4_2_holds(&g, &trace, &p, 0, 0, 5));
    }

    /// Definition 4.1's max includes `ψ_{v,v} = 0`: when every
    /// off-diagonal ψ is negative (a tilt of 1 per hop against a discount
    /// of 4κ per hop), Ψ¹ and Ξ¹ read exactly zero, never below it.
    #[test]
    fn potentials_include_the_zero_pair() {
        let (g, trace) = setup(1.0);
        let p = params();
        assert_eq!(psi(&g, &trace, &p, 0, 0, 1), Some(Duration::ZERO));
        assert_eq!(xi(&g, &trace, &p, 0, 0, 1), Some(Duration::ZERO));
    }

    #[test]
    fn potentials_need_two_correct_nodes() {
        let g = LayeredGraph::new(BaseGraph::path(3), 1);
        let mut trace = PulseTrace::new(&g, 1);
        trace.set_time(0, g.node(1, 0), Some(Time::from(5.0)));
        assert_eq!(psi(&g, &trace, &params(), 0, 0, 1), None);
    }

    #[test]
    #[should_panic(expected = "s ≥ 1")]
    fn xi_rejects_s_zero() {
        let (g, trace) = setup(1.0);
        let _ = xi(&g, &trace, &params(), 0, 0, 0);
    }
}
