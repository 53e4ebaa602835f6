//! The paper's proven bounds as executable formulas, for
//! measured-vs-predicted columns in every experiment table.

use trix_core::Params;
use trix_time::Duration;

/// Theorem 1.1: fault-free intra-layer local skew bound `4κ(2 + log₂ D)`.
pub fn thm_1_1_bound(params: &Params, diameter: u32) -> Duration {
    params.fault_free_local_skew_bound(diameter)
}

/// Theorem 1.2: with `f` worst-case-placed faults (none in layer 0),
/// `L_ℓ ≤ B_f = 4κ(2 + log₂ D) · 5^f · Σ_{j=0}^{f} 5^{−j}` (the explicit
/// envelope constructed in the proof's induction).
pub fn thm_1_2_envelope(params: &Params, diameter: u32, f: u32) -> Duration {
    let base = thm_1_1_bound(params, diameter).as_f64();
    let pow = 5f64.powi(f as i32);
    let geo: f64 = (0..=f).map(|j| 5f64.powi(-(j as i32))).sum();
    Duration::from(base * pow * geo)
}

/// Corollary 4.23: with `L₀ ≤ 4κ`, `Ψ¹(ℓ) ≤ 2κD` for all layers.
pub fn cor_4_23_psi1_bound(params: &Params, diameter: u32) -> Duration {
    params.kappa() * (2.0 * diameter as f64)
}

/// Corollary 4.24: global skew `Ψ⁰(ℓ) ≤ 6κD`.
pub fn cor_4_24_global_bound(params: &Params, diameter: u32) -> Duration {
    params.kappa() * (6.0 * diameter as f64)
}

/// Lemma A.1: layer-0 local skew bound `κ/2` (chain-adjacent positions;
/// up to `κ` for base-graph-adjacent positions two chain hops apart on the
/// replicated-ends chain — see `trix_core::Layer0Line`).
pub fn lemma_a_1_bound(params: &Params) -> Duration {
    params.kappa() / 2.0
}

/// Theorem 4.6 / Lemma 4.25 fixed point: the per-level bound
/// `Ψ^s ≤ 2^{2−s}·κD` used in the Theorem 1.1 proof.
pub fn psi_level_bound(params: &Params, diameter: u32, s: u32) -> Duration {
    params.kappa() * (2f64.powi(2 - s as i32) * diameter as f64)
}

/// Theorem 1.6: stabilization within `O(√n)` pulses; we report the
/// concrete witness `layer_count + diameter` pulses (one sweep of the
/// grid plus the layer-0 line, both `Θ(√n)` in the square layout).
pub fn thm_1_6_pulse_budget(diameter: u32, layer_count: usize) -> usize {
    layer_count + diameter as usize
}

/// The naive-TRIX worst case (LW20 / Figure 1 left): local skew `u·ℓ` at
/// layer `ℓ` under the adversarial split-delay assignment.
pub fn naive_trix_worst_case(params: &Params, layer: usize) -> Duration {
    params.u() * layer as f64
}

/// The HEX fault penalty (DFL+16 / Figure 1 right): a crashed
/// previous-layer neighbor adds one full message delay `d`.
pub fn hex_fault_penalty(params: &Params) -> Duration {
    params.d()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p() -> Params {
        Params::with_standard_lambda(Duration::from(2000.0), Duration::from(1.0), 1.0001)
    }

    #[test]
    fn envelope_reduces_to_thm11_at_f0() {
        let p = p();
        assert_eq!(thm_1_2_envelope(&p, 64, 0), thm_1_1_bound(&p, 64));
    }

    #[test]
    fn envelope_grows_roughly_5x_per_fault() {
        let p = p();
        let b1 = thm_1_2_envelope(&p, 64, 1).as_f64();
        let b2 = thm_1_2_envelope(&p, 64, 2).as_f64();
        let ratio = b2 / b1;
        assert!((4.8..5.4).contains(&ratio), "ratio {ratio}"); // 5·(1+ geometric tail)
    }

    #[test]
    fn psi_levels_halve() {
        let p = p();
        let a = psi_level_bound(&p, 100, 1).as_f64();
        let b = psi_level_bound(&p, 100, 2).as_f64();
        assert!((a / b - 2.0).abs() < 1e-12);
        assert_eq!(psi_level_bound(&p, 100, 1), cor_4_23_psi1_bound(&p, 100));
    }

    #[test]
    fn misc_bounds_scale() {
        let p = p();
        assert_eq!(lemma_a_1_bound(&p), p.kappa() / 2.0);
        assert_eq!(naive_trix_worst_case(&p, 10), p.u() * 10.0);
        assert_eq!(hex_fault_penalty(&p), p.d());
        assert_eq!(thm_1_6_pulse_budget(8, 10), 18);
        assert!(cor_4_24_global_bound(&p, 10) > cor_4_23_psi1_bound(&p, 10));
    }
}
