//! Experiment `cor423_global` — Corollaries 4.23 / 4.24 and the potential
//! trajectories of the Theorem 1.1 proof.
//!
//! *Claims:* with `L₀ ≤ 4κ`, `Ψ¹(ℓ) ≤ 2κD` for all layers, the global
//! skew `Ψ⁰(ℓ) ≤ 6κD`, and each level obeys `Ψ^s ≤ 2^{2−s}·κD`
//! (Lemma 4.25's fixed point), which telescopes into the `4κ(2+log₂ D)`
//! local-skew bound via Observation 4.2.

use crate::common::{run_gradient_trix, square_grid, standard_params};
use crate::suite::{kv, Scenario, ScenarioResult};
use crate::Scale;
use trix_analysis::{fmt_f64, global_skew, psi, theory, Table};
use trix_core::GradientTrixRule;
use trix_sim::CorrectSends;

/// Runs the potential-trajectory experiment on one grid width. Each
/// "within?" cell is a condition oracle: a false one is a violation.
pub fn run(width: usize, pulses: usize, seeds: &[u64]) -> ScenarioResult {
    let p = standard_params();
    let rule = GradientTrixRule::new(p);
    let g = square_grid(width);
    let d = g.base().diameter();
    let s_max = (d as f64).log2().floor() as u32;

    let mut table = Table::new(
        "Cor 4.23/4.24 — potential levels Ψ^s (max over layers, worst seed)",
        &["s", "max_ℓ Ψ^s(ℓ)", "bound 2^(2−s)·κD", "within?"],
    );
    let k = pulses - 1;
    // Global skew row (s = 0, bound 6κD per Cor 4.24).
    let mut worst_global = 0f64;
    let mut worst_psi = vec![f64::MIN; (s_max + 1) as usize];
    for &seed in seeds {
        let (trace, _) = run_gradient_trix(&g, &p, &rule, &CorrectSends, pulses, seed);
        for layer in 0..g.layer_count() {
            if let Some(gs) = global_skew(&g, &trace, k, layer) {
                worst_global = worst_global.max(gs.as_f64());
            }
            for s in 1..=s_max {
                if let Some(v) = psi(&g, &trace, &p, k, layer, s) {
                    let slot = &mut worst_psi[s as usize];
                    *slot = slot.max(v.as_f64());
                }
            }
        }
    }
    let mut violations = Vec::new();
    let global_bound = theory::cor_4_24_global_bound(&p, d).as_f64();
    let within = worst_global <= global_bound;
    if !within {
        violations.push(format!(
            "width {width}: global skew {worst_global} exceeds the Cor 4.24 bound 6κD = \
             {global_bound}"
        ));
    }
    table.row_values(&[
        "0 (global skew)".into(),
        fmt_f64(worst_global),
        format!("{} (6κD)", fmt_f64(global_bound)),
        within.to_string(),
    ]);
    for s in 1..=s_max {
        let bound = theory::psi_level_bound(&p, d, s).as_f64();
        let measured = worst_psi[s as usize];
        let within = measured <= bound;
        if !within {
            violations.push(format!(
                "width {width}: Ψ^{s} = {measured} exceeds the bound 2^(2−s)·κD = {bound}"
            ));
        }
        table.row_values(&[
            s.to_string(),
            fmt_f64(measured),
            fmt_f64(bound),
            within.to_string(),
        ]);
    }
    ScenarioResult::checked(table, violations)
}

/// Scenario decomposition for the sweep runner: one scenario (levels `s`
/// share the traces).
pub fn scenarios(scale: Scale, base_seed: u64) -> Vec<Scenario> {
    let (width, pulses) = scale.pick((12usize, 2usize), (12, 3), (32, 3));
    let seeds = trix_runner::scenario_seeds(base_seed, "cor423", 0, scale.seed_count());
    let job_seeds = seeds.clone();
    vec![Scenario::new(
        "cor423",
        format!("w={width}"),
        vec![kv("width", width), kv("pulses", pulses)],
        &seeds,
        move || run(width, pulses, &job_seeds),
    )]
}

#[cfg(test)]
mod tests {
    use super::*;
    use trix_analysis::observation_4_2_holds;

    #[test]
    fn global_skew_within_6_kappa_d() {
        let p = standard_params();
        let rule = GradientTrixRule::new(p);
        let g = square_grid(16);
        let bound = theory::cor_4_24_global_bound(&p, g.base().diameter());
        for seed in 0..3 {
            let (trace, _) = run_gradient_trix(&g, &p, &rule, &CorrectSends, 3, seed);
            for layer in 0..g.layer_count() {
                let gs = global_skew(&g, &trace, 2, layer).unwrap();
                assert!(gs <= bound, "seed {seed} layer {layer}: {gs} > {bound}");
            }
        }
    }

    #[test]
    fn psi_one_within_2_kappa_d() {
        let p = standard_params();
        let rule = GradientTrixRule::new(p);
        let g = square_grid(16);
        let bound = theory::cor_4_23_psi1_bound(&p, g.base().diameter());
        let (trace, _) = run_gradient_trix(&g, &p, &rule, &CorrectSends, 3, 9);
        for layer in 0..g.layer_count() {
            let v = psi(&g, &trace, &p, 2, layer, 1).unwrap();
            assert!(v <= bound, "layer {layer}: {v} > {bound}");
        }
    }

    #[test]
    fn observation_4_2_links_potentials_to_skew() {
        let p = standard_params();
        let rule = GradientTrixRule::new(p);
        let g = square_grid(12);
        let (trace, _) = run_gradient_trix(&g, &p, &rule, &CorrectSends, 2, 4);
        for layer in 0..g.layer_count() {
            assert!(observation_4_2_holds(&g, &trace, &p, 1, layer, 6));
        }
    }

    #[test]
    fn levels_shrink_monotonically_in_bound() {
        let r = run(12, 2, &[0]);
        assert!(r.table.len() >= 3);
        assert!(r.violations.is_empty(), "{:?}", r.violations);
        assert!(
            !r.table.to_markdown().contains("false"),
            "{}",
            r.table.to_markdown()
        );
    }
}
