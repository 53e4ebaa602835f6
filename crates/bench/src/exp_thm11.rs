//! Experiment `thm11_fault_free` — Theorem 1.1.
//!
//! *Claim:* with no faults, `L_ℓ ≤ 4κ(2 + log₂ D)` for all layers.
//!
//! *Workload:* square grids of width `D+1`-ish (line base graph), random
//! in-model delays/clock rates, several seeds; plus the adversarial
//! split-delay environment. Reports the worst intra-layer skew across all
//! layers and pulses against the bound.

use crate::common::{run_gradient_trix, run_gradient_trix_with_env, square_grid, standard_params};
use crate::suite::{kv, scenario_seeds, Scenario, ScenarioResult};
use crate::Scale;
use trix_analysis::{fmt_f64, max_intra_layer_skew, theory, Table};
use trix_baselines::split_delay_env;
use trix_core::GradientTrixRule;
use trix_sim::CorrectSends;

/// Runs the Theorem 1.1 experiment over the given grid widths. The bound
/// is the condition oracle: a width whose worst skew exceeds it is a
/// violation.
pub fn run(widths: &[usize], pulses: usize, seeds: &[u64]) -> ScenarioResult {
    let p = standard_params();
    let rule = GradientTrixRule::new(p);
    let mut table = Table::new(
        "Thm 1.1 — fault-free local skew vs. bound 4κ(2+log₂D)",
        &[
            "width",
            "D",
            "n",
            "L (random env, worst seed)",
            "L (adversarial split)",
            "bound",
            "measured/bound",
        ],
    );
    let mut violations = Vec::new();
    for &w in widths {
        let g = square_grid(w);
        let d = g.base().diameter();
        let mut worst = 0f64;
        for &seed in seeds {
            let (trace, _) = run_gradient_trix(&g, &p, &rule, &CorrectSends, pulses, seed);
            worst = worst.max(max_intra_layer_skew(&g, &trace, 0..pulses).as_f64());
        }
        let adv_env = split_delay_env(&g, p.d(), p.u());
        let adv_trace =
            run_gradient_trix_with_env(&g, &p, &rule, &adv_env, &CorrectSends, pulses, 7);
        let adv = max_intra_layer_skew(&g, &adv_trace, 0..pulses).as_f64();
        let bound = theory::thm_1_1_bound(&p, d).as_f64();
        let measured = worst.max(adv);
        if measured > bound {
            violations.push(format!(
                "width {w}: L {measured} (random env {worst}, adversarial split {adv}) \
                 exceeds the Thm 1.1 bound {bound}"
            ));
        }
        table.row_values(&[
            w.to_string(),
            d.to_string(),
            g.node_count().to_string(),
            fmt_f64(worst),
            fmt_f64(adv),
            fmt_f64(bound),
            fmt_f64(measured / bound),
        ]);
    }
    ScenarioResult::checked(table, violations)
}

/// Scenario decomposition for the sweep runner: one scenario per grid
/// width.
pub fn scenarios(scale: Scale, base_seed: u64) -> Vec<Scenario> {
    let widths = scale.pick(&[8usize][..], &[8, 16][..], &[8, 16, 32, 64, 128][..]);
    let pulses = 3;
    widths
        .iter()
        .enumerate()
        .map(|(i, &w)| {
            let seeds = scenario_seeds(base_seed, "thm11", i as u64, scale.seed_count());
            let job_seeds = seeds.clone();
            Scenario::new(
                "thm11",
                format!("w={w}"),
                vec![kv("width", w), kv("pulses", pulses)],
                &seeds,
                move || run(&[w], pulses, &job_seeds),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn skew_stays_below_bound() {
        let p = standard_params();
        let rule = GradientTrixRule::new(p);
        for &w in &[8usize, 16, 24] {
            let g = square_grid(w);
            let bound = theory::thm_1_1_bound(&p, g.base().diameter());
            for seed in 0..3 {
                let (trace, _) = run_gradient_trix(&g, &p, &rule, &CorrectSends, 3, seed);
                let skew = max_intra_layer_skew(&g, &trace, 0..3);
                assert!(skew <= bound, "w={w} seed={seed}: {skew} > bound {bound}");
            }
        }
    }

    #[test]
    fn adversarial_split_also_bounded() {
        let p = standard_params();
        let rule = GradientTrixRule::new(p);
        let g = square_grid(16);
        let env = split_delay_env(&g, p.d(), p.u());
        let trace = run_gradient_trix_with_env(&g, &p, &rule, &env, &CorrectSends, 3, 1);
        let skew = max_intra_layer_skew(&g, &trace, 0..3);
        assert!(skew <= theory::thm_1_1_bound(&p, g.base().diameter()));
    }

    #[test]
    fn table_has_one_row_per_width() {
        let r = run(&[8, 12], 2, &[0, 1]);
        assert_eq!(r.table.len(), 2);
        assert!(r.violations.is_empty(), "{:?}", r.violations);
    }
}
