//! Experiment `fig4_conditions` — Figure 4 / Lemmas D.4–D.6.
//!
//! *Claim:* every decision of the algorithm satisfies the slow condition
//! SC(s), the fast condition FC(s), and the jump condition JC.
//!
//! *Workload:* fault-free random-environment runs across several seeds;
//! the oracle recomputes each node's correction from the trace and checks
//! the three conditions at every level `s`.

use crate::common::{run_gradient_trix, square_grid, standard_params};
use crate::suite::{kv, scenario_seeds, Scenario, ScenarioResult};
use crate::Scale;
use trix_analysis::{fmt_f64, Table};
use trix_core::{check_gcs_conditions, reconstruct_correction, GradientTrixRule};
use trix_sim::CorrectSends;

/// Runs the condition oracle over `seeds` runs of a `width`-wide grid,
/// surfacing every oracle violation — this is the paper's central
/// correctness claim, so the harness treats a nonzero count as a failed
/// run rather than a table footnote.
pub fn run(width: usize, pulses: usize, seeds: &[u64]) -> ScenarioResult {
    let p = standard_params();
    let rule = GradientTrixRule::new(p);
    let g = square_grid(width);
    let mut violations = Vec::new();
    let mut table = Table::new(
        "Fig 4 — slow/fast/jump condition oracle (violations must be 0)",
        &[
            "seed",
            "decisions checked",
            "SC viol.",
            "FC viol.",
            "JC viol.",
            "C/κ p50",
            "C/κ max",
        ],
    );
    for &seed in seeds {
        let (trace, env) = run_gradient_trix(&g, &p, &rule, &CorrectSends, pulses, seed);
        let report = check_gcs_conditions(&g, &env, &trace, &rule, 0..pulses);
        let (mut sc, mut fc, mut jc) = (0usize, 0usize, 0usize);
        for v in &report.violations {
            match v.condition {
                trix_core::Condition::Slow => sc += 1,
                trix_core::Condition::Fast => fc += 1,
                trix_core::Condition::Jump => jc += 1,
            }
        }
        if !report.all_hold() {
            violations.push(format!(
                "seed {seed}: {} of {} decisions violate the conditions \
                 (SC {sc}, FC {fc}, JC {jc}); first: {:?}",
                report.violations.len(),
                report.checked,
                report.violations.first()
            ));
        }
        let mut magnitudes: Vec<f64> = g
            .nodes()
            .filter(|n| n.layer > 0)
            .filter_map(|n| reconstruct_correction(&g, &env, &trace, &rule, 0, n))
            .map(|c| (c.as_f64() / p.kappa().as_f64()).abs())
            .collect();
        magnitudes.sort_by(f64::total_cmp);
        let max = *magnitudes.last().expect("layers above 0 decide");
        let p50 = magnitudes[(0.5 * (magnitudes.len() - 1) as f64).round() as usize];
        table.row_values(&[
            seed.to_string(),
            report.checked.to_string(),
            sc.to_string(),
            fc.to_string(),
            jc.to_string(),
            fmt_f64(p50),
            fmt_f64(max),
        ]);
    }
    ScenarioResult::checked(table, violations)
}

/// Scenario decomposition for the sweep runner: one scenario per derived
/// seed (each seed is an independent oracle run).
pub fn scenarios(scale: Scale, base_seed: u64) -> Vec<Scenario> {
    let width = scale.pick(8usize, 10, 24);
    let pulses = scale.pick(2usize, 3, 3);
    let seeds = scenario_seeds(base_seed, "fig4", 0, scale.seed_count());
    seeds
        .iter()
        .map(|&seed| {
            Scenario::new(
                "fig4",
                format!("seed={seed:#x}"),
                vec![kv("width", width), kv("pulses", pulses), kv("seed", seed)],
                &[seed],
                move || run(width, pulses, &[seed]),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_violations_across_seeds() {
        let p = standard_params();
        let rule = GradientTrixRule::new(p);
        let g = square_grid(10);
        for seed in 0..4 {
            let (trace, env) = run_gradient_trix(&g, &p, &rule, &CorrectSends, 3, seed);
            let report = check_gcs_conditions(&g, &env, &trace, &rule, 0..3);
            assert!(report.checked > 100);
            assert!(
                report.all_hold(),
                "seed {seed}: {:?}",
                report.violations.first()
            );
        }
    }

    #[test]
    fn table_renders() {
        let t = run(8, 2, &[0, 1]).table;
        assert_eq!(t.len(), 2);
    }
}
