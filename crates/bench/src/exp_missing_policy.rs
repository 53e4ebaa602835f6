//! Experiment `missing_policy` — ablation of the `H_max = ∞` reading
//! (ARCHITECTURE.md, "Algorithm-text ambiguities and the diagonal
//! re-indexing", item 3).
//!
//! Compares `StickToEarlier` (the §3 intuition bullets) with
//! `ClampLiteral` (the literal pseudocode fallback) under silent-neighbor
//! faults: measured skew and Corollary 4.29 interval violations at the
//! paper's `2κ` slack.

use crate::common::{run_gradient_trix, square_grid, standard_params};
use crate::suite::{kv, Scenario, ScenarioResult};
use crate::Scale;
use trix_analysis::{fmt_f64, max_intra_layer_skew, Table};
use trix_core::{check_pulse_interval, CorrectionConfig, GradientTrixRule, MissingNeighborPolicy};
use trix_faults::{FaultBehavior, FaultCampaign};

/// Runs the policy ablation with `f` silent faults.
pub fn run(width: usize, f: usize, pulses: usize, seeds: &[u64]) -> Table {
    run_checked(width, f, pulses, seeds).table
}

/// Like [`run`], additionally surfacing Corollary 4.29 oracle failures:
/// at the generous `4κ` slack *both* policies must hold (the `2κ` column
/// is the ablation's discriminator and may legitimately be nonzero).
pub fn run_checked(width: usize, f: usize, pulses: usize, seeds: &[u64]) -> ScenarioResult {
    let p = standard_params();
    let g = square_grid(width);
    let mut violations = Vec::new();
    let mut table = Table::new(
        "Missing-neighbor policy ablation (silent faults)",
        &[
            "policy",
            "measured L (worst seed)",
            "Cor 4.29 violations @2κ",
            "@4κ",
        ],
    );
    // Spread silent faults across distinct, 1-local-safe positions.
    let positions: Vec<_> = (0..f)
        .map(|i| g.node((2 + 3 * i) % g.width(), 1 + (i * 2) % (g.layer_count() - 1)))
        .collect();
    let model =
        FaultCampaign::from_static(positions.into_iter().map(|n| (n, FaultBehavior::Silent)));
    for policy in [
        MissingNeighborPolicy::StickToEarlier,
        MissingNeighborPolicy::ClampLiteral,
    ] {
        let rule = GradientTrixRule::with_config(
            p,
            CorrectionConfig {
                missing_neighbor: policy,
                ..CorrectionConfig::paper()
            },
        );
        let mut worst = 0f64;
        let mut viol2 = 0usize;
        let mut viol4 = 0usize;
        for &seed in seeds {
            let (trace, _) = run_gradient_trix(&g, &p, &rule, &model, pulses, seed);
            worst = worst.max(max_intra_layer_skew(&g, &trace, 0..pulses).as_f64());
            viol2 += check_pulse_interval(&g, &trace, &p, 0..pulses, 2.0).len();
            viol4 += check_pulse_interval(&g, &trace, &p, 0..pulses, 4.0).len();
        }
        if viol4 > 0 {
            violations.push(format!(
                "policy {policy:?}: {viol4} Cor 4.29 interval violations at 4κ slack"
            ));
        }
        table.row_values(&[
            format!("{policy:?}"),
            fmt_f64(worst),
            viol2.to_string(),
            viol4.to_string(),
        ]);
    }
    ScenarioResult::checked(table, violations)
}

/// Scenario decomposition for the sweep runner: one scenario comparing
/// both policies on the same fault pattern.
pub fn scenarios(scale: Scale, base_seed: u64) -> Vec<Scenario> {
    let (width, f, pulses) = scale.pick((10usize, 4usize, 2usize), (10, 4, 3), (16, 4, 3));
    let seeds = trix_runner::scenario_seeds(base_seed, "missing_policy", 0, scale.seed_count());
    let job_seeds = seeds.clone();
    vec![Scenario::new(
        "missing_policy",
        format!("w={width},f={f}"),
        vec![kv("width", width), kv("f", f), kv("pulses", pulses)],
        &seeds,
        move || run_checked(width, f, pulses, &job_seeds),
    )]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_policies_keep_interval_invariant_at_4_kappa() {
        let t = run(12, 3, 2, &[0, 1]);
        let md = t.to_markdown();
        // The last column (4κ slack) must be all zeros for both policies.
        for line in md
            .lines()
            .filter(|l| l.starts_with("| Stick") || l.starts_with("| Clamp"))
        {
            let cells: Vec<&str> = line.split('|').map(str::trim).collect();
            assert_eq!(cells[cells.len() - 2], "0", "4κ violations in {line}");
        }
    }

    #[test]
    fn table_has_two_rows() {
        let t = run(10, 2, 2, &[0]);
        assert_eq!(t.len(), 2);
    }
}
