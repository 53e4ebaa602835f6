//! Experiment `thm12_worst_case_faults` — Theorem 1.2.
//!
//! *Claim:* with at most `f` faulty nodes (none on layer 0) in the
//! worst 1-local arrangement, `L_ℓ ∈ O(5^f·κ·log D)`.
//!
//! *Workload:* `f` faults stacked in one base-graph column on consecutive
//! layers (the harshest 1-local cluster: each fault perturbs the region
//! before the gradient mechanism recovers from the previous one), with
//! large static shifts alternating in sign. Measured worst skew is
//! compared against the proof's explicit envelope
//! `B_f = 4κ(2+log₂D)·5^f·Σ 5^{−j}` — the *shape* check is that growth is
//! at most exponential with base ≤ 5 and the envelope is never exceeded.

use crate::common::{run_gradient_trix, square_grid, standard_params};
use crate::suite::{kv, Scenario};
use crate::Scale;
use trix_analysis::{fmt_f64, max_intra_layer_skew, theory, Table};
use trix_core::GradientTrixRule;
use trix_faults::{clustered_column, FaultBehavior, FaultCampaign};
use trix_time::Duration;

/// Builds the worst-case fault model for `f` stacked faults.
fn stacked_faults(
    g: &trix_topology::LayeredGraph,
    f: usize,
    shift_kappas: f64,
    kappa: Duration,
) -> FaultCampaign {
    let column = g.width() / 2;
    let start = g.layer_count() / 4;
    let positions = clustered_column(g, column, start, 1, f);
    let mut sorted: Vec<_> = positions.into_iter().collect();
    sorted.sort();
    FaultCampaign::from_static(sorted.into_iter().enumerate().map(|(i, n)| {
        let sign = if i % 2 == 0 { 1.0 } else { -1.0 };
        (n, FaultBehavior::Shift(kappa * (sign * shift_kappas)))
    }))
}

/// Runs the Theorem 1.2 experiment for `f = 0..=f_max`.
pub fn run(width: usize, f_max: usize, pulses: usize, seeds: &[u64]) -> Table {
    let p = standard_params();
    let rule = GradientTrixRule::new(p);
    let g = square_grid(width);
    let d = g.base().diameter();
    let mut table = Table::new(
        "Thm 1.2 — worst-case clustered faults: measured skew vs 5^f envelope",
        &[
            "f",
            "measured L (worst seed)",
            "envelope B_f",
            "measured/envelope",
            "growth vs f-1",
        ],
    );
    let mut prev: Option<f64> = None;
    for f in 0..=f_max {
        let model = stacked_faults(&g, f, 20.0, p.kappa());
        let mut worst = 0f64;
        for &seed in seeds {
            let (trace, _) = run_gradient_trix(&g, &p, &rule, &model, pulses, seed);
            worst = worst.max(max_intra_layer_skew(&g, &trace, 0..pulses).as_f64());
        }
        let envelope = theory::thm_1_2_envelope(&p, d, f as u32).as_f64();
        let growth = prev.map_or("—".to_owned(), |pv| fmt_f64(worst / pv));
        table.row_values(&[
            f.to_string(),
            fmt_f64(worst),
            fmt_f64(envelope),
            fmt_f64(worst / envelope),
            growth,
        ]);
        prev = Some(worst);
    }
    table
}

/// Scenario decomposition for the sweep runner: one scenario (the `f`
/// ladder shares the grid and compares consecutive rows).
pub fn scenarios(scale: Scale, base_seed: u64) -> Vec<Scenario> {
    let (width, f_max, pulses) = scale.pick((12usize, 3usize, 2usize), (12, 4, 2), (32, 4, 2));
    let seeds = trix_runner::scenario_seeds(base_seed, "thm12", 0, scale.seed_count());
    let job_seeds = seeds.clone();
    vec![Scenario::new(
        "thm12",
        format!("w={width},f<={f_max}"),
        vec![kv("width", width), kv("f_max", f_max), kv("pulses", pulses)],
        &seeds,
        move || run(width, f_max, pulses, &job_seeds),
    )]
}

#[cfg(test)]
mod tests {
    use super::*;
    use trix_core::check_pulse_interval;

    #[test]
    fn skew_stays_within_envelope() {
        let p = standard_params();
        let rule = GradientTrixRule::new(p);
        let g = square_grid(12);
        let d = g.base().diameter();
        for f in 0..=3usize {
            let model = stacked_faults(&g, f, 20.0, p.kappa());
            let (trace, _) = run_gradient_trix(&g, &p, &rule, &model, 2, 5);
            let skew = max_intra_layer_skew(&g, &trace, 0..2);
            let envelope = theory::thm_1_2_envelope(&p, d, f as u32);
            assert!(
                skew <= envelope,
                "f={f}: measured {skew} exceeds envelope {envelope}"
            );
        }
    }

    #[test]
    fn interval_invariant_holds_under_faults() {
        // Corollary 4.29 with the paper's 2κ slack, under stacked shifts.
        let p = standard_params();
        let rule = GradientTrixRule::new(p);
        let g = square_grid(12);
        let model = stacked_faults(&g, 3, 20.0, p.kappa());
        let (trace, _) = run_gradient_trix(&g, &p, &rule, &model, 2, 5);
        let violations = check_pulse_interval(&g, &trace, &p, 0..2, 2.0);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn faults_do_increase_skew() {
        let p = standard_params();
        let rule = GradientTrixRule::new(p);
        let g = square_grid(12);
        let clean = stacked_faults(&g, 0, 20.0, p.kappa());
        let faulty = stacked_faults(&g, 2, 20.0, p.kappa());
        let (t0, _) = run_gradient_trix(&g, &p, &rule, &clean, 2, 5);
        let (t2, _) = run_gradient_trix(&g, &p, &rule, &faulty, 2, 5);
        let s0 = max_intra_layer_skew(&g, &t0, 0..2);
        let s2 = max_intra_layer_skew(&g, &t2, 0..2);
        assert!(s2 > s0, "faults must hurt: {s0} vs {s2}");
    }

    #[test]
    fn table_renders() {
        let t = run(10, 2, 2, &[0]);
        assert_eq!(t.len(), 3);
    }
}
