//! Experiment `thm13_random_faults` — Theorem 1.3 / Observation 4.34.
//!
//! *Claim:* with nodes failing independently with probability
//! `p ∈ o(n^{-1/2})`, the local skew stays `O(κ log D)` with probability
//! `1 − o(1)` — the exponential pile-up of Theorem 1.2 does not occur
//! because faults are sparse (at most 2 within any `n^{1/12}`-cone,
//! Observation 4.34) and the algorithm self-stabilizes between them.
//!
//! *Workload:* square grids of increasing size, `p = c·n^{-0.55}`, fault
//! behaviors cycling through silent / late / early / two-faced. Reports
//! measured skew (worst seed), the fault-free baseline, the `O(κ log D)`
//! reference line, and the max distance-δ k-faulty value.

use crate::common::{run_gradient_trix, square_grid, standard_params};
use crate::suite::{kv, scenario_seeds, Scenario};
use crate::Scale;
use trix_analysis::{fmt_f64, max_intra_layer_skew, theory, Table};
use trix_core::GradientTrixRule;
use trix_faults::{sample_one_local, FaultBehavior, FaultCampaign};
use trix_sim::{CorrectSends, Rng};
use trix_topology::max_k_faulty;

/// Assigns rotating behaviors to sampled fault positions.
pub fn behavior_mix(
    positions: impl IntoIterator<Item = trix_topology::NodeId>,
    kappa: trix_time::Duration,
) -> FaultCampaign {
    let mut sorted: Vec<_> = positions.into_iter().collect();
    sorted.sort();
    FaultCampaign::from_static(sorted.into_iter().enumerate().map(|(i, n)| {
        let b = match i % 4 {
            0 => FaultBehavior::Silent,
            1 => FaultBehavior::Shift(kappa * 15.0),
            2 => FaultBehavior::Shift(kappa * -15.0),
            _ => FaultBehavior::TwoFaced {
                toward_lower: kappa * -8.0,
                toward_higher: kappa * 8.0,
            },
        };
        (n, b)
    }))
}

/// Runs the Theorem 1.3 experiment over grid widths.
pub fn run(widths: &[usize], c: f64, pulses: usize, seeds: &[u64]) -> Table {
    let p = standard_params();
    let rule = GradientTrixRule::new(p);
    let mut table = Table::new(
        "Thm 1.3 — iid faults p = c·n^(-0.55): skew stays O(κ log D)",
        &[
            "width",
            "n",
            "p",
            "E[#faults]",
            "measured L (worst seed)",
            "fault-free L",
            "bound 4κ(2+log₂D)·3",
            "max k-faulty (≤2 expected)",
        ],
    );
    for &w in widths {
        let g = square_grid(w);
        let n = g.node_count() as f64;
        let prob = c * n.powf(-0.55);
        let d = g.base().diameter();
        let delta = (n.powf(1.0 / 12.0).round() as usize).max(1);
        let mut worst = 0f64;
        let mut worst_k = 0usize;
        let mut fault_total = 0usize;
        for &seed in seeds {
            let mut rng = Rng::seed_from(seed ^ 0xFA17);
            let (positions, _) = sample_one_local(&g, prob, 1, &mut rng);
            fault_total += positions.len();
            let mut is_faulty = vec![false; g.node_count()];
            for &f in &positions {
                is_faulty[g.node_index(f)] = true;
            }
            worst_k = worst_k.max(max_k_faulty(&g, delta, &is_faulty));
            let model = behavior_mix(positions, p.kappa());
            let (trace, _) = run_gradient_trix(&g, &p, &rule, &model, pulses, seed);
            worst = worst.max(max_intra_layer_skew(&g, &trace, 0..pulses).as_f64());
        }
        let (ff_trace, _) = run_gradient_trix(&g, &p, &rule, &CorrectSends, pulses, 1);
        let fault_free = max_intra_layer_skew(&g, &ff_trace, 0..pulses).as_f64();
        table.row_values(&[
            w.to_string(),
            (n as usize).to_string(),
            format!("{prob:.5}"),
            fmt_f64(fault_total as f64 / seeds.len() as f64),
            fmt_f64(worst),
            fmt_f64(fault_free),
            fmt_f64(3.0 * theory::thm_1_1_bound(&p, d).as_f64()),
            worst_k.to_string(),
        ]);
    }
    table
}

/// Scenario decomposition for the sweep runner: one scenario per grid
/// width.
pub fn scenarios(scale: Scale, base_seed: u64) -> Vec<Scenario> {
    let widths = scale.pick(&[16usize][..], &[16][..], &[16, 32, 64][..]);
    let c = 0.4;
    let pulses = scale.pick(2usize, 3, 3);
    widths
        .iter()
        .enumerate()
        .map(|(i, &w)| {
            let seeds = scenario_seeds(base_seed, "thm13", i as u64, scale.seed_count());
            let job_seeds = seeds.clone();
            Scenario::new(
                "thm13",
                format!("w={w}"),
                vec![kv("width", w), kv("c", c), kv("pulses", pulses)],
                &seeds,
                move || run(&[w], c, pulses, &job_seeds),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_faults_keep_skew_logarithmic() {
        let p = standard_params();
        let rule = GradientTrixRule::new(p);
        for &w in &[16usize, 32] {
            let g = square_grid(w);
            let n = g.node_count() as f64;
            let prob = 0.4 * n.powf(-0.55);
            let d = g.base().diameter();
            for seed in 0..3u64 {
                let mut rng = Rng::seed_from(seed ^ 0xFA17);
                let (positions, _) = sample_one_local(&g, prob, 1, &mut rng);
                let model = behavior_mix(positions, p.kappa());
                let (trace, _) = run_gradient_trix(&g, &p, &rule, &model, 3, seed);
                let skew = max_intra_layer_skew(&g, &trace, 0..3);
                // Shape check: within a constant factor (3x) of the
                // fault-free bound, i.e. still O(κ log D), nowhere near
                // the 5^f explosion.
                let reference = theory::thm_1_1_bound(&p, d) * 3.0;
                assert!(
                    skew <= reference,
                    "w={w} seed={seed}: {skew} vs {reference}"
                );
            }
        }
    }

    #[test]
    fn sparse_faults_have_small_k() {
        let g = square_grid(24);
        let n = g.node_count() as f64;
        let prob = 0.4 * n.powf(-0.55);
        let delta = (n.powf(1.0 / 12.0).round() as usize).max(1);
        for seed in 0..5u64 {
            let mut rng = Rng::seed_from(seed);
            let (positions, _) = sample_one_local(&g, prob, 1, &mut rng);
            let mut is_faulty = vec![false; g.node_count()];
            for &f in &positions {
                is_faulty[g.node_index(f)] = true;
            }
            assert!(
                max_k_faulty(&g, delta, &is_faulty) <= 2,
                "Observation 4.34 shape check (seed {seed})"
            );
        }
    }

    #[test]
    fn table_renders() {
        let t = run(&[12], 0.4, 2, &[0, 1]);
        assert_eq!(t.len(), 1);
    }
}
