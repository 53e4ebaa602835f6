//! Experiment `lemA1_layer0` — Lemma A.1.
//!
//! *Claim:* the layer-0 chain produces pulses with
//! `t^k_{i,0} ∈ [(k+i−1)Λ − i·κ/2, (k+i−1)Λ]` and local skew `≤ κ/2`
//! between chain-adjacent positions (≤ `κ` for base-graph-adjacent
//! positions that are two chain hops apart on the replicated-ends chain).

use crate::common::standard_params;
use crate::suite::{kv, scenario_seeds, Scenario, ScenarioResult};
use crate::Scale;
use trix_analysis::{fmt_f64, theory, Table};
use trix_core::Layer0Line;
use trix_sim::Rng;

/// Runs the Lemma A.1 check over widths and seeds. Each maximum above
/// its bound column is a violation.
pub fn run(widths: &[usize], seeds: &[u64]) -> ScenarioResult {
    let p = standard_params();
    let kappa = p.kappa().as_f64();
    let mut table = Table::new(
        "Lemma A.1 — layer-0 chain offsets (diagonal-indexed)",
        &[
            "width",
            "max |Δφ| chain-adjacent",
            "bound κ/2",
            "max |Δφ| base-adjacent",
            "bound κ",
            "max cumulative |φ|",
            "bound width·κ/2",
        ],
    );
    let mut violations = Vec::new();
    for &w in widths {
        let mut worst_chain = 0f64;
        let mut worst_base = 0f64;
        let mut worst_abs = 0f64;
        for &seed in seeds {
            let mut rng = Rng::seed_from(seed ^ 0xA1);
            let line = Layer0Line::random_for_line(&p, w, &mut rng);
            let phi = line.offsets();
            for v in 1..w {
                worst_chain = worst_chain.max((phi[v] - phi[v - 1]).abs());
            }
            // Base adjacency of the replicated-ends graph includes pairs
            // two chain hops apart (e.g. (0, 2)).
            for v in 2..w {
                worst_base = worst_base.max((phi[v] - phi[v - 2]).abs());
            }
            worst_abs = worst_abs.max(phi.iter().fold(0f64, |a, &x| a.max(x.abs())));
        }
        let chain_bound = theory::lemma_a_1_bound(&p).as_f64();
        let worst_base = worst_base.max(worst_chain);
        let abs_bound = w as f64 * kappa / 2.0;
        for (what, measured, bound) in [
            ("chain-adjacent |Δφ|", worst_chain, chain_bound),
            ("base-adjacent |Δφ|", worst_base, kappa),
            ("cumulative |φ|", worst_abs, abs_bound),
        ] {
            if measured > bound {
                violations.push(format!(
                    "width {w}: max {what} {measured} exceeds the Lemma A.1 bound {bound}"
                ));
            }
        }
        table.row_values(&[
            w.to_string(),
            fmt_f64(worst_chain),
            fmt_f64(chain_bound),
            fmt_f64(worst_base),
            fmt_f64(kappa),
            fmt_f64(worst_abs),
            fmt_f64(abs_bound),
        ]);
    }
    ScenarioResult::checked(table, violations)
}

/// Scenario decomposition for the sweep runner: one scenario per chain
/// width.
pub fn scenarios(scale: Scale, base_seed: u64) -> Vec<Scenario> {
    let widths = scale.pick(&[16usize, 64][..], &[16, 64, 256][..], &[16, 64, 256][..]);
    widths
        .iter()
        .enumerate()
        .map(|(i, &w)| {
            let seeds = scenario_seeds(base_seed, "lem_a1", i as u64, scale.seed_count());
            let job_seeds = seeds.clone();
            Scenario::new(
                "lem_a1",
                format!("w={w}"),
                vec![kv("width", w)],
                &seeds,
                move || run(&[w], &job_seeds),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn offsets_respect_lemma_a1() {
        let p = standard_params();
        let kappa = p.kappa().as_f64();
        for seed in 0..5 {
            let mut rng = Rng::seed_from(seed);
            let line = Layer0Line::random_for_line(&p, 64, &mut rng);
            let phi = line.offsets();
            for v in 1..64 {
                assert!((phi[v] - phi[v - 1]).abs() <= kappa / 2.0 + 1e-12);
            }
            for (v, &f) in phi.iter().enumerate() {
                assert!(f <= 0.0 && f >= -(v.max(1) as f64) * kappa / 2.0 - 1e-12);
            }
        }
    }

    #[test]
    fn table_renders() {
        let r = run(&[16, 32], &[0, 1]);
        assert_eq!(r.table.len(), 2);
        assert!(r.violations.is_empty(), "{:?}", r.violations);
    }
}
