//! Experiment `table1_lw` — Table 1's complete-graph rows (LW, WL88).
//!
//! *Claim:* on a complete graph (`D = 1`), Lynch–Welch achieves `O(1)`
//! skew tolerating `f < n/3` Byzantine nodes — constant, but at full
//! connectivity (degree `n−1`), versus Gradient TRIX's degree 3.
//!
//! Reported: skew per round (halving contraction to the `u`-scale floor)
//! and the degree/skew trade-off against Gradient TRIX.

use crate::common::{run_gradient_trix, square_grid, standard_params};
use crate::suite::{kv, Scenario};
use crate::Scale;
use trix_analysis::{fmt_f64, max_intra_layer_skew, Table};
use trix_baselines::{run_lynch_welch, LynchWelchConfig};
use trix_core::GradientTrixRule;
use trix_sim::{CorrectSends, Rng};

/// Runs Lynch–Welch convergence and the degree/skew comparison.
pub fn run(n: usize, f: usize, rounds: usize, seeds: &[u64]) -> Table {
    let p = standard_params();
    let cfg = LynchWelchConfig {
        n,
        f,
        d: p.d(),
        u: p.u(),
        theta: p.theta(),
        period: p.lambda() * 4.0,
    };
    let mut table = Table::new(
        "Table 1 (complete-graph rows) — Lynch–Welch skew per round vs Gradient TRIX",
        &["round", "LW skew (worst seed)", "note"],
    );
    let initial: Vec<f64> = (0..n).map(|i| i as f64 * 8.0).collect();
    let mut worst = vec![0f64; rounds + 1];
    for &seed in seeds {
        let run = run_lynch_welch(
            &cfg,
            &initial,
            p.kappa() * 50.0,
            rounds,
            &mut Rng::seed_from(seed ^ 0x1388),
        );
        for (r, s) in run.skew_per_round.iter().enumerate() {
            worst[r] = worst[r].max(s.as_f64());
        }
    }
    for (r, s) in worst.iter().enumerate() {
        let note = match r {
            0 => format!("initial; n = {n}, f = {f}, degree = {}", n - 1),
            _ if r == rounds => "floor Θ(u + (ϑ−1)P)".to_owned(),
            _ => String::new(),
        };
        table.row_values(&[r.to_string(), fmt_f64(*s), note]);
    }
    // Context row: Gradient TRIX at degree 3 on a real grid.
    let g = square_grid(16);
    let rule = GradientTrixRule::new(p);
    let (trace, _) = run_gradient_trix(&g, &p, &rule, &CorrectSends, 3, 1);
    let gt = max_intra_layer_skew(&g, &trace, 0..3);
    table.row_values(&[
        "—".into(),
        fmt_f64(gt.as_f64()),
        "Gradient TRIX, degree 3, D = 15 (for comparison)".into(),
    ]);
    table
}

/// Scenario decomposition for the sweep runner: one scenario (rounds are
/// a convergence series of a single configuration).
pub fn scenarios(scale: Scale, base_seed: u64) -> Vec<Scenario> {
    let (n, f, rounds) = scale.pick((7usize, 2usize, 4usize), (7, 2, 6), (10, 3, 10));
    let seeds = trix_runner::scenario_seeds(base_seed, "lynch_welch", 0, scale.seed_count());
    let job_seeds = seeds.clone();
    vec![Scenario::new(
        "lynch_welch",
        format!("n={n},f={f}"),
        vec![kv("n", n), kv("f", f), kv("rounds", rounds)],
        &seeds,
        move || run(n, f, rounds, &job_seeds),
    )]
}

#[cfg(test)]
mod tests {
    use super::*;
    use trix_time::Duration;

    #[test]
    fn lw_converges_and_is_constant_in_scale() {
        let p = standard_params();
        let cfg = LynchWelchConfig {
            n: 10,
            f: 3,
            d: p.d(),
            u: p.u(),
            theta: p.theta(),
            period: p.lambda() * 4.0,
        };
        let initial: Vec<f64> = (0..10).map(|i| i as f64 * 8.0).collect();
        let run = run_lynch_welch(
            &cfg,
            &initial,
            Duration::from(100.0),
            10,
            &mut Rng::seed_from(5),
        );
        assert!(run.skew_per_round[10] < run.skew_per_round[0] / 5.0);
    }

    #[test]
    fn table_renders() {
        let t = run(7, 2, 6, &[0]);
        assert_eq!(t.len(), 8);
    }
}
