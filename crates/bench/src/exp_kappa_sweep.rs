//! Experiment `kappa_sweep` — sensitivity of the skew to the timing
//! quantum `κ = 2(u + (1 − 1/ϑ)(Λ − d))`.
//!
//! The paper's bounds are all proportional to `κ`; this ablation sweeps
//! the two physical knobs behind it — delay uncertainty `u` and clock
//! drift `ϑ − 1` — and checks that the measured skew scales linearly with
//! the resulting `κ` (slope ≈ constant in the `measured/κ` column), which
//! is the actionable engineering content of Theorem 1.1: better wires or
//! better oscillators buy proportionally better skew.

use crate::suite::{kv, Scenario};
use crate::Scale;
use trix_analysis::{fmt_f64, max_intra_layer_skew, Table};
use trix_core::{GradientTrixRule, Layer0Line, Params};
use trix_sim::{run_dataflow, CorrectSends, Rng, StaticEnvironment};
use trix_time::Duration;
use trix_topology::{BaseGraph, LayeredGraph};

/// One sweep point: measured worst skew for a parameter set.
fn measure(p: Params, width: usize, seeds: &[u64]) -> f64 {
    let g = LayeredGraph::new(BaseGraph::line_with_replicated_ends(width), width);
    let rule = GradientTrixRule::new(p);
    let mut worst = 0f64;
    for &seed in seeds {
        let mut rng = Rng::seed_from(seed);
        let env = StaticEnvironment::random(&g, p.d(), p.u(), p.theta(), &mut rng);
        let layer0 = Layer0Line::random_for_line(&p, g.width(), &mut rng);
        let trace = run_dataflow(&g, &env, &layer0, &rule, &CorrectSends, 3);
        worst = worst.max(max_intra_layer_skew(&g, &trace, 0..3).as_f64());
    }
    worst
}

/// Runs the κ sweep over `u` and `ϑ` grids.
pub fn run(width: usize, seeds: &[u64]) -> Table {
    let d = Duration::from(2000.0);
    let mut table = Table::new(
        "κ sensitivity — measured skew scales linearly with κ",
        &["u", "ϑ − 1 (ppm)", "κ", "measured L", "measured / κ"],
    );
    for (u, theta) in [
        (0.5, 1.000_05),
        (1.0, 1.000_1),
        (2.0, 1.000_1),
        (4.0, 1.000_1),
        (1.0, 1.000_4),
        (1.0, 1.001_6),
        (8.0, 1.000_05),
    ] {
        let p = Params::with_standard_lambda(d, Duration::from(u), theta);
        let skew = measure(p, width, seeds);
        table.row_values(&[
            fmt_f64(u),
            fmt_f64((theta - 1.0) * 1e6),
            fmt_f64(p.kappa().as_f64()),
            fmt_f64(skew),
            fmt_f64(skew / p.kappa().as_f64()),
        ]);
    }
    table
}

/// Scenario decomposition for the sweep runner: one scenario covering the
/// whole `(u, ϑ)` grid (rows share the topology).
pub fn scenarios(scale: Scale, base_seed: u64) -> Vec<Scenario> {
    let width = scale.pick(8usize, 10, 24);
    let seeds = trix_runner::scenario_seeds(base_seed, "kappa_sweep", 0, scale.seed_count());
    let job_seeds = seeds.clone();
    vec![Scenario::new(
        "kappa_sweep",
        format!("w={width}"),
        vec![kv("width", width)],
        &seeds,
        move || run(width, &job_seeds),
    )]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn skew_scales_linearly_with_kappa() {
        let d = Duration::from(2000.0);
        let small = Params::with_standard_lambda(d, Duration::from(0.5), 1.000_05);
        let large = Params::with_standard_lambda(d, Duration::from(4.0), 1.000_4);
        let s_small = measure(small, 12, &[0, 1]);
        let s_large = measure(large, 12, &[0, 1]);
        let kappa_ratio = large.kappa() / small.kappa();
        let skew_ratio = s_large / s_small;
        // Linear scaling within a factor of ~2 (discretization noise).
        assert!(
            skew_ratio > kappa_ratio / 2.0 && skew_ratio < kappa_ratio * 2.0,
            "skew ratio {skew_ratio} vs kappa ratio {kappa_ratio}"
        );
    }

    #[test]
    fn table_renders() {
        let t = run(10, &[0]);
        assert_eq!(t.len(), 7);
    }
}
