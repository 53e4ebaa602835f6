//! Experiment `thm14_interlayer` — Theorem 1.4 and Corollary 1.5.
//!
//! *Claim (Thm 1.4):* if faulty nodes keep a static timing profile, the
//! **full** local skew `L` — including the inter-layer component
//! `L_{ℓ,ℓ+1}` between consecutive pulses — is `O(κ log D)` w.h.p.
//!
//! *Claim (Cor 1.5):* the bound survives (i) a constant number of
//! per-pulse behavior changes, (ii) link-delay variation up to
//! `n^{-1/2}·u·log D` per pulse, and (iii) clock-speed variation up to
//! `n^{-1/2}·(ϑ−1)·log D` per pulse.

use crate::common::{run_gradient_trix, square_grid, standard_params};
use crate::suite::{kv, scenario_seeds, Scenario};
use crate::Scale;
use trix_analysis::{fmt_f64, full_local_skew, theory, Table};
use trix_core::{GradientTrixRule, Layer0Line, Params};
use trix_faults::{sample_one_local, FaultBehavior, FaultCampaign, FaultSchedule};
use trix_sim::{run_dataflow, Rng, SequenceEnvironment, StaticEnvironment};
use trix_time::{AffineClock, Duration};
use trix_topology::LayeredGraph;

/// Static-fault model matching Theorem 1.4 (silent + fixed shifts only).
fn static_faults(g: &LayeredGraph, prob: f64, kappa: Duration, seed: u64) -> FaultCampaign {
    let mut rng = Rng::seed_from(seed ^ 0x14);
    let (positions, _) = sample_one_local(g, prob, 1, &mut rng);
    let mut sorted: Vec<_> = positions.into_iter().collect();
    sorted.sort();
    FaultCampaign::from_static(sorted.into_iter().enumerate().map(|(i, n)| {
        let b = match i % 3 {
            0 => FaultBehavior::Silent,
            1 => FaultBehavior::Shift(kappa * 12.0),
            _ => FaultBehavior::Shift(kappa * -12.0),
        };
        (n, b)
    }))
}

/// Corollary 1.5 fault model: the static set plus a constant number of
/// nodes that change behavior mid-run or jitter every pulse.
fn cor15_faults(g: &LayeredGraph, prob: f64, kappa: Duration, seed: u64) -> FaultCampaign {
    let mut model = static_faults(g, prob, kappa, seed);
    // Two extra "restless" faults near the middle of the grid (kept
    // 1-local by construction: same column, separated layers).
    let mid = g.width() / 2;
    model.insert(
        g.node(mid, g.layer_count() / 2),
        FaultSchedule::Always(FaultBehavior::ChangeAt {
            at_pulse: 3,
            before: Box::new(FaultBehavior::Shift(kappa * 10.0)),
            after: Box::new(FaultBehavior::Silent),
        }),
    );
    model.insert(
        g.node(mid, g.layer_count() / 2 + 3),
        FaultSchedule::Always(FaultBehavior::Jitter {
            amplitude: kappa * 5.0,
            seed: seed ^ 0xC0F,
        }),
    );
    model
}

/// Per-pulse slowly drifting environment per Corollary 1.5's budget.
fn drifting_environment(
    g: &LayeredGraph,
    p: &Params,
    pulses: usize,
    seed: u64,
) -> SequenceEnvironment {
    let n = g.node_count() as f64;
    let log_d = (g.base().diameter().max(2) as f64).log2();
    let delay_step = n.powf(-0.5) * p.u().as_f64() * log_d;
    let rate_step = n.powf(-0.5) * (p.theta() - 1.0) * log_d;
    let mut rng = Rng::seed_from(seed ^ 0x15);
    let base = StaticEnvironment::random(g, p.d(), p.u(), p.theta(), &mut rng);
    let mut envs = Vec::with_capacity(pulses);
    let mut current = base;
    for k in 0..pulses {
        if k > 0 {
            // Random-walk every delay and rate within the model window.
            let prev = current.clone();
            let delays: Vec<Duration> = prev
                .delays()
                .iter()
                .map(|d0| {
                    let step = rng.f64_in(-delay_step, delay_step);
                    Duration::from((d0.as_f64() + step).clamp(p.d_min().as_f64(), p.d().as_f64()))
                })
                .collect();
            let clocks: Vec<AffineClock> = prev
                .clocks()
                .iter()
                .map(|c0| {
                    let step = rng.f64_in(-rate_step, rate_step);
                    AffineClock::with_rate((c0.rate() + step).clamp(1.0, p.theta()))
                })
                .collect();
            current = StaticEnvironment::new(g, delays, clocks);
        }
        envs.push(current.clone());
    }
    SequenceEnvironment::new(envs)
}

/// Runs both variants and reports full local skew vs the reference line.
pub fn run(width: usize, pulses: usize, seeds: &[u64]) -> Table {
    let p = standard_params();
    let rule = GradientTrixRule::new(p);
    let g = square_grid(width);
    let n = g.node_count() as f64;
    let prob = 0.4 * n.powf(-0.55);
    let d = g.base().diameter();
    let reference = 3.0 * theory::thm_1_1_bound(&p, d).as_f64();

    let mut table = Table::new(
        "Thm 1.4 / Cor 1.5 — full local skew L (intra + inter-layer)",
        &[
            "variant",
            "seed",
            "faults static?",
            "L measured",
            "reference 3·4κ(2+log₂D)",
        ],
    );
    for &seed in seeds {
        // Theorem 1.4: static faults, static environment.
        let model = static_faults(&g, prob, p.kappa(), seed);
        let (trace, _) = run_gradient_trix(&g, &p, &rule, &model, pulses, seed);
        let skew = full_local_skew(&g, &trace, 1..pulses);
        table.row_values(&[
            "Thm 1.4 (static)".into(),
            seed.to_string(),
            model.all_static().to_string(),
            fmt_f64(skew.as_f64()),
            fmt_f64(reference),
        ]);

        // Corollary 1.5: restless faults + drifting delays/clocks.
        let model = cor15_faults(&g, prob, p.kappa(), seed);
        let env = drifting_environment(&g, &p, pulses, seed);
        let mut layer0_rng = Rng::seed_from(seed).fork(2);
        let layer0 = Layer0Line::random_for_line(&p, g.width(), &mut layer0_rng);
        let trace = run_dataflow(&g, &env, &layer0, &rule, &model, pulses);
        let skew = full_local_skew(&g, &trace, 1..pulses);
        table.row_values(&[
            "Cor 1.5 (drift)".into(),
            seed.to_string(),
            model.all_static().to_string(),
            fmt_f64(skew.as_f64()),
            fmt_f64(reference),
        ]);
    }
    table
}

/// Scenario decomposition for the sweep runner: one scenario (static vs
/// slowly-varying environments share the grid).
pub fn scenarios(scale: Scale, base_seed: u64) -> Vec<Scenario> {
    let (width, pulses) = scale.pick((12usize, 3usize), (12, 4), (32, 8));
    let seeds = scenario_seeds(base_seed, "thm14", 0, scale.seed_count());
    let job_seeds = seeds.clone();
    vec![Scenario::new(
        "thm14",
        format!("w={width}"),
        vec![kv("width", width), kv("pulses", pulses)],
        &seeds,
        move || run(width, pulses, &job_seeds),
    )]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_faults_bound_full_skew() {
        let p = standard_params();
        let rule = GradientTrixRule::new(p);
        let g = square_grid(16);
        let n = g.node_count() as f64;
        let model = static_faults(&g, 0.4 * n.powf(-0.55), p.kappa(), 3);
        assert!(model.all_static());
        let (trace, _) = run_gradient_trix(&g, &p, &rule, &model, 6, 3);
        let skew = full_local_skew(&g, &trace, 1..6);
        let reference = theory::thm_1_1_bound(&p, g.base().diameter()) * 3.0;
        assert!(skew <= reference, "{skew} vs {reference}");
    }

    #[test]
    fn drifting_environment_respects_model_window() {
        let p = standard_params();
        let g = square_grid(8);
        let env = drifting_environment(&g, &p, 4, 1);
        use trix_sim::Environment;
        for k in 0..4 {
            for e in 0..g.edge_count() {
                let delay = env.delay(k, trix_topology::EdgeId(e));
                assert!(delay >= p.d_min() && delay <= p.d());
            }
            for node in g.nodes() {
                let c = env.clock(k, node);
                assert!(c.within_drift_bound(p.theta()));
            }
        }
    }

    #[test]
    fn cor15_skew_stays_bounded() {
        let p = standard_params();
        let rule = GradientTrixRule::new(p);
        let g = square_grid(16);
        let n = g.node_count() as f64;
        let model = cor15_faults(&g, 0.4 * n.powf(-0.55), p.kappa(), 2);
        assert!(!model.all_static());
        let env = drifting_environment(&g, &p, 6, 2);
        let mut layer0_rng = Rng::seed_from(2).fork(2);
        let layer0 = Layer0Line::random_for_line(&p, g.width(), &mut layer0_rng);
        let trace = run_dataflow(&g, &env, &layer0, &rule, &model, 6);
        let skew = full_local_skew(&g, &trace, 1..6);
        let reference = theory::thm_1_1_bound(&p, g.base().diameter()) * 4.0;
        assert!(skew <= reference, "{skew} vs {reference}");
    }

    #[test]
    fn table_renders() {
        let t = run(10, 3, &[0]);
        assert_eq!(t.len(), 2);
    }
}
