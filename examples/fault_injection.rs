//! Fault injection: how Gradient TRIX contains Byzantine nodes.
//!
//! Injects the paper's fault spectrum — silent (crash), static delay
//! faults, two-faced timing, per-pulse jitter — at random 1-local
//! positions, and shows that the local skew stays `O(κ log D)` while the
//! median-interval invariant (Corollary 4.29) holds at every correct
//! node.
//!
//! ```text
//! cargo run --release --example fault_injection
//! ```

use gradient_trix::analysis::{max_intra_layer_skew, theory};
use gradient_trix::core::{check_pulse_interval, GradientTrixRule, Layer0Line, Params};
use gradient_trix::faults::{is_one_local, sample_one_local, FaultBehavior, FaultCampaign};
use gradient_trix::sim::{run_dataflow, Rng, StaticEnvironment};
use gradient_trix::time::Duration;
use gradient_trix::topology::{BaseGraph, LayeredGraph};

fn main() {
    let params = Params::with_standard_lambda(Duration::from(2000.0), Duration::from(1.0), 1.0001);
    let grid = LayeredGraph::new(BaseGraph::line_with_replicated_ends(24), 24);
    let n = grid.node_count() as f64;
    let p_fail = 0.5 * n.powf(-0.55);

    let mut rng = Rng::seed_from(7);
    let (positions, dropped) = sample_one_local(&grid, p_fail, 1, &mut rng);
    assert!(is_one_local(&grid, &positions));
    println!(
        "sampled {} faulty nodes at p = {:.4} (dropped {} to keep 1-locality)",
        positions.len(),
        p_fail,
        dropped
    );

    let kappa = params.kappa();
    let mut sorted: Vec<_> = positions.into_iter().collect();
    sorted.sort();
    let model = FaultCampaign::from_static(sorted.into_iter().enumerate().map(|(i, node)| {
        let behavior = match i % 4 {
            0 => FaultBehavior::Silent,
            1 => FaultBehavior::Shift(kappa * 15.0),
            2 => FaultBehavior::TwoFaced {
                toward_lower: kappa * -8.0,
                toward_higher: kappa * 8.0,
            },
            _ => FaultBehavior::Jitter {
                amplitude: kappa * 5.0,
                seed: 99,
            },
        };
        println!("  {node} -> {behavior:?}");
        (node, behavior)
    }));

    let env = StaticEnvironment::random(&grid, params.d(), params.u(), params.theta(), &mut rng);
    let layer0 = Layer0Line::random_for_line(&params, grid.width(), &mut rng);
    let rule = GradientTrixRule::new(params);
    let pulses = 5;
    let trace = run_dataflow(&grid, &env, &layer0, &rule, &model, pulses);

    let skew = max_intra_layer_skew(&grid, &trace, 0..pulses);
    let bound = theory::thm_1_1_bound(&params, grid.base().diameter());
    println!(
        "\nlocal skew among correct nodes: {:.2} ps (fault-free bound {:.2} ps)",
        skew.as_f64(),
        bound.as_f64()
    );

    // Corollary 4.29: every correct node pulses within [t_min + Λ − 2κ,
    // t_max + Λ + 2κ] of its correct predecessors — no matter what the
    // faulty ones do.
    let violations = check_pulse_interval(&grid, &trace, &params, 0..pulses, 2.0);
    println!(
        "Corollary 4.29 median-interval violations at 2κ slack: {}",
        violations.len()
    );
    assert!(violations.is_empty());
    assert!(skew <= bound * 3.0, "skew must stay O(κ log D)");
    println!("fault containment verified.");

    // Time-varying adversary: a silent fault *wave* crawling down the
    // middle column, one node per pulse — 1-local at every instant even
    // though five positions misbehave over the run.
    let wave =
        FaultCampaign::moving_window(&grid, grid.width() / 2, 1, 5, 1, FaultBehavior::Silent);
    for k in 0..pulses {
        assert!(is_one_local(&grid, &wave.active_set(k)));
    }
    let trace = run_dataflow(&grid, &env, &layer0, &rule, &wave, pulses);
    let wave_skew = max_intra_layer_skew(&grid, &trace, 0..pulses);
    println!(
        "\nmoving fault wave ({} positions, ≤1 active per pulse): skew {:.2} ps",
        wave.fault_count(),
        wave_skew.as_f64()
    );
    assert!(
        wave_skew <= bound * 3.0,
        "the moving wave must stay contained"
    );
    println!("campaign containment verified.");
}
