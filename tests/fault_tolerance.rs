//! Cross-crate fault-tolerance scenarios: every fault behavior, placed
//! 1-locally, must leave the correct nodes' skew bounded and the
//! median-interval invariant intact.

use gradient_trix::analysis::{max_intra_layer_skew, theory};
use gradient_trix::core::{check_pulse_interval, GradientTrixRule, Layer0Line, Params};
use gradient_trix::faults::{
    clustered_column, is_one_local, sample_one_local, FaultBehavior, FaultCampaign,
};
use gradient_trix::sim::{run_dataflow, Rng, StaticEnvironment};
use gradient_trix::time::Duration;
use gradient_trix::topology::{BaseGraph, LayeredGraph, NodeId};

fn params() -> Params {
    Params::with_standard_lambda(Duration::from(2000.0), Duration::from(1.0), 1.0001)
}

fn run_with(
    g: &LayeredGraph,
    model: &FaultCampaign,
    pulses: usize,
    seed: u64,
) -> gradient_trix::sim::PulseTrace {
    let p = params();
    let mut rng = Rng::seed_from(seed);
    let env = StaticEnvironment::random(g, p.d(), p.u(), p.theta(), &mut rng);
    let layer0 = Layer0Line::random_for_line(&p, g.width(), &mut rng);
    run_dataflow(g, &env, &layer0, &GradientTrixRule::new(p), model, pulses)
}

fn grid() -> LayeredGraph {
    LayeredGraph::new(BaseGraph::line_with_replicated_ends(16), 16)
}

fn assert_contained(g: &LayeredGraph, model: &FaultCampaign, label: &str) {
    let p = params();
    let trace = run_with(g, model, 3, 5);
    let skew = max_intra_layer_skew(g, &trace, 0..3);
    let bound = theory::thm_1_1_bound(&p, g.base().diameter()) * 3.0;
    assert!(skew <= bound, "{label}: skew {skew} exceeds {bound}");
    let violations = check_pulse_interval(g, &trace, &p, 0..3, 2.0);
    assert!(violations.is_empty(), "{label}: {violations:?}");
}

#[test]
fn silent_fault_is_contained() {
    let g = grid();
    let model = FaultCampaign::from_static([(g.node(8, 8), FaultBehavior::Silent)]);
    assert_contained(&g, &model, "silent");
}

#[test]
fn late_shift_fault_is_contained() {
    let g = grid();
    let p = params();
    let model =
        FaultCampaign::from_static([(g.node(8, 8), FaultBehavior::Shift(p.kappa() * 30.0))]);
    assert_contained(&g, &model, "late shift");
}

#[test]
fn early_shift_fault_is_contained() {
    let g = grid();
    let p = params();
    let model =
        FaultCampaign::from_static([(g.node(8, 8), FaultBehavior::Shift(p.kappa() * -30.0))]);
    assert_contained(&g, &model, "early shift");
}

#[test]
fn two_faced_fault_is_contained() {
    let g = grid();
    let p = params();
    let model = FaultCampaign::from_static([(
        g.node(8, 8),
        FaultBehavior::TwoFaced {
            toward_lower: p.kappa() * -10.0,
            toward_higher: p.kappa() * 10.0,
        },
    )]);
    assert_contained(&g, &model, "two-faced");
}

#[test]
fn jitter_fault_is_contained() {
    let g = grid();
    let p = params();
    let model = FaultCampaign::from_static([(
        g.node(8, 8),
        FaultBehavior::Jitter {
            amplitude: p.kappa() * 8.0,
            seed: 3,
        },
    )]);
    assert_contained(&g, &model, "jitter");
}

#[test]
fn mid_run_death_is_contained() {
    let g = grid();
    let model = FaultCampaign::from_static([(g.node(8, 8), FaultBehavior::dies_at(2))]);
    let p = params();
    let trace = run_with(&g, &model, 4, 5);
    let skew = max_intra_layer_skew(&g, &trace, 0..4);
    assert!(skew <= theory::thm_1_1_bound(&p, g.base().diameter()) * 3.0);
}

#[test]
fn faulty_layer0_node_is_contained() {
    // Theorem 1.2 assumes no layer-0 faults, but the containment
    // machinery (median interval) still limits a faulty layer-0 node's
    // impact on layer 1.
    let g = grid();
    let p = params();
    let model =
        FaultCampaign::from_static([(g.node(5, 0), FaultBehavior::Shift(p.kappa() * 20.0))]);
    let trace = run_with(&g, &model, 3, 9);
    let violations = check_pulse_interval(&g, &trace, &p, 0..3, 2.0);
    assert!(violations.is_empty(), "{violations:?}");
}

#[test]
fn stacked_worst_case_faults_respect_envelope() {
    let g = grid();
    let p = params();
    for f in 0..=3usize {
        let positions = clustered_column(&g, 8, 4, 1, f);
        let mut sorted: Vec<NodeId> = positions.into_iter().collect();
        sorted.sort();
        let model = FaultCampaign::from_static(sorted.into_iter().enumerate().map(|(i, n)| {
            let sign = if i % 2 == 0 { 1.0 } else { -1.0 };
            (n, FaultBehavior::Shift(p.kappa() * (25.0 * sign)))
        }));
        let trace = run_with(&g, &model, 2, 3);
        let skew = max_intra_layer_skew(&g, &trace, 0..2);
        let envelope = theory::thm_1_2_envelope(&p, g.base().diameter(), f as u32);
        assert!(skew <= envelope, "f={f}: {skew} > {envelope}");
    }
}

#[test]
fn random_one_local_fault_sets_are_contained() {
    let g = grid();
    let p = params();
    let n = g.node_count() as f64;
    for seed in 0..5u64 {
        let mut rng = Rng::seed_from(seed);
        let (positions, _) = sample_one_local(&g, 0.5 * n.powf(-0.55), 1, &mut rng);
        assert!(is_one_local(&g, &positions));
        let mut sorted: Vec<NodeId> = positions.into_iter().collect();
        sorted.sort();
        let model = FaultCampaign::from_static(sorted.into_iter().enumerate().map(|(i, node)| {
            let b = match i % 3 {
                0 => FaultBehavior::Silent,
                1 => FaultBehavior::Shift(p.kappa() * 12.0),
                _ => FaultBehavior::Shift(p.kappa() * -12.0),
            };
            (node, b)
        }));
        assert_contained(&g, &model, &format!("random seed {seed}"));
    }
}
