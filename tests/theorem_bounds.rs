//! Larger-scale theorem sweeps, kept as integration tests so every
//! `cargo test` re-verifies the headline claims at non-toy sizes.

use gradient_trix::analysis::{
    full_local_skew, global_skew, max_intra_layer_skew, observation_4_2_holds, theory,
};
use gradient_trix::core::{GradientTrixRule, Layer0Line, Params};
use gradient_trix::faults::{sample_one_local, FaultBehavior, FaultCampaign};
use gradient_trix::sim::{run_dataflow, CorrectSends, Rng, StaticEnvironment};
use gradient_trix::time::Duration;
use gradient_trix::topology::{BaseGraph, LayeredGraph, NodeId};

fn params() -> Params {
    Params::with_standard_lambda(Duration::from(2000.0), Duration::from(1.0), 1.0001)
}

fn run(
    g: &LayeredGraph,
    p: &Params,
    sends: &impl gradient_trix::sim::SendModel,
    pulses: usize,
    seed: u64,
) -> gradient_trix::sim::PulseTrace {
    let mut rng = Rng::seed_from(seed);
    let env = StaticEnvironment::random(g, p.d(), p.u(), p.theta(), &mut rng);
    let layer0 = Layer0Line::random_for_line(p, g.width(), &mut rng);
    run_dataflow(g, &env, &layer0, &GradientTrixRule::new(*p), sends, pulses)
}

#[test]
fn thm_1_1_at_width_96() {
    let p = params();
    let g = LayeredGraph::new(BaseGraph::line_with_replicated_ends(96), 96);
    let trace = run(&g, &p, &CorrectSends, 2, 1);
    let skew = max_intra_layer_skew(&g, &trace, 0..2);
    assert!(skew <= theory::thm_1_1_bound(&p, g.base().diameter()));
}

#[test]
fn thm_1_3_at_width_48_multiple_seeds() {
    let p = params();
    let g = LayeredGraph::new(BaseGraph::line_with_replicated_ends(48), 48);
    let n = g.node_count() as f64;
    let prob = 0.4 * n.powf(-0.55);
    let reference = theory::thm_1_1_bound(&p, g.base().diameter()) * 3.0;
    for seed in 0..4u64 {
        let mut rng = Rng::seed_from(seed ^ 0x1234);
        let (positions, _) = sample_one_local(&g, prob, 1, &mut rng);
        let mut sorted: Vec<NodeId> = positions.into_iter().collect();
        sorted.sort();
        let model = FaultCampaign::from_static(sorted.into_iter().enumerate().map(|(i, node)| {
            let b = match i % 3 {
                0 => FaultBehavior::Silent,
                1 => FaultBehavior::Shift(p.kappa() * 18.0),
                _ => FaultBehavior::Shift(p.kappa() * -18.0),
            };
            (node, b)
        }));
        let trace = run(&g, &p, &model, 3, seed);
        let skew = max_intra_layer_skew(&g, &trace, 0..3);
        assert!(skew <= reference, "seed {seed}: {skew} vs {reference}");
    }
}

#[test]
fn thm_1_4_full_skew_at_width_48() {
    let p = params();
    let g = LayeredGraph::new(BaseGraph::line_with_replicated_ends(48), 48);
    let trace = run(&g, &p, &CorrectSends, 5, 9);
    let skew = full_local_skew(&g, &trace, 1..5);
    assert!(skew <= theory::thm_1_1_bound(&p, g.base().diameter()) * 2.0);
}

#[test]
fn cor_4_24_global_skew_at_width_64() {
    let p = params();
    let g = LayeredGraph::new(BaseGraph::line_with_replicated_ends(64), 64);
    let trace = run(&g, &p, &CorrectSends, 2, 5);
    let bound = theory::cor_4_24_global_bound(&p, g.base().diameter());
    for layer in (0..g.layer_count()).step_by(7) {
        let gs = global_skew(&g, &trace, 1, layer).unwrap();
        assert!(gs <= bound, "layer {layer}: {gs} > {bound}");
    }
}

#[test]
fn observation_4_2_holds_even_with_faults() {
    // Observation 4.2 is definitional — it must hold on any trace,
    // including faulty ones (correct nodes only).
    let p = params();
    let g = LayeredGraph::new(BaseGraph::line_with_replicated_ends(20), 20);
    let model = FaultCampaign::from_static([
        (g.node(5, 4), FaultBehavior::Silent),
        (g.node(12, 9), FaultBehavior::Shift(p.kappa() * 25.0)),
    ]);
    let trace = run(&g, &p, &model, 2, 2);
    for layer in 0..g.layer_count() {
        assert!(observation_4_2_holds(&g, &trace, &p, 1, layer, 6));
    }
}

#[test]
fn skew_is_flat_in_depth_for_fixed_base_graph() {
    // With the base graph (and hence D) fixed, deepening the grid must not
    // grow the intra-layer skew — the bound depends on D only.
    let p = params();
    let shallow = LayeredGraph::new(BaseGraph::line_with_replicated_ends(16), 8);
    let deep = LayeredGraph::new(BaseGraph::line_with_replicated_ends(16), 64);
    let s1 = max_intra_layer_skew(&shallow, &run(&shallow, &p, &CorrectSends, 2, 3), 0..2);
    let s2 = max_intra_layer_skew(&deep, &run(&deep, &p, &CorrectSends, 2, 3), 0..2);
    assert!(
        s2 <= s1 * 2.0 + p.kappa(),
        "deepening must not grow skew: {s1} -> {s2}"
    );
}
