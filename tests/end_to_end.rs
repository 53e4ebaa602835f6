//! End-to-end integration tests spanning all workspace crates: topology →
//! environment → algorithm → analysis, on both execution engines.

use gradient_trix::analysis::{
    full_local_skew, global_skew, intra_layer_skew, max_intra_layer_skew, psi, theory,
};
use gradient_trix::core::{
    check_gcs_conditions, check_pulse_interval, GradientTrixRule, GridNetwork, Layer0Line, Params,
};
use gradient_trix::sim::{run_dataflow, CorrectSends, Rng, StaticEnvironment};
use gradient_trix::time::{Duration, Time};
use gradient_trix::topology::{BaseGraph, LayeredGraph};

fn params() -> Params {
    Params::with_standard_lambda(Duration::from(2000.0), Duration::from(1.0), 1.0001)
}

fn random_run(
    width: usize,
    layers: usize,
    pulses: usize,
    seed: u64,
) -> (
    LayeredGraph,
    StaticEnvironment,
    gradient_trix::sim::PulseTrace,
    Params,
) {
    let p = params();
    let g = LayeredGraph::new(BaseGraph::line_with_replicated_ends(width), layers);
    let mut rng = Rng::seed_from(seed);
    let env = StaticEnvironment::random(&g, p.d(), p.u(), p.theta(), &mut rng);
    let layer0 = Layer0Line::random_for_line(&p, g.width(), &mut rng);
    let trace = run_dataflow(
        &g,
        &env,
        &layer0,
        &GradientTrixRule::new(p),
        &CorrectSends,
        pulses,
    );
    (g, env, trace, p)
}

#[test]
fn every_node_pulses_every_iteration() {
    let (g, _, trace, _) = random_run(12, 16, 4, 1);
    for k in 0..4 {
        for n in g.nodes() {
            assert!(trace.time(k, n).is_some(), "node {n} missing pulse {k}");
        }
    }
}

#[test]
fn theorem_1_1_on_rectangular_grids() {
    // Depth ≠ width: skew bound depends on the base-graph diameter only.
    let p = params();
    for (w, l) in [(8usize, 40usize), (24, 6), (16, 16)] {
        let (g, _, trace, _) = random_run(w, l, 3, 42);
        let bound = theory::thm_1_1_bound(&p, g.base().diameter());
        let skew = max_intra_layer_skew(&g, &trace, 0..3);
        assert!(skew <= bound, "{w}x{l}: {skew} > {bound}");
    }
}

#[test]
fn conditions_and_interval_hold_end_to_end() {
    let (g, env, trace, p) = random_run(10, 12, 3, 7);
    let rule = GradientTrixRule::new(p);
    let report = check_gcs_conditions(&g, &env, &trace, &rule, 0..3);
    assert!(report.checked > 200);
    assert!(report.all_hold());
    assert!(check_pulse_interval(&g, &trace, &p, 0..3, 2.0).is_empty());
}

#[test]
fn potentials_dominate_skew_observation_4_2() {
    let (g, _, trace, p) = random_run(16, 16, 2, 3);
    for layer in 0..g.layer_count() {
        let local = intra_layer_skew(&g, &trace, 1, layer).unwrap();
        for s in 0..=4u32 {
            let bound = psi(&g, &trace, &p, 1, layer, s).unwrap() + p.kappa() * (4.0 * s as f64);
            assert!(
                local <= bound + Duration::from(1e-9),
                "layer {layer} s={s}: {local} > {bound}"
            );
        }
    }
}

#[test]
fn global_skew_within_6_kappa_d() {
    let (g, _, trace, p) = random_run(20, 20, 2, 11);
    let bound = theory::cor_4_24_global_bound(&p, g.base().diameter());
    for layer in 0..g.layer_count() {
        let gs = global_skew(&g, &trace, 1, layer).unwrap();
        assert!(gs <= bound);
    }
}

#[test]
fn full_local_skew_includes_interlayer_component() {
    let (g, _, trace, _) = random_run(10, 10, 4, 5);
    let intra = max_intra_layer_skew(&g, &trace, 1..4);
    let full = full_local_skew(&g, &trace, 1..4);
    assert!(full >= intra);
}

#[test]
fn des_and_dataflow_agree_on_steady_state_period() {
    // Both engines must converge to Λ-periodic pulsing; their steady-state
    // intra-layer skews agree to within the DES boundary limit cycle O(κ).
    let p = params();
    let g = LayeredGraph::new(BaseGraph::line_with_replicated_ends(5), 5);
    let mut rng = Rng::seed_from(21);
    let env = StaticEnvironment::random(&g, p.d(), p.u(), p.theta(), &mut rng);

    // Dataflow.
    let mut df_rng = Rng::seed_from(55);
    let layer0 = Layer0Line::random_for_line(&p, g.width(), &mut df_rng);
    let trace = run_dataflow(
        &g,
        &env,
        &layer0,
        &GradientTrixRule::new(p),
        &CorrectSends,
        6,
    );
    let df_skew = max_intra_layer_skew(&g, &trace, 4..6);

    // DES.
    let mut net = GridNetwork::build(&g, &p, &env, 20, &mut rng, |_, _| None);
    net.run(Time::from(1e9));
    let by_node = net.broadcasts_by_node();
    // Nearest-pulse skew around a mid-run reference.
    let reference = 12.0 * p.lambda().as_f64();
    let nearest = |times: &[Time]| -> f64 {
        times
            .iter()
            .map(|t| t.as_f64())
            .min_by(|a, b| (a - reference).abs().total_cmp(&(b - reference).abs()))
            .unwrap()
    };
    let mut des_skew = 0f64;
    for layer in 1..g.layer_count() {
        for (a, b) in g.base().edges() {
            let ta = nearest(&by_node[net.index.engine_id(g.node(a, layer))]);
            let tb = nearest(&by_node[net.index.engine_id(g.node(b, layer))]);
            des_skew = des_skew.max((ta - tb).abs());
        }
    }
    // Same order of magnitude: both far below the bound, within ~3κ of
    // each other (different layer-0 chains and iteration phasing).
    assert!(
        (des_skew - df_skew.as_f64()).abs() <= 3.0 * p.kappa().as_f64(),
        "engines disagree: des {des_skew} vs dataflow {df_skew}"
    );
}

#[test]
fn cycle_base_graph_works_too() {
    // The analysis allows an arbitrary min-degree-2 base graph (§2).
    let p = params();
    let g = LayeredGraph::new(BaseGraph::cycle(16), 16);
    let mut rng = Rng::seed_from(2);
    let env = StaticEnvironment::random(&g, p.d(), p.u(), p.theta(), &mut rng);
    let layer0 = gradient_trix::sim::OffsetLayer0::synchronized(p.lambda().as_f64(), g.width());
    let trace = run_dataflow(
        &g,
        &env,
        &layer0,
        &GradientTrixRule::new(p),
        &CorrectSends,
        3,
    );
    let bound = theory::thm_1_1_bound(&p, g.base().diameter());
    assert!(max_intra_layer_skew(&g, &trace, 0..3) <= bound);
}
