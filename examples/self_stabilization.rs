//! Self-stabilization (Theorem 1.6): recovery from a completely
//! scrambled system state in the event-driven simulator.
//!
//! Every grid node starts with random bogus reception state and spurious
//! messages are already in flight; one node is additionally permanently
//! dead. The run shows when each layer has stabilized: from which pulse
//! on every node of the layer fires exactly, bit for bit, as in a
//! clean-start run of the same deployment. It asserts that every layer
//! does so within Theorem 1.6's `layers + D` budget.
//!
//! ```text
//! cargo run --release --example self_stabilization
//! ```

use gradient_trix::analysis::theory;
use gradient_trix::core::Params;
use gradient_trix::faults::scrambled_convergence;
use gradient_trix::sim::{Rng, StaticEnvironment};
use gradient_trix::time::Duration;
use gradient_trix::topology::{BaseGraph, LayeredGraph};
use std::collections::HashSet;

fn main() {
    let params = Params::with_standard_lambda(Duration::from(2000.0), Duration::from(1.0), 1.0001);
    let grid = LayeredGraph::new(BaseGraph::line_with_replicated_ends(6), 6);
    let mut rng = Rng::seed_from(1);
    let env = StaticEnvironment::random(&grid, params.d(), params.u(), params.theta(), &mut rng);

    let dead = grid.node(3, 2);
    let permanent: HashSet<_> = [dead].into_iter().collect();
    println!(
        "scrambling all {} grid nodes; permanent silent fault at {dead}",
        grid.node_count()
    );

    let budget = theory::thm_1_6_pulse_budget(grid.base().diameter(), grid.layer_count());
    let spurious = 50; // in-flight messages at time 0
    let layers = scrambled_convergence(&grid, &params, &env, spurious, &permanent, &mut rng);

    println!("\nper-layer worst stabilization pulse (joins the clean-start run):");
    for (layer, worst) in layers.iter().enumerate().skip(1) {
        match worst {
            Some(worst) => println!("  layer {layer}: stabilized by pulse {worst}"),
            None => println!("  layer {layer}: never stabilized"),
        }
        assert!(
            worst.is_some_and(|w| w <= budget),
            "layer {layer} is not stabilized within the budget of {budget} pulses"
        );
    }
    println!("\nTheorem 1.6 budget (layers + D): {budget}");
}
