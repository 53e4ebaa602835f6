//! Self-stabilization (Theorem 1.6): recovery from a completely
//! scrambled system state in the event-driven simulator.
//!
//! Every grid node starts with random bogus reception state and spurious
//! messages are already in flight; one node is additionally permanently
//! dead. The run shows when each layer settles back into Λ-periodic
//! pulsing.
//!
//! ```text
//! cargo run --release --example self_stabilization
//! ```

use gradient_trix::analysis::theory;
use gradient_trix::core::Params;
use gradient_trix::faults::scrambled_network;
use gradient_trix::sim::{Rng, StaticEnvironment};
use gradient_trix::time::{Duration, Time};
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
    let source_pulses = (2 * budget + 10) as u64;
    let mut net = scrambled_network(
        &grid,
        &params,
        &env,
        source_pulses,
        50, // spurious in-flight messages
        &permanent,
        &mut rng,
    );
    // Stop at the source's last pulse, before the pipeline drains.
    let lambda = params.lambda().as_f64();
    net.run(Time::from(source_pulses as f64 * lambda));

    let by_node = net.broadcasts_by_node();
    println!("\nper-layer worst stabilization pulse (gaps settle to Λ ± κ):");
    for layer in 1..grid.layer_count() {
        let worst = theory::layer_stabilization_pulse(
            &params, &grid, net.index, &by_node, layer, &permanent,
        );
        match worst {
            Some(worst) => println!("  layer {layer}: stabilized by pulse {worst}"),
            None => println!("  layer {layer}: never stabilized"),
        }
    }
    println!(
        "\nevents processed: {}; Theorem 1.6 budget (layers + D): {budget}",
        net.des.events_processed(),
    );
}
