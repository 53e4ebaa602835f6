//! The paper's open question (3): tolerating `f = 2` faults per
//! neighborhood at in-degree `2f + 1 = 5`, probed with the rank-statistic
//! prototype (`RobustRule`) on the square of a cycle.
//!
//! ```text
//! cargo run --release --example extension_f2
//! ```

use gradient_trix::analysis::{intra_layer_skew, max_intra_layer_skew};
use gradient_trix::core::{Params, RobustRule};
use gradient_trix::faults::{FaultBehavior, FaultCampaign, FaultSchedule};
use gradient_trix::sim::{run_dataflow, OffsetLayer0, Rng, StaticEnvironment};
use gradient_trix::time::Duration;
use gradient_trix::topology::{BaseGraph, LayeredGraph};

fn main() {
    let params = Params::with_standard_lambda(Duration::from(2000.0), Duration::from(1.0), 1.0001);
    let f = 2;
    // Cycle power 2: every node adjacent to its 2 nearest neighbors on
    // each side -> layered in-degree 5 = 2f + 1.
    let grid = LayeredGraph::new(BaseGraph::cycle_power(20, f), 16);
    println!(
        "grid: cycle^2 of 20 × 16 layers, in-degree {} (2f+1 for f = {f})",
        grid.in_degree(0)
    );

    // Three clusters of TWO adjacent faulty nodes each — each pair shares
    // successors, i.e. genuine 2-local fault neighborhoods that the f = 1
    // algorithm cannot tolerate by design.
    let kappa = params.kappa();
    let mut model = FaultCampaign::new();
    for (c, layer) in [(0usize, 3usize), (7, 7), (13, 11)] {
        model.insert(
            grid.node(c, layer),
            FaultSchedule::Always(FaultBehavior::Silent),
        );
        model.insert(
            grid.node(c + 1, layer),
            FaultSchedule::Always(FaultBehavior::Shift(kappa * 20.0)),
        );
        println!("fault pair at columns {c},{} on layer {layer}", c + 1);
    }

    let mut rng = Rng::seed_from(6);
    let env = StaticEnvironment::random(&grid, params.d(), params.u(), params.theta(), &mut rng);
    let layer0 = OffsetLayer0::synchronized(params.lambda().as_f64(), grid.width());
    let rule = RobustRule::new(params, f);
    let pulses = 4;
    let trace = run_dataflow(&grid, &env, &layer0, &rule, &model, pulses);

    let skew = max_intra_layer_skew(&grid, &trace, 0..pulses);
    println!(
        "\nlocal skew among correct nodes: {:.2} (κ = {:.2})",
        skew.as_f64(),
        kappa.as_f64()
    );
    for layer in [2usize, 4, 8, 12, 15] {
        let s = intra_layer_skew(&grid, &trace, pulses - 1, layer).unwrap();
        println!("  layer {layer:>2}: {:.2}", s.as_f64());
    }
    println!(
        "\npaired faults contained at the O(κ) scale — experimental support \
         for the 2f+1 conjecture (no proof claimed; see the `exp_ext_f2` \
         experiment)."
    );
}
