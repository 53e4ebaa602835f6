//! Three-way comparison (the paper's Table 1 in miniature): naive TRIX,
//! HEX, and Gradient TRIX on equal terms.
//!
//! ```text
//! cargo run --release --example compare_baselines
//! ```

use gradient_trix::analysis::{intra_layer_skew, Table};
use gradient_trix::baselines::{run_hex_pulse, split_delay_env, HexEnvironment, NaiveTrixRule};
use gradient_trix::core::{GradientTrixRule, Params};
use gradient_trix::sim::{run_dataflow, CorrectSends, OffsetLayer0, Rng};
use gradient_trix::time::{Duration, Time};
use gradient_trix::topology::{BaseGraph, HexGrid, LayeredGraph};
use std::collections::HashSet;

fn main() {
    let params = Params::with_standard_lambda(Duration::from(2000.0), Duration::from(1.0), 1.0001);
    let width = 32;
    let grid = LayeredGraph::new(BaseGraph::line_with_replicated_ends(width), width);

    // Adversarial split: left half fast (d−u), right half slow (d) — the
    // delay pattern that breaks the naive second-copy rule.
    let env = split_delay_env(&grid, params.d(), params.u());
    let layer0 = OffsetLayer0::synchronized(params.lambda().as_f64(), grid.width());

    let naive = run_dataflow(
        &grid,
        &env,
        &layer0,
        &NaiveTrixRule::new(),
        &CorrectSends,
        1,
    );
    let gt = run_dataflow(
        &grid,
        &env,
        &layer0,
        &GradientTrixRule::new(params),
        &CorrectSends,
        1,
    );

    // HEX with one crashed node mid-grid.
    let hex_grid = HexGrid::new(width, width);
    let mut rng = Rng::seed_from(1);
    let hex_env = HexEnvironment::random(&hex_grid, params.d(), params.u(), &mut rng);
    let crashed: HashSet<_> = [hex_grid.node(width / 2, width / 2)].into_iter().collect();
    let hex = run_hex_pulse(&hex_grid, &hex_env, &vec![Time::ZERO; width], &crashed);

    let mut table = Table::new(
        "Local skew by depth (adversarial delays; HEX has one crash)",
        &["layer", "naive TRIX", "HEX", "Gradient TRIX"],
    );
    for layer in (3..grid.layer_count()).step_by(4) {
        table.row_values(&[
            layer.to_string(),
            format!(
                "{:.2}",
                intra_layer_skew(&grid, &naive, 0, layer).unwrap().as_f64()
            ),
            format!("{:.2}", hex.local_skew(layer).unwrap().as_f64()),
            format!(
                "{:.2}",
                intra_layer_skew(&grid, &gt, 0, layer).unwrap().as_f64()
            ),
        ]);
    }
    println!("{}", table.to_markdown());
    println!(
        "naive TRIX grows u per layer; HEX pays a full d = {} after the crash; \
         Gradient TRIX holds the gradient at O(κ log D) with κ = {:.2}.",
        params.d(),
        params.kappa().as_f64()
    );
}
