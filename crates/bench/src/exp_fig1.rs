//! Experiment `fig1_trix_hex_skew` — Figure 1.
//!
//! *Claim (left):* naive TRIX (second-copy forwarding) accumulates local
//! skew `Θ(u·ℓ)` by layer `ℓ` under an adversarial delay split, while
//! Gradient TRIX holds it at `O(κ log D)` under the same environment.
//!
//! *Claim (right):* in HEX, a crashed previous-layer neighbor costs the
//! victim a full message delay `d` of local skew (versus `u`-scale
//! otherwise).

use crate::common::{square_grid, standard_params};
use crate::suite::{kv, Scenario, ScenarioResult};
use crate::Scale;
use std::collections::HashSet;
use trix_analysis::{fmt_f64, skew_by_layer, theory, Table};
use trix_baselines::{run_hex_pulse, split_delay_env, HexEnvironment, NaiveTrixRule};
use trix_core::GradientTrixRule;
use trix_sim::{run_dataflow, CorrectSends, OffsetLayer0};
use trix_time::Time;
use trix_topology::HexGrid;

/// Skew-by-layer series for naive TRIX vs Gradient TRIX under the same
/// adversarial split-delay environment. The Theorem 1.1 bound is the
/// condition oracle for the Gradient TRIX column: a layer above it is a
/// violation (naive TRIX is expected to exceed it).
pub fn run_skew_by_layer(width: usize) -> ScenarioResult {
    let p = standard_params();
    let g = square_grid(width);
    let env = split_delay_env(&g, p.d(), p.u());
    let layer0 = OffsetLayer0::synchronized(p.lambda().as_f64(), g.width());

    let naive = run_dataflow(&g, &env, &layer0, &NaiveTrixRule::new(), &CorrectSends, 1);
    let gt = run_dataflow(
        &g,
        &env,
        &layer0,
        &GradientTrixRule::new(p),
        &CorrectSends,
        1,
    );
    let naive_series = skew_by_layer(&g, &naive, 0);
    let gt_series = skew_by_layer(&g, &gt, 0);

    let mut table = Table::new(
        "Fig 1 (left) — local skew by layer: naive TRIX vs Gradient TRIX, adversarial delays",
        &[
            "layer",
            "naive TRIX",
            "u·layer (predicted)",
            "Gradient TRIX",
            "GT bound",
        ],
    );
    let bound = theory::thm_1_1_bound(&p, g.base().diameter()).as_f64();
    let mut violations = Vec::new();
    for layer in 0..g.layer_count() {
        if let Some(skew) = gt_series[layer].filter(|&s| s > bound) {
            violations.push(format!(
                "layer {layer}: Gradient TRIX skew {skew} exceeds the GT bound {bound} \
                 (width {width}, adversarial split)"
            ));
        }
        table.row_values(&[
            layer.to_string(),
            fmt_f64(naive_series[layer].unwrap_or(f64::NAN)),
            fmt_f64(theory::naive_trix_worst_case(&p, layer).as_f64()),
            fmt_f64(gt_series[layer].unwrap_or(f64::NAN)),
            fmt_f64(bound),
        ]);
    }
    ScenarioResult::checked(table, violations)
}

/// HEX crash penalty: local skew on the layer after a crashed node, with
/// and without the crash.
pub fn run_hex_crash(width: usize, layers: usize) -> Table {
    let p = standard_params();
    let grid = HexGrid::new(width, layers);
    let mut rng = trix_sim::Rng::seed_from(3);
    let env = HexEnvironment::random(&grid, p.d(), p.u(), &mut rng);
    let layer0 = vec![Time::ZERO; width];

    let healthy = run_hex_pulse(&grid, &env, &layer0, &HashSet::new());
    let crash_layer = layers / 2;
    let crashed: HashSet<_> = [grid.node(width / 2, crash_layer)].into_iter().collect();
    let faulty = run_hex_pulse(&grid, &env, &layer0, &crashed);

    let mut table = Table::new(
        "Fig 1 (right) — HEX local skew with a crashed node (crash at mid-grid)",
        &["layer", "healthy", "with crash", "d (predicted penalty)"],
    );
    for layer in 1..layers {
        table.row_values(&[
            layer.to_string(),
            fmt_f64(healthy.local_skew(layer).map_or(f64::NAN, |d| d.as_f64())),
            fmt_f64(faulty.local_skew(layer).map_or(f64::NAN, |d| d.as_f64())),
            fmt_f64(theory::hex_fault_penalty(&p).as_f64()),
        ]);
    }
    table
}

/// Scenario decomposition for the sweep runner: the TRIX skew-by-layer
/// series and the HEX crash comparison are independent scenarios.
pub fn scenarios(scale: Scale, _base_seed: u64) -> Vec<Scenario> {
    let skew_width = scale.pick(8usize, 12, 48);
    let (hex_width, hex_layers) = scale.pick((8usize, 6usize), (8, 6), (16, 12));
    vec![
        Scenario::new(
            "fig1_skew",
            format!("w={skew_width}"),
            vec![kv("width", skew_width)],
            &[],
            move || run_skew_by_layer(skew_width),
        ),
        Scenario::new(
            "fig1_hex",
            format!("w={hex_width},l={hex_layers}"),
            vec![kv("width", hex_width), kv("layers", hex_layers)],
            &[],
            move || run_hex_crash(hex_width, hex_layers),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use trix_analysis::intra_layer_skew;

    #[test]
    fn naive_trix_grows_linearly_gradient_trix_does_not() {
        let p = standard_params();
        let g = square_grid(16);
        let env = split_delay_env(&g, p.d(), p.u());
        let layer0 = OffsetLayer0::synchronized(p.lambda().as_f64(), g.width());
        let naive = run_dataflow(&g, &env, &layer0, &NaiveTrixRule::new(), &CorrectSends, 1);
        let gt = run_dataflow(
            &g,
            &env,
            &layer0,
            &GradientTrixRule::new(p),
            &CorrectSends,
            1,
        );
        let last = g.layer_count() - 1;
        let naive_last = intra_layer_skew(&g, &naive, 0, last).unwrap();
        let gt_last = intra_layer_skew(&g, &gt, 0, last).unwrap();
        // Naive accumulates u per layer at the split boundary.
        assert!(
            naive_last >= p.u() * (last as f64) * 0.99,
            "naive {naive_last}"
        );
        // Gradient TRIX keeps it logarithmic — at least 2x better here.
        assert!(
            gt_last.as_f64() < naive_last.as_f64() / 2.0,
            "gt {gt_last} vs naive {naive_last}"
        );
        assert!(gt_last <= theory::thm_1_1_bound(&p, g.base().diameter()));
    }

    #[test]
    fn hex_crash_penalty_is_a_full_delay() {
        let p = standard_params();
        let grid = HexGrid::new(8, 6);
        let env = HexEnvironment::fixed(p.d());
        let layer0 = vec![Time::ZERO; 8];
        let crashed: HashSet<_> = [grid.node(4, 3)].into_iter().collect();
        let healthy = run_hex_pulse(&grid, &env, &layer0, &HashSet::new());
        let faulty = run_hex_pulse(&grid, &env, &layer0, &crashed);
        let h = healthy.local_skew(4).unwrap();
        let f = faulty.local_skew(4).unwrap();
        assert_eq!(h, trix_time::Duration::ZERO);
        assert_eq!(f, p.d(), "crash must cost one full delay");
    }

    #[test]
    fn tables_render() {
        let r = run_skew_by_layer(8);
        assert_eq!(r.table.len(), 8);
        assert!(r.violations.is_empty(), "{:?}", r.violations);
        let t = run_hex_crash(8, 6);
        assert_eq!(t.len(), 5);
    }
}
