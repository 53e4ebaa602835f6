//! Experiment `fig5_jc_ablation` — Figure 5.
//!
//! *Claim:* without the jump condition's damping, adjacent nodes jumping
//! in opposite directions sustain (and, if jumps overshoot, amplify) an
//! oscillation; the published margin `3κ/2` damps it.
//!
//! *Workload:* a **cycle** base graph (so every neighborhood alternates
//! perfectly — the replicated-ends boundary would otherwise heal the
//! pattern) whose layer 0 emits a sawtooth (`±A` alternating by column
//! parity, `A ≫ κ`): every node's own predecessor is extremal relative
//! to its neighbors. Under the bare GCS rule (Algorithm 1, which is what
//! Figure 5 illustrates) the closed-form dynamics are `A ← A − m` per
//! layer for damping margin `m`, so:
//!
//! * `m = 3κ/2` (paper): amplitude decays into the `O(κ)` regime;
//! * `m = 0`: amplitude sustained;
//! * `m = −κ/2` (overshoot): amplitude *grows* by `κ/2` per layer —
//!   skews "grow without bound" exactly as the figure shows.
//!
//! **Additional finding** (reported in the last column): the *complete*
//! Algorithm 3 caps the divergence even with an overshooting margin,
//! because a pulse arriving more than `3κ/2 + ϑκ` after the last
//! neighbor is treated as faulty-late by the receive-loop deadline — the
//! fault-containment machinery doubles as an oscillation limiter. The
//! jump condition is still what brings the skew down to the `O(κ)` floor.

use crate::common::standard_params;
use crate::suite::{kv, Scenario};
use crate::Scale;
use trix_analysis::{fmt_f64, skew_by_layer, Table};
use trix_core::{CorrectionConfig, GradientTrixRule, MissingNeighborPolicy, SimplifiedRule};
use trix_sim::{run_dataflow, CorrectSends, OffsetLayer0, PulseRule, StaticEnvironment};
use trix_topology::{BaseGraph, LayeredGraph};

/// Sawtooth layer-0 source with the given absolute amplitude.
fn sawtooth_layer0(width: usize, period: f64, amplitude: f64) -> OffsetLayer0 {
    let offsets = (0..width)
        .map(|v| if v % 2 == 0 { amplitude } else { -amplitude })
        .collect();
    OffsetLayer0::new(period, offsets)
}

fn config(margin: f64) -> CorrectionConfig {
    CorrectionConfig {
        jump_margin_kappas: margin,
        missing_neighbor: MissingNeighborPolicy::StickToEarlier,
    }
}

fn sawtooth_series<R: PulseRule>(
    g: &LayeredGraph,
    rule: &R,
    amplitude_kappas: f64,
) -> Vec<Option<f64>> {
    let p = standard_params();
    let env = StaticEnvironment::nominal(g, p.d());
    let layer0 = sawtooth_layer0(
        g.width(),
        p.lambda().as_f64(),
        amplitude_kappas * p.kappa().as_f64(),
    );
    let trace = run_dataflow(g, &env, &layer0, rule, &CorrectSends, 1);
    skew_by_layer(g, &trace, 0)
}

/// Runs the ablation over the given jump margins (in multiples of κ).
pub fn run(width: usize, layers: usize, margins_kappas: &[f64]) -> Table {
    let p = standard_params();
    assert!(
        width.is_multiple_of(2),
        "cycle width must be even for a clean sawtooth"
    );
    let g = LayeredGraph::new(BaseGraph::cycle(width), layers);

    let mut headers: Vec<String> = vec!["layer".into()];
    for &m in margins_kappas {
        headers.push(format!("Alg1 @ margin {m}κ"));
    }
    headers.push("Alg3 @ margin -0.5κ (deadline caps)".into());
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut table = Table::new(
        "Fig 5 — jump-condition ablation: sawtooth skew by layer (units: raw)",
        &header_refs,
    );

    let mut series = Vec::new();
    for &m in margins_kappas {
        let rule = SimplifiedRule::with_config(p, config(m));
        series.push(sawtooth_series(&g, &rule, 5.0));
    }
    let full = GradientTrixRule::with_config(p, config(-0.5));
    series.push(sawtooth_series(&g, &full, 5.0));

    for layer in 0..layers {
        let mut row = vec![layer.to_string()];
        for s in &series {
            row.push(fmt_f64(s[layer].unwrap_or(f64::NAN)));
        }
        table.row_values(&row);
    }
    table
}

/// Scenario decomposition for the sweep runner: one scenario covering the
/// whole margin sweep (the margins share a single closed-form workload).
pub fn scenarios(scale: Scale, _base_seed: u64) -> Vec<Scenario> {
    let (width, layers) = scale.pick((8usize, 8usize), (8, 16), (16, 48));
    let margins = scale.pick(
        &[1.5, 0.0, -0.5][..],
        &[1.5, 1.0, 0.5, 0.0, -0.5][..],
        &[1.5, 1.0, 0.5, 0.0, -0.5][..],
    );
    vec![Scenario::new(
        "fig5",
        format!("w={width},l={layers}"),
        vec![
            kv("width", width),
            kv("layers", layers),
            kv("margins", format!("{margins:?}")),
        ],
        &[],
        move || run(width, layers, margins),
    )]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn final_skew_alg1(margin: f64, width: usize, layers: usize) -> f64 {
        let p = standard_params();
        let g = LayeredGraph::new(BaseGraph::cycle(width), layers);
        let rule = SimplifiedRule::with_config(p, config(margin));
        sawtooth_series(&g, &rule, 5.0)[layers - 1].unwrap()
    }

    #[test]
    fn paper_margin_damps_the_oscillation() {
        let p = standard_params();
        let k = p.kappa().as_f64();
        let damped = final_skew_alg1(1.5, 10, 24);
        // Initial peak-to-peak skew is 10κ; the damped run must fall to
        // the O(κ) floor.
        assert!(damped < 2.0 * k, "damped skew {damped} vs kappa {k}");
    }

    #[test]
    fn zero_margin_sustains_overshoot_amplifies() {
        let p = standard_params();
        let k = p.kappa().as_f64();
        let sustained = final_skew_alg1(0.0, 10, 24);
        // m = 0: amplitude sustained at the initial 10κ peak-to-peak.
        assert!(
            (sustained - 10.0 * k).abs() < 1.5 * k,
            "sustained {sustained} should stay near 10κ = {}",
            10.0 * k
        );
        // m = −κ/2: grows by ~κ per layer of skew.
        let grown = final_skew_alg1(-0.5, 10, 24);
        assert!(
            grown > 10.0 * k + 20.0 * 0.9 * k,
            "overshoot must amplify: {grown}"
        );
        // And keeps growing with depth — the "arbitrarily large skews" of
        // Figure 5.
        let deeper = final_skew_alg1(-0.5, 10, 48);
        assert!(deeper > grown + 15.0 * k, "deeper {deeper} vs {grown}");
    }

    #[test]
    fn full_algorithm_deadline_caps_the_divergence() {
        let p = standard_params();
        let k = p.kappa().as_f64();
        let g = LayeredGraph::new(BaseGraph::cycle(10), 48);
        let full = GradientTrixRule::with_config(p, config(-0.5));
        let series = sawtooth_series(&g, &full, 5.0);
        let last = series[47].unwrap();
        assert!(
            last < 5.0 * k,
            "Algorithm 3's receive-loop deadline must cap the oscillation: {last}"
        );
    }

    #[test]
    fn table_renders() {
        let t = run(8, 12, &[1.5, 0.0, -0.5]);
        assert_eq!(t.len(), 12);
    }
}
