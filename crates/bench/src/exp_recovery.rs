//! Experiment `recovery` — Theorem 4.26 / Lemma 4.22: the algorithm's
//! *gradient* self-stabilization.
//!
//! *Claim:* if the potential `Ψ^s` becomes unexpectedly large (e.g. after
//! a transient disturbance), it decays again as pulses propagate through
//! further layers — each level `s` halves within `2Ψ^{s-1}/κ` layers, so
//! the local skew returns to `O(κ log D)` without any global reset.
//!
//! *Workload:* a clean run is disturbed at one layer by shifting the
//! pulses of a block of columns (simulating the wake of a transient
//! upset); we record the intra-layer skew as a function of distance past
//! the disturbed layer and check geometric decay back to the baseline.

use crate::common::{grid, standard_params};
use crate::suite::{kv, Scenario};
use crate::Scale;
use trix_analysis::{fmt_f64, skew_by_layer, Table};
use trix_core::{GradientTrixRule, Params};
use trix_sim::{run_dataflow, CorrectSends, Layer0Source, OffsetLayer0, StaticEnvironment};
use trix_time::Time;

/// A layer-0 source that injects a one-shot block disturbance: columns
/// `0..block` pulse `amplitude` late.
struct DisturbedLayer0 {
    inner: OffsetLayer0,
    block: usize,
    amplitude: f64,
}

impl Layer0Source for DisturbedLayer0 {
    fn pulse_time(&self, k: usize, v: usize) -> Time {
        let base = self.inner.pulse_time(k, v);
        if v < self.block {
            base + trix_time::Duration::from(self.amplitude)
        } else {
            base
        }
    }
}

/// Intra-layer skew by layer (`None` where a layer has no pair) of one
/// pulse on a nominal `width × layers` grid whose layer 0 pulses columns
/// `0..width/2` late by `amplitude_kappas·κ`.
pub fn disturbed_series(width: usize, layers: usize, amplitude_kappas: f64) -> Vec<Option<f64>> {
    let p: Params = standard_params();
    let g = grid(width, layers);
    let env = StaticEnvironment::nominal(&g, p.d());
    let layer0 = DisturbedLayer0 {
        inner: OffsetLayer0::synchronized(p.lambda().as_f64(), g.width()),
        block: g.width() / 2,
        amplitude: amplitude_kappas * p.kappa().as_f64(),
    };
    let rule = GradientTrixRule::new(p);
    let trace = run_dataflow(&g, &env, &layer0, &rule, &CorrectSends, 1);
    skew_by_layer(&g, &trace, 0)
}

/// Runs the recovery experiment: skew by layer after a block disturbance
/// of `amplitude_kappas·κ`.
pub fn run(width: usize, layers: usize, amplitude_kappas: f64) -> Table {
    let series = disturbed_series(width, layers, amplitude_kappas);
    let mut table = Table::new(
        "Thm 4.26 — gradient recovery after a block disturbance (skew by layer)",
        &["layer", "skew", "skew/κ"],
    );
    let kappa = standard_params().kappa().as_f64();
    for (layer, s) in series.iter().enumerate() {
        let s = s.unwrap_or(f64::NAN);
        table.row_values(&[layer.to_string(), fmt_f64(s), fmt_f64(s / kappa)]);
    }
    table
}

/// Scenario decomposition for the sweep runner: one deterministic
/// closed-form scenario.
pub fn scenarios(scale: Scale, _base_seed: u64) -> Vec<Scenario> {
    let (width, layers) = scale.pick((8usize, 12usize), (10, 16), (16, 48));
    let amplitude_kappas = 20.0;
    vec![Scenario::new(
        "recovery",
        format!("w={width},l={layers}"),
        vec![
            kv("width", width),
            kv("layers", layers),
            kv("amplitude_kappas", amplitude_kappas),
        ],
        &[],
        move || run(width, layers, amplitude_kappas),
    )]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Layers needed until the skew falls below `target_kappas·κ`.
    fn recovery_depth(
        width: usize,
        layers: usize,
        amplitude_kappas: f64,
        target_kappas: f64,
    ) -> Option<usize> {
        let target = target_kappas * standard_params().kappa().as_f64();
        disturbed_series(width, layers, amplitude_kappas)
            .iter()
            .position(|s| s.is_some_and(|s| s <= target))
    }

    #[test]
    fn disturbance_decays_with_depth() {
        let k = standard_params().kappa().as_f64();
        let series = disturbed_series(12, 40, 20.0);
        let at0 = series[0].unwrap();
        let at_end = series[39].unwrap();
        assert!(at0 >= 19.0 * k, "disturbance visible at layer 0: {at0}");
        assert!(
            at_end <= 2.0 * k,
            "must recover to the O(κ) regime: {at_end}"
        );
        // Monotone-ish decay: the skew at depth 20 is already much lower.
        let mid = series[20].unwrap();
        assert!(mid < at0 / 2.0, "halfway point {mid} vs initial {at0}");
    }

    #[test]
    fn larger_disturbances_take_longer() {
        let small = recovery_depth(12, 60, 10.0, 2.0).expect("recovers");
        let large = recovery_depth(12, 60, 40.0, 2.0).expect("recovers");
        assert!(
            large > small,
            "recovery depth must grow with amplitude: {small} vs {large}"
        );
    }

    #[test]
    fn table_renders() {
        let t = run(10, 16, 20.0);
        assert_eq!(t.len(), 16);
    }
}
