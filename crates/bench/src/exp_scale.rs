//! Experiment `exp_scale` — order-of-magnitude grid scaling via
//! streaming observation.
//!
//! *Claim:* with the `O(nodes)` streaming skew monitor in place of a full
//! `PulseTrace`, the sweep can execute grids at least **10× wider** than
//! the largest full-trace experiment (width 128 in `thm11`) while the
//! fault-free Theorem 1.1 bound keeps holding — production-scale runs
//! where materializing the `O(nodes × pulses)` trajectory would dominate
//! memory.
//!
//! *Workload:* square grids up to width 3200 (10.2M nodes), random
//! in-model environments, streaming skew statistics only. This
//! experiment never materializes a trace; a Theorem 1.1 oracle violation
//! names each seed whose `L_intra` exceeds the bound, with its value.
//!
//! The streaming statistics land in the scenario's benchmark record
//! (`skew` object, schema v2), so `BENCH_exp_scale.json` tracks the
//! scaling trajectory; `tests/parallel_determinism.rs` pins its
//! byte-identity across `--threads` and `--sim-threads` values.

use crate::common::{
    merge_snapshots, run_gradient_trix_streaming, square_grid, standard_params, streaming_monitor,
};
use crate::suite::{kv, scenario_seeds, Scenario, ScenarioResult};
use crate::Scale;
use trix_analysis::{fmt_f64, theory, Table};
use trix_core::GradientTrixRule;
use trix_obs::SkewStats;
use trix_sim::CorrectSends;

/// The table headers of every `exp_scale` scenario (identical across
/// scenarios so the per-width shards merge).
const HEADERS: [&str; 11] = [
    "width",
    "layers",
    "D",
    "n",
    "pulses",
    "L_intra (worst seed)",
    "L_full",
    "global",
    "mean L_intra",
    "bound 4κ(2+log₂D)",
    "measured/bound",
];

/// Grid widths per scale: the full-scale sweep tops out at 25× the
/// widest full-trace experiment (`thm11` at width 128) — width 3200 is
/// a 10.2M-node grid, feasible only because the frontier engine and the
/// streaming monitor together keep the working set at
/// `O(width × workers)`.
pub fn widths(scale: Scale) -> &'static [usize] {
    match scale {
        Scale::Smoke => &[16, 40],
        Scale::Quick => &[64, 160],
        Scale::Full => &[256, 640, 1280, 3200],
    }
}

/// Runs one streaming scale scenario: the fault-free random-environment
/// Gradient TRIX run on a square grid of `width`, one `StreamingSkew` per
/// seed, merged into a result whose benchmark record carries the
/// streaming statistics. The Theorem 1.1 bound is the condition oracle;
/// its violation message names the offending seeds. `sim_threads` shards
/// each layer's width across that many dataflow workers (the
/// `--sim-threads` knob); the result is bit-identical for every value.
pub fn run(width: usize, pulses: usize, seeds: &[u64], sim_threads: usize) -> ScenarioResult {
    let p = standard_params();
    let rule = GradientTrixRule::new(p);
    let g = square_grid(width);
    let snaps: Vec<SkewStats> = seeds
        .iter()
        .map(|&seed| {
            let mut skew = streaming_monitor(&g, &p);
            run_gradient_trix_streaming(
                &g,
                &p,
                &rule,
                &CorrectSends,
                pulses,
                seed,
                sim_threads,
                &mut skew,
            );
            skew.finish();
            skew.snapshot()
        })
        .collect();
    let summary = merge_snapshots(&snaps);
    let d = g.base().diameter();
    let bound = theory::thm_1_1_bound(&p, d).as_f64();
    let mut table = Table::new(
        "exp_scale — streaming skew at 10× full-trace grid widths",
        &HEADERS,
    );
    table.row_values(&[
        width.to_string(),
        width.to_string(),
        d.to_string(),
        g.node_count().to_string(),
        pulses.to_string(),
        fmt_f64(summary.max_intra),
        fmt_f64(summary.max_full),
        fmt_f64(summary.max_global),
        fmt_f64(summary.mean_intra),
        fmt_f64(bound),
        fmt_f64(summary.max_intra / bound),
    ]);
    let violations = if summary.max_intra > bound {
        let offending: Vec<String> = seeds
            .iter()
            .zip(&snaps)
            .filter(|(_, snap)| snap.max_intra > bound)
            .map(|(seed, snap)| format!("seed {seed} L_intra {}", snap.max_intra))
            .collect();
        vec![format!(
            "streaming L_intra {} exceeds the Thm 1.1 bound {bound} (fault-free run): {}",
            summary.max_intra,
            offending.join(", ")
        )]
    } else {
        Vec::new()
    };
    ScenarioResult {
        table,
        violations,
        skew: Some(summary),
        sketch: None,
    }
}

/// Scenario decomposition: one scenario per grid width.
pub fn scenarios(scale: Scale, base_seed: u64, sim_threads: usize) -> Vec<Scenario> {
    let pulses = 4;
    widths(scale)
        .iter()
        .enumerate()
        .map(|(i, &w)| {
            let seeds = scenario_seeds(base_seed, "exp_scale", i as u64, scale.seed_count());
            let job_seeds = seeds.clone();
            Scenario::new(
                "exp_scale",
                format!("w={w}"),
                vec![kv("width", w), kv("pulses", pulses), kv("mode", "stream")],
                &seeds,
                move || run(w, pulses, &job_seeds, sim_threads),
            )
            .with_sim_threads(sim_threads)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_scenarios_hold_the_bound_and_carry_stats() {
        for s in scenarios(Scale::Smoke, 0, 1) {
            assert_eq!(s.experiment(), "exp_scale");
        }
        let result = run(16, 3, &[1, 2], 1);
        assert!(result.violations.is_empty(), "{:?}", result.violations);
        let skew = result.skew.expect("streaming stats recorded");
        assert!(skew.max_intra > 0.0);
        assert!(skew.max_full >= skew.max_intra);
        assert_eq!(skew.pulses, 6); // 3 pulses × 2 seeds
        assert_eq!(result.table.len(), 1);
    }

    /// The determinism contract at the experiment level: sharding a
    /// scenario's dataflow across workers changes nothing — not one bit
    /// of the table, the statistics, or the oracle outcome.
    #[test]
    fn sim_threads_do_not_change_the_scenario_result() {
        let serial = run(16, 3, &[1, 2], 1);
        for sim_threads in [2, 4] {
            let sharded = run(16, 3, &[1, 2], sim_threads);
            assert_eq!(
                crate::suite::table_fingerprint(&serial.table),
                crate::suite::table_fingerprint(&sharded.table),
                "sim_threads = {sim_threads}"
            );
            assert_eq!(serial.skew, sharded.skew, "sim_threads = {sim_threads}");
            assert_eq!(serial.violations, sharded.violations);
        }
    }

    /// The scale claim itself: a grid 10× wider than the widest
    /// full-trace experiment (thm11 at width 128) completes in streaming
    /// mode. Peak observer memory is `O(nodes)` by construction — the
    /// monitor holds two pulse fronts and the driver two layer rows; no
    /// `O(nodes × pulses)` allocation exists on this path.
    #[test]
    fn ten_x_grid_completes_streaming() {
        let result = run(1280, 1, &[7], 0);
        assert!(result.violations.is_empty(), "{:?}", result.violations);
        let skew = result.skew.expect("stats");
        assert_eq!(skew.pulses, 1);
        assert!(skew.max_intra > 0.0);
    }

    #[test]
    fn full_scale_sweep_reaches_ten_x() {
        let max_full_trace_width = 128; // thm11's widest grid
        let top = *widths(Scale::Full).last().unwrap();
        assert!(top >= 10 * max_full_trace_width);
    }
}
