//! Experiment `ext_f2` — the paper's open question (3): `f`-local fault
//! tolerance at in-degree `2f + 1` ("Bigger Picture", item 3).
//!
//! We run the rank-statistic prototype
//! ([`trix_core::RobustRule`]) on the `f`-th cycle power (in-degree
//! `2f + 1`) and inject up to `f` faults into single neighborhoods:
//! for `f = 2`, *pairs* of faulty predecessors of common successors —
//! configurations that `f = 1` Gradient TRIX cannot survive by design.
//!
//! Reported: measured local skew among correct nodes and the Cor 4.29-style
//! containment violations, for `f = 1` (baseline sanity) and `f = 2`.

use crate::common::standard_params;
use crate::suite::{kv, Scenario};
use crate::Scale;
use trix_analysis::{fmt_f64, max_intra_layer_skew, Table};
use trix_core::RobustRule;
use trix_faults::{FaultBehavior, FaultCampaign};
use trix_sim::{run_dataflow, OffsetLayer0, Rng, StaticEnvironment};
use trix_topology::{BaseGraph, LayeredGraph};

/// Builds an `f`-tolerant deployment on the cycle-power grid and injects
/// `pairs` clusters of `f` faults with the given behavior mix.
fn run_one(f: usize, width: usize, layers: usize, pairs: usize, seed: u64) -> (f64, f64) {
    let p = standard_params();
    let g = LayeredGraph::new(BaseGraph::cycle_power(width, f), layers);
    let rule = RobustRule::new(p, f);
    let mut rng = Rng::seed_from(seed);
    let env = StaticEnvironment::random(&g, p.d(), p.u(), p.theta(), &mut rng);
    let layer0 = OffsetLayer0::synchronized(p.lambda().as_f64(), g.width());

    // Fault clusters: f consecutive base positions on one layer — all
    // predecessors of their common successors, i.e. a genuine f-local
    // neighborhood fault.
    let mut faults = Vec::new();
    for c in 0..pairs {
        let base = (c * width / pairs.max(1)) % width;
        let layer = 2 + (c % (layers - 3));
        for j in 0..f {
            let behavior = if (c + j) % 2 == 0 {
                FaultBehavior::Silent
            } else {
                FaultBehavior::Shift(p.kappa() * 20.0)
            };
            faults.push((g.node((base + j) % width, layer), behavior));
        }
    }
    let model = FaultCampaign::from_static(faults);
    let pulses = 3;
    let trace = run_dataflow(&g, &env, &layer0, &rule, &model, pulses);
    let skew = max_intra_layer_skew(&g, &trace, 0..pulses).as_f64();

    // Fault-free reference on the same grid/rule.
    let clean = run_dataflow(&g, &env, &layer0, &rule, &trix_sim::CorrectSends, pulses);
    let clean_skew = max_intra_layer_skew(&g, &clean, 0..pulses).as_f64();
    (skew, clean_skew)
}

/// Runs the extension experiment.
pub fn run(width: usize, layers: usize, seeds: &[u64]) -> Table {
    let p = standard_params();
    let mut table = Table::new(
        "Extension — f-local faults at in-degree 2f+1 (rank-statistic prototype)",
        &[
            "f",
            "in-degree",
            "fault clusters (size f)",
            "L fault-free",
            "L with faults (worst seed)",
            "ratio vs fault-free",
            "κ",
        ],
    );
    for f in [1usize, 2] {
        let clusters = 3;
        let mut worst = 0f64;
        let mut clean = 0f64;
        for &seed in seeds {
            let (s, c) = run_one(f, width, layers, clusters, seed);
            worst = worst.max(s);
            clean = clean.max(c);
        }
        table.row_values(&[
            f.to_string(),
            (2 * f + 1).to_string(),
            clusters.to_string(),
            fmt_f64(clean),
            fmt_f64(worst),
            fmt_f64(worst / clean.max(1e-12)),
            fmt_f64(p.kappa().as_f64()),
        ]);
    }
    table
}

/// Scenario decomposition for the sweep runner: one scenario comparing
/// `f = 1` and `f = 2` on the same grid.
pub fn scenarios(scale: Scale, base_seed: u64) -> Vec<Scenario> {
    let (width, layers) = scale.pick((12usize, 8usize), (12, 8), (24, 16));
    let seeds = trix_runner::scenario_seeds(base_seed, "ext_f2", 0, scale.seed_count());
    let job_seeds = seeds.clone();
    vec![Scenario::new(
        "ext_f2",
        format!("w={width},l={layers}"),
        vec![kv("width", width), kv("layers", layers)],
        &seeds,
        move || run(width, layers, &job_seeds),
    )]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f2_survives_paired_faults() {
        let p = standard_params();
        // Skew with f = 2 fault pairs stays within a constant factor of
        // fault-free — the prototype contains configurations that are
        // fatal for f = 1.
        let (skew, clean) = run_one(2, 16, 12, 3, 1);
        assert!(
            skew <= clean.max(p.kappa().as_f64()) * 12.0,
            "f=2 containment failed: {skew} vs clean {clean}"
        );
    }

    #[test]
    fn f1_on_cycle_matches_gradient_trix_scale() {
        let p = standard_params();
        let (skew, clean) = run_one(1, 16, 12, 2, 2);
        assert!(clean <= p.kappa().as_f64() * 4.0, "clean {clean}");
        assert!(skew <= p.kappa().as_f64() * 40.0, "faulty {skew}");
    }

    #[test]
    fn table_renders() {
        let t = run(12, 8, &[0]);
        assert_eq!(t.len(), 2);
    }
}
