//! Experiment `adversary_search` — how adversarial can delays get?
//!
//! The Theorem 1.1 bound is worst-case over *all* delay assignments in
//! `[d−u, d]^E` and clock-rate assignments in `[1, ϑ]^V`. Random
//! assignments sit ~25× below the bound; this experiment runs a simple
//! randomized hill-climbing adversary over *extremal* delay assignments
//! (each edge at `d` or `d−u`) to find how much skew a worst case can
//! actually extract — tightening the empirical gap between "typical" and
//! "provable worst case".

use crate::common::{square_grid, standard_params};
use crate::suite::{kv, Scenario, ScenarioResult};
use crate::Scale;
use trix_analysis::{fmt_f64, max_intra_layer_skew, theory, Table};
use trix_core::GradientTrixRule;
use trix_sim::{run_dataflow, CorrectSends, OffsetLayer0, Rng, StaticEnvironment};
use trix_time::{AffineClock, Duration};
use trix_topology::LayeredGraph;

fn skew_for(g: &LayeredGraph, fast: &[bool], p: &trix_core::Params) -> f64 {
    let delays: Vec<Duration> = fast
        .iter()
        .map(|&f| if f { p.d() - p.u() } else { p.d() })
        .collect();
    let env = StaticEnvironment::new(g, delays, vec![AffineClock::PERFECT; g.node_count()]);
    let layer0 = OffsetLayer0::synchronized(p.lambda().as_f64(), g.width());
    let rule = GradientTrixRule::new(*p);
    let trace = run_dataflow(g, &env, &layer0, &rule, &CorrectSends, 1);
    max_intra_layer_skew(g, &trace, 0..1).as_f64()
}

/// Hill-climbs extremal delay assignments for `iterations` steps,
/// flipping `flips` random edges per step and keeping improvements.
pub fn search(width: usize, iterations: usize, flips: usize, seed: u64) -> (f64, f64) {
    let p = standard_params();
    let g = square_grid(width);
    let mut rng = Rng::seed_from(seed);
    let mut fast: Vec<bool> = (0..g.edge_count()).map(|_| rng.bernoulli(0.5)).collect();
    let mut best = skew_for(&g, &fast, &p);
    for _ in 0..iterations {
        let mut candidate = fast.clone();
        for _ in 0..flips {
            let e = rng.usize_below(candidate.len());
            candidate[e] = !candidate[e];
        }
        let s = skew_for(&g, &candidate, &p);
        if s > best {
            best = s;
            fast = candidate;
        }
    }
    let bound = theory::thm_1_1_bound(&p, g.base().diameter()).as_f64();
    (best, bound)
}

/// Runs the adversary search and reports found-vs-bound. A skew found
/// above the Theorem 1.1 bound is a violation.
pub fn run(width: usize, iterations: usize, seeds: &[u64]) -> ScenarioResult {
    let mut table = Table::new(
        "Adversary search — worst extremal delay assignment found (hill climbing)",
        &["seed", "best skew found", "Thm 1.1 bound", "found/bound"],
    );
    let mut violations = Vec::new();
    for &seed in seeds {
        let (best, bound) = search(width, iterations, 3, seed);
        if best > bound {
            violations.push(format!(
                "seed {seed:#x}: found skew {best} exceeds the Thm 1.1 bound {bound} \
                 (width {width})"
            ));
        }
        table.row_values(&[
            seed.to_string(),
            fmt_f64(best),
            fmt_f64(bound),
            fmt_f64(best / bound),
        ]);
    }
    ScenarioResult::checked(table, violations)
}

/// Scenario decomposition for the sweep runner: one scenario per derived
/// seed (each seed is an independent hill-climbing search — the slowest
/// work units in the suite, so sharding them matters most).
pub fn scenarios(scale: Scale, base_seed: u64) -> Vec<Scenario> {
    let (width, iterations) = scale.pick((8usize, 10usize), (8, 20), (16, 150));
    let seeds = trix_runner::scenario_seeds(base_seed, "adversary", 0, scale.seed_count().min(2));
    seeds
        .iter()
        .map(|&seed| {
            Scenario::new(
                "adversary",
                format!("seed={seed:#x}"),
                vec![
                    kv("width", width),
                    kv("iterations", iterations),
                    kv("seed", seed),
                ],
                &[seed],
                move || run(width, iterations, &[seed]),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn search_never_exceeds_the_bound() {
        for seed in 0..3 {
            let (best, bound) = search(10, 30, 3, seed);
            assert!(best <= bound, "seed {seed}: found {best} > bound {bound}");
            assert!(best > 0.0);
        }
    }

    #[test]
    fn search_beats_random_start() {
        let p = standard_params();
        let g = square_grid(10);
        let mut rng = Rng::seed_from(4);
        let random: Vec<bool> = (0..g.edge_count()).map(|_| rng.bernoulli(0.5)).collect();
        let start = skew_for(&g, &random, &p);
        let (best, _) = search(10, 60, 3, 4);
        assert!(
            best >= start,
            "hill climbing must not be worse than its start: {best} vs {start}"
        );
    }

    #[test]
    fn table_renders() {
        let r = run(8, 10, &[0, 1]);
        assert_eq!(r.table.len(), 2);
        assert!(r.violations.is_empty(), "{:?}", r.violations);
    }
}
