//! Experiment library reproducing **every table and figure** of the
//! Gradient TRIX paper, plus the theorem-level claims its evaluation rests
//! on. Each module documents the claim it checks, the workload, and the
//! modules involved; [`all_scenarios`] is the index, in presentation
//! order, and the `BENCH_*.json` records the harness writes hold the
//! measured values.
//!
//! Run everything with the harness binary:
//!
//! ```text
//! cargo run --release -p trix-bench --bin gradient-trix-experiments
//! ```
//!
//! Each record's `wall_secs` times one scenario; `hostbench/` times the
//! layers underneath (rule, engine, observers) on three workloads.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod common;
pub mod json;
pub mod suite;

pub mod exp_adversary;
pub mod exp_churn;
pub mod exp_cor423;
pub mod exp_ext_f2;
pub mod exp_fault_sweep;
pub mod exp_fig1;
pub mod exp_fig23;
pub mod exp_fig4;
pub mod exp_fig5;
pub mod exp_kappa_sweep;
pub mod exp_lem_a1;
pub mod exp_lynch_welch;
pub mod exp_missing_policy;
pub mod exp_modes;
pub mod exp_recovery;
pub mod exp_scale;
pub mod exp_table1;
pub mod exp_thm11;
pub mod exp_thm12;
pub mod exp_thm13;
pub mod exp_thm14;
pub mod exp_thm16;
pub mod exp_topology;

use suite::{Scenario, SuiteOutcome};

/// Scale of an experiment run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Tiny sizes for the CI bench-smoke gate (a second or two).
    Smoke,
    /// Small sizes for CI (seconds).
    Quick,
    /// Paper-scale sizes for the harness (a few minutes).
    Full,
}

impl Scale {
    /// The scale's lowercase name (as used in CLI flags and JSON).
    pub fn name(self) -> &'static str {
        match self {
            Scale::Smoke => "smoke",
            Scale::Quick => "quick",
            Scale::Full => "full",
        }
    }

    /// Picks the value for this scale from `(smoke, quick, full)`.
    pub(crate) fn pick<T>(self, smoke: T, quick: T, full: T) -> T {
        match self {
            Scale::Smoke => smoke,
            Scale::Quick => quick,
            Scale::Full => full,
        }
    }

    /// How many derived seeds multi-seed experiments use at this scale.
    pub(crate) fn seed_count(self) -> usize {
        self.pick(1, 2, 4)
    }
}

/// The full suite's scenario list, in presentation order.
///
/// Each experiment module owns its decomposition (`exp_*::scenarios`);
/// per-scenario seeds derive from `(base_seed, experiment name, scenario
/// index)`, so the list — and with it every record of a sweep — is
/// independent of thread count and stable under suite reordering.
///
/// `sim_threads` is the intra-scenario dataflow worker count
/// (`--sim-threads`: `1` = serial engine, `0` = one worker per CPU),
/// threaded into the five streaming experiments; results are
/// bit-identical for every value (the parallel engine's determinism
/// contract), so it only trades wall time.
pub fn all_scenarios(scale: Scale, base_seed: u64, sim_threads: usize) -> Vec<Scenario> {
    let mut scenarios = Vec::new();
    // §1 Table 1.
    scenarios.extend(exp_table1::scenarios(scale, base_seed));
    // §2 Figure 1.
    scenarios.extend(exp_fig1::scenarios(scale, base_seed));
    // §3 Figures 2/3.
    scenarios.extend(exp_fig23::scenarios(scale, base_seed));
    // §4 Figure 4.
    scenarios.extend(exp_fig4::scenarios(scale, base_seed));
    // §5 Figure 5.
    scenarios.extend(exp_fig5::scenarios(scale, base_seed));
    // §6 Theorem 1.1.
    scenarios.extend(exp_thm11::scenarios(scale, base_seed));
    // §7 Theorem 1.2.
    scenarios.extend(exp_thm12::scenarios(scale, base_seed));
    // §8 Theorem 1.3.
    scenarios.extend(exp_thm13::scenarios(scale, base_seed));
    // §9 Theorem 1.4 / Corollary 1.5.
    scenarios.extend(exp_thm14::scenarios(scale, base_seed));
    // §10 Theorem 1.6.
    scenarios.extend(exp_thm16::scenarios(scale, base_seed));
    // §11 Lemma A.1.
    scenarios.extend(exp_lem_a1::scenarios(scale, base_seed));
    // §12 Corollaries 4.23/4.24.
    scenarios.extend(exp_cor423::scenarios(scale, base_seed));
    // §13 Missing-neighbor policy ablation.
    scenarios.extend(exp_missing_policy::scenarios(scale, base_seed));
    // §14 κ sensitivity ablation.
    scenarios.extend(exp_kappa_sweep::scenarios(scale, base_seed));
    // §15 Extension: f-local faults at in-degree 2f+1 (open question 3).
    scenarios.extend(exp_ext_f2::scenarios(scale, base_seed));
    // §16 Table 1's complete-graph rows: Lynch–Welch.
    scenarios.extend(exp_lynch_welch::scenarios(scale, base_seed));
    // §17 Thm 4.26 gradient recovery after a disturbance.
    scenarios.extend(exp_recovery::scenarios(scale, base_seed));
    // §18 Adversarial delay search.
    scenarios.extend(exp_adversary::scenarios(scale, base_seed));
    // §19 Streaming scale sweep.
    scenarios.extend(exp_scale::scenarios(scale, base_seed, sim_threads));
    // §20 Fault-campaign density sweep.
    scenarios.extend(exp_fault_sweep::scenarios(scale, base_seed, sim_threads));
    // §21 Topology-family sweep.
    scenarios.extend(exp_topology::scenarios(scale, base_seed, sim_threads));
    // §22 POD-sketch mode analytics.
    scenarios.extend(exp_modes::scenarios(scale, base_seed, sim_threads));
    // §23 Open-world churn sweep.
    scenarios.extend(exp_churn::scenarios(scale, base_seed, sim_threads));
    scenarios
}

/// Runs the full suite sharded over `threads` OS threads, with
/// `sim_threads` dataflow workers *inside* each streaming scenario, and
/// returns tables, benchmark records, and oracle violations.
///
/// `0` means "auto" on either knob; the pair is resolved **once** here
/// through [`suite::resolve_thread_split`], which divides the
/// detected CPUs between the two levels — a doubly-auto call gets
/// `(cores, 1)`, never the historic `cores × cores` oversubscription.
/// Explicit values pass through untouched.
///
/// Bit-for-bit deterministic: everything except per-record wall times
/// (and the recorded `sim_threads` metadata) is identical for every
/// `threads` × `sim_threads` combination
/// (`tests/parallel_determinism.rs`).
pub fn run_suite(scale: Scale, base_seed: u64, threads: usize, sim_threads: usize) -> SuiteOutcome {
    let (threads, sim_threads) = suite::resolve_thread_split(threads, sim_threads);
    suite::run_scenarios(
        all_scenarios(scale, base_seed, sim_threads),
        scale,
        base_seed,
        threads,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use suite::{resolve_thread_split, scenario_seeds, Fnv, SweepRunner};

    #[test]
    fn quick_run_produces_all_tables() {
        let outcome = run_suite(Scale::Quick, 0, 1, 1);
        assert_eq!(outcome.tables.len(), 25);
        for t in &outcome.tables {
            assert!(!t.is_empty(), "empty table: {}", t.to_markdown());
        }
        assert_eq!(
            outcome.report.records.len(),
            all_scenarios(Scale::Quick, 0, 1).len()
        );
        assert!(
            outcome.violations.is_empty(),
            "oracle violations: {:?}",
            outcome.violations
        );
        // Every record carries rows; simulation-backed ones count events
        // (pure-topology/offset experiments like fig23 and lem_a1 don't
        // simulate).
        for r in &outcome.report.records {
            assert!(r.rows > 0, "{}: no rows", r.experiment);
        }
        let simulated = outcome
            .report
            .records
            .iter()
            .filter(|r| r.events > 0)
            .count();
        assert!(simulated >= outcome.report.records.len() / 2);
    }

    #[test]
    fn smoke_run_is_complete_and_small() {
        let outcome = run_suite(Scale::Smoke, 0, 0, 1);
        assert_eq!(outcome.tables.len(), 25);
        for t in &outcome.tables {
            assert!(!t.is_empty());
        }
    }

    #[test]
    fn suite_carries_streaming_stats_exactly_on_the_streaming_experiments() {
        let outcome = run_suite(Scale::Smoke, 0, 0, 2);
        assert!(
            outcome.violations.is_empty(),
            "oracle violations: {:?}",
            outcome.violations
        );
        let mut experiments: Vec<&str> = outcome
            .report
            .records
            .iter()
            .map(|r| r.experiment.as_str())
            .collect();
        experiments.dedup();
        // 23 modules; `fig1` and `thm16` each file two experiments.
        assert_eq!(experiments.len(), 25);
        assert_eq!(experiments.last(), Some(&"exp_churn"));
        // The five streaming experiments record skew statistics (and
        // count events); the 18 paper experiments analyze their traces
        // post hoc and record none.
        let streaming = [
            "exp_scale",
            "exp_fault_sweep",
            "exp_topology",
            "exp_modes",
            "exp_churn",
        ];
        for r in &outcome.report.records {
            let id = format!("{}/{}", r.experiment, r.scenario);
            if streaming.contains(&r.experiment.as_str()) {
                let skew = r
                    .skew
                    .as_ref()
                    .unwrap_or_else(|| panic!("{id}: no streaming stats"));
                assert!(skew.pulses > 0, "{id}: no pulses folded");
                assert!(r.events > 0, "{id}: no events");
            } else {
                assert!(r.skew.is_none(), "{id}: unexpected streaming stats");
            }
        }
    }

    #[test]
    fn results_are_order_preserving_for_any_thread_count() {
        let items: Vec<u64> = (0..57).collect();
        let serial = SweepRunner::new(1).run(items.clone(), |i, x| (i as u64) * 1000 + x);
        for threads in [2, 3, 4, 8, 16] {
            let parallel = SweepRunner::new(threads).run(items.clone(), |i, x| {
                // Perturb scheduling: odd items spin a little.
                if x % 2 == 1 {
                    std::hint::black_box((0..10_000).sum::<u64>());
                }
                (i as u64) * 1000 + x
            });
            assert_eq!(serial, parallel, "thread count {threads}");
        }
    }

    #[test]
    fn every_item_runs_exactly_once() {
        let calls = AtomicU64::new(0);
        let out = SweepRunner::new(4).run((0..100u64).collect(), |_i, x| {
            calls.fetch_add(1, Ordering::Relaxed);
            x
        });
        assert_eq!(out.len(), 100);
        assert_eq!(calls.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn zero_threads_means_available_parallelism() {
        assert!(SweepRunner::new(0).threads() >= 1);
        assert_eq!(SweepRunner::new(3).threads(), 3);
        // The runner resolves through the same process-wide cache every
        // other auto knob uses.
        assert_eq!(
            SweepRunner::new(0).threads(),
            trix_sim::detected_parallelism().workers
        );
    }

    /// Regression test for the `threads == 0` × `--sim-threads 0`
    /// oversubscription footgun: with each level auto-resolving
    /// independently a doubly-auto sweep spawned `cores²` workers. The
    /// suite-level resolver must keep the resolved product within the
    /// detected parallelism whenever the explicit knobs themselves do.
    #[test]
    fn resolved_thread_product_never_exceeds_available_parallelism() {
        let p = trix_sim::detected_parallelism().workers;
        // Both auto: the historic footgun shape.
        let (threads, sim) = resolve_thread_split(0, 0);
        assert!(threads * sim <= p, "({threads}, {sim}) oversubscribes {p}");
        // One knob auto, the other explicit but within budget.
        for explicit in 1..=p {
            let (threads, sim) = resolve_thread_split(0, explicit);
            assert_eq!(sim, explicit);
            assert!(threads * sim <= p, "({threads}, {sim}) oversubscribes {p}");
            let (threads, sim) = resolve_thread_split(explicit, 0);
            assert_eq!(threads, explicit);
            assert!(threads * sim <= p, "({threads}, {sim}) oversubscribes {p}");
        }
        // Auto never resolves to zero workers, even when the explicit
        // knob exceeds the whole budget.
        assert_eq!(resolve_thread_split(0, 16 * p), (1, 16 * p));
        assert_eq!(resolve_thread_split(16 * p, 0), (16 * p, 1));
        // Explicit pairs pass through untouched.
        assert_eq!(resolve_thread_split(3, 5), (3, 5));
    }

    #[test]
    fn empty_sweep_is_fine() {
        let out: Vec<u64> = SweepRunner::new(8).run(Vec::<u64>::new(), |_, x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn derived_seeds_are_stable_and_distinct() {
        let a = scenario_seeds(0, "thm11", 0, 4);
        let b = scenario_seeds(0, "thm11", 0, 4);
        assert_eq!(a, b);
        // Longer lists extend shorter ones (shared prefix).
        assert_eq!(scenario_seeds(0, "thm11", 0, 2), a[..2].to_vec());
        // Different index / experiment / base ⇒ different seeds.
        assert_ne!(scenario_seeds(0, "thm11", 1, 4), a);
        assert_ne!(scenario_seeds(0, "thm12", 0, 4), a);
        assert_ne!(scenario_seeds(1, "thm11", 0, 4), a);
        // No accidental collisions within a typical sweep.
        let mut all: Vec<u64> = (0..64).flat_map(|i| scenario_seeds(7, "x", i, 4)).collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 256);
    }

    #[test]
    fn fnv_matches_known_vector() {
        // FNV-1a of the empty input is the offset basis.
        assert_eq!(Fnv::new().finish(), 0xcbf2_9ce4_8422_2325);
        let mut h = Fnv::new();
        h.write_u8(b'a');
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
    }
}
