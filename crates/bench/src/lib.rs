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
//! or benchmark the underlying workloads with `cargo bench`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod common;
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
    /// Small sizes for CI / benches (seconds).
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

/// How experiment workloads record their executions.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TraceMode {
    /// Materialize full `PulseTrace`s and analyze post-hoc — the bespoke
    /// paper tables (memory `O(nodes × pulses)` per run).
    #[default]
    Full,
    /// `--no-trace`: every experiment runs its grid envelope through the
    /// streaming skew observer instead (`trix_obs::StreamingSkew`,
    /// `O(nodes)` memory, no trace anywhere in the dataflow path). Each
    /// scenario reports the uniform streaming table and records its
    /// statistics in the v2 benchmark JSON, with the Theorem 1.1 bound as
    /// the condition oracle.
    NoTrace,
}

impl TraceMode {
    /// The mode's CLI name.
    pub fn name(self) -> &'static str {
        match self {
            TraceMode::Full => "full-trace",
            TraceMode::NoTrace => "no-trace",
        }
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
/// threaded into every streaming scenario and `exp_scale`; results are
/// bit-identical for every value (the parallel engine's determinism
/// contract), so it only trades wall time.
pub fn all_scenarios(
    scale: Scale,
    base_seed: u64,
    mode: TraceMode,
    sim_threads: usize,
) -> Vec<Scenario> {
    let mut scenarios = Vec::new();
    if mode == TraceMode::NoTrace {
        // Streaming twins: every experiment contributes its grid
        // envelope (`exp_*::streaming_grids`), run through the shared
        // `O(nodes)` streaming skew job — no `PulseTrace` exists
        // anywhere in this suite. Suite order matches the full-trace
        // presentation order.
        let twins: [(&'static str, Vec<common::StreamingGrid>); 18] = [
            ("table1", exp_table1::streaming_grids(scale)),
            ("fig1", exp_fig1::streaming_grids(scale)),
            ("fig23", exp_fig23::streaming_grids(scale)),
            ("fig4", exp_fig4::streaming_grids(scale)),
            ("fig5", exp_fig5::streaming_grids(scale)),
            ("thm11", exp_thm11::streaming_grids(scale)),
            ("thm12", exp_thm12::streaming_grids(scale)),
            ("thm13", exp_thm13::streaming_grids(scale)),
            ("thm14", exp_thm14::streaming_grids(scale)),
            ("thm16", exp_thm16::streaming_grids(scale)),
            ("lem_a1", exp_lem_a1::streaming_grids(scale)),
            ("cor423", exp_cor423::streaming_grids(scale)),
            ("missing_policy", exp_missing_policy::streaming_grids(scale)),
            ("kappa_sweep", exp_kappa_sweep::streaming_grids(scale)),
            ("ext_f2", exp_ext_f2::streaming_grids(scale)),
            ("lynch_welch", exp_lynch_welch::streaming_grids(scale)),
            ("recovery", exp_recovery::streaming_grids(scale)),
            ("adversary", exp_adversary::streaming_grids(scale)),
        ];
        for (experiment, grids) in twins {
            scenarios.extend(common::streaming_scenarios(
                experiment,
                scale,
                base_seed,
                sim_threads,
                grids,
            ));
        }
        // §19 Streaming scale sweep (streaming-only in both modes).
        scenarios.extend(exp_scale::scenarios(scale, base_seed, sim_threads));
        // §20 Fault-campaign density sweep (streaming-only in both modes).
        scenarios.extend(exp_fault_sweep::scenarios(scale, base_seed, sim_threads));
        // §21 Topology-family sweep (streaming-only in both modes).
        scenarios.extend(exp_topology::scenarios(scale, base_seed, sim_threads));
        // §22 POD-sketch mode analytics (streaming-only in both modes).
        scenarios.extend(exp_modes::scenarios(scale, base_seed, sim_threads));
        // §23 Open-world churn sweep (streaming-only in both modes).
        scenarios.extend(exp_churn::scenarios(scale, base_seed, sim_threads));
        return scenarios;
    }
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
    // §19 Streaming scale sweep (streaming-only in both modes).
    scenarios.extend(exp_scale::scenarios(scale, base_seed, sim_threads));
    // §20 Fault-campaign density sweep (streaming-only in both modes).
    scenarios.extend(exp_fault_sweep::scenarios(scale, base_seed, sim_threads));
    // §21 Topology-family sweep (streaming-only in both modes).
    scenarios.extend(exp_topology::scenarios(scale, base_seed, sim_threads));
    // §22 POD-sketch mode analytics (streaming-only in both modes).
    scenarios.extend(exp_modes::scenarios(scale, base_seed, sim_threads));
    // §23 Open-world churn sweep (streaming-only in both modes).
    scenarios.extend(exp_churn::scenarios(scale, base_seed, sim_threads));
    scenarios
}

/// Runs the full suite sharded over `threads` OS threads, with
/// `sim_threads` dataflow workers *inside* each streaming scenario, and
/// returns tables, benchmark records, and oracle violations.
///
/// `0` means "auto" on either knob; the pair is resolved **once** here
/// through [`trix_runner::resolve_thread_split`], which divides the
/// detected CPUs between the two levels — a doubly-auto call gets
/// `(cores, 1)`, never the historic `cores × cores` oversubscription.
/// Explicit values pass through untouched.
///
/// Bit-for-bit deterministic: everything except per-record wall times
/// (and the recorded `sim_threads` metadata) is identical for every
/// `threads` × `sim_threads` combination
/// (`tests/parallel_determinism.rs`), in both trace modes.
pub fn run_suite(
    scale: Scale,
    base_seed: u64,
    threads: usize,
    mode: TraceMode,
    sim_threads: usize,
) -> SuiteOutcome {
    let (threads, sim_threads) = trix_runner::resolve_thread_split(threads, sim_threads);
    suite::run_scenarios(
        all_scenarios(scale, base_seed, mode, sim_threads),
        scale,
        base_seed,
        threads,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_produces_all_tables() {
        let outcome = run_suite(Scale::Quick, 0, 1, TraceMode::Full, 1);
        assert_eq!(outcome.tables.len(), 25);
        for t in &outcome.tables {
            assert!(!t.is_empty(), "empty table: {}", t.to_markdown());
        }
        assert_eq!(
            outcome.report.records.len(),
            all_scenarios(Scale::Quick, 0, TraceMode::Full, 1).len()
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
        let outcome = run_suite(Scale::Smoke, 0, 0, TraceMode::Full, 1);
        assert_eq!(outcome.tables.len(), 25);
        for t in &outcome.tables {
            assert!(!t.is_empty());
        }
    }

    #[test]
    fn no_trace_suite_covers_every_experiment_with_streaming_stats() {
        let outcome = run_suite(Scale::Smoke, 0, 0, TraceMode::NoTrace, 2);
        assert!(
            outcome.violations.is_empty(),
            "oracle violations: {:?}",
            outcome.violations
        );
        // Every full-trace experiment family appears, plus exp_scale.
        let mut experiments: Vec<&str> = outcome
            .report
            .records
            .iter()
            .map(|r| r.experiment.as_str())
            .collect();
        experiments.dedup();
        assert_eq!(experiments.len(), 23);
        assert_eq!(experiments.last(), Some(&"exp_churn"));
        // The whole point of the mode: every record carries streaming
        // skew statistics, and every simulated scenario counted events.
        for r in &outcome.report.records {
            let skew = r
                .skew
                .as_ref()
                .unwrap_or_else(|| panic!("{}/{}: no streaming stats", r.experiment, r.scenario));
            assert!(skew.pulses > 0, "{}: no pulses folded", r.experiment);
            assert!(r.events > 0, "{}: no events", r.experiment);
        }
    }
}
