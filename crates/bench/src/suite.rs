//! Scenario registry and parallel sweep execution for the experiment
//! suite.
//!
//! Every experiment module decomposes its parameter grid into independent
//! [`Scenario`]s (`exp_*::scenarios`); this module runs them — serially or
//! sharded over OS threads via [`trix_runner::SweepRunner`] — and folds the
//! outcome three ways:
//!
//! * the presentation [`Table`]s of `run_suite` (per-scenario shards of one
//!   experiment are merged back, in suite order);
//! * one machine-readable [`BenchRecord`] per scenario (params, derived
//!   seeds, event count, value stats, table fingerprint, wall time);
//! * condition-oracle [`Violation`]s, which make the harness binary exit
//!   non-zero.
//!
//! Determinism contract: a scenario's job must be a pure function of its
//! construction inputs. Seeds come from
//! [`trix_runner::scenario_seeds`]`(base, experiment, index, …)`, so every
//! record except its wall time is byte-identical for any `--threads` value.

use crate::Scale;
use std::time::Instant;
use trix_analysis::Table;
use trix_runner::{
    BenchRecord, BenchReport, Fnv, ParallelismStamp, SketchSummary, SkewSummary, SweepRunner,
    ValueStats,
};

/// What one scenario job produces.
#[derive(Debug)]
pub struct ScenarioResult {
    /// The scenario's table shard (possibly the experiment's whole table).
    pub table: Table,
    /// Condition-oracle violations, empty when all checked claims hold.
    pub violations: Vec<String>,
    /// Streaming skew statistics, when the job ran with an online skew
    /// observer (recorded into the v2 benchmark JSON).
    pub skew: Option<SkewSummary>,
    /// Compressed POD sketch of the job's pulse-front matrix, when the
    /// job ran a `PodSketch` observer (recorded into the v7 benchmark
    /// JSON).
    pub sketch: Option<SketchSummary>,
}

impl ScenarioResult {
    /// A table shard with its condition-oracle violations, from a job
    /// that ran no streaming skew observer or sketch.
    pub fn checked(table: Table, violations: Vec<String>) -> Self {
        Self {
            table,
            violations,
            skew: None,
            sketch: None,
        }
    }
}

impl From<Table> for ScenarioResult {
    fn from(table: Table) -> Self {
        Self::checked(table, Vec::new())
    }
}

type Job = Box<dyn FnOnce() -> ScenarioResult + Send>;

/// One independent unit of sweep work.
pub struct Scenario {
    experiment: &'static str,
    label: String,
    params: Vec<(String, String)>,
    seeds: Vec<u64>,
    /// Dataflow worker count the job was built with (`1` = serial; only
    /// scenarios that consume the `--sim-threads` knob set anything
    /// else). Stamped into the benchmark record.
    sim_threads: usize,
    /// Fault-campaign descriptor the job declared (`None` when the
    /// scenario declares no campaign; campaign experiments stamp every
    /// point, fault-free controls included). Stamped into the benchmark
    /// record (schema v4).
    campaign: Option<String>,
    /// Versioned topology descriptor of the graph family the job runs on
    /// (`None` for the pre-family grid scenarios). Stamped into the
    /// benchmark record (schema v6).
    topology: Option<String>,
    /// Churn-campaign descriptor the job declared (`None` for
    /// closed-world scenarios). Stamped into the benchmark record
    /// (schema v8).
    churn: Option<String>,
    job: Job,
}

impl Scenario {
    /// Creates a scenario from its metadata and job.
    ///
    /// `seeds` is the derived seed list the job was constructed with
    /// (recorded in the benchmark JSON; pass `&[]` for seedless
    /// scenarios).
    pub fn new<R: Into<ScenarioResult>>(
        experiment: &'static str,
        label: impl Into<String>,
        params: Vec<(String, String)>,
        seeds: &[u64],
        job: impl FnOnce() -> R + Send + 'static,
    ) -> Self {
        Self {
            experiment,
            label: label.into(),
            params,
            seeds: seeds.to_vec(),
            sim_threads: 1,
            campaign: None,
            topology: None,
            churn: None,
            job: Box::new(move || job().into()),
        }
    }

    /// Declares the dataflow worker count this scenario's job actually
    /// runs with (recorded in its benchmark record, schema v3). Only
    /// constructors that thread `--sim-threads` into their job should
    /// call this; everything else truthfully records the serial default.
    pub fn with_sim_threads(mut self, sim_threads: usize) -> Self {
        self.sim_threads = sim_threads;
        self
    }

    /// Declares the fault-campaign descriptor this scenario's job runs
    /// under — stamped into its benchmark record (schema v4), so
    /// trajectory tooling can group records by adversary.
    pub fn with_campaign(mut self, descriptor: impl Into<String>) -> Self {
        self.campaign = Some(descriptor.into());
        self
    }

    /// Declares the versioned topology descriptor of the graph family
    /// this scenario's job runs on — stamped into its benchmark record
    /// (schema v6), so trajectory tooling can group skew envelopes by
    /// graph shape the way it groups fault records by campaign.
    pub fn with_topology(mut self, descriptor: impl Into<String>) -> Self {
        self.topology = Some(descriptor.into());
        self
    }

    /// Declares the churn-campaign descriptor this scenario's job runs
    /// under — stamped into its benchmark record (schema v8), so
    /// trajectory tooling can group records by membership dynamics the
    /// way it groups them by fault campaign.
    pub fn with_churn(mut self, descriptor: impl Into<String>) -> Self {
        self.churn = Some(descriptor.into());
        self
    }

    /// The experiment this scenario belongs to.
    pub fn experiment(&self) -> &'static str {
        self.experiment
    }

    /// The topology descriptor stamped by [`Scenario::with_topology`],
    /// if any.
    pub fn topology(&self) -> Option<&str> {
        self.topology.as_deref()
    }

    /// The scenario's human-readable label.
    pub fn label(&self) -> &str {
        &self.label
    }
}

impl std::fmt::Debug for Scenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scenario")
            .field("experiment", &self.experiment)
            .field("label", &self.label)
            .field("params", &self.params)
            .field("seeds", &self.seeds)
            .finish_non_exhaustive()
    }
}

/// Builds one `(key, value)` scenario parameter.
pub fn kv(key: &str, value: impl ToString) -> (String, String) {
    (key.to_owned(), value.to_string())
}

/// A condition-oracle violation surfaced by a scenario.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// Experiment that reported the violation.
    pub experiment: String,
    /// Scenario label within the experiment.
    pub scenario: String,
    /// Human-readable description.
    pub message: String,
}

/// Everything a sweep produces.
#[derive(Debug)]
pub struct SuiteOutcome {
    /// Presentation tables in suite order (scenario shards merged).
    pub tables: Vec<Table>,
    /// Machine-readable per-scenario records in suite order.
    pub report: BenchReport,
    /// Condition-oracle violations across all scenarios.
    pub violations: Vec<Violation>,
}

/// FNV-1a fingerprint of a table's full contents.
pub fn table_fingerprint(table: &Table) -> u64 {
    let mut h = Fnv::new();
    h.write_str(table.title());
    for header in table.headers() {
        h.write_str(header);
    }
    for row in table.rows() {
        for cell in row {
            h.write_str(cell);
        }
    }
    h.finish()
}

/// Stats over a table's numeric cells (skew columns, bounds, counts).
///
/// Columns whose header mentions "seed" are excluded structurally: seed
/// cells are uniform `u64` identifiers, not measurements, and would swamp
/// the stats (derived seeds are ~1e19).
fn table_value_stats(table: &Table) -> Option<ValueStats> {
    let data_column: Vec<bool> = table
        .headers()
        .iter()
        .map(|h| !h.to_lowercase().contains("seed"))
        .collect();
    ValueStats::of(
        table
            .rows()
            .iter()
            .flat_map(|row| {
                row.iter()
                    .zip(&data_column)
                    .filter(|(_, &keep)| keep)
                    .map(|(cell, _)| cell)
            })
            .filter_map(|cell| cell.parse::<f64>().ok())
            .filter(|v| v.is_finite()),
    )
}

/// Runs `scenarios` on `threads` workers (0 = one per CPU) and folds the
/// results in suite order.
///
/// Each record carries its scenario's declared `sim_threads` (schema
/// v3) purely as execution metadata — canonicalized reports zero it,
/// since results are bit-identical for every value.
pub fn run_scenarios(
    scenarios: Vec<Scenario>,
    scale: Scale,
    base_seed: u64,
    threads: usize,
) -> SuiteOutcome {
    let runner = SweepRunner::new(threads);
    let outputs = runner.run(scenarios, |_, scenario| {
        let Scenario {
            experiment,
            label,
            params,
            seeds,
            sim_threads,
            campaign,
            topology,
            churn,
            job,
        } = scenario;
        trix_sim::metrics::reset();
        let start = Instant::now();
        let result = job();
        let wall_secs = start.elapsed().as_secs_f64();
        let events = trix_sim::metrics::total();
        let record = BenchRecord {
            experiment: experiment.to_owned(),
            scenario: label.clone(),
            params,
            seeds,
            rows: result.table.len(),
            events,
            sim_threads,
            fingerprint: table_fingerprint(&result.table),
            values: table_value_stats(&result.table),
            skew: result.skew,
            campaign,
            topology,
            churn,
            sketch: result.sketch,
            wall_secs,
        };
        let violations: Vec<Violation> = result
            .violations
            .into_iter()
            .map(|message| Violation {
                experiment: experiment.to_owned(),
                scenario: label.clone(),
                message,
            })
            .collect();
        (experiment, record, result.table, violations)
    });

    let mut tables: Vec<(&'static str, Table)> = Vec::new();
    let mut records = Vec::with_capacity(outputs.len());
    let mut violations = Vec::new();
    for (experiment, record, table, mut viols) in outputs {
        match tables.last_mut() {
            // Consecutive scenarios of the same experiment are shards of
            // one logical table.
            Some((last, merged)) if *last == experiment => merged.merge(table),
            _ => tables.push((experiment, table)),
        }
        records.push(record);
        violations.append(&mut viols);
    }
    SuiteOutcome {
        tables: tables.into_iter().map(|(_, t)| t).collect(),
        report: BenchReport {
            suite: "gradient-trix-experiments".to_owned(),
            scale: scale.name().to_owned(),
            base_seed,
            parallelism: ParallelismStamp::current(),
            records,
        },
        violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shard(experiment: &'static str, value: u64) -> Scenario {
        Scenario::new(
            experiment,
            format!("v={value}"),
            vec![kv("v", value)],
            &[],
            move || {
                let mut t = Table::new("T", &["v"]);
                t.row(&[&value.to_string()]);
                t
            },
        )
    }

    #[test]
    fn consecutive_shards_merge_into_one_table() {
        let scenarios = vec![shard("a", 1), shard("a", 2), shard("b", 3)];
        let out = run_scenarios(scenarios, Scale::Smoke, 0, 1);
        assert_eq!(out.tables.len(), 2);
        assert_eq!(out.tables[0].len(), 2);
        assert_eq!(out.tables[1].len(), 1);
        assert_eq!(out.report.records.len(), 3);
        assert!(out.violations.is_empty());
    }

    #[test]
    fn violations_carry_experiment_and_scenario() {
        let bad = Scenario::new("oracle", "s0", vec![], &[7], || ScenarioResult {
            table: {
                let mut t = Table::new("T", &["x"]);
                t.row(&["1"]);
                t
            },
            violations: vec!["SC violated at layer 3".to_owned()],
            skew: None,
            sketch: None,
        });
        let out = run_scenarios(vec![bad], Scale::Smoke, 0, 2);
        assert_eq!(out.violations.len(), 1);
        assert_eq!(out.violations[0].experiment, "oracle");
        assert_eq!(out.violations[0].message, "SC violated at layer 3");
        assert_eq!(out.report.records[0].seeds, vec![7]);
    }

    /// Records stamp each scenario's *declared* dataflow worker count —
    /// scenarios that never consume `--sim-threads` (all full-trace
    /// experiments) truthfully record the serial default.
    #[test]
    fn records_carry_per_scenario_sim_threads() {
        let scenarios = vec![shard("plain", 1), shard("sharded", 2).with_sim_threads(4)];
        let out = run_scenarios(scenarios, Scale::Smoke, 0, 1);
        assert_eq!(out.report.records[0].sim_threads, 1);
        assert_eq!(out.report.records[1].sim_threads, 4);
    }

    /// Campaign descriptors (schema v4) ride the scenario into its
    /// record; scenarios without one truthfully record `null`.
    #[test]
    fn records_carry_campaign_descriptors() {
        let scenarios = vec![
            shard("plain", 1),
            shard("adversarial", 2).with_campaign("wave col=4 silent"),
        ];
        let out = run_scenarios(scenarios, Scale::Smoke, 0, 1);
        assert_eq!(out.report.records[0].campaign, None);
        assert_eq!(
            out.report.records[1].campaign.as_deref(),
            Some("wave col=4 silent")
        );
        assert!(out
            .report
            .to_json()
            .contains("\"campaign\": \"wave col=4 silent\""));
    }

    /// Topology descriptors (schema v6) ride the scenario into its
    /// record; grid scenarios without one truthfully record `null`.
    #[test]
    fn records_carry_topology_descriptors() {
        let scenarios = vec![
            shard("plain", 1),
            shard("family", 2).with_topology("v1 torus rows=3 cols=3 n=9 m=18 deg=4..4 D=2"),
        ];
        let out = run_scenarios(scenarios, Scale::Smoke, 0, 1);
        assert_eq!(out.report.records[0].topology, None);
        assert_eq!(
            out.report.records[1].topology.as_deref(),
            Some("v1 torus rows=3 cols=3 n=9 m=18 deg=4..4 D=2")
        );
        assert!(out
            .report
            .to_json()
            .contains("\"topology\": \"v1 torus rows=3 cols=3 n=9 m=18 deg=4..4 D=2\""));
    }

    /// Churn descriptors (schema v8) ride the scenario into its record;
    /// closed-world scenarios without one truthfully record `null`.
    #[test]
    fn records_carry_churn_descriptors() {
        let scenarios = vec![
            shard("plain", 1),
            shard("open-world", 2).with_churn("flicker r=0.05 grid w=12"),
        ];
        let out = run_scenarios(scenarios, Scale::Smoke, 0, 1);
        assert_eq!(out.report.records[0].churn, None);
        assert_eq!(
            out.report.records[1].churn.as_deref(),
            Some("flicker r=0.05 grid w=12")
        );
        assert!(out
            .report
            .to_json()
            .contains("\"churn\": \"flicker r=0.05 grid w=12\""));
    }

    #[test]
    fn value_stats_exclude_seed_columns() {
        let mut t = Table::new("T", &["seed", "skew"]);
        t.row(&["18446744073709551557", "2.5"]);
        t.row(&["3", "1.5"]); // small seeds must be excluded too
        let s = table_value_stats(&t).unwrap();
        assert_eq!((s.min, s.max, s.count), (1.5, 2.5, 2));
    }

    #[test]
    fn records_are_deterministic_across_thread_counts() {
        let build = || {
            (0..12u64)
                .map(|i| shard("a", i * i % 7))
                .collect::<Vec<_>>()
        };
        let serial = run_scenarios(build(), Scale::Smoke, 0, 1);
        let sharded = run_scenarios(build(), Scale::Smoke, 0, 4);
        assert_eq!(
            serial.report.canonicalized().to_json(),
            sharded.report.canonicalized().to_json()
        );
    }
}
