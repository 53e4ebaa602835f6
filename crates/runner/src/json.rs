//! The versioned benchmark-record schema and its JSON writer.
//!
//! The container has no registry access, so instead of `serde` this module
//! hand-writes the (small, flat) schema. Formatting is deterministic:
//! fields appear in a fixed order, floats use Rust's shortest round-trip
//! `Display`, and map-like data is kept as ordered pairs — two reports
//! with equal contents serialize to identical bytes.

use std::fmt::Write as _;

/// Version of the `BENCH_*.json` schema.
///
/// Bump when a field is added, removed, or changes meaning, so trajectory
/// tooling can dispatch on it.
///
/// History:
///
/// * **1** — initial schema.
/// * **2** — added the per-record `skew` object ([`SkewSummary`]):
///   streaming skew statistics for scenarios that ran with an online
///   skew observer (`null` otherwise).
/// * **3** — added the per-record `sim_threads` field: the
///   intra-scenario dataflow worker count the scenario ran with
///   (additive; like `wall_secs` it describes *how* the run executed,
///   not *what* it computed, so [`BenchReport::canonicalized`] zeroes
///   it for byte-identity comparisons across thread counts).
/// * **4** — added the per-record `campaign` field: the fault-campaign
///   descriptor the scenario declared (`null` when the scenario declared
///   none — note campaign experiments stamp *every* point, including
///   fault-free controls and static placements, so `null` means
///   "outside the campaign harness", not "no faults"). Part of *what*
///   the scenario computed, so canonicalization keeps it.
/// * **5** — added the report-level `parallelism` object
///   ([`ParallelismStamp`]): the CPU count the process detected once at
///   startup and whether detection *failed* (auto knobs then fall back
///   to `trix_sim::FALLBACK_WORKERS`) — so a mis-detected container is
///   visible in the record file instead of masquerading as a
///   performance regression. Execution-config metadata like
///   `sim_threads`: zeroed by [`BenchReport::canonicalized`].
/// * **6** — added the per-record `topology` field: the versioned
///   topology descriptor of the graph family the scenario ran on
///   (`null` for the pre-family grid scenarios, which are implicitly
///   the paper's line-with-replicated-ends layering). Like `campaign`
///   it describes *what* the scenario computed, so
///   [`BenchReport::canonicalized`] keeps it.
/// * **7** — added the per-record `sketch` object ([`SketchSummary`]):
///   the compressed POD sketch of the pulse-front matrix (rank-`r`
///   orthonormal basis + singular values + certified Frobenius
///   reconstruction-error bound + the independently *measured* error)
///   for scenarios that ran a `trix_obs::PodSketch` observer (`null`
///   otherwise). A pure function of the workload — deterministic across
///   `--threads` and `--sim-threads` — so [`BenchReport::canonicalized`]
///   keeps it, and the byte-identity checks cover actual dynamics, not
///   just summary stats.
/// * **8** — added the per-record `churn` field: the churn-campaign
///   descriptor of scenarios that ran under open-world membership churn
///   (`trix_faults::ChurnCampaign`; `null` for closed-world scenarios).
///   Workload metadata like `campaign` and `topology`: it describes
///   *what* the scenario computed, so [`BenchReport::canonicalized`]
///   keeps it.
pub const BENCH_SCHEMA_VERSION: u32 = 8;

/// Process-wide CPU detection the sweep ran under — the report-level
/// `parallelism` object of schema v5.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ParallelismStamp {
    /// CPU count every auto (`0`) thread knob resolved against.
    pub workers: usize,
    /// Whether `available_parallelism()` errored and `workers` is the
    /// documented fallback rather than a real detection.
    pub detection_failed: bool,
}

impl ParallelismStamp {
    /// The stamp of the current process, from
    /// [`trix_sim::detected_parallelism`].
    pub fn current() -> Self {
        let d = trix_sim::detected_parallelism();
        Self {
            workers: d.workers,
            detection_failed: d.detection_failed,
        }
    }

    /// The canonical (zeroed) stamp used for byte-identity comparisons
    /// across machines.
    pub const ZERO: Self = Self {
        workers: 0,
        detection_failed: false,
    };
}

/// Streaming skew statistics of one scenario, produced by an online
/// observer (`trix_obs::StreamingSkew`) during the run — the `skew`
/// object of schema v2.
#[derive(Clone, Debug, PartialEq)]
pub struct SkewSummary {
    /// Worst intra-layer local skew over all pulses.
    pub max_intra: f64,
    /// Worst inter-layer local skew over all consecutive pulse pairs.
    pub max_inter: f64,
    /// The full local skew `L = max(max_intra, max_inter)`.
    pub max_full: f64,
    /// Worst same-layer global skew over all pulses.
    pub max_global: f64,
    /// Mean of the per-pulse intra-layer maxima.
    pub mean_intra: f64,
    /// Number of pulses the statistics fold over.
    pub pulses: u64,
    /// Bin width of `hist_intra` (abstract time units).
    pub hist_bin_width: f64,
    /// Fixed-bin histogram of the per-pulse intra-layer maxima (last bin
    /// absorbs overflow).
    pub hist_intra: Vec<u64>,
}

impl SkewSummary {
    fn write_json(&self, out: &mut String) {
        let _ = write!(
            out,
            "{{\"max_intra\": {}, \"max_inter\": {}, \"max_full\": {}, \"max_global\": {}, \
             \"mean_intra\": {}, \"pulses\": {}, \"hist_bin_width\": {}, \"hist_intra\": [",
            fmt_json_f64(self.max_intra),
            fmt_json_f64(self.max_inter),
            fmt_json_f64(self.max_full),
            fmt_json_f64(self.max_global),
            fmt_json_f64(self.mean_intra),
            self.pulses,
            fmt_json_f64(self.hist_bin_width),
        );
        for (i, b) in self.hist_intra.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "{b}");
        }
        out.push_str("]}");
    }
}

/// The compressed POD sketch of one scenario's pulse-front matrix — the
/// `sketch` object of schema v7.
///
/// This is the runner's serialization-side mirror of
/// `trix_obs::PodSnapshot` (the runner stays independent of `trix-obs`;
/// the bench harness converts). The basis is mode-major: mode `j` is
/// `basis[j*cols .. (j+1)*cols]`.
#[derive(Clone, Debug, PartialEq)]
pub struct SketchSummary {
    /// Rank cap the sketch ran with (the retained basis may be smaller).
    pub rank: usize,
    /// Columns (base-graph width) the sketch covers.
    pub cols: usize,
    /// Pulse-front rows consumed.
    pub rows: u64,
    /// Retained singular values, descending.
    pub singular_values: Vec<f64>,
    /// Mode-major orthonormal basis (`singular_values.len() × cols`).
    pub basis: Vec<f64>,
    /// Certified upper bound on the Frobenius reconstruction error.
    pub error_bound: f64,
    /// Independently measured Frobenius reconstruction error (second
    /// pass); the `exp_modes` oracle asserts `measured ≤ error_bound`.
    pub measured_error: f64,
    /// Total Frobenius energy `‖A‖²_F` of the streamed matrix.
    pub energy: f64,
}

impl SketchSummary {
    fn write_json(&self, out: &mut String) {
        let _ = write!(
            out,
            "{{\"rank\": {}, \"cols\": {}, \"rows\": {}, \"singular_values\": [",
            self.rank, self.cols, self.rows
        );
        for (i, s) in self.singular_values.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&fmt_json_f64(*s));
        }
        out.push_str("], \"basis\": [");
        for (i, b) in self.basis.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&fmt_json_f64(*b));
        }
        let _ = write!(
            out,
            "], \"error_bound\": {}, \"measured_error\": {}, \"energy\": {}}}",
            fmt_json_f64(self.error_bound),
            fmt_json_f64(self.measured_error),
            fmt_json_f64(self.energy),
        );
    }
}

/// Summary statistics over the numeric cells of one scenario's table rows
/// (for skew experiments these are the skew columns).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ValueStats {
    /// Smallest numeric cell.
    pub min: f64,
    /// Largest numeric cell.
    pub max: f64,
    /// Mean of the numeric cells.
    pub mean: f64,
    /// Number of numeric cells.
    pub count: usize,
}

impl ValueStats {
    /// Computes stats over `values`; `None` if empty.
    pub fn of(values: impl IntoIterator<Item = f64>) -> Option<Self> {
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        let mut sum = 0.0;
        let mut count = 0usize;
        for v in values {
            min = min.min(v);
            max = max.max(v);
            sum += v;
            count += 1;
        }
        (count > 0).then(|| Self {
            min,
            max,
            mean: sum / count as f64,
            count,
        })
    }
}

/// One scenario's machine-readable result.
///
/// Everything except [`BenchRecord::wall_secs`] is a pure function of the
/// scenario definition and the base seed, so records from sweeps with any
/// `--threads` value are byte-identical modulo that one field (pinned by
/// `tests/parallel_determinism.rs`).
#[derive(Clone, Debug, PartialEq)]
pub struct BenchRecord {
    /// Experiment this scenario belongs to (e.g. `"thm11"`).
    pub experiment: String,
    /// Human-readable scenario label (e.g. `"w=32"`).
    pub scenario: String,
    /// Scenario parameters as ordered key/value pairs.
    pub params: Vec<(String, String)>,
    /// Seeds the scenario ran under (derived, not chosen).
    pub seeds: Vec<u64>,
    /// Table rows the scenario produced.
    pub rows: usize,
    /// Simulated events executed (dataflow rule evaluations + DES events).
    pub events: u64,
    /// Intra-scenario dataflow worker count the scenario's job was built
    /// with (`1` = serial engine — including every scenario that does
    /// not consume the `--sim-threads` knob, such as the full-trace
    /// experiments; `0` = one worker per CPU; schema v3).
    /// Execution-config metadata: zeroed by
    /// [`BenchReport::canonicalized`], since sharded and serial runs are
    /// bit-identical everywhere else.
    pub sim_threads: usize,
    /// FNV-1a fingerprint of the scenario's table cells.
    pub fingerprint: u64,
    /// Stats over the numeric table cells, if any.
    pub values: Option<ValueStats>,
    /// Streaming skew statistics, when the scenario ran with an online
    /// skew observer (schema v2).
    pub skew: Option<SkewSummary>,
    /// Fault-campaign descriptor the scenario declared (schema v4).
    /// `None` means the scenario declared no campaign — campaign
    /// experiments stamp every point, including their fault-free
    /// controls and static placements, so `None` identifies scenarios
    /// outside the campaign harness rather than fault-free workloads.
    /// Unlike `sim_threads`, this describes the *workload*, so it
    /// survives [`BenchReport::canonicalized`].
    pub campaign: Option<String>,
    /// Versioned topology descriptor of the graph family the scenario
    /// ran on (schema v6), e.g. `"v1 torus rows=3 cols=4 n=12 m=24
    /// deg=4..4 D=3"`. `None` identifies the pre-family grid scenarios
    /// (implicitly the paper's line-with-replicated-ends layering).
    /// Workload metadata like `campaign`: survives
    /// [`BenchReport::canonicalized`].
    pub topology: Option<String>,
    /// Churn-campaign descriptor of scenarios that ran under open-world
    /// membership churn (schema v8), e.g. `"flicker r=0.05 grid
    /// w=1280"`. `None` identifies closed-world scenarios (fixed node
    /// set — possibly faulty, but never absent). Workload metadata like
    /// `campaign`: survives [`BenchReport::canonicalized`].
    pub churn: Option<String>,
    /// Compressed POD sketch of the scenario's pulse-front matrix
    /// (schema v7), when the scenario ran a `PodSketch` observer.
    /// Deterministic workload output — survives
    /// [`BenchReport::canonicalized`], extending the byte-identity
    /// checks to the sketched dynamics.
    pub sketch: Option<SketchSummary>,
    /// Wall-clock seconds the scenario took (volatile; excluded from
    /// determinism comparisons).
    pub wall_secs: f64,
}

/// A full sweep's machine-readable result — the `BENCH_*.json` payload.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchReport {
    /// Name of the suite or experiment the report covers.
    pub suite: String,
    /// Scale the sweep ran at (`"smoke"`, `"quick"`, `"full"`).
    pub scale: String,
    /// Base seed of the sweep.
    pub base_seed: u64,
    /// CPU detection the process ran under (schema v5).
    pub parallelism: ParallelismStamp,
    /// One record per scenario, in suite order.
    pub records: Vec<BenchRecord>,
}

impl BenchReport {
    /// A copy with every execution-volatile field zeroed — wall times,
    /// intra-scenario worker counts, and the machine's parallelism
    /// stamp — for byte-identity comparisons across `--threads` and
    /// `--sim-threads` values (and across machines).
    pub fn canonicalized(&self) -> Self {
        let mut copy = self.clone();
        copy.parallelism = ParallelismStamp::ZERO;
        for r in &mut copy.records {
            r.wall_secs = 0.0;
            r.sim_threads = 0;
        }
        copy
    }

    /// A report containing only records of `experiment`.
    pub fn filtered(&self, experiment: &str) -> Self {
        Self {
            suite: experiment.to_owned(),
            scale: self.scale.clone(),
            base_seed: self.base_seed,
            parallelism: self.parallelism,
            records: self
                .records
                .iter()
                .filter(|r| r.experiment == experiment)
                .cloned()
                .collect(),
        }
    }

    /// Serializes the report as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"schema_version\": {BENCH_SCHEMA_VERSION},");
        let _ = writeln!(out, "  \"suite\": \"{}\",", json_escape(&self.suite));
        let _ = writeln!(out, "  \"scale\": \"{}\",", json_escape(&self.scale));
        let _ = writeln!(out, "  \"base_seed\": {},", self.base_seed);
        let _ = writeln!(
            out,
            "  \"parallelism\": {{\"workers\": {}, \"detection_failed\": {}}},",
            self.parallelism.workers, self.parallelism.detection_failed
        );
        out.push_str("  \"records\": [");
        for (i, r) in self.records.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('\n');
            r.write_json(&mut out, "    ");
        }
        if !self.records.is_empty() {
            out.push('\n');
        }
        out.push_str("  ]\n}\n");
        out
    }
}

impl BenchRecord {
    fn write_json(&self, out: &mut String, indent: &str) {
        let _ = write!(out, "{indent}{{");
        let _ = write!(
            out,
            "\"experiment\": \"{}\", \"scenario\": \"{}\"",
            json_escape(&self.experiment),
            json_escape(&self.scenario)
        );
        let _ = write!(out, ", \"params\": {{");
        for (i, (k, v)) in self.params.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "\"{}\": \"{}\"", json_escape(k), json_escape(v));
        }
        out.push('}');
        let _ = write!(out, ", \"seeds\": [");
        for (i, s) in self.seeds.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "{s}");
        }
        out.push(']');
        let _ = write!(out, ", \"rows\": {}", self.rows);
        let _ = write!(out, ", \"events\": {}", self.events);
        let _ = write!(out, ", \"sim_threads\": {}", self.sim_threads);
        let _ = write!(out, ", \"fingerprint\": \"{:#018x}\"", self.fingerprint);
        match &self.values {
            Some(v) => {
                let _ = write!(
                    out,
                    ", \"values\": {{\"min\": {}, \"max\": {}, \"mean\": {}, \"count\": {}}}",
                    fmt_json_f64(v.min),
                    fmt_json_f64(v.max),
                    fmt_json_f64(v.mean),
                    v.count
                );
            }
            None => out.push_str(", \"values\": null"),
        }
        match &self.skew {
            Some(s) => {
                out.push_str(", \"skew\": ");
                s.write_json(out);
            }
            None => out.push_str(", \"skew\": null"),
        }
        match &self.campaign {
            Some(c) => {
                let _ = write!(out, ", \"campaign\": \"{}\"", json_escape(c));
            }
            None => out.push_str(", \"campaign\": null"),
        }
        match &self.topology {
            Some(t) => {
                let _ = write!(out, ", \"topology\": \"{}\"", json_escape(t));
            }
            None => out.push_str(", \"topology\": null"),
        }
        match &self.churn {
            Some(c) => {
                let _ = write!(out, ", \"churn\": \"{}\"", json_escape(c));
            }
            None => out.push_str(", \"churn\": null"),
        }
        match &self.sketch {
            Some(s) => {
                out.push_str(", \"sketch\": ");
                s.write_json(out);
            }
            None => out.push_str(", \"sketch\": null"),
        }
        let _ = write!(out, ", \"wall_secs\": {}", fmt_json_f64(self.wall_secs));
        out.push('}');
    }
}

/// Formats a float as a JSON number (JSON has no `Infinity`/`NaN`; those
/// become `null`).
fn fmt_json_f64(x: f64) -> String {
    if x.is_finite() {
        // Rust's `Display` prints the shortest decimal that round-trips,
        // but bare integers (`1`) need a fractional marker to stay typed
        // as floats for picky consumers — match serde_json and leave them
        // as-is; JSON numbers are untyped anyway.
        format!("{x}")
    } else {
        "null".to_owned()
    }
}

/// Escapes a string for embedding in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BenchReport {
        BenchReport {
            suite: "demo".into(),
            scale: "quick".into(),
            base_seed: 7,
            parallelism: ParallelismStamp {
                workers: 4,
                detection_failed: false,
            },
            records: vec![BenchRecord {
                experiment: "thm11".into(),
                scenario: "w=8".into(),
                params: vec![("width".into(), "8".into())],
                seeds: vec![1, 2],
                rows: 1,
                events: 192,
                sim_threads: 4,
                fingerprint: 0xDEAD_BEEF,
                values: ValueStats::of([1.0, 3.0]),
                skew: None,
                campaign: None,
                topology: None,
                churn: None,
                sketch: None,
                wall_secs: 0.25,
            }],
        }
    }

    #[test]
    fn json_contains_versioned_schema_and_fields() {
        let j = sample().to_json();
        assert!(j.contains("\"schema_version\": 8"));
        assert!(j.contains("\"parallelism\": {\"workers\": 4, \"detection_failed\": false}"));
        assert!(j.contains("\"experiment\": \"thm11\""));
        assert!(j.contains("\"params\": {\"width\": \"8\"}"));
        assert!(j.contains("\"seeds\": [1, 2]"));
        assert!(j.contains("\"events\": 192"));
        assert!(j.contains("\"sim_threads\": 4"));
        assert!(j.contains("\"fingerprint\": \"0x00000000deadbeef\""));
        assert!(j.contains("\"values\": {\"min\": 1, \"max\": 3, \"mean\": 2, \"count\": 2}"));
        assert!(j.contains("\"skew\": null"));
        assert!(j.contains("\"campaign\": null"));
        assert!(j.contains("\"topology\": null"));
        assert!(j.contains("\"churn\": null"));
        assert!(j.contains("\"sketch\": null"));
        assert!(j.contains("\"wall_secs\": 0.25"));
    }

    /// Schema v7: the sketch object serializes in field order and, being
    /// a deterministic function of the workload, survives
    /// canonicalization untouched.
    #[test]
    fn sketch_summary_serializes_and_survives_canonicalization() {
        let mut r = sample();
        r.records[0].sketch = Some(SketchSummary {
            rank: 2,
            cols: 3,
            rows: 5,
            singular_values: vec![4.0, 0.5],
            basis: vec![1.0, 0.0, 0.0, 0.0, 1.0, 0.0],
            error_bound: 0.25,
            measured_error: 0.125,
            energy: 16.5,
        });
        let j = r.to_json();
        assert!(j.contains(
            "\"sketch\": {\"rank\": 2, \"cols\": 3, \"rows\": 5, \
             \"singular_values\": [4, 0.5], \"basis\": [1, 0, 0, 0, 1, 0], \
             \"error_bound\": 0.25, \"measured_error\": 0.125, \"energy\": 16.5}"
        ));
        let c = r.canonicalized();
        assert_eq!(c.records[0].sketch, r.records[0].sketch);
    }

    /// Schema v6: the topology descriptor serializes and survives
    /// canonicalization — like `campaign`, it describes the workload.
    #[test]
    fn topology_descriptor_serializes_and_survives_canonicalization() {
        let mut r = sample();
        r.records[0].topology = Some("v1 torus rows=3 cols=4 n=12 m=24 deg=4..4 D=3".into());
        let j = r.to_json();
        assert!(j.contains("\"topology\": \"v1 torus rows=3 cols=4 n=12 m=24 deg=4..4 D=3\""));
        let c = r.canonicalized();
        assert_eq!(c.records[0].topology, r.records[0].topology);
    }

    /// Schema v8: the churn descriptor serializes and survives
    /// canonicalization — membership churn is part of the workload, not
    /// the execution.
    #[test]
    fn churn_descriptor_serializes_and_survives_canonicalization() {
        let mut r = sample();
        r.records[0].churn = Some("flicker r=0.05 grid w=1280".into());
        let j = r.to_json();
        assert!(j.contains("\"churn\": \"flicker r=0.05 grid w=1280\""));
        let c = r.canonicalized();
        assert_eq!(c.records[0].churn, r.records[0].churn);
    }

    /// Schema v4: the campaign descriptor serializes (escaped) and
    /// survives canonicalization — it describes the workload, not the
    /// execution.
    #[test]
    fn campaign_descriptor_serializes_and_survives_canonicalization() {
        let mut r = sample();
        r.records[0].campaign = Some("iid p=0.01 \"flaky\"".into());
        let j = r.to_json();
        assert!(j.contains("\"campaign\": \"iid p=0.01 \\\"flaky\\\"\""));
        let c = r.canonicalized();
        assert_eq!(c.records[0].campaign, r.records[0].campaign);
    }

    #[test]
    fn skew_summary_serializes_in_full() {
        let mut r = sample();
        r.records[0].skew = Some(SkewSummary {
            max_intra: 2.5,
            max_inter: 3.0,
            max_full: 3.0,
            max_global: 7.25,
            mean_intra: 1.5,
            pulses: 4,
            hist_bin_width: 0.5,
            hist_intra: vec![1, 0, 3],
        });
        let j = r.to_json();
        assert!(j.contains(
            "\"skew\": {\"max_intra\": 2.5, \"max_inter\": 3, \"max_full\": 3, \
             \"max_global\": 7.25, \"mean_intra\": 1.5, \"pulses\": 4, \
             \"hist_bin_width\": 0.5, \"hist_intra\": [1, 0, 3]}"
        ));
    }

    #[test]
    fn canonicalized_zeroes_execution_volatile_fields_only() {
        let r = sample();
        let c = r.canonicalized();
        assert_eq!(c.records[0].wall_secs, 0.0);
        assert_eq!(c.records[0].sim_threads, 0);
        assert_eq!(c.parallelism, ParallelismStamp::ZERO);
        assert_eq!(c.records[0].events, r.records[0].events);
        // Identical sweeps differing only in wall time, dataflow worker
        // count, or the machine's CPU stamp serialize equal after
        // canonicalization — the contract behind the canonical-JSON
        // comparisons in `tests/parallel_determinism.rs`.
        let mut other = sample();
        other.records[0].wall_secs = 99.0;
        other.records[0].sim_threads = 1;
        other.parallelism = ParallelismStamp {
            workers: 96,
            detection_failed: true,
        };
        assert_eq!(c.to_json(), other.canonicalized().to_json());
    }

    #[test]
    fn filtered_keeps_matching_records() {
        let mut r = sample();
        let mut second = r.records[0].clone();
        second.experiment = "thm12".into();
        r.records.push(second);
        let only = r.filtered("thm12");
        assert_eq!(only.records.len(), 1);
        assert_eq!(only.suite, "thm12");
    }

    #[test]
    fn escaping_handles_quotes_and_control_chars() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn value_stats_of_empty_is_none() {
        assert!(ValueStats::of([]).is_none());
        let s = ValueStats::of([2.0, 4.0, 6.0]).unwrap();
        assert_eq!((s.min, s.max, s.mean, s.count), (2.0, 6.0, 4.0, 3));
    }
}
