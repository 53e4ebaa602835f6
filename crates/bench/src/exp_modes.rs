//! Experiment `exp_modes` — online low-rank trace sketches with tested
//! error envelopes on streamed grids too large to trace.
//!
//! *Claim:* a rank-`r` [`trix_obs::PodSketch`] of the pulse-front matrix
//! keeps enough of the dynamics to answer post-mortem questions
//! (dominant skew modes, their spatial origin, wave velocity) in
//! `O(width × r)` memory, and its **certified** Frobenius
//! reconstruction-error bound really dominates the **measured** error —
//! on fault-free grids, under a moving-wave fault campaign, and on the
//! torus/supernode graph families.
//!
//! *Workload:* one scenario per `(workload, rank)` point. Pass 1 streams
//! the run through `(StreamingSkew, PodSketch)`; pass 2 re-runs the
//! *identical* workload (both engines stream deterministically) through
//! a [`trix_analysis::ModeProbe`] against the finished snapshot,
//! measuring the true residual and fitting per-mode wave velocities.
//! The condition oracle asserts `measured ≤ certified` for every seed —
//! the sketch's claim about itself, checked against ground truth it
//! never saw.
//!
//! Streaming-only (like `exp_scale`); each record ships its first
//! seed's compressed sketch (basis + spectrum + error certificate) as
//! the schema-v7 `sketch` object, and `tests/parallel_determinism.rs`
//! pins the canonical records byte-identical across `--threads` and
//! `--sim-threads` values — regression-diffing covers the actual
//! dynamics, not just summary stats. The sketch arithmetic runs on a [`PipelinedSketch`] worker
//! thread, off the simulation's critical path.

use crate::common::{
    graph_inputs, grid, line_inputs, merge_snapshots, standard_params, streaming_monitor,
};
use crate::suite::{kv, scenario_seeds, Scenario, ScenarioResult};
use crate::{exp_fault_sweep, exp_topology, Scale};
use trix_analysis::{fmt_f64, ModeProbe, ModeReport, Table};
use trix_core::{GradientTrixRule, Layer0Line};
use trix_faults::FaultCampaign;
use trix_obs::{PipelinedSketch, PodSketch, PodSnapshot, SkewStats};
use trix_sim::{run_dataflow_parallel, CorrectSends, StaticEnvironment};
use trix_topology::LayeredGraph;

/// The workload axis of the sweep.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Fault-free square grid (`a` = line length, `a` layers).
    Grid,
    /// The same grid under `exp_fault_sweep`'s moving-wave campaign
    /// (silent faults marching down the middle column).
    Wave,
    /// Fault-free torus family (`a × b`, diameter-derived depth) via
    /// `exp_topology`.
    Torus,
    /// Fault-free supernode overlay (`a` cores, `b` leaves each) via
    /// `exp_topology`.
    Supernode,
}

impl Workload {
    /// The workload's CLI/JSON name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Grid => "grid",
            Workload::Wave => "wave",
            Workload::Torus => "torus",
            Workload::Supernode => "supernode",
        }
    }
}

/// One `(workload, rank)` point of the sweep.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SweepPoint {
    /// Workload class.
    pub workload: Workload,
    /// Primary size parameter (grid/wave: line length; torus: rows;
    /// supernode: cores).
    pub a: usize,
    /// Secondary size parameter (torus: cols; supernode: leaves; `0`
    /// where unused).
    pub b: usize,
    /// Sketch rank `r`.
    pub rank: usize,
    /// Pulses to stream.
    pub pulses: usize,
}

impl SweepPoint {
    /// The point's layered deployment — a pure function of the point, so
    /// the scenario list, both passes, and the benchmark-record replay
    /// all construct the identical workload.
    pub fn layered(&self) -> LayeredGraph {
        match self.workload {
            Workload::Grid | Workload::Wave => grid(self.a, self.a),
            Workload::Torus | Workload::Supernode => exp_topology::layered(&self.topology_point()),
        }
    }

    /// The wave workload's campaign point (delegating to
    /// `exp_fault_sweep` keeps the adversary identical to the one the
    /// fault sweep certifies 1-local).
    pub fn wave_point(&self) -> exp_fault_sweep::SweepPoint {
        exp_fault_sweep::SweepPoint {
            width: self.a,
            pulses: self.pulses,
            density_centi: 100,
            behavior: exp_fault_sweep::BehaviorClass::Silent,
            pattern: exp_fault_sweep::PatternClass::Wave,
        }
    }

    fn topology_point(&self) -> exp_topology::SweepPoint {
        exp_topology::SweepPoint {
            family: match self.workload {
                Workload::Torus => exp_topology::FamilyClass::Torus,
                _ => exp_topology::FamilyClass::Supernode,
            },
            a: self.a,
            b: self.b,
            pulses: self.pulses,
        }
    }

    /// The scenario label / descriptor.
    pub fn label(&self) -> String {
        match self.workload {
            Workload::Grid | Workload::Wave => {
                format!("{} w={} r={}", self.workload.name(), self.a, self.rank)
            }
            Workload::Torus | Workload::Supernode => format!(
                "{} a={} b={} r={}",
                self.workload.name(),
                self.a,
                self.b,
                self.rank
            ),
        }
    }

    /// The params stamped into the benchmark record: the point's fields,
    /// in declaration order.
    pub fn params(&self) -> Vec<(String, String)> {
        vec![
            kv("workload", self.workload.name()),
            kv("a", self.a),
            kv("b", self.b),
            kv("rank", self.rank),
            kv("pulses", self.pulses),
        ]
    }
}

/// One seed's inputs to both passes, drawn once: the environment, the
/// layer-0 times and, for [`Workload::Wave`], the fault campaign. The
/// grid workloads draw them as `run_gradient_trix_streaming` does, the
/// graph families as `run_gradient_trix_streaming_graph` does.
struct SeedInputs {
    env: StaticEnvironment,
    layer0: Layer0Line,
    campaign: Option<FaultCampaign>,
}

impl SeedInputs {
    fn new(point: &SweepPoint, g: &LayeredGraph, seed: u64) -> Self {
        let p = standard_params();
        let (env, layer0) = match point.workload {
            Workload::Grid | Workload::Wave => line_inputs(g, &p, seed),
            Workload::Torus | Workload::Supernode => graph_inputs(g, &p, seed),
        };
        let campaign = (point.workload == Workload::Wave)
            .then(|| exp_fault_sweep::campaign_for(g, &point.wave_point(), seed));
        Self {
            env,
            layer0,
            campaign,
        }
    }

    /// Drives one pass over these inputs, streaming into `obs`.
    fn drive(
        &self,
        point: &SweepPoint,
        g: &LayeredGraph,
        sim_threads: usize,
        obs: &mut impl trix_sim::Observer,
    ) {
        let rule = GradientTrixRule::new(standard_params());
        let (env, layer0, pulses) = (&self.env, &self.layer0, point.pulses);
        match &self.campaign {
            Some(campaign) => {
                run_dataflow_parallel(g, env, layer0, &rule, campaign, pulses, sim_threads, obs)
            }
            None => run_dataflow_parallel(
                g,
                env,
                layer0,
                &rule,
                &CorrectSends,
                pulses,
                sim_threads,
                obs,
            ),
        }
    }
}

/// Runs both passes of one seed over the same [`SeedInputs`]: the
/// sketch-building pass, with the sketch on the [`PipelinedSketch`]
/// worker (bit-identical to an inline sketch by construction), then the
/// mode-probe measurement pass over the identical stream.
fn run_seed(
    point: &SweepPoint,
    g: &LayeredGraph,
    seed: u64,
    sim_threads: usize,
) -> (SkewStats, PodSnapshot, ModeReport) {
    let p = standard_params();
    let inputs = SeedInputs::new(point, g, seed);
    let mut skew = streaming_monitor(g, &p);
    let mut obs = (
        &mut skew,
        PipelinedSketch::spawn(PodSketch::new(g, point.rank)),
    );
    inputs.drive(point, g, sim_threads, &mut obs);
    let mut sketch = obs.1.join();
    skew.finish();
    sketch.finish();
    let snap = sketch.snapshot();
    // Pass 2: measure the snapshot against the stream it came from.
    let mut probe = ModeProbe::new(snap.clone());
    inputs.drive(point, g, sim_threads, &mut probe);
    let report = probe.into_report();
    (skew.snapshot(), snap, report)
}

/// Uniform table headers (identical across scenarios so per-experiment
/// shards merge).
const HEADERS: [&str; 12] = [
    "workload",
    "rank",
    "cols",
    "layers",
    "pulses",
    "rows",
    "capture",
    "cert err",
    "measured err",
    "meas/cert",
    "sketch bytes",
    "v_dom (layers/pulse)",
];

/// The `measured ≤ certified` oracle for one seed. Only a `<=` that
/// holds passes, so a NaN on either side, which no `>` comparison sees,
/// is a violation too.
fn certificate_violation(seed: u64, measured: f64, certified: f64) -> Option<String> {
    if measured <= certified {
        return None;
    }
    Some(format!(
        "seed {seed}: measured reconstruction error {measured} is not within the certified bound {certified}"
    ))
}

/// Runs one sweep point: per seed, the two-pass sketch/probe workload
/// with the `measured ≤ certified` oracle; the record ships the first
/// seed's compressed sketch and its measured error.
pub fn run(point: &SweepPoint, seeds: &[u64], sim_threads: usize) -> ScenarioResult {
    let g = point.layered();
    let mut violations = Vec::new();
    let mut snaps: Vec<SkewStats> = Vec::new();
    let mut first: Option<(PodSnapshot, ModeReport)> = None;
    for &seed in seeds {
        let (skew, snap, report) = run_seed(point, &g, seed, sim_threads);
        if report.rows != snap.rows {
            violations.push(format!(
                "seed {seed}: probe consumed {} rows but the sketch folded {}",
                report.rows, snap.rows
            ));
        }
        violations.extend(certificate_violation(
            seed,
            report.measured_error,
            snap.error_bound,
        ));
        snaps.push(skew);
        first.get_or_insert((snap, report));
    }
    let summary = merge_snapshots(&snaps);
    let (snap, report) = first.expect("at least one seed");
    let capture = if snap.energy > 0.0 {
        snap.captured_energy() / snap.energy
    } else {
        1.0
    };
    let v_dom = report
        .modes
        .first()
        .and_then(|m| m.velocity)
        .map_or_else(|| "-".to_owned(), fmt_f64);
    let mut table = Table::new(
        "exp_modes — POD sketch certificates and mode analytics",
        &HEADERS,
    );
    table.row_values(&[
        point.workload.name().to_owned(),
        point.rank.to_string(),
        snap.cols.to_string(),
        g.layer_count().to_string(),
        point.pulses.to_string(),
        snap.rows.to_string(),
        fmt_f64(capture),
        fmt_f64(snap.error_bound),
        fmt_f64(report.measured_error),
        fmt_f64(if snap.error_bound > 0.0 {
            report.measured_error / snap.error_bound
        } else {
            0.0
        }),
        snap.approx_bytes().to_string(),
        v_dom,
    ]);
    ScenarioResult {
        table,
        violations,
        skew: Some(summary),
        sketch: Some((snap, report.measured_error)),
    }
}

/// The point list per scale: the rank axis on the fault-free grid, plus
/// one wave-campaign and two graph-family points per scale.
pub fn points(scale: Scale) -> Vec<SweepPoint> {
    let pulses = match scale {
        Scale::Smoke => 3,
        _ => 4,
    };
    let point = |workload, a, b, rank: usize| SweepPoint {
        workload,
        a,
        b,
        rank,
        pulses,
    };
    match scale {
        Scale::Smoke => vec![
            point(Workload::Grid, 12, 0, 4),
            point(Workload::Grid, 12, 0, 16),
            point(Workload::Wave, 12, 0, 4),
            point(Workload::Torus, 3, 4, 4),
            point(Workload::Supernode, 4, 2, 4),
        ],
        Scale::Quick => vec![
            point(Workload::Grid, 24, 0, 4),
            point(Workload::Grid, 24, 0, 16),
            point(Workload::Wave, 24, 0, 8),
            point(Workload::Torus, 4, 6, 8),
            point(Workload::Supernode, 6, 3, 8),
        ],
        Scale::Full => vec![
            point(Workload::Grid, 1280, 0, 4),
            point(Workload::Grid, 1280, 0, 16),
            point(Workload::Grid, 3200, 0, 16),
            point(Workload::Wave, 640, 0, 16),
            point(Workload::Torus, 16, 16, 16),
            point(Workload::Supernode, 32, 8, 16),
        ],
    }
}

/// Scenario decomposition: one scenario per `(workload, rank)` point.
/// Every point stamps its params, wave points their campaign descriptor
/// and family points their topology descriptor, and every point threads
/// `--sim-threads` into the dataflow driver.
pub fn scenarios(scale: Scale, base_seed: u64, sim_threads: usize) -> Vec<Scenario> {
    points(scale)
        .into_iter()
        .enumerate()
        .map(|(i, point)| {
            let seeds = scenario_seeds(base_seed, "exp_modes", i as u64, scale.seed_count());
            let job_seeds = seeds.clone();
            let scenario = Scenario::new(
                "exp_modes",
                point.label(),
                point.params(),
                &seeds,
                move || run(&point, &job_seeds, sim_threads),
            )
            .with_sim_threads(sim_threads);
            match point.workload {
                Workload::Wave => scenario.with_campaign(point.wave_point().descriptor()),
                Workload::Torus | Workload::Supernode => {
                    scenario.with_topology(point.topology_point().build().descriptor().to_owned())
                }
                Workload::Grid => scenario,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_smoke_point_passes_the_certificate_oracle() {
        for point in points(Scale::Smoke) {
            let result = run(&point, &[3], 1);
            assert!(
                result.violations.is_empty(),
                "{}: {:?}",
                point.label(),
                result.violations
            );
            let (snap, measured_error) = result.sketch.expect("every record ships a sketch");
            assert!(snap.rows > 0);
            assert!(!snap.singular_values.is_empty());
            assert!(measured_error <= snap.error_bound);
            let skew = result.skew.expect("streaming stats ride along");
            assert!(skew.pulses > 0);
        }
    }

    /// A certificate that is NaN (a non-finite pulse time reached the
    /// sketch) fails the oracle instead of passing every `>` test.
    #[test]
    fn certificate_oracle_flags_a_nan_certificate() {
        assert_eq!(certificate_violation(3, 0.5, 1.0), None);
        let violation = certificate_violation(3, 0.5, f64::NAN).expect("NaN certificate");
        assert!(
            violation.contains("seed 3") && violation.contains("0.5") && violation.contains("NaN"),
            "{violation}"
        );
        assert!(certificate_violation(3, f64::NAN, 1.0).is_some());
        assert!(certificate_violation(3, 2.0, 1.0).is_some());
    }

    /// The sketch — not just the skew stats — is bit-identical for every
    /// `--sim-threads` value: the schema-v7 leg of the determinism
    /// contract `tests/parallel_determinism.rs` pins suite-wide.
    #[test]
    fn sim_threads_do_not_change_the_sketch() {
        for point in [
            points(Scale::Smoke)[0],
            points(Scale::Smoke)[2],
            points(Scale::Smoke)[3],
        ] {
            let serial = run(&point, &[5, 6], 1);
            for sim_threads in [2, 4] {
                let sharded = run(&point, &[5, 6], sim_threads);
                assert_eq!(
                    serial.sketch,
                    sharded.sketch,
                    "{} sim_threads = {sim_threads}",
                    point.label()
                );
                assert_eq!(serial.skew, sharded.skew);
                assert_eq!(
                    crate::suite::table_fingerprint(&serial.table),
                    crate::suite::table_fingerprint(&sharded.table)
                );
            }
        }
    }

    /// The scenario list is the point list, in order (the record replay
    /// walks the points beside the records).
    #[test]
    fn params_round_trip_and_scenarios_follow_points() {
        let scenarios = scenarios(Scale::Smoke, 0, 1);
        assert_eq!(scenarios.len(), points(Scale::Smoke).len());
        for (s, point) in scenarios.iter().zip(points(Scale::Smoke)) {
            assert_eq!(s.experiment(), "exp_modes");
            assert_eq!(s.label(), point.label());
        }
    }

    /// The full rank axis exercises r=4 and r=16 at every scale, and the
    /// full scale reaches the streamed widths the README's compression
    /// table quotes (1280 and 3200).
    #[test]
    fn scales_cover_the_documented_rank_and_width_axis() {
        for scale in [Scale::Smoke, Scale::Quick, Scale::Full] {
            let ranks: Vec<usize> = points(scale).iter().map(|p| p.rank).collect();
            assert!(ranks.contains(&4) || ranks.contains(&8));
            assert!(ranks.contains(&16));
        }
        let widths: Vec<usize> = points(Scale::Full)
            .iter()
            .filter(|p| p.workload == Workload::Grid)
            .map(|p| p.a)
            .collect();
        assert!(widths.contains(&1280) && widths.contains(&3200));
    }
}
