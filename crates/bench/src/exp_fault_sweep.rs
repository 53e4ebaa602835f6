//! Experiment `exp_fault_sweep` — fault-campaign density sweeps on
//! streamed grids too large to trace.
//!
//! *Claim:* under **time-varying** 1-local fault campaigns — iid
//! placements at densities up to the paper's `p ~ n^{-1/2}` boundary,
//! crash–recover outages, flaky per-pulse gating, density ramps, moving
//! fault waves, and worst-case clustered columns — the measured local
//! skew of the correct nodes stays within the paper's envelopes: the
//! exact Theorem 1.1 bound for the fault-free control, the Theorem 1.2
//! envelope `B_f` for clustered stacks, and a constant factor
//! ([`FAULT_FACTOR`]×) of the Theorem 1.1 bound for everything 1-local
//! and spread out (the Theorem 1.3 shape check, as in `exp_thm13`).
//!
//! *Workload:* square grids swept over density × behavior × pattern.
//! Every scenario runs streaming-only (`O(nodes)` memory — the same
//! discipline as `exp_scale`), with a [`trix_obs::StreamingSkew`] monitor for the
//! paper's metrics and a [`trix_obs::FaultClassSkew`] monitor attributing skew to
//! the faulty/healthy frontier. Two oracles decide pass/fail:
//!
//! * **one-locality** — the campaign's *active* set is checked 1-local
//!   at every pulse (and the ever-faulty set once), so an experiment
//!   that accidentally builds an adversary stronger than the paper's
//!   model fails loudly instead of producing meaningless skew numbers;
//! * **skew envelope** — merged `L_intra` against the per-pattern bound
//!   described above.
//!
//! Each benchmark record is stamped with its campaign descriptor
//! (`campaign` field, schema v4), so `BENCH_exp_fault_sweep.json`
//! tracks the adversary axis the same way `BENCH_exp_scale.json` tracks
//! the size axis. `tests/parallel_determinism.rs` pins the file
//! byte-identical across `--threads` and `--sim-threads` values.

use crate::common::{grid, merge_snapshots, standard_params, streaming_monitor};
use crate::suite::{kv, scenario_seeds, Scenario, ScenarioResult};
use crate::Scale;
use trix_analysis::{fmt_f64, theory, Table};
use trix_core::GradientTrixRule;
use trix_faults::{
    clustered_column, is_one_local, sample_one_local, FaultBehavior, FaultCampaign, FaultSchedule,
};
use trix_obs::{FaultClassSkew, SkewStats};
use trix_sim::Rng;
use trix_topology::LayeredGraph;

/// Empirical fault-tolerance factor for spread-out 1-local campaigns:
/// measured skew must stay within this multiple of the Theorem 1.1
/// fault-free bound — the Theorem 1.3 "no exponential pile-up" shape
/// check, with the same constant `exp_thm13` uses.
pub const FAULT_FACTOR: f64 = 3.0;

/// Shift magnitude (in κ) used by the timing-lie behaviors.
const SHIFT_KAPPAS: f64 = 10.0;

/// Fault stack height of the clustered-column pattern.
const CLUSTER_F: usize = 3;

/// The behavior axis of the sweep.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BehaviorClass {
    /// Crashed for the whole run: sends nothing, ever.
    Silent,
    /// Static timing lie: ±10κ shifts (`SHIFT_KAPPAS`), sign alternating
    /// across the sorted placement.
    Shift,
    /// Intermittent timing lie: the shift applies on a deterministic
    /// pseudo-random half of the pulses ([`FaultSchedule::Flaky`]).
    Flaky,
    /// Crash–recover: silent for the middle half of the run, nominal
    /// before and after ([`FaultSchedule::CrashRecover`]).
    CrashRecover,
}

impl BehaviorClass {
    /// The class's CLI/JSON name.
    pub fn name(self) -> &'static str {
        match self {
            BehaviorClass::Silent => "silent",
            BehaviorClass::Shift => "shift",
            BehaviorClass::Flaky => "flaky",
            BehaviorClass::CrashRecover => "crash-recover",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "silent" => BehaviorClass::Silent,
            "shift" => BehaviorClass::Shift,
            "flaky" => BehaviorClass::Flaky,
            "crash-recover" => BehaviorClass::CrashRecover,
            _ => return None,
        })
    }
}

/// The placement/schedule pattern axis of the sweep.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PatternClass {
    /// iid sampling at the point's density, thinned 1-local
    /// ([`sample_one_local`]); behaviors active for the whole run (or
    /// gated by their own schedule).
    Iid,
    /// Density ramp: the same iid placement, but positions activate one
    /// by one across the run ([`FaultCampaign::ramp`]).
    Ramp,
    /// Moving one-local wave down the middle column
    /// ([`FaultCampaign::moving_window`]); at most one node active per
    /// pulse.
    Wave,
    /// Worst-case clustered column: three faults (`CLUSTER_F`) stacked on
    /// consecutive layers ([`clustered_column`]), judged against the
    /// Theorem 1.2 envelope instead of the flat factor.
    Cluster,
}

impl PatternClass {
    /// The pattern's CLI/JSON name.
    pub fn name(self) -> &'static str {
        match self {
            PatternClass::Iid => "iid",
            PatternClass::Ramp => "ramp",
            PatternClass::Wave => "wave",
            PatternClass::Cluster => "cluster",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "iid" => PatternClass::Iid,
            "ramp" => PatternClass::Ramp,
            "wave" => PatternClass::Wave,
            "cluster" => PatternClass::Cluster,
            _ => return None,
        })
    }
}

/// One point of the density × behavior × pattern sweep.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SweepPoint {
    /// Square-grid width (the `square_grid` line length).
    pub width: usize,
    /// Pulses to stream.
    pub pulses: usize,
    /// Fault density in hundredths of `n^{-1/2}`: the sampling
    /// probability is `density_centi / 100 / √n`. `0` = fault-free
    /// control.
    pub density_centi: u32,
    /// Behavior class.
    pub behavior: BehaviorClass,
    /// Placement/schedule pattern.
    pub pattern: PatternClass,
}

impl SweepPoint {
    /// The campaign descriptor stamped into the benchmark record
    /// (schema v4) and attached to the campaign itself.
    pub fn descriptor(&self) -> String {
        format!(
            "{} c={:.2} {} w={}",
            self.pattern.name(),
            self.density_centi as f64 / 100.0,
            self.behavior.name(),
            self.width
        )
    }

    fn sampling_probability(&self, g: &LayeredGraph) -> f64 {
        self.density_centi as f64 / 100.0 / (g.node_count() as f64).sqrt()
    }
}

/// Behavior for the `i`-th (sorted) placement position.
fn behavior_at(class: BehaviorClass, i: usize, kappa: trix_time::Duration) -> FaultBehavior {
    let sign = if i.is_multiple_of(2) { 1.0 } else { -1.0 };
    match class {
        BehaviorClass::Silent | BehaviorClass::CrashRecover => FaultBehavior::Silent,
        BehaviorClass::Shift | BehaviorClass::Flaky => {
            FaultBehavior::Shift(kappa * (sign * SHIFT_KAPPAS))
        }
    }
}

/// Builds the point's campaign — a pure function of `(g, point, seed)`,
/// so the streaming sweep and the full-trace equivalence replay
/// construct the identical adversary.
pub fn campaign_for(g: &LayeredGraph, point: &SweepPoint, seed: u64) -> FaultCampaign {
    let p = standard_params();
    let kappa = p.kappa();
    let mut rng = Rng::seed_from(seed).fork(3);
    let campaign = match point.pattern {
        PatternClass::Wave => {
            let span = (g.layer_count() - 2).min(point.pulses.max(1)).max(1);
            FaultCampaign::moving_window(
                g,
                g.width() / 2,
                1,
                span,
                1,
                behavior_at(point.behavior, 0, kappa),
            )
        }
        PatternClass::Cluster => {
            let start = g.layer_count() / 4;
            let mut positions: Vec<_> =
                clustered_column(g, g.width() / 2, start.max(1), 1, CLUSTER_F)
                    .into_iter()
                    .collect();
            positions.sort();
            FaultCampaign::from_static(
                positions
                    .into_iter()
                    .enumerate()
                    .map(|(i, n)| (n, behavior_at(point.behavior, i, kappa))),
            )
        }
        PatternClass::Iid | PatternClass::Ramp => {
            let prob = point.sampling_probability(g);
            let (positions, _) = sample_one_local(g, prob, 1, &mut rng);
            let mut sorted: Vec<_> = positions.into_iter().collect();
            sorted.sort();
            if point.pattern == PatternClass::Ramp {
                FaultCampaign::ramp(sorted, point.pulses, behavior_at(point.behavior, 0, kappa))
            } else {
                let down_from = (point.pulses / 4).max(1);
                let down_until = (3 * point.pulses / 4).max(down_from + 1);
                let mut flaky_rng = rng.fork(7);
                FaultCampaign::from_schedules(sorted.into_iter().enumerate().map(|(i, n)| {
                    let schedule = match point.behavior {
                        BehaviorClass::CrashRecover => FaultSchedule::CrashRecover {
                            down_from,
                            down_until,
                        },
                        BehaviorClass::Flaky => FaultSchedule::Flaky {
                            behavior: behavior_at(point.behavior, i, kappa),
                            activity: 0.5,
                            seed: flaky_rng.next_u64(),
                        },
                        BehaviorClass::Silent | BehaviorClass::Shift => {
                            FaultSchedule::Always(behavior_at(point.behavior, i, kappa))
                        }
                    };
                    (n, schedule)
                }))
            }
        }
    };
    campaign.with_descriptor(point.descriptor())
}

/// The skew bound a point is judged against: exact Theorem 1.1 for the
/// fault-free control, the Theorem 1.2 envelope at the observed
/// concurrent fault count for clustered stacks, and
/// [`FAULT_FACTOR`]× Theorem 1.1 for every spread-out 1-local campaign.
fn skew_bound(point: &SweepPoint, g: &LayeredGraph, max_concurrent: usize) -> f64 {
    let p = standard_params();
    let d = g.base().diameter();
    let base = theory::thm_1_1_bound(&p, d).as_f64();
    if point.density_centi == 0 && point.pattern == PatternClass::Iid {
        base
    } else if point.pattern == PatternClass::Cluster {
        theory::thm_1_2_envelope(&p, d, max_concurrent as u32).as_f64()
    } else {
        base * FAULT_FACTOR
    }
}

/// Uniform table headers (identical across scenarios so per-experiment
/// shards merge).
const HEADERS: [&str; 12] = [
    "width",
    "density",
    "behavior",
    "pattern",
    "faults (worst seed)",
    "max concurrent",
    "L_intra",
    "L_frontier",
    "L_healthy",
    "mean L_intra",
    "bound",
    "measured/bound",
];

/// Runs one sweep point: per seed, build the campaign, stream the run
/// through `(StreamingSkew, FaultClassSkew)`, check the one-locality
/// oracle per pulse, then merge the per-seed partials and judge the skew
/// oracle.
pub fn run(point: &SweepPoint, seeds: &[u64], sim_threads: usize) -> ScenarioResult {
    let p = standard_params();
    let rule = GradientTrixRule::new(p);
    let g = grid(point.width, point.width);
    let mut violations = Vec::new();
    let mut snaps: Vec<SkewStats> = Vec::new();
    let mut class_snaps: Vec<trix_obs::FaultClassStats> = Vec::new();
    let mut worst_faults = 0usize;
    let mut worst_concurrent = 0usize;
    for &seed in seeds {
        let campaign = campaign_for(&g, point, seed);
        worst_faults = worst_faults.max(campaign.fault_count());
        worst_concurrent = worst_concurrent.max(campaign.max_concurrent(point.pulses));
        // One-locality oracle: the ever-faulty set once, the active set
        // at every pulse.
        let ever = campaign.faulty_nodes().into_iter().collect();
        if !is_one_local(&g, &ever) {
            violations.push(format!(
                "seed {seed}: ever-faulty set of `{}` is not 1-local",
                campaign.descriptor()
            ));
        }
        for k in 0..point.pulses {
            if !is_one_local(&g, &campaign.active_set(k)) {
                violations.push(format!(
                    "seed {seed}: active set of `{}` violates 1-locality at pulse {k}",
                    campaign.descriptor()
                ));
            }
        }
        let mut skew = streaming_monitor(&g, &p);
        let mut classes = FaultClassSkew::new(&g);
        crate::common::run_gradient_trix_streaming(
            &g,
            &p,
            &rule,
            &campaign,
            point.pulses,
            seed,
            sim_threads,
            &mut (&mut skew, &mut classes),
        );
        skew.finish();
        classes.finish();
        snaps.push(skew.snapshot());
        class_snaps.push(classes.snapshot());
    }
    let summary = merge_snapshots(&snaps);
    let classes = {
        let mut it = class_snaps.into_iter();
        let mut first = it.next().expect("at least one seed");
        for s in it {
            first.merge(&s);
        }
        first
    };
    let bound = skew_bound(point, &g, worst_concurrent);
    let mut table = Table::new(
        "exp_fault_sweep — time-varying fault campaigns: density × behavior × pattern",
        &HEADERS,
    );
    table.row_values(&[
        point.width.to_string(),
        fmt_f64(point.density_centi as f64 / 100.0),
        point.behavior.name().to_owned(),
        point.pattern.name().to_owned(),
        worst_faults.to_string(),
        worst_concurrent.to_string(),
        fmt_f64(summary.max_intra),
        fmt_f64(classes.frontier_max),
        fmt_f64(classes.healthy_max),
        fmt_f64(summary.mean_intra),
        fmt_f64(bound),
        fmt_f64(summary.max_intra / bound),
    ]);
    if summary.max_intra > bound {
        violations.push(format!(
            "campaign `{}`: L_intra {} exceeds its envelope {bound}",
            point.descriptor(),
            summary.max_intra
        ));
    }
    ScenarioResult {
        table,
        violations,
        skew: Some(summary),
        sketch: None,
    }
}

/// Grid widths per scale.
pub fn widths(scale: Scale) -> &'static [usize] {
    match scale {
        Scale::Smoke => &[12],
        Scale::Quick => &[24],
        Scale::Full => &[64, 256, 640],
    }
}

/// Density axis per scale, in hundredths of `n^{-1/2}` (100 = the
/// paper's boundary density).
pub fn densities(scale: Scale) -> &'static [u32] {
    match scale {
        Scale::Smoke => &[100],
        Scale::Quick => &[50, 100],
        Scale::Full => &[25, 50, 100],
    }
}

/// Behavior axis per scale.
pub fn behaviors(scale: Scale) -> &'static [BehaviorClass] {
    match scale {
        Scale::Smoke => &[BehaviorClass::Silent, BehaviorClass::CrashRecover],
        _ => &[
            BehaviorClass::Silent,
            BehaviorClass::Shift,
            BehaviorClass::Flaky,
            BehaviorClass::CrashRecover,
        ],
    }
}

/// The point list of one width: fault-free control, the density ×
/// behavior grid under iid placement, then one ramp, one wave, and one
/// clustered-column campaign at the top density.
fn points_for_width(scale: Scale, width: usize) -> Vec<SweepPoint> {
    let pulses = 4;
    let point = |density_centi, behavior, pattern| SweepPoint {
        width,
        pulses,
        density_centi,
        behavior,
        pattern,
    };
    let top = *densities(scale).last().unwrap();
    let mut out = vec![point(0, BehaviorClass::Silent, PatternClass::Iid)];
    for &c in densities(scale) {
        for &b in behaviors(scale) {
            out.push(point(c, b, PatternClass::Iid));
        }
    }
    out.push(point(top, BehaviorClass::Shift, PatternClass::Ramp));
    out.push(point(top, BehaviorClass::Silent, PatternClass::Wave));
    out.push(point(top, BehaviorClass::Shift, PatternClass::Cluster));
    out
}

/// Scenario decomposition: one scenario per sweep point. Each scenario
/// stamps its campaign descriptor into its record (schema v4) and
/// threads `--sim-threads` into the dataflow driver.
pub fn scenarios(scale: Scale, base_seed: u64, sim_threads: usize) -> Vec<Scenario> {
    widths(scale)
        .iter()
        .flat_map(|&w| points_for_width(scale, w))
        .enumerate()
        .map(|(i, point)| {
            let seeds = scenario_seeds(base_seed, "exp_fault_sweep", i as u64, scale.seed_count());
            let job_seeds = seeds.clone();
            Scenario::new(
                "exp_fault_sweep",
                point.descriptor(),
                vec![
                    kv("width", point.width),
                    kv("pulses", point.pulses),
                    kv("density_centi", point.density_centi),
                    kv("behavior", point.behavior.name()),
                    kv("pattern", point.pattern.name()),
                ],
                &seeds,
                move || run(&point, &job_seeds, sim_threads),
            )
            .with_sim_threads(sim_threads)
            .with_campaign(point.descriptor())
        })
        .collect()
}

/// Reconstructs a sweep point from a benchmark record's params — the
/// replay hook `tests/streaming_equivalence.rs` uses to re-run campaign
/// scenarios through the full-trace path.
pub fn point_from_params(params: &[(String, String)]) -> Option<SweepPoint> {
    let get = |key: &str| {
        params
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    };
    Some(SweepPoint {
        width: get("width")?.parse().ok()?,
        pulses: get("pulses")?.parse().ok()?,
        density_centi: get("density_centi")?.parse().ok()?,
        behavior: BehaviorClass::parse(get("behavior")?)?,
        pattern: PatternClass::parse(get("pattern")?)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use trix_analysis::{global_skew, inter_layer_skew, intra_layer_skew};
    use trix_sim::SendModel;

    #[test]
    fn control_point_holds_the_exact_thm_1_1_bound() {
        let point = SweepPoint {
            width: 12,
            pulses: 3,
            density_centi: 0,
            behavior: BehaviorClass::Silent,
            pattern: PatternClass::Iid,
        };
        let result = run(&point, &[1, 2], 1);
        assert!(result.violations.is_empty(), "{:?}", result.violations);
        let skew = result.skew.expect("streaming stats");
        assert!(skew.max_intra > 0.0);
        assert_eq!(skew.pulses, 6); // 3 pulses × 2 seeds
    }

    #[test]
    fn every_smoke_point_passes_its_oracles() {
        for s in scenarios(Scale::Smoke, 0, 1) {
            assert_eq!(s.experiment(), "exp_fault_sweep");
        }
        for point in points_for_width(Scale::Smoke, 12) {
            let result = run(&point, &[3], 1);
            assert!(
                result.violations.is_empty(),
                "{}: {:?}",
                point.descriptor(),
                result.violations
            );
        }
    }

    /// Campaigns don't break the engine-sharding determinism contract:
    /// the whole scenario result — streamed statistics, attribution,
    /// oracle outcomes — is bit-identical for every `--sim-threads`
    /// value.
    #[test]
    fn sim_threads_do_not_change_campaign_results() {
        let point = SweepPoint {
            width: 12,
            pulses: 4,
            density_centi: 100,
            behavior: BehaviorClass::Flaky,
            pattern: PatternClass::Iid,
        };
        let serial = run(&point, &[5, 6], 1);
        for sim_threads in [2, 4] {
            let sharded = run(&point, &[5, 6], sim_threads);
            assert_eq!(
                crate::suite::table_fingerprint(&serial.table),
                crate::suite::table_fingerprint(&sharded.table),
                "sim_threads = {sim_threads}"
            );
            assert_eq!(serial.skew, sharded.skew);
            assert_eq!(serial.violations, sharded.violations);
        }
    }

    /// The streaming statistics replay bit-identically through the
    /// classic full-trace path: same seed derivation, same campaign,
    /// post-hoc analysis over the reconstructed trace.
    #[test]
    fn streaming_stats_equal_full_trace_replay() {
        let p = standard_params();
        let point = SweepPoint {
            width: 10,
            pulses: 3,
            density_centi: 100,
            behavior: BehaviorClass::CrashRecover,
            pattern: PatternClass::Iid,
        };
        let g = grid(point.width, point.width);
        let seed = 11;
        let rule = GradientTrixRule::new(p);
        let campaign = campaign_for(&g, &point, seed);
        assert!(campaign.fault_count() > 0, "want a non-trivial campaign");
        // Streaming run.
        let mut skew = streaming_monitor(&g, &p);
        crate::common::run_gradient_trix_streaming(
            &g,
            &p,
            &rule,
            &campaign,
            point.pulses,
            seed,
            1,
            &mut skew,
        );
        skew.finish();
        let streamed = skew.snapshot();
        // Full-trace replay with the reconstructed campaign.
        let (trace, _) =
            crate::common::run_gradient_trix(&g, &p, &rule, &campaign, point.pulses, seed);
        let mut max_intra = 0.0f64;
        let mut max_inter = 0.0f64;
        for k in 0..point.pulses {
            for layer in 0..g.layer_count() {
                if let Some(s) = intra_layer_skew(&g, &trace, k, layer) {
                    max_intra = max_intra.max(s.as_f64());
                }
                if let Some(s) = inter_layer_skew(&g, &trace, k, layer) {
                    max_inter = max_inter.max(s.as_f64());
                }
                let _ = global_skew(&g, &trace, k, layer);
            }
        }
        assert_eq!(streamed.max_intra, max_intra);
        assert_eq!(streamed.max_inter, max_inter);
    }

    /// The point's campaign is a pure function of `(g, point, seed)` —
    /// the property the benchmark-record replay rests on.
    #[test]
    fn campaigns_reconstruct_from_params() {
        let point = SweepPoint {
            width: 12,
            pulses: 4,
            density_centi: 50,
            behavior: BehaviorClass::Flaky,
            pattern: PatternClass::Ramp,
        };
        let params = vec![
            kv("width", point.width),
            kv("pulses", point.pulses),
            kv("density_centi", point.density_centi),
            kv("behavior", point.behavior.name()),
            kv("pattern", point.pattern.name()),
        ];
        assert_eq!(point_from_params(&params), Some(point));
        let g = grid(point.width, point.width);
        let (a, b) = (campaign_for(&g, &point, 9), campaign_for(&g, &point, 9));
        assert_eq!(a.faulty_nodes(), b.faulty_nodes());
        for k in 0..point.pulses {
            assert_eq!(a.active_set(k), b.active_set(k));
            for n in a.faulty_nodes() {
                assert_eq!(
                    a.send_time(n, k, Some(trix_time::Time::from(1.0)), n),
                    b.send_time(n, k, Some(trix_time::Time::from(1.0)), n)
                );
            }
        }
    }

    /// The wave pattern really is a *moving* adversary and stays 1-local
    /// pulse by pulse; the ramp really ramps.
    #[test]
    fn time_varying_patterns_vary() {
        let g = grid(12, 12);
        let wave = SweepPoint {
            width: 12,
            pulses: 4,
            density_centi: 100,
            behavior: BehaviorClass::Silent,
            pattern: PatternClass::Wave,
        };
        let c = campaign_for(&g, &wave, 1);
        let sets: Vec<_> = (0..4).map(|k| c.active_set(k)).collect();
        assert!(sets.windows(2).all(|w| w[0] != w[1]), "wave must move");
        let ramp = SweepPoint {
            pattern: PatternClass::Ramp,
            behavior: BehaviorClass::Shift,
            ..wave
        };
        let c = campaign_for(&g, &ramp, 1);
        assert!(c.fault_count() > 1, "ramp needs at least two positions");
        let counts: Vec<_> = (0..4).map(|k| c.active_count(k)).collect();
        assert!(counts.windows(2).all(|w| w[0] <= w[1]), "{counts:?}");
        assert!(counts[3] > counts[0], "{counts:?}");
    }
}
