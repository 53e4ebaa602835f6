//! Experiment `exp_churn` — open-world membership churn on streamed
//! grids too large to trace.
//!
//! *Claim:* under sustained per-pulse membership churn — every node
//! independently absent with probability 1–10% per pulse, plus
//! deterministic join/leave/rejoin events — the measured local skew of
//! the nodes *present at each pulse* stays within a constant factor
//! ([`CHURN_FACTOR`]×) of the Theorem 1.1 fault-free bound, on the
//! paper's grid and on a torus family. The closed-world control (no
//! churn) must hold the exact Theorem 1.1 bound, pinning the envelope
//! to the theory the way `exp_fault_sweep`'s control does.
//!
//! *Workload:* square grids and tori swept over churn rate × schedule
//! pattern. A [`trix_faults::ChurnCampaign`] drives the engines through
//! the `SendModel::is_member` hook: absent nodes are not evaluated,
//! their row slots are `None`, and the [`trix_obs::StreamingSkew`]
//! monitor (already `None`-safe per slot) measures skew over exactly
//! the present nodes. Everything runs streaming-only (`O(nodes)`
//! memory, the `exp_scale` discipline). Two oracles decide pass/fail:
//!
//! * **churn calibration** — the observed mean absent share must match
//!   the point's nominal rate (a campaign that silently fails to churn
//!   would make the skew envelope vacuous);
//! * **skew stability** — merged `L` (full local skew) against the
//!   per-pattern envelope above.
//!
//! Each benchmark record is stamped with its churn descriptor (`churn`
//! field, schema v8) — and, on the torus leg, its topology descriptor —
//! so `BENCH_exp_churn.json` tracks the membership axis the way
//! `BENCH_exp_fault_sweep.json` tracks the adversary axis.
//! `tests/parallel_determinism.rs` pins the file byte-identical across
//! `--threads` and `--sim-threads` values.

use crate::common::{grid, merge_snapshots, standard_params, streaming_monitor};
use crate::suite::{kv, scenario_seeds, Scenario, ScenarioResult};
use crate::Scale;
use trix_analysis::{fmt_f64, theory, Table};
use trix_core::GradientTrixRule;
use trix_faults::{ChurnCampaign, ChurnSchedule};
use trix_obs::SkewStats;
use trix_sim::Rng;
use trix_topology::{families, LayeredGraph};

/// Empirical churn-stability factor: with up to 10% of the nodes absent
/// per pulse the present nodes fire from thinner predecessor sets, so
/// their alignment degrades past the fault-free bound — but it must not
/// pile up. Churn is *not* 1-local (every node flickers), so the
/// Theorem 1.3 constant does not apply; this factor is calibrated
/// against the smoke and full sweeps the same way
/// [`crate::exp_fault_sweep::FAULT_FACTOR`] was.
pub const CHURN_FACTOR: f64 = 4.0;

/// Calibration tolerance on the observed absent share (absolute).
const RATE_TOLERANCE: f64 = 0.05;

/// The topology axis of the sweep.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TopoClass {
    /// The paper's square deployment: line with replicated ends,
    /// `width` layers (the Appendix-A line layer 0).
    Grid,
    /// 2D torus `width × width` (BFS-forest layer 0), depth `D + 2`.
    Torus,
}

impl TopoClass {
    /// The class's CLI/JSON name.
    pub fn name(self) -> &'static str {
        match self {
            TopoClass::Grid => "grid",
            TopoClass::Torus => "torus",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "grid" => TopoClass::Grid,
            "torus" => TopoClass::Torus,
            _ => return None,
        })
    }
}

/// The schedule-mix axis of the sweep.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChurnClass {
    /// Closed-world control: every node resident at every pulse.
    Resident,
    /// Memoryless i.i.d. flicker at the point's rate
    /// ([`ChurnSchedule::Flicker`] as the campaign default).
    Flicker,
    /// Flicker plus deterministic epoch events: one genuinely new
    /// arrival ([`ChurnSchedule::JoinAt`]), one departure
    /// ([`ChurnSchedule::LeaveAt`]), one leave-then-rejoin
    /// ([`ChurnSchedule::Rejoin`]).
    Mix,
}

impl ChurnClass {
    /// The class's CLI/JSON name.
    pub fn name(self) -> &'static str {
        match self {
            ChurnClass::Resident => "resident",
            ChurnClass::Flicker => "flicker",
            ChurnClass::Mix => "mix",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "resident" => ChurnClass::Resident,
            "flicker" => ChurnClass::Flicker,
            "mix" => ChurnClass::Mix,
            _ => return None,
        })
    }
}

/// One point of the rate × pattern × topology sweep.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SweepPoint {
    /// Graph family leg.
    pub topo: TopoClass,
    /// Grid width / torus dimension.
    pub width: usize,
    /// Pulses to stream.
    pub pulses: usize,
    /// Per-pulse absence probability in percent (`0` = control).
    pub rate_pct: u32,
    /// Schedule mix.
    pub pattern: ChurnClass,
}

impl SweepPoint {
    /// The churn descriptor stamped into the benchmark record (schema
    /// v8) and attached to the campaign itself.
    pub fn descriptor(&self) -> String {
        format!(
            "{} r={:.2} {} w={}",
            self.pattern.name(),
            self.rate_pct as f64 / 100.0,
            self.topo.name(),
            self.width
        )
    }
}

/// The point's layered deployment, plus the topology descriptor for
/// family (non-grid) legs — a pure function of the point, shared with
/// the benchmark-record replay in `tests/streaming_equivalence.rs`.
pub fn deployment(point: &SweepPoint) -> (LayeredGraph, Option<String>) {
    match point.topo {
        TopoClass::Grid => (grid(point.width, point.width), None),
        TopoClass::Torus => {
            let fam = families::torus(point.width, point.width);
            let descriptor = fam.descriptor().to_owned();
            let base = fam.into_graph();
            let layers = (base.diameter() as usize + 2).max(4);
            (LayeredGraph::new(base, layers), Some(descriptor))
        }
    }
}

/// Builds the point's churn campaign — a pure function of
/// `(g, point, seed)`, so the streaming sweep and the full-trace
/// equivalence replay construct the identical membership history.
pub fn campaign_for(g: &LayeredGraph, point: &SweepPoint, seed: u64) -> ChurnCampaign {
    let rate = point.rate_pct as f64 / 100.0;
    // fork(4): disjoint from the workload's env/layer-0 streams
    // (fork 1/2) and exp_fault_sweep's campaign stream (fork 3).
    let mut rng = Rng::seed_from(seed).fork(4);
    let churn_seed = rng.next_u64();
    let campaign = match point.pattern {
        ChurnClass::Resident => ChurnCampaign::resident(),
        ChurnClass::Flicker => ChurnCampaign::flicker(rate, churn_seed),
        ChurnClass::Mix => {
            let mut c = ChurnCampaign::flicker(rate, churn_seed);
            let quarter = (point.pulses / 4).max(1);
            let half = (point.pulses / 2).max(1);
            let rejoin = (3 * point.pulses / 4).max(quarter + 1);
            let events = [
                ChurnSchedule::JoinAt { pulse: half },
                ChurnSchedule::LeaveAt { pulse: half },
                ChurnSchedule::Rejoin {
                    leave: quarter,
                    rejoin,
                },
            ];
            let mut used = std::collections::HashSet::new();
            for schedule in events {
                // Distinct grid positions (layers ≥ 1), sampled
                // deterministically from the campaign stream.
                loop {
                    let v = rng.usize_below(g.width());
                    let layer = 1 + rng.usize_below(g.layer_count() - 1);
                    let node = g.node(v, layer);
                    if used.insert(node) {
                        c.insert(node, schedule);
                        break;
                    }
                }
            }
            c
        }
    };
    campaign.with_descriptor(point.descriptor())
}

/// The skew-stability envelope a point is judged against: the exact
/// Theorem 1.1 bound for the closed-world control, [`CHURN_FACTOR`]×
/// that bound under churn.
fn skew_bound(point: &SweepPoint, g: &LayeredGraph) -> f64 {
    let p = standard_params();
    let base = theory::thm_1_1_bound(&p, g.base().diameter()).as_f64();
    if point.pattern == ChurnClass::Resident {
        base
    } else {
        base * CHURN_FACTOR
    }
}

/// Uniform table headers (identical across scenarios so per-experiment
/// shards merge).
const HEADERS: [&str; 12] = [
    "topo",
    "width",
    "layers",
    "rate",
    "pattern",
    "absent share",
    "overrides",
    "L_intra",
    "L_full",
    "mean L_intra",
    "bound",
    "measured/bound",
];

/// Runs one sweep point: per seed, build the campaign, stream the run
/// through a [`trix_obs::StreamingSkew`] monitor with the engines'
/// membership gate active, then merge the per-seed partials and judge
/// the calibration and skew-stability oracles.
pub fn run(point: &SweepPoint, seeds: &[u64], sim_threads: usize) -> ScenarioResult {
    let p = standard_params();
    let rule = GradientTrixRule::new(p);
    let (g, _) = deployment(point);
    let rate = point.rate_pct as f64 / 100.0;
    let mut violations = Vec::new();
    let mut snaps: Vec<SkewStats> = Vec::new();
    let mut absent_total = 0usize;
    let mut overrides = 0usize;
    for &seed in seeds {
        let campaign = campaign_for(&g, point, seed);
        overrides = overrides.max(campaign.override_count());
        for k in 0..point.pulses {
            absent_total += campaign.absent_count(&g, k);
        }
        let mut skew = streaming_monitor(&g, &p);
        match point.topo {
            TopoClass::Grid => crate::common::run_gradient_trix_streaming(
                &g,
                &p,
                &rule,
                &campaign,
                point.pulses,
                seed,
                sim_threads,
                &mut skew,
            ),
            TopoClass::Torus => crate::common::run_gradient_trix_streaming_graph(
                &g,
                &p,
                &rule,
                &campaign,
                point.pulses,
                seed,
                sim_threads,
                &mut skew,
            ),
        }
        skew.finish();
        snaps.push(skew.snapshot());
    }
    let summary = merge_snapshots(&snaps);
    let samples = seeds.len() * point.pulses * g.node_count();
    let absent_share = absent_total as f64 / samples as f64;
    // Calibration oracle: the campaign must actually churn at its
    // nominal rate (deterministic epoch events shift the share only
    // marginally, well inside the tolerance).
    if (absent_share - rate).abs() > RATE_TOLERANCE {
        violations.push(format!(
            "campaign `{}`: observed absent share {absent_share:.4} is not within {RATE_TOLERANCE} \
             of the nominal rate {rate:.2}",
            point.descriptor()
        ));
    }
    let bound = skew_bound(point, &g);
    let mut table = Table::new(
        "exp_churn — open-world membership churn: rate × schedule × topology",
        &HEADERS,
    );
    table.row_values(&[
        point.topo.name().to_owned(),
        point.width.to_string(),
        g.layer_count().to_string(),
        fmt_f64(rate),
        point.pattern.name().to_owned(),
        fmt_f64(absent_share),
        overrides.to_string(),
        fmt_f64(summary.max_intra),
        fmt_f64(summary.max_full),
        fmt_f64(summary.mean_intra),
        fmt_f64(bound),
        fmt_f64(summary.max_full / bound),
    ]);
    // Skew-stability oracle: the full local skew of the present nodes
    // stays inside the envelope.
    if summary.max_full > bound {
        violations.push(format!(
            "campaign `{}`: L {} exceeds its churn envelope {bound}",
            point.descriptor(),
            summary.max_full
        ));
    }
    ScenarioResult {
        table,
        violations,
        skew: Some(summary),
        sketch: None,
    }
}

/// Grid widths per scale. The full-scale 1280 leg is the ≥1.6M-node
/// deployment (1282 × 1280 grid positions) the experiment exists for.
pub fn grid_widths(scale: Scale) -> &'static [usize] {
    match scale {
        Scale::Smoke => &[12],
        Scale::Quick => &[24],
        Scale::Full => &[256, 1280],
    }
}

/// Torus dimensions per scale (the graph-family leg).
pub fn torus_dims(scale: Scale) -> &'static [usize] {
    match scale {
        Scale::Smoke => &[6],
        Scale::Quick => &[8],
        Scale::Full => &[16],
    }
}

/// Churn-rate axis per scale, in percent per pulse.
pub fn rates(scale: Scale) -> &'static [u32] {
    match scale {
        Scale::Smoke => &[10],
        Scale::Quick => &[5, 10],
        Scale::Full => &[1, 5, 10],
    }
}

/// The point list of one deployment: closed-world control, flicker at
/// each rate, then the schedule mix at the top rate.
fn points_for(scale: Scale, topo: TopoClass, width: usize) -> Vec<SweepPoint> {
    let pulses = 4;
    let point = |rate_pct, pattern| SweepPoint {
        topo,
        width,
        pulses,
        rate_pct,
        pattern,
    };
    let mut out = vec![point(0, ChurnClass::Resident)];
    for &r in rates(scale) {
        out.push(point(r, ChurnClass::Flicker));
    }
    out.push(point(*rates(scale).last().unwrap(), ChurnClass::Mix));
    out
}

/// Scenario decomposition: one scenario per sweep point. Each scenario
/// stamps its churn descriptor (schema v8) — and, on the torus leg, its
/// topology descriptor — into its record and threads `--sim-threads`
/// into the dataflow driver.
pub fn scenarios(scale: Scale, base_seed: u64, sim_threads: usize) -> Vec<Scenario> {
    let mut points = Vec::new();
    for &w in grid_widths(scale) {
        points.extend(points_for(scale, TopoClass::Grid, w));
    }
    for &dim in torus_dims(scale) {
        points.extend(points_for(scale, TopoClass::Torus, dim));
    }
    points
        .into_iter()
        .enumerate()
        .map(|(i, point)| {
            let seeds = scenario_seeds(base_seed, "exp_churn", i as u64, scale.seed_count());
            let job_seeds = seeds.clone();
            let (_, topology) = deployment(&point);
            let scenario = Scenario::new(
                "exp_churn",
                point.descriptor(),
                vec![
                    kv("topo", point.topo.name()),
                    kv("width", point.width),
                    kv("pulses", point.pulses),
                    kv("rate_pct", point.rate_pct),
                    kv("pattern", point.pattern.name()),
                ],
                &seeds,
                move || run(&point, &job_seeds, sim_threads),
            )
            .with_sim_threads(sim_threads)
            .with_churn(point.descriptor());
            match topology {
                Some(t) => scenario.with_topology(t),
                None => scenario,
            }
        })
        .collect()
}

/// Reconstructs a sweep point from a benchmark record's params — the
/// replay hook `tests/streaming_equivalence.rs` uses to re-run churn
/// scenarios through the full-trace path.
pub fn point_from_params(params: &[(String, String)]) -> Option<SweepPoint> {
    let get = |key: &str| {
        params
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    };
    Some(SweepPoint {
        topo: TopoClass::parse(get("topo")?)?,
        width: get("width")?.parse().ok()?,
        pulses: get("pulses")?.parse().ok()?,
        rate_pct: get("rate_pct")?.parse().ok()?,
        pattern: ChurnClass::parse(get("pattern")?)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use trix_analysis::{inter_layer_skew, intra_layer_skew};

    #[test]
    fn control_point_holds_the_exact_thm_1_1_bound() {
        let point = SweepPoint {
            topo: TopoClass::Grid,
            width: 12,
            pulses: 3,
            rate_pct: 0,
            pattern: ChurnClass::Resident,
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
            assert_eq!(s.experiment(), "exp_churn");
        }
        for topo in [TopoClass::Grid, TopoClass::Torus] {
            let width = match topo {
                TopoClass::Grid => 12,
                TopoClass::Torus => 6,
            };
            for point in points_for(Scale::Smoke, topo, width) {
                let result = run(&point, &[3], 1);
                assert!(
                    result.violations.is_empty(),
                    "{}: {:?}",
                    point.descriptor(),
                    result.violations
                );
            }
        }
    }

    /// Churn campaigns don't break the engine-sharding determinism
    /// contract: the whole scenario result is bit-identical for every
    /// `--sim-threads` value.
    #[test]
    fn sim_threads_do_not_change_churn_results() {
        let point = SweepPoint {
            topo: TopoClass::Grid,
            width: 12,
            pulses: 4,
            rate_pct: 10,
            pattern: ChurnClass::Mix,
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
    /// post-hoc analysis over the materialized (membership-masked)
    /// trace.
    #[test]
    fn streaming_stats_equal_full_trace_replay() {
        let p = standard_params();
        let point = SweepPoint {
            topo: TopoClass::Grid,
            width: 10,
            pulses: 3,
            rate_pct: 10,
            pattern: ChurnClass::Flicker,
        };
        let (g, _) = deployment(&point);
        let seed = 11;
        let rule = GradientTrixRule::new(p);
        let campaign = campaign_for(&g, &point, seed);
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
            }
        }
        assert_eq!(streamed.max_intra, max_intra);
        assert_eq!(streamed.max_inter, max_inter);
    }

    /// The point's campaign is a pure function of `(g, point, seed)`,
    /// and the sweep point round-trips through its benchmark params —
    /// the properties the record replay rests on.
    #[test]
    fn campaigns_reconstruct_from_params() {
        let point = SweepPoint {
            topo: TopoClass::Torus,
            width: 6,
            pulses: 4,
            rate_pct: 10,
            pattern: ChurnClass::Mix,
        };
        let params = vec![
            kv("topo", point.topo.name()),
            kv("width", point.width),
            kv("pulses", point.pulses),
            kv("rate_pct", point.rate_pct),
            kv("pattern", point.pattern.name()),
        ];
        assert_eq!(point_from_params(&params), Some(point));
        let (g, topology) = deployment(&point);
        assert!(topology.expect("torus leg").starts_with("v1 torus"));
        let (a, b) = (campaign_for(&g, &point, 9), campaign_for(&g, &point, 9));
        assert_eq!(a.override_count(), 3);
        for k in 0..point.pulses {
            assert_eq!(a.absent_set(&g, k), b.absent_set(&g, k), "pulse {k}");
        }
    }

    /// Churn genuinely churns: the absent set is non-empty, varies
    /// across pulses, and every absent node's row slot is masked.
    #[test]
    fn churn_masks_absent_nodes_in_the_emitted_rows() {
        use std::collections::HashSet;
        use trix_sim::Observer;
        use trix_time::Time;
        use trix_topology::NodeId;

        struct Seen(HashSet<(usize, NodeId)>);
        impl Observer for Seen {
            fn on_pulse(&mut self, k: usize, node: NodeId, t: Time) {
                let _ = t;
                self.0.insert((k, node));
            }
        }

        let p = standard_params();
        let point = SweepPoint {
            topo: TopoClass::Grid,
            width: 10,
            pulses: 4,
            rate_pct: 10,
            pattern: ChurnClass::Flicker,
        };
        let (g, _) = deployment(&point);
        let rule = GradientTrixRule::new(p);
        let campaign = campaign_for(&g, &point, 7);
        let mut seen = Seen(HashSet::new());
        crate::common::run_gradient_trix_streaming(
            &g,
            &p,
            &rule,
            &campaign,
            point.pulses,
            7,
            1,
            &mut seen,
        );
        let absents: Vec<_> = (0..point.pulses)
            .map(|k| campaign.absent_set(&g, k))
            .collect();
        assert!(absents.iter().any(|a| !a.is_empty()), "nobody churned");
        assert!(absents.windows(2).any(|w| w[0] != w[1]), "static absences");
        for (k, absent) in absents.iter().enumerate() {
            for &node in absent {
                assert!(
                    !seen.0.contains(&(k, node)),
                    "absent node {node:?} emitted at pulse {k}"
                );
            }
        }
    }
}
