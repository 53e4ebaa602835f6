//! Experiment `exp_topology` — skew envelopes across CSR graph families.
//!
//! *Claim:* the fault-free Theorem 1.1 gradient-skew bound
//! `4κ(2 + log₂ D)` is a property of the base graph's **diameter**, not
//! of the paper's line deployment: on tori (D ~ √n at constant degree),
//! hypercubes (D ~ log n, degree ~ log n), seeded random-geometric
//! graphs, Octopus-style sparse pods, and Skype-style supernode
//! overlays, the measured local skew of Gradient TRIX stays within the
//! envelope evaluated at that family's diameter.
//!
//! *Workload:* one scenario per `(family, size)` point. Each builds its
//! graph through `trix_topology::families` (deterministic generators —
//! the structural seed of the geometric family is a fixed constant, so
//! the topology is part of the scenario, not of the per-seed run),
//! derives the layer count from the diameter (`D + 2`, floor 4), and
//! streams the run through the shared `O(nodes)` skew monitor with the
//! BFS-forest layer-0 source
//! ([`trix_core::Layer0Line::random_for_graph`] — the Appendix-A line
//! source assumes the replicated-ends line). The Theorem 1.1 bound at
//! the family's diameter is the condition oracle.
//!
//! Streaming-only (like `exp_scale` and `exp_fault_sweep`); each
//! benchmark record is stamped with its versioned topology descriptor
//! (`topology` field, schema v6), and
//! `tests/parallel_determinism.rs` pins `BENCH_exp_topology.json`
//! byte-identical across `--threads` and `--sim-threads` values.
//! `tests/streaming_equivalence.rs` replays the records through the
//! full-trace path via [`point_from_params`] and [`layered`].

use crate::common::{
    merge_snapshots, run_gradient_trix_streaming_graph, standard_params, streaming_monitor,
};
use crate::suite::{kv, scenario_seeds, Scenario, ScenarioResult};
use crate::Scale;
use trix_analysis::{fmt_f64, theory, Table};
use trix_core::GradientTrixRule;
use trix_obs::SkewStats;
use trix_topology::{families, families::Family, LayeredGraph};

/// Structural seed of the random-geometric family. Fixed (not derived
/// from the run seed) so the graph — and the descriptor stamped into the
/// scenario's benchmark record — is identical for every seed of the
/// scenario; the per-seed randomness lives entirely in the environment
/// and layer-0 draws.
pub const GEOMETRIC_SEED: u64 = 0x7090_1097;

/// The family axis of the sweep.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FamilyClass {
    /// 2D torus `a × b`: diameter `⌊a/2⌋ + ⌊b/2⌋` at constant degree 4.
    Torus,
    /// `a`-dimensional hypercube: diameter and degree both `a`.
    Hypercube,
    /// Seeded random-geometric graph: `a` points, `b`-nearest-neighbor
    /// links (symmetrized, knitted connected), [`GEOMETRIC_SEED`].
    Geometric,
    /// Octopus-style sparse pods: ring of `a` cliques of size `b`.
    Pods,
    /// Skype-style supernode overlay: `a` core nodes, `b` leaves each.
    Supernode,
}

impl FamilyClass {
    /// The family's CLI/JSON name.
    pub fn name(self) -> &'static str {
        match self {
            FamilyClass::Torus => "torus",
            FamilyClass::Hypercube => "hypercube",
            FamilyClass::Geometric => "geometric",
            FamilyClass::Pods => "pods",
            FamilyClass::Supernode => "supernode",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "torus" => FamilyClass::Torus,
            "hypercube" => FamilyClass::Hypercube,
            "geometric" => FamilyClass::Geometric,
            "pods" => FamilyClass::Pods,
            "supernode" => FamilyClass::Supernode,
            _ => return None,
        })
    }
}

/// One `(family, size)` point of the sweep. `a` and `b` are the
/// family-specific generator parameters (see [`FamilyClass`]; the
/// hypercube and geometric families document their own meanings).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SweepPoint {
    /// Graph family.
    pub family: FamilyClass,
    /// Primary generator parameter (rows / dimension / n / pods /
    /// supernodes).
    pub a: usize,
    /// Secondary generator parameter (cols / unused / k / pod size /
    /// leaves per supernode; `0` where unused).
    pub b: usize,
    /// Pulses to stream.
    pub pulses: usize,
}

impl SweepPoint {
    /// Builds the point's graph family — a pure function of the point,
    /// so the scenario list, the runs, and the benchmark-record replay
    /// all construct the identical topology.
    pub fn build(&self) -> Family {
        match self.family {
            FamilyClass::Torus => families::torus(self.a, self.b),
            FamilyClass::Hypercube => families::hypercube(self.a as u32),
            FamilyClass::Geometric => families::random_geometric(self.a, self.b, GEOMETRIC_SEED),
            FamilyClass::Pods => families::octopus_pods(self.a, self.b),
            FamilyClass::Supernode => families::supernode_overlay(self.a, self.b),
        }
    }
}

/// Layer count derived from the graph: `D + 2` with a floor of 4 — deep
/// enough for the gradient to traverse the diameter once, shallow enough
/// that smoke instances stay cheap.
pub fn layers_for(diameter: u32) -> usize {
    (diameter as usize + 2).max(4)
}

/// The point's layered deployment: family graph × diameter-derived
/// depth. The replay hook `tests/streaming_equivalence.rs` uses this to
/// reconstruct the exact workload from a benchmark record.
pub fn layered(point: &SweepPoint) -> LayeredGraph {
    let g = point.build().into_graph();
    let layers = layers_for(g.diameter());
    LayeredGraph::new(g, layers)
}

/// Uniform table headers (identical across scenarios so per-experiment
/// shards merge).
const HEADERS: [&str; 12] = [
    "family",
    "n",
    "m",
    "deg",
    "D",
    "layers",
    "pulses",
    "L_intra (worst seed)",
    "L_full",
    "mean L_intra",
    "bound 4κ(2+log₂D)",
    "measured/bound",
];

/// Runs one sweep point: per seed, stream the fault-free run on the
/// family graph through the standard monitor, then merge the per-seed
/// partials and judge the diameter-parameterized Theorem 1.1 oracle.
pub fn run(point: &SweepPoint, seeds: &[u64], sim_threads: usize) -> ScenarioResult {
    let p = standard_params();
    let rule = GradientTrixRule::new(p);
    let fam = point.build();
    let descriptor = fam.descriptor().to_owned();
    let base = fam.into_graph();
    let layers = layers_for(base.diameter());
    let g = LayeredGraph::new(base, layers);
    let snaps: Vec<SkewStats> = seeds
        .iter()
        .map(|&seed| {
            let mut skew = streaming_monitor(&g, &p);
            run_gradient_trix_streaming_graph(
                &g,
                &p,
                &rule,
                &trix_sim::CorrectSends,
                point.pulses,
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
        "exp_topology — skew envelopes vs. diameter across graph families",
        &HEADERS,
    );
    table.row_values(&[
        format!("{} a={} b={}", point.family.name(), point.a, point.b),
        g.width().to_string(),
        g.base().edge_count().to_string(),
        format!("{}..{}", g.base().min_degree(), g.base().max_degree()),
        d.to_string(),
        layers.to_string(),
        point.pulses.to_string(),
        fmt_f64(summary.max_intra),
        fmt_f64(summary.max_full),
        fmt_f64(summary.mean_intra),
        fmt_f64(bound),
        fmt_f64(summary.max_intra / bound),
    ]);
    let violations = if summary.max_intra > bound {
        vec![format!(
            "topology `{descriptor}`: L_intra {} exceeds the Thm 1.1 bound {bound} at D={d}",
            summary.max_intra
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

/// The point list per scale: every family at every scale, with the full
/// scale sweeping two sizes per family so diameter (tori: ~√n) and
/// degree (hypercubes: log n) both move.
pub fn points(scale: Scale) -> Vec<SweepPoint> {
    let pulses = match scale {
        Scale::Smoke => 3,
        _ => 4,
    };
    let point = |family, a, b| SweepPoint {
        family,
        a,
        b,
        pulses,
    };
    match scale {
        Scale::Smoke => vec![
            point(FamilyClass::Torus, 3, 4),
            point(FamilyClass::Hypercube, 3, 0),
            point(FamilyClass::Geometric, 12, 2),
            point(FamilyClass::Pods, 3, 2),
            point(FamilyClass::Supernode, 4, 2),
        ],
        Scale::Quick => vec![
            point(FamilyClass::Torus, 4, 6),
            point(FamilyClass::Hypercube, 4, 0),
            point(FamilyClass::Geometric, 24, 3),
            point(FamilyClass::Pods, 5, 3),
            point(FamilyClass::Supernode, 6, 3),
        ],
        Scale::Full => vec![
            point(FamilyClass::Torus, 10, 10),
            point(FamilyClass::Torus, 16, 16),
            point(FamilyClass::Hypercube, 6, 0),
            point(FamilyClass::Hypercube, 8, 0),
            point(FamilyClass::Geometric, 128, 3),
            point(FamilyClass::Geometric, 256, 4),
            point(FamilyClass::Pods, 12, 6),
            point(FamilyClass::Pods, 24, 8),
            point(FamilyClass::Supernode, 16, 6),
            point(FamilyClass::Supernode, 32, 8),
        ],
    }
}

/// Scenario decomposition: one scenario per `(family, size)` point.
/// Each scenario stamps its versioned topology descriptor into its
/// record (schema v6) and threads `--sim-threads` into the dataflow
/// driver.
pub fn scenarios(scale: Scale, base_seed: u64, sim_threads: usize) -> Vec<Scenario> {
    points(scale)
        .into_iter()
        .enumerate()
        .map(|(i, point)| {
            let seeds = scenario_seeds(base_seed, "exp_topology", i as u64, scale.seed_count());
            let job_seeds = seeds.clone();
            let descriptor = point.build().descriptor().to_owned();
            Scenario::new(
                "exp_topology",
                format!("{} a={} b={}", point.family.name(), point.a, point.b),
                vec![
                    kv("family", point.family.name()),
                    kv("a", point.a),
                    kv("b", point.b),
                    kv("pulses", point.pulses),
                ],
                &seeds,
                move || run(&point, &job_seeds, sim_threads),
            )
            .with_sim_threads(sim_threads)
            .with_topology(descriptor)
        })
        .collect()
}

/// Reconstructs a sweep point from a benchmark record's params — the
/// replay hook `tests/streaming_equivalence.rs` uses to re-run topology
/// scenarios through the full-trace path.
pub fn point_from_params(params: &[(String, String)]) -> Option<SweepPoint> {
    let get = |key: &str| {
        params
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    };
    Some(SweepPoint {
        family: FamilyClass::parse(get("family")?)?,
        a: get("a")?.parse().ok()?,
        b: get("b")?.parse().ok()?,
        pulses: get("pulses")?.parse().ok()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_smoke_point_passes_the_diameter_oracle() {
        for point in points(Scale::Smoke) {
            let result = run(&point, &[3], 1);
            assert!(
                result.violations.is_empty(),
                "{:?}: {:?}",
                point,
                result.violations
            );
            let skew = result.skew.expect("streaming stats");
            assert!(skew.pulses > 0);
        }
    }

    #[test]
    fn smoke_covers_all_five_families() {
        let fams: Vec<&str> = points(Scale::Smoke)
            .iter()
            .map(|p| p.family.name())
            .collect();
        assert_eq!(
            fams,
            ["torus", "hypercube", "geometric", "pods", "supernode"]
        );
        for scale in [Scale::Smoke, Scale::Quick, Scale::Full] {
            for s in scenarios(scale, 0, 1) {
                assert_eq!(s.experiment(), "exp_topology");
            }
        }
    }

    /// Family graphs don't break the engine-sharding determinism
    /// contract: the whole scenario result is bit-identical for every
    /// `--sim-threads` value.
    #[test]
    fn sim_threads_do_not_change_family_results() {
        for point in points(Scale::Smoke) {
            let serial = run(&point, &[5, 6], 1);
            for sim_threads in [2, 4] {
                let sharded = run(&point, &[5, 6], sim_threads);
                assert_eq!(
                    crate::suite::table_fingerprint(&serial.table),
                    crate::suite::table_fingerprint(&sharded.table),
                    "{:?} sim_threads = {sim_threads}",
                    point
                );
                assert_eq!(serial.skew, sharded.skew);
                assert_eq!(serial.violations, sharded.violations);
            }
        }
    }

    /// The descriptor stamped into the scenario equals the one the run
    /// would compute, and the point round-trips through record params.
    #[test]
    fn descriptors_and_params_round_trip() {
        for point in points(Scale::Quick) {
            let params = vec![
                kv("family", point.family.name()),
                kv("a", point.a),
                kv("b", point.b),
                kv("pulses", point.pulses),
            ];
            assert_eq!(point_from_params(&params), Some(point));
            let (a, b) = (point.build(), point.build());
            assert_eq!(a.descriptor(), b.descriptor());
            assert!(a.descriptor().starts_with("v1 "));
            assert_eq!(a.graph(), b.graph());
        }
        for s in scenarios(Scale::Smoke, 0, 1) {
            assert!(s.topology().is_some(), "every scenario is stamped");
        }
    }

    /// The layer depth really follows the diameter.
    #[test]
    fn layers_track_the_diameter() {
        assert_eq!(layers_for(0), 4);
        assert_eq!(layers_for(2), 4);
        assert_eq!(layers_for(3), 5);
        assert_eq!(layers_for(16), 18);
        let g = layered(&SweepPoint {
            family: FamilyClass::Torus,
            a: 4,
            b: 6,
            pulses: 4,
        });
        assert_eq!(g.base().diameter(), 5);
        assert_eq!(g.layer_count(), 7);
    }
}
