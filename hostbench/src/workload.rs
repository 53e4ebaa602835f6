//! The benchmark's workloads and the timed calls into each layer.
//!
//! A workload is one or more [`Case`]s (a deployment: graph, pulses,
//! engine, send model, observers). A *round* runs every case for a fixed
//! batch of seeds: it first builds all inputs (graphs, environments,
//! layer-0 sources, fault campaigns), then runs the engine and the
//! observers and checks each seed's results against the paper's
//! theorem bounds. Every call is made through the layers' public
//! functions; the [`Tracer`] brackets them when a round is traced.

use crate::alloc;
use crate::clock;
use crate::trace::{Timed, Tracer};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;
use trix_analysis::{theory, ModeProbe, ModeReport};
use trix_bench::common::{grid, standard_params, streaming_monitor};
use trix_bench::exp_fault_sweep::{self, BehaviorClass, PatternClass, FAULT_FACTOR};
use trix_bench::exp_topology::layers_for;
use trix_core::{GradientTrixRule, Layer0Line};
use trix_faults::FaultCampaign;
use trix_obs::{PodSketch, PodSnapshot, SkewStats, StreamingSkew};
use trix_sim::{
    run_dataflow_observed, run_dataflow_parallel, CorrectSends, NullObserver, Observer, PulseRule,
    Rng, SendModel, StaticEnvironment,
};
use trix_time::{AffineClock, Clock, LocalTime, Time};
use trix_topology::{families, BaseGraph, LayeredGraph, NodeId};

/// The named workloads.
///
/// Every workload is sized so that one round takes tens of
/// milliseconds: the host alternates within seconds between a fast and
/// a 1.7× slower state (see `NOTES.md`), and a run reports a low
/// percentile over hundreds of short rounds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Width-128 square grid, fault-free, serial driver,
    /// `StreamingSkew`: rule, eval loop and skew observer. The traced
    /// run compares the frontier driver with 2 workers against it.
    GridStream,
    /// Width-128 grid under an iid/flaky 1-local fault campaign,
    /// `StreamingSkew` + rank-16 `PodSketch`, then the `ModeProbe` pass.
    FaultSketch,
    /// Hypercube of dimension 9 and a 16×16 torus: graph construction
    /// (all-pairs distances) is a large share, and the rule sees
    /// in-degree 10.
    FamilySetup,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::GridStream,
        Workload::FaultSketch,
        Workload::FamilySetup,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::GridStream => "grid_stream",
            Workload::FaultSketch => "fault_sketch",
            Workload::FamilySetup => "family_setup",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The deployments one round runs.
    pub fn cases(self) -> Vec<Case> {
        let case = |label, topology, pulses| Case {
            label,
            topology,
            pulses,
            frontier: false,
            faults: false,
            sketch: false,
        };
        match self {
            Workload::GridStream => vec![Case {
                frontier: true,
                ..case("grid-128", Topology::Grid(128), 8)
            }],
            Workload::FaultSketch => vec![Case {
                faults: true,
                sketch: true,
                ..case("grid-128-iid-flaky", Topology::Grid(128), 4)
            }],
            Workload::FamilySetup => vec![
                case("hypercube-9", Topology::Hypercube(9), 4),
                case("torus-16x16", Topology::Torus(16, 16), 4),
            ],
        }
    }
}

/// A base-graph family at a fixed size.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Topology {
    /// The paper's square grid: a line with replicated ends of the given
    /// length, with as many layers.
    Grid(usize),
    /// Hypercube of the given dimension, `D + 2` layers.
    Hypercube(u32),
    /// `rows × cols` torus, `D + 2` layers.
    Torus(usize, usize),
}

impl Topology {
    /// Builds the layered graph (`topology` layer: family generator,
    /// `BaseGraph` with its all-pairs distances, `LayeredGraph::new`).
    pub fn build(self) -> LayeredGraph {
        let family = |base: BaseGraph| {
            let layers = layers_for(base.diameter());
            LayeredGraph::new(base, layers)
        };
        match self {
            Topology::Grid(width) => grid(width, width),
            Topology::Hypercube(dim) => family(families::hypercube(dim).into_graph()),
            Topology::Torus(rows, cols) => family(families::torus(rows, cols).into_graph()),
        }
    }
}

/// Rank of the sketch on sketch cases, as in `exp_modes`' fault-wave point.
pub const SKETCH_RANK: usize = 16;

/// Workers of the frontier driver on frontier cases: one per vCPU of the
/// 2-vCPU host the benchmark was sized for.
pub const FRONTIER_WORKERS: usize = 2;

/// One deployment of a workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Case {
    /// Label printed with fingerprints.
    pub label: &'static str,
    /// Base-graph family and size.
    pub topology: Topology,
    /// Pulses per engine pass.
    pub pulses: usize,
    /// Whether the traced run compares the frontier driver with
    /// [`FRONTIER_WORKERS`] workers against the serial driver. Rounds
    /// always run the serial driver: on a shared 2-vCPU host the
    /// frontier's wall time varies too much between runs to serve as an
    /// end-to-end metric.
    pub frontier: bool,
    /// Whether the seed's fault campaign gates sends.
    pub faults: bool,
    /// Whether a rank-[`SKETCH_RANK`] `PodSketch` observes the pass and a
    /// `ModeProbe` pass follows.
    pub sketch: bool,
}

impl Case {
    /// The fault-sweep cell whose campaign this case runs: iid placement,
    /// flaky timing lies, density `1.0·n^-1/2`.
    fn fault_point(&self, g: &LayeredGraph) -> exp_fault_sweep::SweepPoint {
        exp_fault_sweep::SweepPoint {
            width: g.width(),
            pulses: self.pulses,
            density_centi: 100,
            behavior: BehaviorClass::Flaky,
            pattern: PatternClass::Iid,
        }
    }

    /// Rule evaluations one engine pass makes.
    pub fn evals_per_pass(&self, g: &LayeredGraph) -> u64 {
        (self.pulses * (g.layer_count() - 1) * g.width()) as u64
    }
}

/// The per-seed inputs of one case, derived from the seed exactly as
/// the experiment harness derives them.
pub struct Inputs {
    /// The seed.
    pub seed: u64,
    /// Random in-model delays and clocks.
    pub env: StaticEnvironment,
    /// Layer-0 pulse source.
    pub layer0: Layer0Line,
    /// The fault campaign, for fault cases.
    pub campaign: Option<FaultCampaign>,
}

impl Inputs {
    /// Builds the inputs under `sim.env`, `core.layer0` and
    /// `faults.campaign` spans.
    pub fn build(case: &Case, g: &LayeredGraph, seed: u64, t: &mut Tracer) -> Self {
        let p = standard_params();
        let root = Rng::seed_from(seed);
        let env = t.span("sim.env", |_| {
            StaticEnvironment::random(g, p.d(), p.u(), p.theta(), &mut root.fork(1))
        });
        let layer0 = t.span("core.layer0", |_| {
            let mut rng = root.fork(2);
            match case.topology {
                Topology::Grid(_) => Layer0Line::random_for_line(&p, g.width(), &mut rng),
                _ => Layer0Line::random_for_graph(&p, g.base(), &mut rng),
            }
        });
        let campaign = case.faults.then(|| {
            t.span("faults.campaign", |_| {
                exp_fault_sweep::campaign_for(g, &case.fault_point(g), seed)
            })
        });
        Self {
            seed,
            env,
            layer0,
            campaign,
        }
    }
}

/// One engine pass over fixed inputs.
#[derive(Clone, Copy)]
pub struct Pass<'a> {
    /// The graph.
    pub g: &'a LayeredGraph,
    /// The seed's inputs.
    pub inputs: &'a Inputs,
    /// Pulses to run.
    pub pulses: usize,
    /// 1 = serial driver, more = frontier driver with that many workers.
    pub threads: usize,
    /// Gate sends through the campaign (if the inputs have one) or send
    /// correctly.
    pub faults: bool,
}

impl<'a> Pass<'a> {
    /// The serial pass a case makes over its inputs.
    pub fn of(case: &Case, g: &'a LayeredGraph, inputs: &'a Inputs) -> Self {
        Self {
            g,
            inputs,
            pulses: case.pulses,
            threads: 1,
            faults: case.faults,
        }
    }

    /// Runs the engine, streaming into `obs`.
    pub fn drive(&self, rule: &(impl PulseRule + Sync), obs: &mut impl Observer) {
        match (&self.inputs.campaign, self.faults) {
            (Some(campaign), true) => self.engine(rule, campaign, obs),
            _ => self.engine(rule, &CorrectSends, obs),
        }
    }

    fn engine(
        &self,
        rule: &(impl PulseRule + Sync),
        sends: &(impl SendModel + Sync),
        obs: &mut impl Observer,
    ) {
        let Inputs { env, layer0, .. } = self.inputs;
        if self.threads == 1 {
            run_dataflow_observed(self.g, env, layer0, rule, sends, self.pulses, obs);
        } else {
            run_dataflow_parallel(
                self.g,
                env,
                layer0,
                rule,
                sends,
                self.pulses,
                self.threads,
                obs,
            );
        }
    }
}

/// What one seed of one case computed, and which checks failed.
#[derive(Clone, Debug, PartialEq)]
pub struct SeedOutcome {
    /// Case label.
    pub case: &'static str,
    /// The seed.
    pub seed: u64,
    /// Hash of every simulated statistic the seed produced.
    pub fingerprint: u64,
    /// Front rows the sketch ingested (0 without a sketch).
    pub sketch_rows: u64,
    /// Failed checks, empty when the seed passed.
    pub failures: Vec<String>,
}

/// One round's timings and counts. A run keeps one per round, so it
/// holds no per-seed data: the memory a run retains must not grow with
/// the number of rounds a faster program fits into the budget.
#[derive(Clone, Copy, Debug)]
pub struct Round {
    /// Wall seconds from round start to the first engine call.
    pub setup_s: f64,
    /// Wall seconds from the first engine call to the end of the checks.
    pub run_s: f64,
    /// Turns the round's wall seconds into seconds at
    /// [`clock::NOMINAL_HZ`], from clock readings taken just before and
    /// just after it.
    pub clock_scale: f64,
    /// Rule evaluations, as `trix_sim::metrics` counts them.
    pub evals: u64,
    /// Front rows the sketches ingested.
    pub sketch_rows: u64,
}

/// Runs one round of `w` over `seeds`; returns its timings and the
/// per-(case, seed) outcomes.
pub fn run_round(w: Workload, seeds: &[u64], t: &mut Tracer) -> (Round, Vec<SeedOutcome>) {
    let before = [clock::core_hz(), clock::core_hz()];
    let start = Instant::now();
    let cases = w.cases();
    let graphs: Vec<LayeredGraph> = t.span("topology.build", |_| {
        cases.iter().map(|c| c.topology.build()).collect()
    });
    let mut inputs = Vec::with_capacity(cases.len() * seeds.len());
    for (case, g) in cases.iter().zip(&graphs) {
        for &seed in seeds {
            inputs.push((case, g, Inputs::build(case, g, seed, t)));
        }
    }
    let setup_s = start.elapsed().as_secs_f64();
    let run_start = Instant::now();
    trix_sim::metrics::reset();
    let outcomes: Vec<SeedOutcome> = inputs
        .iter()
        .map(|(case, g, inp)| execute(case, g, inp, t))
        .collect();
    let run_s = run_start.elapsed().as_secs_f64();
    let round = Round {
        setup_s,
        run_s,
        clock_scale: clock::scale(&[before[0], before[1], clock::core_hz()]),
        evals: trix_sim::metrics::total(),
        sketch_rows: outcomes.iter().map(|o| o.sketch_rows).sum(),
    };
    (round, outcomes)
}

/// Runs one seed of one case: the engine pass with its observers, the
/// sketch's probe pass if any, then the checks.
fn execute(case: &Case, g: &LayeredGraph, inputs: &Inputs, t: &mut Tracer) -> SeedOutcome {
    let p = standard_params();
    let rule = GradientTrixRule::new(p);
    let on = t.is_on();
    let pass = Pass::of(case, g, inputs);
    let evals_before = trix_sim::metrics::total();
    let mut fp = Fingerprint::default();
    let mut failures = Vec::new();
    let mut passes = 1;
    let mut sketch_rows = 0;
    let mut skew = Timed::new(streaming_monitor(g, &p), on);
    if case.sketch {
        let mut sketch = Timed::new(PodSketch::new(g, SKETCH_RANK), on);
        t.span("sim.engine", |t| {
            pass.drive(&rule, &mut (&mut skew, &mut sketch));
            t.record("obs.skew", &skew.stats);
            t.record("obs.sketch_ingest", &sketch.stats);
        });
        let mut sketch = sketch.into_inner();
        t.span("obs.sketch_finish", |_| sketch.finish());
        let snap = sketch.snapshot();
        let report = t.span("analysis.probe_pass", |t| {
            let mut probe = Timed::new(ModeProbe::new(snap.clone()), on);
            t.span("sim.engine", |t| {
                pass.drive(&rule, &mut probe);
                t.record("analysis.probe_hook", &probe.stats);
            });
            probe.into_inner().into_report()
        });
        passes = 2;
        sketch_rows = snap.rows;
        if report.rows != snap.rows {
            failures.push(format!(
                "probe consumed {} rows but the sketch folded {}",
                report.rows, snap.rows
            ));
        }
        if report.measured_error > snap.error_bound {
            failures.push(format!(
                "measured reconstruction error {} exceeds the certified bound {}",
                report.measured_error, snap.error_bound
            ));
        }
        fp.sketch(&snap, &report);
    } else {
        t.span("sim.engine", |t| {
            pass.drive(&rule, &mut skew);
            t.record("obs.skew", &skew.stats);
        });
    }
    let max_intra = finish_skew(skew.into_inner(), case, t, &mut fp, &mut failures);
    t.span("check", |_| {
        let diameter = g.base().diameter();
        let factor = if case.faults { FAULT_FACTOR } else { 1.0 };
        let bound = theory::thm_1_1_bound(&p, diameter).as_f64() * factor;
        if max_intra > bound {
            failures.push(format!(
                "L_intra {max_intra} exceeds {factor}x the Thm 1.1 bound {bound} at D={diameter}"
            ));
        }
        let evals = trix_sim::metrics::total() - evals_before;
        let expected = passes * case.evals_per_pass(g);
        if evals != expected {
            failures.push(format!("{evals} rule evaluations, expected {expected}"));
        }
        fp.f64(max_intra);
        fp.word(evals);
    });
    SeedOutcome {
        case: case.label,
        seed: inputs.seed,
        fingerprint: fp.finish(),
        sketch_rows,
        failures,
    }
}

/// Finalizes a skew monitor, checks it saw every pulse, folds its
/// snapshot into the fingerprint and returns `L_intra`.
fn finish_skew(
    mut skew: StreamingSkew,
    case: &Case,
    t: &mut Tracer,
    fp: &mut Fingerprint,
    failures: &mut Vec<String>,
) -> f64 {
    t.span("obs.skew_finish", |_| skew.finish());
    let stats = skew.snapshot();
    if stats.pulses != case.pulses as u64 {
        failures.push(format!(
            "skew monitor finalized {} pulses, expected {}",
            stats.pulses, case.pulses
        ));
    }
    fp.skew(&stats);
    stats.max_intra
}

/// Per-layer metrics of one traced round, from its spans; times are
/// scaled to the nominal core clock like the end-to-end ones.
pub fn round_layers(t: &Tracer, round: &Round) -> BTreeMap<&'static str, f64> {
    let s = t.summary();
    let secs = |name: &str| s.get(name).map_or(0.0, |x| x.secs) * round.clock_scale;
    let skew_hook = s.get("obs.skew").copied().unwrap_or_default();
    let engine_self = s.get("sim.engine").map_or(0.0, |x| x.self_secs);
    let mut m = BTreeMap::new();
    m.insert("topology.build_s", secs("topology.build"));
    m.insert("sim.env_s", secs("sim.env"));
    m.insert("core.layer0_s", secs("core.layer0"));
    m.insert("faults.campaign_s", secs("faults.campaign"));
    m.insert("sim.engine_self_s", engine_self * round.clock_scale);
    m.insert("sim.evals", round.evals as f64);
    m.insert("obs.skew_s", secs("obs.skew") + secs("obs.skew_finish"));
    m.insert(
        "obs.skew_ns_per_elem",
        per(secs("obs.skew") * 1e9, skew_hook.elems),
    );
    m.insert("obs.sketch_ingest_s", secs("obs.sketch_ingest"));
    m.insert("obs.sketch_finish_s", secs("obs.sketch_finish"));
    m.insert("obs.sketch_rows", round.sketch_rows as f64);
    m.insert("analysis.probe_pass_s", secs("analysis.probe_pass"));
    m.insert("analysis.probe_hook_s", secs("analysis.probe_hook"));
    m
}

fn per(x: f64, n: u64) -> f64 {
    if n == 0 {
        0.0
    } else {
        x / n as f64
    }
}

/// Timed repetitions of each layer probe.
const PROBE_REPS: usize = 21;

/// Layer probes of a traced run, on the inputs of `seed`: the engine
/// with `NullObserver` (time and allocations per evaluation), campaign
/// gating against correct sends, direct `decide` calls on arrival sets
/// captured from the workload, and the frontier driver against the
/// serial one. Returns the metrics and the outcome of the frontier
/// identity check (one per frontier case).
pub fn layer_probes(w: Workload, seed: u64) -> (BTreeMap<&'static str, f64>, Vec<SeedOutcome>) {
    let rule = GradientTrixRule::new(standard_params());
    let cases = w.cases();
    let graphs: Vec<LayeredGraph> = cases.iter().map(|c| c.topology.build()).collect();
    let mut untraced = Tracer::new(false);
    let inputs: Vec<Inputs> = cases
        .iter()
        .zip(&graphs)
        .map(|(c, g)| Inputs::build(c, g, seed, &mut untraced))
        .collect();
    let serial = |i: usize, faults: bool| Pass {
        faults,
        ..Pass::of(&cases[i], &graphs[i], &inputs[i])
    };
    let all = 0..cases.len();
    let evals: u64 = all
        .clone()
        .map(|i| cases[i].evals_per_pass(&graphs[i]))
        .sum();

    // Allocations of the serial engine: deterministic, so one counted pass.
    alloc::set_counting(true);
    let (a0, b0) = alloc::counts();
    for i in all.clone() {
        serial(i, cases[i].faults).drive(&rule, &mut NullObserver);
    }
    let (a1, b1) = alloc::counts();
    alloc::set_counting(false);

    // Engine time with the workload's send model and with correct sends,
    // interleaved so both see the same machine state.
    let any_faults = cases.iter().any(|c| c.faults);
    let mut null = Vec::new();
    let mut correct = Vec::new();
    for _ in 0..PROBE_REPS {
        null.push(time(|| {
            all.clone()
                .for_each(|i| serial(i, cases[i].faults).drive(&rule, &mut NullObserver))
        }));
        if any_faults {
            correct.push(time(|| {
                all.clone()
                    .for_each(|i| serial(i, false).drive(&rule, &mut NullObserver))
            }));
        }
    }
    let null_ns = fastest(&null) * 1e9 / evals as f64;
    let gating_ns = if any_faults {
        null_ns - fastest(&correct) * 1e9 / evals as f64
    } else {
        0.0
    };

    let mut m = BTreeMap::new();
    m.insert("sim.engine_null_ns_per_eval", null_ns);
    m.insert(
        "sim.engine_allocs_per_eval",
        (a1 - a0) as f64 / evals as f64,
    );
    m.insert(
        "sim.engine_alloc_bytes_per_eval",
        (b1 - b0) as f64 / evals as f64,
    );
    m.insert("faults.gating_ns_per_eval", gating_ns);
    m.insert(
        "core.decide_ns",
        decide_ns(&rule, all.clone().map(|i| serial(i, cases[i].faults))),
    );

    // Frontier against serial on identical inputs: time, speedup and
    // bit-identity of the emission streams.
    let (mut frontier_s, mut serial_s) = (0.0, 0.0);
    let mut outcomes = Vec::new();
    for i in all {
        if !cases[i].frontier {
            continue;
        }
        let frontier = Pass {
            threads: FRONTIER_WORKERS,
            ..serial(i, cases[i].faults)
        };
        let (mut ts, mut tf) = (Vec::new(), Vec::new());
        let (mut hs, mut hf) = (EmissionHash::default(), EmissionHash::default());
        for _ in 0..PROBE_REPS {
            hs = EmissionHash::default();
            ts.push(time(|| serial(i, cases[i].faults).drive(&rule, &mut hs)));
            hf = EmissionHash::default();
            tf.push(time(|| frontier.drive(&rule, &mut hf)));
        }
        serial_s += fastest(&ts);
        frontier_s += fastest(&tf);
        let mut failures = Vec::new();
        if hs != hf {
            failures.push(format!(
                "frontier emissions (hash {:#018x}) differ from serial (hash {:#018x})",
                hf.0.finish(),
                hs.0.finish()
            ));
        }
        outcomes.push(SeedOutcome {
            case: "frontier-vs-serial",
            seed,
            fingerprint: hs.0.finish(),
            sketch_rows: 0,
            failures,
        });
    }
    m.insert("sim.frontier_s", frontier_s);
    m.insert(
        "sim.frontier_speedup",
        if frontier_s > 0.0 {
            serial_s / frontier_s
        } else {
            0.0
        },
    );
    (m, outcomes)
}

/// Seconds `f` takes, at the nominal core clock.
fn time(f: impl FnOnce()) -> f64 {
    let before = clock::core_hz();
    let t0 = Instant::now();
    f();
    let wall = t0.elapsed().as_secs_f64();
    wall * clock::scale(&[before, clock::core_hz()])
}

/// Arrival sets kept for the `decide` probe.
const DECIDE_SAMPLES: u64 = 1 << 16;

/// Median ns per direct `decide` call over arrival sets captured from
/// the passes (at most two pulses each, strided to
/// [`DECIDE_SAMPLES`] sets in total).
fn decide_ns<'a>(rule: &GradientTrixRule, passes: impl Iterator<Item = Pass<'a>> + Clone) -> f64 {
    let capture = |p: Pass<'a>| Pass {
        pulses: p.pulses.min(2),
        ..p
    };
    let evals: u64 = passes
        .clone()
        .map(|p| {
            let p = capture(p);
            (p.pulses * (p.g.layer_count() - 1) * p.g.width()) as u64
        })
        .sum();
    let sampler = Sampler {
        rule,
        stride: (evals / DECIDE_SAMPLES).max(1),
        seen: AtomicU64::new(0),
        sets: Mutex::new(ArrivalSets::default()),
    };
    for p in passes {
        capture(p).drive(&sampler, &mut NullObserver);
    }
    let sets = sampler.sets.into_inner().expect("a capture pass panicked");
    let n = sets.own.len();
    let calls_per_rep = 1 << 17;
    let sweeps = (calls_per_rep / n.max(1)).max(1);
    let mut reps = Vec::new();
    for _ in 0..PROBE_REPS {
        reps.push(time(|| {
            for _ in 0..sweeps {
                for i in 0..n {
                    let nb = &sets.neighbors[sets.offsets[i]..sets.offsets[i + 1]];
                    black_box(rule.decide(black_box(sets.own[i]), black_box(nb)));
                }
            }
        }));
    }
    fastest(&reps) * 1e9 / (sweeps * n).max(1) as f64
}

/// Captured `(own, neighbors)` arrival sets in local time, flattened:
/// set `i`'s neighbors are `neighbors[offsets[i]..offsets[i + 1]]`.
struct ArrivalSets {
    own: Vec<Option<LocalTime>>,
    neighbors: Vec<Option<LocalTime>>,
    offsets: Vec<usize>,
}

impl Default for ArrivalSets {
    fn default() -> Self {
        Self {
            own: Vec::new(),
            neighbors: Vec::new(),
            offsets: vec![0],
        }
    }
}

/// A rule wrapper that records every `stride`-th arrival set, converted
/// to local time exactly as `GradientTrixRule::pulse_time` converts it,
/// and then delegates. Its state sits behind an atomic and a mutex only
/// because `Pass::drive` asks for `Sync`; the capture passes are serial.
struct Sampler<'a> {
    rule: &'a GradientTrixRule,
    stride: u64,
    seen: AtomicU64,
    sets: Mutex<ArrivalSets>,
}

impl PulseRule for Sampler<'_> {
    fn pulse_time(
        &self,
        node: NodeId,
        k: usize,
        own: Option<Time>,
        neighbors: &[Option<Time>],
        clock: &AffineClock,
    ) -> Option<Time> {
        if self
            .seen
            .fetch_add(1, Ordering::Relaxed)
            .is_multiple_of(self.stride)
        {
            let mut sets = self.sets.lock().expect("a capture pass panicked");
            sets.own.push(own.map(|t| clock.local_at(t)));
            sets.neighbors
                .extend(neighbors.iter().map(|t| t.map(|t| clock.local_at(t))));
            let end = sets.neighbors.len();
            sets.offsets.push(end);
        }
        self.rule.pulse_time(node, k, own, neighbors, clock)
    }
}

/// The value a run reports for a timing: its fastest sample.
///
/// The host switches within seconds between a fast state and one about
/// 1.7× slower for this code (an ALU-bound loop is unaffected), and the
/// share of time spent in each varies from minute to minute. The code
/// cannot run faster than the host allows, so noise only adds time:
/// over hundreds of short samples the fastest one sits near the fast
/// state's floor whenever the run saw that state at all. Across runs
/// it spread no more than the 1st to 10th percentiles did.
pub fn fastest(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Word-at-a-time multiply-xorshift hash: the fingerprint of simulated
/// statistics and of emission streams. Cheap enough (a few cycles per
/// word) to hash every emitted pulse time on the flushing thread.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Fingerprint(u64);

impl Fingerprint {
    /// Folds one word in.
    #[inline]
    pub fn word(&mut self, x: u64) {
        let h = (self.0 ^ x).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.0 = h ^ (h >> 32);
    }

    /// Folds one float in, by its bits.
    pub fn f64(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    /// Folds in every field of a skew snapshot.
    pub fn skew(&mut self, s: &SkewStats) {
        for x in [
            s.max_intra,
            s.max_inter,
            s.max_full,
            s.max_global,
            s.mean_intra,
        ] {
            self.f64(x);
        }
        self.word(s.pulses);
        self.f64(s.hist_bin_width);
        s.hist_intra.iter().for_each(|&b| self.word(b));
    }

    /// Folds in a sketch snapshot and its probe report.
    pub fn sketch(&mut self, snap: &PodSnapshot, report: &ModeReport) {
        for x in [snap.rank, snap.col_start, snap.cols] {
            self.word(x as u64);
        }
        self.word(snap.rows);
        snap.singular_values.iter().for_each(|&x| self.f64(x));
        snap.basis.iter().for_each(|&x| self.f64(x));
        self.f64(snap.error_bound);
        self.f64(snap.energy);
        self.f64(report.measured_error);
        self.word(report.rows);
        for m in &report.modes {
            self.f64(m.sigma);
            self.f64(m.energy_fraction);
            self.word(m.origin_col as u64);
            self.f64(m.origin_centroid);
            self.f64(m.velocity.unwrap_or(f64::NAN));
        }
    }

    /// The hash value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Observer hashing the whole emission stream: faulty positions, then
/// every row slot's bits in emission order.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EmissionHash(pub Fingerprint);

impl Observer for EmissionHash {
    fn on_faulty(&mut self, node: NodeId) {
        self.0.word(((node.layer as u64) << 32) | node.v as u64);
    }

    fn on_pulse_row(&mut self, k: usize, layer: u32, row: &[Option<Time>]) {
        self.0.word(k as u64);
        self.0.word(layer as u64);
        for slot in row {
            self.0.word(slot.map_or(u64::MAX, |t| t.as_f64().to_bits()));
        }
    }
}
