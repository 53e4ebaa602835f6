//! Property tests: the streaming skew monitor is bit-identical to a
//! batch fold over the full trace, for random layered topologies,
//! environments, faults, and derived seeds; so is the fault-class
//! monitor against the whole-front fold it replaced.
//!
//! The batch side is recomputed here directly from the shared
//! definitions in `trix_obs::defs` over a [`PulseTrace`] recorded in the
//! *same run* (tuple observer), so the property isolates exactly the
//! incremental front bookkeeping of [`StreamingSkew`]. The workspace-level
//! `tests/streaming_equivalence.rs` additionally pins equality against
//! `trix_analysis::skew` across the experiment suite.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use trix_obs::{
    defs, FaultClassSkew, FaultClassStats, Observer, PodSketch, PodSnapshot, SkewStats,
    StreamingSkew,
};
use trix_sim::{
    run_dataflow_observed, run_dataflow_parallel, CorrectSends, OffsetLayer0, PulseRule,
    PulseTrace, Rng, SendModel, StaticEnvironment,
};
use trix_time::{AffineClock, Duration, Time};
use trix_topology::{families, BaseGraph, LayeredGraph, NodeId};

/// Fires at `max(arrivals) + 1`, scaled a little by the clock rate so
/// environments influence the times.
struct MaxPlus;

impl PulseRule for MaxPlus {
    fn pulse_time(
        &self,
        _node: NodeId,
        _k: usize,
        own: Option<Time>,
        neighbors: &[Option<Time>],
        clock: &AffineClock,
    ) -> Option<Time> {
        let mut best: Option<Time> = own;
        for &n in neighbors {
            best = match (best, n) {
                (Some(a), Some(b)) => Some(a.max(b)),
                (a, b) => a.or(b),
            };
        }
        best.map(|t| t + Duration::from(clock.rate()))
    }
}

/// Silences (and flags faulty) one node.
struct Silence(NodeId);

impl SendModel for Silence {
    fn send_time(
        &self,
        node: NodeId,
        _k: usize,
        nominal: Option<Time>,
        _target: NodeId,
    ) -> Option<Time> {
        if node == self.0 {
            None
        } else {
            nominal
        }
    }

    fn is_faulty(&self, node: NodeId) -> bool {
        node == self.0
    }
}

/// Bin width of the monitors under test: 16 bins cover `[0, 4)`, so the
/// lattice skews fill several bins and the largest overflow.
const BIN_WIDTH: f64 = 0.25;

/// Batch recomputation of the [`SkewStats`] record `StreamingSkew` folds,
/// from a full trace over pulses `0..pulses`, in the same pulse order. The
/// mean divides by its own count of pulses with an intra-layer sample.
fn batch_fold(g: &LayeredGraph, trace: &PulseTrace, pulses: usize) -> SkewStats {
    let pairs = defs::SkewPairs::new(g.base());
    let row = |k: usize, layer: usize| {
        let mut rows = defs::MaskedRows::new(g.width(), 1);
        rows.set(0, trace.row(k, layer), trace.faulty_row(layer));
        rows
    };
    let max = |acc: Option<Duration>, s: Option<Duration>| match (acc, s) {
        (Some(a), Some(s)) => Some(a.max(s)),
        (a, s) => a.or(s),
    };
    let (mut max_intra, mut sum_intra, mut count_intra) = (0.0f64, 0.0f64, 0u64);
    let (mut max_inter, mut max_global) = (0.0f64, 0.0f64);
    let mut hist_intra = vec![0u64; StreamingSkew::HIST_BINS];
    for k in 0..pulses {
        let (mut intra, mut global, mut inter) = (None, None, None);
        for layer in 0..g.layer_count() {
            let r = row(k, layer);
            intra = max(intra, defs::worst_intra_layer(&pairs, r.row(0)));
            global = max(global, defs::layer_spread(r.row(0)));
            if k > 0 && layer + 1 < g.layer_count() {
                let lower = row(k - 1, layer + 1);
                inter = max(
                    inter,
                    defs::worst_inter_layer(&pairs, r.row(0), lower.row(0)),
                );
            }
        }
        if let Some(s) = intra.map(Duration::as_f64) {
            max_intra = max_intra.max(s);
            sum_intra += s;
            count_intra += 1;
            hist_intra[((s / BIN_WIDTH) as usize).min(StreamingSkew::HIST_BINS - 1)] += 1;
        }
        if let Some(s) = global {
            max_global = max_global.max(s.as_f64());
        }
        if let Some(s) = inter {
            max_inter = max_inter.max(s.as_f64());
        }
    }
    SkewStats {
        max_intra,
        max_inter,
        max_full: max_intra.max(max_inter),
        max_global,
        mean_intra: if count_intra == 0 {
            0.0
        } else {
            sum_intra / count_intra as f64
        },
        pulses: pulses as u64,
        hist_bin_width: BIN_WIDTH,
        hist_intra,
    }
}

/// Checks a finished monitor's snapshot against the batch fold bit for
/// bit: every `SkewStats` field, the floats by their bits.
fn assert_matches_batch(stream: &StreamingSkew, batch: &SkewStats) -> Result<(), TestCaseError> {
    let got = stream.snapshot();
    let floats = |s: &SkewStats| {
        [
            s.max_intra,
            s.max_inter,
            s.max_full,
            s.max_global,
            s.mean_intra,
            s.hist_bin_width,
        ]
        .map(f64::to_bits)
    };
    prop_assert_eq!(floats(&got), floats(batch));
    prop_assert_eq!(got.pulses, batch.pulses);
    prop_assert_eq!(&got.hist_intra, &batch.hist_intra);
    Ok(())
}

/// A base graph of one of five families, growing with `size`: the cycle
/// and the paper's line, then a torus, a hypercube and a supernode
/// overlay.
fn base_graph(family: usize, size: usize) -> BaseGraph {
    match family {
        0 => BaseGraph::cycle(3 + size),
        1 => BaseGraph::line_with_replicated_ends(3 + size),
        2 => families::torus(3 + size / 3, 4 + size % 3).into_graph(),
        3 => families::hypercube(2 + (size % 3) as u32).into_graph(),
        _ => families::supernode_overlay(3 + size % 3, 1 + size / 3).into_graph(),
    }
}

/// A synthetic row stream written into a `PulseTrace`: times on a
/// lattice offset by pulse and layer, a random faulty set, and whole
/// rows, whole pulses and single emissions missing at the given rates.
/// Returns the trace, the faulty nodes and the last pulse with an
/// emission.
fn synthetic_trace(
    g: &LayeredGraph,
    rng: &mut Rng,
    pulses: usize,
    (row_gap, pulse_gap, missing, faulty): (f64, f64, f64, f64),
) -> (PulseTrace, Vec<NodeId>, Option<usize>) {
    let faulty_nodes: Vec<NodeId> = g.nodes().filter(|_| rng.bernoulli(faulty)).collect();
    let mut trace = PulseTrace::new(g, pulses);
    let mut last_pulse = None;
    for k in 0..pulses {
        let pulse_missing = rng.bernoulli(pulse_gap);
        for layer in 0..g.layer_count() {
            let row_missing = pulse_missing || rng.bernoulli(row_gap);
            let row: Vec<Option<Time>> = (0..g.width())
                .map(|_| {
                    let t = 50.0 * k as f64 + 5.0 * layer as f64 + 0.75 * rng.usize_below(8) as f64;
                    (!row_missing && !rng.bernoulli(missing)).then(|| Time::from(t))
                })
                .collect();
            if row.iter().any(Option::is_some) {
                last_pulse = Some(k);
            }
            trace.on_pulse_row(k, layer as u32, &row);
        }
    }
    for &n in &faulty_nodes {
        trace.set_faulty(n);
    }
    (trace, faulty_nodes, last_pulse)
}

/// Feeds `obs` what a dataflow driver would: the faulty nodes, then
/// every `(k, layer)` row of the trace, empty ones included.
fn replay(obs: &mut impl Observer, g: &LayeredGraph, trace: &PulseTrace, faulty: &[NodeId]) {
    for &n in faulty {
        obs.on_faulty(n);
    }
    for k in 0..trace.pulses() {
        for layer in 0..g.layer_count() {
            obs.on_pulse_row(k, layer as u32, trace.row(k, layer));
        }
    }
}

/// The reference for [`FaultClassSkew`]: the whole-front fold it
/// replaced. Each pulse's front is read in full from the trace, then
/// every layer's base edges are swept in `edges()` order, layers
/// ascending, with the frontier recomputed from its documented
/// definition: a faulty node in the closed same-layer neighbourhood or
/// among the grid predecessors. Each class's maximum is the largest of
/// its per-pulse maxima, `0` if it has none.
fn fault_class_reference(g: &LayeredGraph, trace: &PulseTrace) -> FaultClassStats {
    let faulty = |n: NodeId| trace.is_faulty(n);
    let frontier = |n: NodeId| {
        faulty(n)
            || g.base()
                .neighbors(n.v as usize)
                .iter()
                .any(|&u| faulty(NodeId::new(u as u32, n.layer)))
            || g.predecessors(n).any(|(p, _)| faulty(p))
    };
    let (mut front, mut healthy) = (0.0f64, 0.0f64);
    for k in 0..trace.pulses() {
        let (mut front_max, mut healthy_max): (Option<f64>, Option<f64>) = (None, None);
        for layer in 0..g.layer_count() as u32 {
            for (a, b) in g.base().edges() {
                let (na, nb) = (NodeId::new(a as u32, layer), NodeId::new(b as u32, layer));
                if faulty(na) || faulty(nb) {
                    continue;
                }
                let (Some(ta), Some(tb)) = (trace.time(k, na), trace.time(k, nb)) else {
                    continue;
                };
                let skew = (ta - tb).abs().as_f64();
                let slot = if frontier(na) || frontier(nb) {
                    &mut front_max
                } else {
                    &mut healthy_max
                };
                *slot = Some(slot.map_or(skew, |m| m.max(skew)));
            }
        }
        front = front_max.map_or(front, |m| front.max(m));
        healthy = healthy_max.map_or(healthy, |m| healthy.max(m));
    }
    FaultClassStats {
        frontier_max: front,
        healthy_max: healthy,
    }
}

proptest! {
    /// One engine run observed by a full trace and the monitor, on the
    /// cycle, the paper's line, tori, hypercubes and supernode overlays,
    /// with and without a silenced faulty node: the monitor equals the
    /// batch fold over the trace bit for bit.
    #[test]
    fn streaming_equals_batch_over_random_topologies(
        seed in any::<u64>(),
        family in 0usize..5,
        size in 0usize..7,
        layers in 2usize..6,
        pulses in 1usize..5,
        fault in any::<bool>(),
    ) {
        let g = LayeredGraph::new(base_graph(family, size), layers);
        let mut rng = Rng::seed_from(seed);
        let env = StaticEnvironment::random(
            &g,
            Duration::from(10.0),
            Duration::from(2.0),
            1.05,
            &mut rng,
        );
        let offsets = (0..g.width()).map(|_| rng.f64_in(0.0, 3.0)).collect();
        let layer0 = OffsetLayer0::new(25.0, offsets);
        let bad = g.node(rng.usize_below(g.width()), 1 + rng.usize_below(g.layer_count() - 1));

        // One run, two observers: the full trace and the streaming monitor.
        let mut pair = (PulseTrace::new(&g, pulses), StreamingSkew::new(&g, BIN_WIDTH));
        if fault {
            run_dataflow_observed(&g, &env, &layer0, &MaxPlus, &Silence(bad), pulses, &mut pair);
        } else {
            run_dataflow_observed(&g, &env, &layer0, &MaxPlus, &CorrectSends, pulses, &mut pair);
        }
        let (trace, mut stream) = pair;
        stream.finish();
        // Bit-identical folds, every pulse counted — no tolerance.
        assert_matches_batch(&stream, &batch_fold(&g, &trace, pulses))?;
    }

    /// Synthetic row streams with whole rows and whole pulses missing: a
    /// layer's slot then often holds a row two or more pulses old, which
    /// must not enter `L_{ℓ,ℓ+1}`. Times sit on a lattice offset by pulse
    /// and layer, so a stale pair reads a larger inter-layer skew than any
    /// true pair and raises the maximum. The monitor equals the batch fold
    /// over the same matrix written into a `PulseTrace`, bit for bit,
    /// counting the pulses up to the last one with an emission (the
    /// pulses after it add no sample).
    #[test]
    fn synthetic_streams_with_missing_rows_equal_batch(
        seed in any::<u64>(),
        family in 1usize..5,
        size in 0usize..7,
        layers in 2usize..6,
        pulses in 1usize..8,
        row_gap in 0.0f64..0.6,
        pulse_gap in 0.0f64..0.4,
        missing in 0.0f64..0.4,
        faulty in 0.0f64..0.2,
    ) {
        let g = LayeredGraph::new(base_graph(family, size), layers);
        let mut rng = Rng::seed_from(seed);
        let (trace, faulty_nodes, last_pulse) =
            synthetic_trace(&g, &mut rng, pulses, (row_gap, pulse_gap, missing, faulty));
        let mut stream = StreamingSkew::new(&g, BIN_WIDTH);
        replay(&mut stream, &g, &trace, &faulty_nodes);
        stream.finish();
        let counted = last_pulse.map_or(0, |k| k + 1);
        assert_matches_batch(&stream, &batch_fold(&g, &trace, counted))?;
    }

    /// The fault-class monitor, which folds each row on arrival, equals
    /// the whole-front reference fold bit for bit in both
    /// `FaultClassStats` maxima: on all five base-graph families, random
    /// faulty sets, and streams with rows, whole pulses and single
    /// emissions missing. The lattice times make equal skews common.
    #[test]
    fn fault_class_rows_equal_whole_front_reference(
        seed in any::<u64>(),
        family in 0usize..5,
        size in 0usize..7,
        layers in 2usize..6,
        pulses in 1usize..8,
        row_gap in 0.0f64..0.6,
        pulse_gap in 0.0f64..0.4,
        missing in 0.0f64..0.4,
        faulty in 0.0f64..0.3,
    ) {
        let g = LayeredGraph::new(base_graph(family, size), layers);
        let mut rng = Rng::seed_from(seed);
        let (trace, faulty_nodes, _) =
            synthetic_trace(&g, &mut rng, pulses, (row_gap, pulse_gap, missing, faulty));
        let mut classes = FaultClassSkew::new(&g);
        replay(&mut classes, &g, &trace, &faulty_nodes);
        let got = classes.snapshot();
        let FaultClassStats {
            frontier_max,
            healthy_max,
        } = fault_class_reference(&g, &trace);
        prop_assert_eq!(got.frontier_max.to_bits(), frontier_max.to_bits());
        prop_assert_eq!(got.healthy_max.to_bits(), healthy_max.to_bits());
    }

    /// Partial-merge soundness over random independent runs: folding
    /// per-seed snapshots with `SkewStats::merge` yields the
    /// componentwise fold — the max of the maxima, summed pulses and
    /// histogram bins, and the mean of all per-pulse samples pooled
    /// (within float-merge tolerance).
    #[test]
    fn merged_partials_equal_componentwise_snapshot_folds(
        seed in any::<u64>(),
        runs in 2usize..5,
        pulses in 1usize..4,
    ) {
        let g = LayeredGraph::new(BaseGraph::cycle(5), 3);
        let snaps: Vec<SkewStats> = (0..runs as u64)
            .map(|i| {
                let mut rng = Rng::seed_from(seed ^ (i.wrapping_mul(0x9E37_79B9_7F4A_7C15)));
                let env = StaticEnvironment::random(
                    &g,
                    Duration::from(10.0),
                    Duration::from(2.0),
                    1.05,
                    &mut rng,
                );
                let offsets = (0..g.width()).map(|_| rng.f64_in(0.0, 3.0)).collect();
                let layer0 = OffsetLayer0::new(25.0, offsets);
                let mut s = StreamingSkew::new(&g, 1.0);
                run_dataflow_observed(&g, &env, &layer0, &MaxPlus, &CorrectSends, pulses, &mut s);
                s.finish();
                s.snapshot()
            })
            .collect();
        let mut merged = snaps[0].clone();
        for s in &snaps[1..] {
            merged.merge(s);
        }
        let fold_max = |f: fn(&SkewStats) -> f64| snaps.iter().map(f).fold(0.0f64, f64::max);
        prop_assert_eq!(merged.max_intra, fold_max(|s| s.max_intra));
        prop_assert_eq!(merged.max_inter, fold_max(|s| s.max_inter));
        prop_assert_eq!(merged.max_full, fold_max(|s| s.max_full));
        prop_assert_eq!(merged.max_global, fold_max(|s| s.max_global));
        prop_assert_eq!(merged.pulses, snaps.iter().map(|s| s.pulses).sum::<u64>());
        let mut bins = vec![0u64; merged.hist_intra.len()];
        for s in &snaps {
            for (acc, b) in bins.iter_mut().zip(&s.hist_intra) {
                *acc += b;
            }
        }
        prop_assert_eq!(&merged.hist_intra, &bins);
        // Each run records one intra sample per pulse.
        let samples: u64 = snaps.iter().map(|s| s.pulses).sum();
        let pooled = snaps
            .iter()
            .map(|s| s.mean_intra * s.pulses as f64)
            .sum::<f64>()
            / samples as f64;
        prop_assert!((merged.mean_intra - pooled).abs() <= 1e-9);
    }

    /// The histogram's total mass equals the number of recorded pulses.
    #[test]
    fn histogram_mass_equals_pulse_count(seed in any::<u64>(), pulses in 1usize..6) {
        let g = LayeredGraph::new(BaseGraph::cycle(5), 3);
        let mut rng = Rng::seed_from(seed);
        let env = StaticEnvironment::random(
            &g,
            Duration::from(10.0),
            Duration::from(1.0),
            1.01,
            &mut rng,
        );
        let layer0 = OffsetLayer0::synchronized(25.0, g.width());
        let mut s = StreamingSkew::new(&g, BIN_WIDTH);
        run_dataflow_observed(&g, &env, &layer0, &MaxPlus, &CorrectSends, pulses, &mut s);
        s.finish();
        let snap = s.snapshot();
        prop_assert_eq!(snap.hist_intra.iter().sum::<u64>(), snap.pulses);
        prop_assert_eq!(snap.pulses, pulses as u64);
    }

    /// Engine-independence of the sketch: the serial and frontier engines
    /// at 1–4 `--sim-threads` produce bit-identical sketches (basis,
    /// spectrum, and certificate compared via `to_bits`) — the
    /// determinism leg the schema-v7 `sketch` records rest on, which
    /// `tests/parallel_determinism.rs` compares suite-wide.
    #[test]
    fn sketch_is_bit_deterministic_across_engines_and_thread_counts(
        seed in any::<u64>(),
        width in 3usize..9,
        layers in 2usize..6,
        pulses in 1usize..4,
        fault in any::<bool>(),
        rank in 1usize..5,
    ) {
        let g = LayeredGraph::new(BaseGraph::line_with_replicated_ends(width), layers);
        let mut rng = Rng::seed_from(seed);
        let env = StaticEnvironment::random(
            &g,
            Duration::from(10.0),
            Duration::from(2.0),
            1.05,
            &mut rng,
        );
        let offsets = (0..g.width()).map(|_| rng.f64_in(0.0, 3.0)).collect();
        let layer0 = OffsetLayer0::new(25.0, offsets);
        let bad = g.node(rng.usize_below(g.width()), 1 + rng.usize_below(g.layer_count() - 1));

        // `threads == 0` runs the serial driver, the reference.
        let run = |threads: usize| {
            let mut sk = PodSketch::new(&g, rank);
            match (fault, threads) {
                (true, 0) => run_dataflow_observed(
                    &g, &env, &layer0, &MaxPlus, &Silence(bad), pulses, &mut sk),
                (true, _) => run_dataflow_parallel(
                    &g, &env, &layer0, &MaxPlus, &Silence(bad), pulses, threads, &mut sk),
                (false, 0) => run_dataflow_observed(
                    &g, &env, &layer0, &MaxPlus, &CorrectSends, pulses, &mut sk),
                (false, _) => run_dataflow_parallel(
                    &g, &env, &layer0, &MaxPlus, &CorrectSends, pulses, threads, &mut sk),
            }
            sk.finish();
            sk.snapshot()
        };
        let bits = |snap: &PodSnapshot| {
            (
                snap.singular_values.iter().map(|s| s.to_bits()).collect::<Vec<u64>>(),
                snap.basis.iter().map(|b| b.to_bits()).collect::<Vec<u64>>(),
                snap.error_bound.to_bits(),
                snap.rows,
            )
        };
        let reference = bits(&run(0));
        for threads in 1usize..=4 {
            prop_assert_eq!(&reference, &bits(&run(threads)), "threads {} diverged", threads);
        }
    }
}
