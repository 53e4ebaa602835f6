//! Property tests: the streaming skew monitor is bit-identical to a
//! batch fold over the full trace, for random layered topologies,
//! environments, faults, and derived seeds.
//!
//! The batch side is recomputed here directly from the shared
//! definitions in `trix_obs::defs` over a [`PulseTrace`] recorded in the
//! *same run* (tuple observer), so the property isolates exactly the
//! incremental front bookkeeping of [`StreamingSkew`]. The workspace-level
//! `tests/streaming_equivalence.rs` additionally pins equality against
//! `trix_analysis::skew` across the experiment suite.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use trix_obs::{defs, DesSkew, Observer, PodSketch, PodSnapshot, StreamingSkew, TraceRing};
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

/// Forwards the element-level hooks but deliberately does NOT override
/// `on_pulse_row`, so the trait's *default* row unpacking feeds the
/// wrapped observer element-wise — the "element path" side of the
/// row-vs-element equivalence property. (Native row fast paths are the
/// "row path" side; both must be bit-identical.)
struct PerElement<O>(O);

impl<O: Observer> Observer for PerElement<O> {
    fn on_faulty(&mut self, node: NodeId) {
        self.0.on_faulty(node);
    }

    fn on_pulse(&mut self, k: usize, node: NodeId, t: Time) {
        self.0.on_pulse(k, node, t);
    }

    fn on_broadcast(&mut self, node: usize, t: Time) {
        self.0.on_broadcast(node, t);
    }
}

/// Running `max`/`sum`/`count` of one statistic, recorded the way
/// `RunningStat` records it.
#[derive(Default)]
struct Fold {
    max: f64,
    sum: f64,
    count: u64,
}

impl Fold {
    fn record(&mut self, s: Option<Duration>) {
        if let Some(s) = s {
            self.max = self.max.max(s.as_f64());
            self.sum += s.as_f64();
            self.count += 1;
        }
    }

    fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// Batch recomputation of everything `StreamingSkew` folds, from a full
/// trace, in the same pulse order.
#[derive(Default)]
struct Batch {
    intra: Fold,
    inter: Fold,
    global: Fold,
}

/// Pulse-front rows of a recorded trace, in the sketch's row order: one
/// row per `(k, layer)` front with at least one emission, misfires
/// zero-filled — the ground-truth matrix a `PodSketch` of the same run
/// compressed.
fn front_rows(g: &LayeredGraph, trace: &PulseTrace, pulses: usize) -> Vec<Vec<f64>> {
    let mut rows = Vec::new();
    for k in 0..pulses {
        for layer in 0..g.layer_count() as u32 {
            let times: Vec<Option<Time>> = (0..g.width() as u32)
                .map(|v| trace.time(k, NodeId::new(v, layer)))
                .collect();
            if times.iter().any(Option::is_some) {
                rows.push(
                    times
                        .into_iter()
                        .map(|t| t.map_or(0.0, Time::as_f64))
                        .collect(),
                );
            }
        }
    }
    rows
}

/// Measured Frobenius reconstruction error of a snapshot over the rows
/// covered by its column range.
fn measured_error(snap: &PodSnapshot, rows: &[Vec<f64>]) -> f64 {
    rows.iter()
        .map(|r| snap.residual_sq(&r[snap.col_start..snap.col_start + snap.cols]))
        .sum::<f64>()
        .sqrt()
}

fn batch_fold(g: &LayeredGraph, trace: &PulseTrace, pulses: usize) -> Batch {
    let pairs = defs::SkewPairs::new(g.base().csr());
    let row = |k: usize, layer: usize| {
        let mut rows = defs::MaskedRows::new(g.width(), 1);
        rows.set(0, trace.row(k, layer), trace.faulty_row(layer));
        rows
    };
    let max = |acc: Option<Duration>, s: Option<Duration>| match (acc, s) {
        (Some(a), Some(s)) => Some(a.max(s)),
        (a, s) => a.or(s),
    };
    let mut out = Batch::default();
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
        out.intra.record(intra);
        out.global.record(global);
        out.inter.record(inter);
    }
    out
}

/// Checks a finished monitor against the batch fold bit for bit: the
/// three maxima, means and sample counts.
fn assert_matches_batch(stream: &StreamingSkew, batch: &Batch) -> Result<(), TestCaseError> {
    for (name, got, want) in [
        ("intra", stream.intra(), &batch.intra),
        ("inter", stream.inter(), &batch.inter),
        ("global", stream.global(), &batch.global),
    ] {
        prop_assert_eq!(got.max().to_bits(), want.max.to_bits(), "{} max", name);
        prop_assert_eq!(got.mean().to_bits(), want.mean().to_bits(), "{} mean", name);
        prop_assert_eq!(got.count(), want.count, "{} count", name);
    }
    prop_assert_eq!(
        stream.full_local_skew().as_f64().to_bits(),
        batch.intra.max.max(batch.inter.max).to_bits()
    );
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
        let mut pair = (PulseTrace::new(&g, pulses), StreamingSkew::new(&g));
        if fault {
            run_dataflow_observed(&g, &env, &layer0, &MaxPlus, &Silence(bad), pulses, &mut pair);
        } else {
            run_dataflow_observed(&g, &env, &layer0, &MaxPlus, &CorrectSends, pulses, &mut pair);
        }
        let (trace, mut stream) = pair;
        stream.finish();
        // Bit-identical folds — no tolerance.
        assert_matches_batch(&stream, &batch_fold(&g, &trace, pulses))?;
        prop_assert_eq!(stream.pulses(), pulses as u64);
    }

    /// Synthetic row streams with whole rows and whole pulses missing,
    /// fed through the row path and the element path: a layer's slot
    /// then often holds a row two or more pulses old, which must not
    /// enter `L_{ℓ,ℓ+1}`. Times sit on a lattice offset by pulse and
    /// layer, so a stale row changes the inter-layer maxima and counts.
    /// Both paths equal the batch fold over the same matrix written into
    /// a `PulseTrace`, bit for bit, and count the pulses up to the last
    /// one with an emission.
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
        let faulty_nodes: Vec<NodeId> = g.nodes().filter(|_| rng.bernoulli(faulty)).collect();
        let mut trace = PulseTrace::new(&g, pulses);
        let mut last_pulse = None;
        for k in 0..pulses {
            let pulse_missing = rng.bernoulli(pulse_gap);
            for layer in 0..layers {
                let row_missing = pulse_missing || rng.bernoulli(row_gap);
                let row: Vec<Option<Time>> = (0..g.width())
                    .map(|_| {
                        let t = 50.0 * k as f64 + 5.0 * layer as f64
                            + 0.75 * rng.usize_below(8) as f64;
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
        let feed = |obs: &mut dyn Observer| {
            for &n in &faulty_nodes {
                obs.on_faulty(n);
            }
            for k in 0..pulses {
                for layer in 0..layers {
                    obs.on_pulse_row(k, layer as u32, trace.row(k, layer));
                }
            }
        };
        let mut by_row = StreamingSkew::new(&g);
        feed(&mut by_row);
        let mut by_element = PerElement(StreamingSkew::new(&g));
        feed(&mut by_element);
        let batch = batch_fold(&g, &trace, pulses);
        for mut stream in [by_row, by_element.0] {
            stream.finish();
            assert_matches_batch(&stream, &batch)?;
            prop_assert_eq!(stream.pulses(), last_pulse.map_or(0, |k| k as u64 + 1));
        }
    }

    /// Partial-merge soundness over random independent runs: folding
    /// per-seed `StreamingSkew` monitors with `merge` yields exactly the
    /// componentwise fold of their snapshots — maxima fold with `max`,
    /// counts/histograms add bin-wise (so chunked sweeps can keep one
    /// `O(width)`-state partial per unit of work and still report a
    /// single summary), and `SkewStats::merge` agrees field for field.
    #[test]
    fn merged_partials_equal_componentwise_snapshot_folds(
        seed in any::<u64>(),
        runs in 2usize..5,
        pulses in 1usize..4,
    ) {
        let g = LayeredGraph::new(BaseGraph::cycle(5), 3);
        let monitors: Vec<StreamingSkew> = (0..runs as u64)
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
                let mut s = StreamingSkew::new(&g);
                run_dataflow_observed(&g, &env, &layer0, &MaxPlus, &CorrectSends, pulses, &mut s);
                s.finish();
                s
            })
            .collect();
        let mut merged = monitors[0].clone();
        for m in &monitors[1..] {
            merged.merge(m);
        }
        let snaps: Vec<_> = monitors.iter().map(|m| m.snapshot()).collect();
        let fold_max = |f: fn(&trix_obs::SkewStats) -> f64| {
            snaps.iter().map(f).fold(0.0f64, f64::max)
        };
        let out = merged.snapshot();
        prop_assert_eq!(out.max_intra, fold_max(|s| s.max_intra));
        prop_assert_eq!(out.max_inter, fold_max(|s| s.max_inter));
        prop_assert_eq!(out.max_global, fold_max(|s| s.max_global));
        prop_assert_eq!(out.pulses, snaps.iter().map(|s| s.pulses).sum::<u64>());
        let mass: Vec<u64> = out.hist_intra.clone();
        let mut expected_mass = vec![0u64; mass.len()];
        for s in &snaps {
            for (acc, b) in expected_mass.iter_mut().zip(&s.hist_intra) {
                *acc += b;
            }
        }
        prop_assert_eq!(mass, expected_mass);
        // Snapshot-level merge (`SkewStats::merge`) agrees on the exact
        // fields and stays within float-merge tolerance on the mean.
        let mut stats = snaps[0].clone();
        for s in &snaps[1..] {
            stats.merge(s);
        }
        prop_assert_eq!(stats.max_intra, out.max_intra);
        prop_assert_eq!(stats.max_full, out.max_full);
        prop_assert_eq!(stats.pulses, out.pulses);
        prop_assert_eq!(stats.hist_intra, out.hist_intra);
        prop_assert!((stats.mean_intra - out.mean_intra).abs() <= 1e-9);
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
        let mut s = StreamingSkew::with_histogram(&g, 0.25, 8);
        run_dataflow_observed(&g, &env, &layer0, &MaxPlus, &CorrectSends, pulses, &mut s);
        s.finish();
        let mass: u64 = s.intra().histogram().bins().iter().sum();
        prop_assert_eq!(mass, s.intra().count());
        prop_assert_eq!(s.pulses(), pulses as u64);
    }

    /// Column-range merge soundness on random topologies: a whole-stream
    /// sketch and the merge of two column-range partials of the *same*
    /// run each stay within their own certified bound against the
    /// ground-truth front matrix, so their rank-`r` reconstructions
    /// agree within the *summed* certificates (triangle inequality
    /// through the shared ground truth).
    #[test]
    fn merged_column_sketches_stay_certified_on_random_topologies(
        seed in any::<u64>(),
        width in 4usize..10,
        layers in 2usize..6,
        pulses in 1usize..5,
        cycle in any::<bool>(),
        fault in any::<bool>(),
        rank in 1usize..5,
        split_num in 1usize..8,
    ) {
        let base = if cycle {
            BaseGraph::cycle(width)
        } else {
            BaseGraph::line_with_replicated_ends(width)
        };
        let g = LayeredGraph::new(base, layers);
        let w = g.width();
        let split = 1 + split_num * (w - 2) / 8; // interior split point
        let mut rng = Rng::seed_from(seed);
        let env = StaticEnvironment::random(
            &g,
            Duration::from(10.0),
            Duration::from(2.0),
            1.05,
            &mut rng,
        );
        let offsets = (0..w).map(|_| rng.f64_in(0.0, 3.0)).collect();
        let layer0 = OffsetLayer0::new(25.0, offsets);
        let bad = g.node(rng.usize_below(w), 1 + rng.usize_below(g.layer_count() - 1));

        // One run, four observers: ground truth, the whole-stream
        // sketch, and the two column-range partials.
        let mut obs = (
            PulseTrace::new(&g, pulses),
            (
                PodSketch::new(&g, rank),
                (
                    PodSketch::for_columns(&g, rank, 0..split),
                    PodSketch::for_columns(&g, rank, split..w),
                ),
            ),
        );
        if fault {
            run_dataflow_observed(&g, &env, &layer0, &MaxPlus, &Silence(bad), pulses, &mut obs);
        } else {
            run_dataflow_observed(&g, &env, &layer0, &MaxPlus, &CorrectSends, pulses, &mut obs);
        }
        let (trace, (mut whole, (mut left, right))) = obs;
        let mut right = right;
        whole.finish();
        left.finish();
        right.finish();
        left.merge(&right);
        let merged = left;

        let rows = front_rows(&g, &trace, pulses);
        let whole_snap = whole.snapshot();
        let merged_snap = merged.snapshot();
        prop_assert_eq!(merged_snap.cols, w);
        // Merged `rows` is in general only a lower bound on the combined
        // range's fronts (see `PodSketch::merge`); equality holds here
        // because at most one node is silenced per run, so at least one
        // partial sees every front the whole stream sees.
        prop_assert_eq!(merged_snap.rows, whole_snap.rows);
        let whole_measured = measured_error(&whole_snap, &rows);
        let merged_measured = measured_error(&merged_snap, &rows);
        prop_assert!(
            whole_measured <= whole_snap.error_bound,
            "whole: measured {} > certified {}", whole_measured, whole_snap.error_bound
        );
        prop_assert!(
            merged_measured <= merged_snap.error_bound,
            "merged: measured {} > certified {}", merged_measured, merged_snap.error_bound
        );
        // The two reconstructions `A·U·Uᵀ` agree within the summed
        // certificates: ‖Â_w − Â_m‖_F ≤ ‖Â_w − A‖_F + ‖A − Â_m‖_F.
        let project = |snap: &PodSnapshot, row: &[f64]| -> Vec<f64> {
            let cols = &row[snap.col_start..snap.col_start + snap.cols];
            let coeffs = snap.coefficients(cols);
            let mut out = vec![0.0; snap.cols];
            for (j, &c) in coeffs.iter().enumerate() {
                for (o, &uv) in out.iter_mut().zip(snap.mode(j)) {
                    *o += c * uv;
                }
            }
            out
        };
        let mut diff2 = 0.0;
        for row in &rows {
            let a = project(&whole_snap, row);
            let b = project(&merged_snap, row);
            diff2 += a
                .iter()
                .zip(&b)
                .map(|(x, y)| (x - y) * (x - y))
                .sum::<f64>();
        }
        let tol = whole_snap.error_bound + merged_snap.error_bound + 1e-9;
        prop_assert!(
            diff2.sqrt() <= tol,
            "reconstructions diverge: {} > {}", diff2.sqrt(), tol
        );
    }

    /// Row-hook/element-hook equivalence for every shipped observer:
    /// driving the dataflow into the native observers (whole rows via
    /// `on_pulse_row`, fanned out by the tuple forwarding impl) yields
    /// states bit-identical to the same run behind [`PerElement`]
    /// (default unpacking into `on_pulse`). Pins that the row fast
    /// paths in `PulseTrace`/`StreamingSkew`/`PodSketch` — and any added
    /// later — are pure restatements of the element stream, including
    /// silent (all-`None`) and partially-silent rows under faults.
    #[test]
    fn row_hook_equals_element_hook_for_every_observer(
        seed in any::<u64>(),
        width in 3usize..10,
        layers in 2usize..6,
        pulses in 1usize..4,
        cycle in any::<bool>(),
        fault in any::<bool>(),
        rank in 1usize..5,
    ) {
        let base = if cycle {
            BaseGraph::cycle(width)
        } else {
            BaseGraph::line_with_replicated_ends(width)
        };
        let g = LayeredGraph::new(base, layers);
        let mut rng = Rng::seed_from(seed);
        let env = StaticEnvironment::random(
            &g,
            Duration::from(10.0),
            Duration::from(2.0),
            1.05,
            &mut rng,
        );
        let offsets: Vec<f64> = (0..g.width()).map(|_| rng.f64_in(0.0, 3.0)).collect();
        let layer0 = OffsetLayer0::new(25.0, offsets);
        let bad = g.node(rng.usize_below(g.width()), 1 + rng.usize_below(g.layer_count() - 1));

        let observers = || {
            (
                (PulseTrace::new(&g, pulses), StreamingSkew::new(&g)),
                (
                    PodSketch::new(&g, rank),
                    // DesSkew is broadcast-fed: the dataflow row stream
                    // must leave it untouched on BOTH paths (its
                    // `on_pulse` is the default no-op).
                    (TraceRing::new(16), DesSkew::for_grid(&g, 1, Duration::from(10.0))),
                ),
            )
        };
        let drive = |mut obs: &mut dyn Observer| {
            if fault {
                run_dataflow_observed(&g, &env, &layer0, &MaxPlus, &Silence(bad), pulses, &mut obs);
            } else {
                run_dataflow_observed(&g, &env, &layer0, &MaxPlus, &CorrectSends, pulses, &mut obs);
            }
        };

        let mut row = observers();
        drive(&mut row);
        let mut elem = PerElement(observers());
        drive(&mut elem);

        let ((trace_r, mut skew_r), (mut pod_r, (ring_r, des_r))) = row;
        let PerElement(((trace_e, mut skew_e), (mut pod_e, (ring_e, des_e)))) = elem;
        for n in g.nodes() {
            prop_assert_eq!(trace_r.is_faulty(n), trace_e.is_faulty(n));
            for k in 0..pulses {
                prop_assert_eq!(trace_r.time(k, n), trace_e.time(k, n), "k {} node {:?}", k, n);
            }
        }
        skew_r.finish();
        skew_e.finish();
        pod_r.finish();
        pod_e.finish();

        prop_assert_eq!(skew_r.snapshot(), skew_e.snapshot());
        let snap_r = pod_r.snapshot();
        let snap_e = pod_e.snapshot();
        prop_assert_eq!(snap_r.rows, snap_e.rows);
        prop_assert_eq!(
            snap_r.singular_values.iter().map(|s| s.to_bits()).collect::<Vec<u64>>(),
            snap_e.singular_values.iter().map(|s| s.to_bits()).collect::<Vec<u64>>()
        );
        prop_assert_eq!(
            snap_r.basis.iter().map(|b| b.to_bits()).collect::<Vec<u64>>(),
            snap_e.basis.iter().map(|b| b.to_bits()).collect::<Vec<u64>>()
        );
        prop_assert_eq!(snap_r.error_bound.to_bits(), snap_e.error_bound.to_bits());
        prop_assert_eq!(ring_r.total_recorded(), ring_e.total_recorded());
        prop_assert_eq!(ring_r.recent(16), ring_e.recent(16));
        prop_assert_eq!(des_r.max_intra(), des_e.max_intra());
        prop_assert_eq!(des_r.intra().count(), des_e.intra().count());
        prop_assert_eq!(des_r.intra().count(), 0);
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
