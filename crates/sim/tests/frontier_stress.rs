//! Stress and panic-containment tests for the barrier-free frontier
//! scheduler.
//!
//! The property tests in `tests/prop.rs` pin bit-identity on a few
//! hundred small random cases; this suite hammers the scheduler where
//! races would actually surface:
//!
//! * **oversubscription** — far more workers than CPUs (up to 16
//!   workers, against the 2–4 vCPUs of a typical CI runner), so workers
//!   constantly preempt each other mid-publication and every condvar
//!   path gets exercised;
//! * **degenerate widths** — width 1, width 2, primes, and
//!   `workers > width`, where chunk plans collapse to single columns
//!   and every in-edge crosses a chunk boundary;
//! * **panic containment** — a worker or layer-0 source dying at a
//!   random point must propagate the payload without deadlocking the
//!   remaining workers or the flusher.
//!
//! Iteration count is environment-tunable: set `FRONTIER_STRESS_ITERS`
//! to raise it (CI runs a short pass; default keeps the suite fast).

use trix_sim::{
    run_dataflow_observed, run_dataflow_parallel, CorrectSends, Layer0Source, Observer,
    OffsetLayer0, PulseRule, Rng, SendModel, SequenceEnvironment, StaticEnvironment,
};
use trix_time::{AffineClock, Duration, Time};
use trix_topology::{BaseGraph, LayeredGraph, NodeId};

/// Fires at `max(arrivals) + rate` (mirrors `tests/prop.rs`).
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

/// A rule that panics when a specific node pulses at a specific
/// iteration, and otherwise behaves like [`MaxPlus`].
struct ExplodeAt {
    node: NodeId,
    k: usize,
}

impl PulseRule for ExplodeAt {
    fn pulse_time(
        &self,
        node: NodeId,
        k: usize,
        own: Option<Time>,
        neighbors: &[Option<Time>],
        clock: &AffineClock,
    ) -> Option<Time> {
        if node == self.node && k == self.k {
            panic!("stress rule exploded at {node:?} pulse {k}");
        }
        MaxPlus.pulse_time(node, k, own, neighbors, clock)
    }
}

/// Records the full observer event stream, `f64` bits and all.
#[derive(Default, PartialEq, Debug)]
struct EventLog {
    faulty: Vec<NodeId>,
    pulses: Vec<(usize, NodeId, u64)>,
}

impl Observer for EventLog {
    fn on_faulty(&mut self, node: NodeId) {
        self.faulty.push(node);
    }
    fn on_pulse(&mut self, k: usize, node: NodeId, t: Time) {
        self.pulses.push((k, node, t.as_f64().to_bits()));
    }
}

/// Silences one node (and flags it faulty).
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

fn stress_iters(default: usize) -> usize {
    std::env::var("FRONTIER_STRESS_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Runs one random scenario serially and through the frontier engine at
/// the given worker count, asserting byte-identical event streams.
fn assert_identical(width: usize, layers: usize, pulses: usize, workers: usize, seed: u64) {
    // Exact-width bases, including the single-column degenerate case
    // (`cycle` needs ≥ 3 nodes, `path` needs ≥ 2).
    let base = match width {
        1 => BaseGraph::from_edges(1, &[]),
        2 => BaseGraph::path(2),
        _ if seed.is_multiple_of(2) => BaseGraph::cycle(width),
        _ => BaseGraph::path(width),
    };
    let g = LayeredGraph::new(base, layers);
    let mut rng = Rng::seed_from(seed);
    let d = Duration::from(10.0);
    let u = Duration::from(2.0);
    let env_a = StaticEnvironment::random(&g, d, u, 1.05, &mut rng);
    let env_b = StaticEnvironment::random(&g, d, u, 1.05, &mut rng);
    let env = SequenceEnvironment::new(vec![env_a, env_b]);
    let offsets = (0..g.width()).map(|_| rng.f64_in(0.0, 3.0)).collect();
    let layer0 = OffsetLayer0::new(25.0, offsets);
    let faulty = if layers > 1 && seed.is_multiple_of(3) {
        Some(g.node(
            rng.usize_below(g.width()),
            1 + rng.usize_below(g.layer_count() - 1),
        ))
    } else {
        None
    };

    fn compare(
        g: &LayeredGraph,
        env: &SequenceEnvironment,
        layer0: &OffsetLayer0,
        sends: &(impl SendModel + Sync),
        pulses: usize,
        workers: usize,
    ) {
        let mut serial = EventLog::default();
        run_dataflow_observed(g, env, layer0, &MaxPlus, sends, pulses, &mut serial);
        let mut frontier = EventLog::default();
        run_dataflow_parallel(
            g,
            env,
            layer0,
            &MaxPlus,
            sends,
            pulses,
            workers,
            &mut frontier,
        );
        assert_eq!(serial, frontier, "frontier diverged from serial");
    }
    match faulty {
        Some(bad) => compare(&g, &env, &layer0, &Silence(bad), pulses, workers),
        None => compare(&g, &env, &layer0, &CorrectSends, pulses, workers),
    }
}

/// Repeated random small grids at worker counts far above the core
/// count: oversubscription forces preemption inside every wait loop.
#[test]
fn oversubscribed_random_grids_stay_bit_identical() {
    let iters = stress_iters(12);
    let mut rng = Rng::seed_from(0xF0_57E5);
    for i in 0..iters {
        let width = 1 + rng.usize_below(13);
        let layers = 2 + rng.usize_below(5);
        let pulses = 1 + rng.usize_below(4);
        for &workers in &[4usize, 8, 16] {
            assert_identical(width, layers, pulses, workers, 0x5EED ^ i as u64);
        }
    }
}

/// Degenerate widths: single-column grids, two columns, primes, and
/// more workers than columns — the chunk plans here are all boundary.
#[test]
fn degenerate_widths_stay_bit_identical() {
    let iters = stress_iters(4);
    for i in 0..iters {
        for &width in &[1usize, 2, 3, 5, 7, 11, 13] {
            for &workers in &[2usize, width, width + 3, 16] {
                assert_identical(width, 4, 3, workers, 0xD0_0D ^ (i * 31 + width) as u64);
            }
        }
    }
}

/// A worker panicking mid-run (node in the middle of the grid, at the
/// last pulse) propagates the payload instead of deadlocking the
/// barrier-free protocol — even heavily oversubscribed.
#[test]
fn late_worker_panic_is_contained_under_oversubscription() {
    let g = LayeredGraph::new(BaseGraph::line_with_replicated_ends(9), 5);
    let env = StaticEnvironment::random(
        &g,
        Duration::from(10.0),
        Duration::from(2.0),
        1.05,
        &mut Rng::seed_from(41),
    );
    let layer0 = OffsetLayer0::synchronized(25.0, g.width());
    let pulses = 3;
    let rule = ExplodeAt {
        node: g.node(4, 3),
        k: pulses - 1,
    };
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let mut log = EventLog::default();
        run_dataflow_parallel(
            &g,
            &env,
            &layer0,
            &rule,
            &CorrectSends,
            pulses,
            16,
            &mut log,
        );
    }));
    let payload = result.expect_err("the frontier engine must propagate the worker panic");
    let message = payload
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_default();
    assert!(
        message.contains("stress rule exploded"),
        "unexpected panic payload: {message:?}"
    );
}

/// A panic in the layer-0 source (workers compute their own layer-0
/// slice, so this fires inside a worker's sourcing path, not the
/// flusher) is contained the same way.
#[test]
fn layer_zero_source_panic_is_contained() {
    /// Panics the first time column `col` is sourced at iteration `k`.
    struct ExplodingSource {
        inner: OffsetLayer0,
        col: usize,
        k: usize,
    }
    impl Layer0Source for ExplodingSource {
        fn pulse_time(&self, k: usize, v: usize) -> Time {
            if v == self.col && k == self.k {
                panic!("layer-0 source exploded at column {v} pulse {k}");
            }
            self.inner.pulse_time(k, v)
        }
    }
    let g = LayeredGraph::new(BaseGraph::line_with_replicated_ends(7), 4);
    let env = StaticEnvironment::random(
        &g,
        Duration::from(10.0),
        Duration::from(2.0),
        1.05,
        &mut Rng::seed_from(43),
    );
    let layer0 = ExplodingSource {
        inner: OffsetLayer0::synchronized(25.0, g.width()),
        col: 2,
        k: 1,
    };
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let mut log = EventLog::default();
        run_dataflow_parallel(&g, &env, &layer0, &MaxPlus, &CorrectSends, 2, 8, &mut log);
    }));
    assert!(
        result.is_err(),
        "a layer-0 source panic must reach the caller"
    );
}
