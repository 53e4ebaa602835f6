//! Exact layer-by-layer ("dataflow") execution of pulse-forwarding
//! algorithms.
//!
//! The synchronization graph `G` is a DAG and — after initialization — each
//! correct node's `k`-th pulse depends only on the `k`-th pulses of its
//! predecessors (paper Lemma B.1). With affine hardware clocks every
//! per-iteration decision has a closed form, so steady-state executions can
//! be evaluated layer by layer with **no discretization error** and no event
//! queue. This is the workhorse for the skew experiments; the event-driven
//! engine in [`crate::des`] covers self-stabilization and other transient
//! scenarios that the dataflow model cannot express.
//!
//! Faulty nodes are modeled by a [`SendModel`]: after the executor computes
//! a node's *nominal* pulse time (what a correct node would do), the send
//! model may replace, shift, or suppress the message actually delivered on
//! each out-edge. Within this model a faulty node sends at most one message
//! per iteration per edge; richer behaviors (babbling, spurious state) are
//! exercised through the event-driven engine.

use crate::{Environment, Observer};
use trix_time::{AffineClock, Time};
use trix_topology::{EdgeId, LayeredGraph, NodeId};

/// A per-node pulse-forwarding decision rule.
///
/// Implementations receive the *arrival* times (real time, at this node) of
/// the predecessor messages for iteration `k` — `own` from `(v, ℓ−1)`,
/// `neighbors[i]` from the `i`-th sorted base-graph neighbor — plus the
/// node's hardware clock, and return the real time at which the node
/// broadcasts its own pulse. `None` arrivals model messages that never came
/// (faulty predecessor); a `None` return means the node cannot fire (e.g.
/// rule starved of inputs).
pub trait PulseRule {
    /// Computes the broadcast time of `node` in iteration `k`.
    fn pulse_time(
        &self,
        node: NodeId,
        k: usize,
        own: Option<Time>,
        neighbors: &[Option<Time>],
        clock: &AffineClock,
    ) -> Option<Time>;
}

/// Transforms nominal pulse times into per-edge send times, modeling faults.
pub trait SendModel {
    /// The time at which `node`'s iteration-`k` message is sent toward
    /// `target`, given the nominal broadcast time; `None` = no message.
    fn send_time(
        &self,
        node: NodeId,
        k: usize,
        nominal: Option<Time>,
        target: NodeId,
    ) -> Option<Time>;

    /// Whether `node` is faulty (excluded from skew metrics).
    fn is_faulty(&self, node: NodeId) -> bool;

    /// Whether `node` is a *member* of the network at iteration `k` —
    /// the open-world churn hook. Non-members are not evaluated at all:
    /// every engine publishes `None` in their row slot, so departed
    /// nodes stop emitting (observers see a masked slot, successors see
    /// a missing predecessor) and arrivals splice back in the moment
    /// this returns `true` again. The gate runs inside the shared
    /// `eval_layer_chunk` plus each driver's layer-0 derivation, so
    /// membership epochs are bit-identical across the serial and
    /// frontier drivers for every thread count.
    ///
    /// The default — everyone is always a member — preserves the exact
    /// closed-world semantics (and fingerprints) of every pre-churn
    /// send model.
    #[inline]
    fn is_member(&self, node: NodeId, k: usize) -> bool {
        let _ = (node, k);
        true
    }
}

/// The fault-free send model: every node broadcasts its nominal pulse.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CorrectSends;

impl SendModel for CorrectSends {
    #[inline]
    fn send_time(
        &self,
        _node: NodeId,
        _k: usize,
        nominal: Option<Time>,
        _target: NodeId,
    ) -> Option<Time> {
        nominal
    }

    #[inline]
    fn is_faulty(&self, _node: NodeId) -> bool {
        false
    }
}

/// Produces the pulse times of layer 0.
///
/// Layer 0 is driven by the clock source through the line-forwarding scheme
/// of Appendix A; `trix-core` provides a faithful implementation. Pulse
/// indices here are *diagonal-reindexed* (see ARCHITECTURE.md,
/// "Algorithm-text ambiguities and the diagonal re-indexing"): iteration
/// `k` of every layer-0 node is the pulse it contributes to iteration `k`
/// of layer 1.
pub trait Layer0Source {
    /// Pulse time of layer-0 node `v` in iteration `k`.
    fn pulse_time(&self, k: usize, v: usize) -> Time;
}

/// A trivial layer-0 source: node `v` pulses at `k·period + offset[v]`.
#[derive(Clone, Debug)]
pub struct OffsetLayer0 {
    period: f64,
    offsets: Vec<f64>,
}

impl OffsetLayer0 {
    /// Creates the source from a period and per-node offsets.
    pub fn new(period: f64, offsets: Vec<f64>) -> Self {
        assert!(period > 0.0, "period must be positive");
        Self { period, offsets }
    }

    /// Perfectly synchronized layer 0 (all offsets zero).
    pub fn synchronized(period: f64, width: usize) -> Self {
        Self::new(period, vec![0.0; width])
    }
}

impl Layer0Source for OffsetLayer0 {
    #[inline]
    fn pulse_time(&self, k: usize, v: usize) -> Time {
        Time::from(k as f64 * self.period + self.offsets[v])
    }
}

/// The recorded pulse times of a dataflow (or event-driven) execution.
///
/// `time(k, node)` is the *nominal* broadcast time of `node` in iteration
/// `k` — for faulty nodes this is what a correct node in their place would
/// have done; their actual (overridden) sends are only visible through their
/// effect on successors. Metrics must exclude faulty nodes via
/// [`PulseTrace::is_faulty`].
#[derive(Clone, Debug)]
pub struct PulseTrace {
    width: usize,
    layer_count: usize,
    pulses: usize,
    times: Vec<Option<Time>>,
    faulty: Vec<bool>,
}

impl PulseTrace {
    /// Creates an empty trace for `pulses` iterations of `g`.
    pub fn new(g: &LayeredGraph, pulses: usize) -> Self {
        Self {
            width: g.width(),
            layer_count: g.layer_count(),
            pulses,
            times: vec![None; pulses * g.node_count()],
            faulty: vec![false; g.node_count()],
        }
    }

    /// Number of recorded iterations.
    #[inline]
    pub fn pulses(&self) -> usize {
        self.pulses
    }

    /// Nodes per layer.
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of layers.
    #[inline]
    pub fn layer_count(&self) -> usize {
        self.layer_count
    }

    #[inline]
    fn node_index(&self, node: NodeId) -> usize {
        node.layer as usize * self.width + node.v as usize
    }

    /// The recorded time of `node` in iteration `k`, if it fired.
    #[inline]
    pub fn time(&self, k: usize, node: NodeId) -> Option<Time> {
        self.times[k * self.width * self.layer_count + self.node_index(node)]
    }

    /// Records a pulse time.
    #[inline]
    pub fn set_time(&mut self, k: usize, node: NodeId, t: Option<Time>) {
        let idx = k * self.width * self.layer_count + self.node_index(node);
        self.times[idx] = t;
    }

    /// Marks a node as faulty.
    pub fn set_faulty(&mut self, node: NodeId) {
        let idx = self.node_index(node);
        self.faulty[idx] = true;
    }

    /// Whether `node` is faulty.
    #[inline]
    pub fn is_faulty(&self, node: NodeId) -> bool {
        self.faulty[self.node_index(node)]
    }

    /// Iteration `k`'s row of `layer`: `row[v]` is the recorded time of
    /// node `(v, layer)`, `None` where it did not fire. Faulty nodes keep
    /// their nominal times; mask them with [`PulseTrace::faulty_row`].
    pub fn row(&self, k: usize, layer: usize) -> &[Option<Time>] {
        let start = (k * self.layer_count + layer) * self.width;
        &self.times[start..start + self.width]
    }

    /// Whether each node `(v, layer)` of `layer` is faulty, indexed by `v`.
    pub fn faulty_row(&self, layer: usize) -> &[bool] {
        &self.faulty[layer * self.width..(layer + 1) * self.width]
    }

    /// Iterates over the correct nodes of one layer with their iteration-`k`
    /// pulse times.
    pub fn layer_times(&self, k: usize, layer: usize) -> impl Iterator<Item = (usize, Time)> + '_ {
        (0..self.width).filter_map(move |v| {
            let node = NodeId::new(v as u32, layer as u32);
            if self.is_faulty(node) {
                return None;
            }
            self.time(k, node).map(|t| (v, t))
        })
    }
}

/// A [`PulseTrace`] is itself an [`Observer`]: it records every emission.
/// [`run_dataflow`] is exactly the streaming driver observed by a trace,
/// so the trace-backed and trace-free paths cannot drift.
impl Observer for PulseTrace {
    fn on_faulty(&mut self, node: NodeId) {
        self.set_faulty(node);
    }

    /// Whole published rows land as one contiguous copy, misfires
    /// included; each `(k, layer)` row is emitted exactly once.
    fn on_pulse_row(&mut self, k: usize, layer: u32, row: &[Option<Time>]) {
        let base = k * self.width * self.layer_count + layer as usize * self.width;
        self.times[base..base + row.len()].copy_from_slice(row);
    }
}

/// Runs a pulse-forwarding rule on the layered graph for `pulses`
/// iterations and returns the recorded trace.
///
/// # Examples
///
/// A rule that fires a fixed offset after its own predecessor reproduces a
/// pure pipeline:
///
/// ```
/// use trix_sim::{run_dataflow, CorrectSends, OffsetLayer0, PulseRule, StaticEnvironment};
/// use trix_time::{AffineClock, Duration, Time};
/// use trix_topology::{BaseGraph, LayeredGraph, NodeId};
///
/// struct FixedLag;
/// impl PulseRule for FixedLag {
///     fn pulse_time(
///         &self,
///         _n: NodeId,
///         _k: usize,
///         own: Option<Time>,
///         _nb: &[Option<Time>],
///         _c: &AffineClock,
///     ) -> Option<Time> {
///         own.map(|t| t + Duration::from(1.0))
///     }
/// }
///
/// let g = LayeredGraph::new(BaseGraph::cycle(4), 3);
/// let env = StaticEnvironment::nominal(&g, Duration::from(10.0));
/// let layer0 = OffsetLayer0::synchronized(20.0, g.width());
/// let trace = run_dataflow(&g, &env, &layer0, &FixedLag, &CorrectSends, 2);
/// assert_eq!(trace.time(0, g.node(0, 2)), Some(Time::from(22.0)));
/// ```
pub fn run_dataflow(
    g: &LayeredGraph,
    env: &impl Environment,
    layer0: &impl Layer0Source,
    rule: &impl PulseRule,
    sends: &impl SendModel,
    pulses: usize,
) -> PulseTrace {
    let mut trace = PulseTrace::new(g, pulses);
    run_dataflow_observed(g, env, layer0, rule, sends, pulses, &mut trace);
    trace
}

/// Runs a pulse-forwarding rule and streams every emission to `obs`
/// **without materializing a trace**.
///
/// This is the execution engine behind [`run_dataflow`] (which observes
/// with a [`PulseTrace`]); called with a streaming observer it needs only
/// two rows of `O(width)` working state — iteration `k` of layer `ℓ`
/// depends only on iteration `k` of layer `ℓ − 1` (paper Lemma B.1) — so
/// peak memory is independent of both the pulse count and the layer
/// count. Each published row is emitted whole through
/// [`Observer::on_pulse_row`], one call per `(k, layer)` step in
/// deterministic `(k, layer)` order, every row included; faulty
/// positions are announced first.
pub fn run_dataflow_observed(
    g: &LayeredGraph,
    env: &impl Environment,
    layer0: &impl Layer0Source,
    rule: &impl PulseRule,
    sends: &impl SendModel,
    pulses: usize,
    obs: &mut impl Observer,
) {
    for n in g.nodes() {
        if sends.is_faulty(n) {
            obs.on_faulty(n);
        }
    }
    // Nominal pulse times of the layer currently feeding (`prev`, layer
    // ℓ−1) and the layer being computed (`cur`, layer ℓ), iteration `k`.
    let mut prev: Vec<Option<Time>> = vec![None; g.width()];
    let mut cur: Vec<Option<Time>> = vec![None; g.width()];
    let mut scratch: Vec<Option<Time>> = Vec::with_capacity(g.base().max_degree());
    for k in 0..pulses {
        for (v, slot) in prev.iter_mut().enumerate() {
            *slot = sends
                .is_member(NodeId::new(v as u32, 0), k)
                .then(|| layer0.pulse_time(k, v));
        }
        obs.on_pulse_row(k, 0, &prev);
        for layer in 1..g.layer_count() {
            eval_layer_chunk(
                g,
                env,
                rule,
                sends,
                k,
                layer,
                0,
                &prev,
                &mut cur,
                &mut scratch,
            );
            crate::metrics::bump(g.width() as u64);
            obs.on_pulse_row(k, layer as u32, &cur);
            std::mem::swap(&mut prev, &mut cur);
        }
    }
}

/// Evaluates the pulse rule for the contiguous column chunk
/// `lo .. lo + out.len()` of one layer, writing nominal times into `out`
/// (`out[i]` = column `lo + i`).
///
/// This is the shared inner loop of the serial and parallel drivers: a
/// pure function of `prev` (the full layer-`ℓ−1` row) per column, so any
/// partition into chunks computes bit-identical times. Column `w`'s
/// predecessors are its base-graph row and its edges the block at
/// [`LayeredGraph::in_edge_block`]; `scratch` is the caller's reusable
/// neighbor-arrival buffer (no per-node allocation).
#[allow(clippy::too_many_arguments)]
pub(crate) fn eval_layer_chunk(
    g: &LayeredGraph,
    env: &impl Environment,
    rule: &impl PulseRule,
    sends: &impl SendModel,
    k: usize,
    layer: usize,
    lo: usize,
    prev: &[Option<Time>],
    out: &mut [Option<Time>],
    scratch: &mut Vec<Option<Time>>,
) {
    let boundary_base = (layer - 1) * g.edges_per_boundary();
    let sender_layer = (layer - 1) as u32;
    for (i, slot) in out.iter_mut().enumerate() {
        let w = lo + i;
        let target = NodeId::new(w as u32, layer as u32);
        // Open-world gate: a departed node is not evaluated at all — its
        // published slot is `None`, which silences its sends next layer
        // and masks it from observers, identically in every driver.
        if !sends.is_member(target, k) {
            *slot = None;
            continue;
        }
        let block = boundary_base + g.in_edge_block(w);
        let own = sends
            .send_time(NodeId::new(w as u32, sender_layer), k, prev[w], target)
            .map(|t| t + env.delay(k, EdgeId(block)));
        scratch.clear();
        for (i, &x) in g.base().neighbors(w).iter().enumerate() {
            let sender = NodeId::new(x as u32, sender_layer);
            let arrival = sends
                .send_time(sender, k, prev[x], target)
                .map(|t| t + env.delay(k, EdgeId(block + 1 + i)));
            scratch.push(arrival);
        }
        *slot = rule.pulse_time(target, k, own, scratch, &env.clock(k, target));
    }
}

/// Resolves a thread-count knob: `0` means one worker per available CPU
/// (matching `trix_bench::suite::SweepRunner`'s convention), resolved
/// through the process-wide [`crate::detected_parallelism`] cache — a
/// detection failure falls back to [`crate::FALLBACK_WORKERS`] and is
/// visible in the cached record instead of silently degrading per call.
fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        crate::frontier::detected_parallelism().workers
    } else {
        threads
    }
}

/// [`run_dataflow_observed`] with the width dimension sharded across
/// `threads` OS workers — **bit-identical output for every thread
/// count**.
///
/// Iteration `k` of layer `ℓ` depends only on iteration `k` of layer
/// `ℓ − 1` (paper Lemma B.1), and each node's nominal time is a pure
/// function of that previous row — so the width dimension of a layer is
/// embarrassingly parallel, and the only real dependencies are the
/// `O(1)` boundary columns each chunk reads from its neighbors. The
/// engine behind this driver is the barrier-free frontier scheduler
/// (`crates/sim/src/frontier.rs`): persistent `std::thread::scope`
/// workers own
/// fixed contiguous column chunks, publish per-chunk rows through
/// versioned slots, and advance as soon as the chunks covering their
/// in-edge boundary have published the previous `(pulse, layer)` step —
/// stragglers block only their downstream neighbors, and chunks
/// pipeline across layers and pulses with no global synchronization.
/// The calling thread trails the workers as a dedicated flusher: it
/// alone talks to the observer and the metrics counter, in the serial
/// driver's `(k, layer, v)` order, so `trix_sim::metrics::total()` and
/// the emission stream match a serial run exactly; the serial driver is
/// the differential-testing oracle for this one.
///
/// `threads == 0` means one *compute* worker per available CPU,
/// resolved once per process through [`crate::detected_parallelism`].
/// Auto-sizing composes with the scenario sweep level through
/// `trix_bench::suite::resolve_thread_split`, which divides detected CPUs
/// between the two knobs — use it rather than passing `0` to both
/// levels independently. With one worker (or a single-layer graph, or
/// zero pulses) this delegates to the serial driver outright.
///
/// # Panics
///
/// A panic anywhere in `rule`/`env`/`sends`/`layer0` — on any worker —
/// aborts the run and re-raises the original payload on the calling
/// thread, exactly like the serial driver. There are no barriers to
/// poison: every blocking wait in the frontier protocol loops over an
/// abort flag, so the shutdown needs no synchronized re-check points.
#[allow(clippy::too_many_arguments)] // the serial driver's signature + the thread knob
pub fn run_dataflow_parallel(
    g: &LayeredGraph,
    env: &(impl Environment + Sync),
    layer0: &(impl Layer0Source + Sync),
    rule: &(impl PulseRule + Sync),
    sends: &(impl SendModel + Sync),
    pulses: usize,
    threads: usize,
    obs: &mut impl Observer,
) {
    let workers = resolve_threads(threads).min(g.width());
    if workers <= 1 || g.layer_count() <= 1 || pulses == 0 {
        run_dataflow_observed(g, env, layer0, rule, sends, pulses, obs);
        return;
    }
    for n in g.nodes() {
        if sends.is_faulty(n) {
            obs.on_faulty(n);
        }
    }
    crate::frontier::run_frontier(g, env, layer0, rule, sends, pulses, workers, obs);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StaticEnvironment;
    use std::cell::RefCell;
    use trix_time::Duration;
    use trix_topology::{families, BaseGraph};

    /// Fires at max(arrivals) + 1.
    struct MaxPlusOne;

    impl PulseRule for MaxPlusOne {
        fn pulse_time(
            &self,
            _node: NodeId,
            _k: usize,
            own: Option<Time>,
            neighbors: &[Option<Time>],
            _clock: &AffineClock,
        ) -> Option<Time> {
            let mut best: Option<Time> = own;
            for &n in neighbors {
                best = match (best, n) {
                    (Some(a), Some(b)) => Some(a.max(b)),
                    (a, b) => a.or(b),
                };
            }
            best.map(|t| t + Duration::from(1.0))
        }
    }

    fn setup() -> (LayeredGraph, StaticEnvironment, OffsetLayer0) {
        let g = LayeredGraph::new(BaseGraph::cycle(5), 4);
        let env = StaticEnvironment::nominal(&g, Duration::from(10.0));
        let layer0 = OffsetLayer0::synchronized(50.0, g.width());
        (g, env, layer0)
    }

    #[test]
    fn synchronized_inputs_propagate_in_lockstep() {
        let (g, env, layer0) = setup();
        let trace = run_dataflow(&g, &env, &layer0, &MaxPlusOne, &CorrectSends, 3);
        for k in 0..3 {
            for layer in 0..4 {
                let times: Vec<Time> = trace.layer_times(k, layer).map(|(_, t)| t).collect();
                assert_eq!(times.len(), 5);
                assert!(times.windows(2).all(|w| w[0] == w[1]));
            }
            // Each layer adds delay 10 + processing 1.
            let t0 = trace.time(k, g.node(0, 0)).unwrap();
            let t3 = trace.time(k, g.node(0, 3)).unwrap();
            assert_eq!(t3 - t0, Duration::from(33.0));
        }
    }

    /// A send model that silences one node.
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

    #[test]
    fn silenced_node_still_has_nominal_time_but_is_flagged() {
        let (g, env, layer0) = setup();
        let bad = g.node(2, 1);
        let trace = run_dataflow(&g, &env, &layer0, &MaxPlusOne, &Silence(bad), 1);
        assert!(trace.is_faulty(bad));
        assert!(trace.time(0, bad).is_some(), "nominal time still recorded");
        // Successors still fire from their remaining predecessors.
        for v in 0..g.width() {
            assert!(trace.time(0, g.node(v, 2)).is_some());
        }
        // layer_times skips the faulty node.
        assert_eq!(trace.layer_times(0, 1).count(), 4);
    }

    /// Pins the `trix_sim::metrics` contract for this engine: the
    /// **total** equals one event per pulse-rule evaluation — `pulses ×
    /// (layers − 1) × width` for a full run (layer 0 is driven by the
    /// source, not the rule). The counter is batched (one bump per layer
    /// chunk, on the calling thread) so only totals are contractual, not
    /// bump granularity — which is what keeps parallel runs' event counts
    /// identical to serial ones.
    #[test]
    fn dataflow_metrics_total_one_event_per_rule_evaluation() {
        let (g, env, layer0) = setup();
        let pulses = 3;
        let expected = (pulses * (g.layer_count() - 1) * g.width()) as u64;
        crate::metrics::reset();
        run_dataflow(&g, &env, &layer0, &MaxPlusOne, &CorrectSends, pulses);
        assert_eq!(crate::metrics::total(), expected);
        // The parallel driver books the same totals on the calling
        // thread, for any worker count.
        for threads in [2, 3, 8] {
            crate::metrics::reset();
            run_dataflow_parallel(
                &g,
                &env,
                &layer0,
                &MaxPlusOne,
                &CorrectSends,
                pulses,
                threads,
                &mut crate::NullObserver,
            );
            assert_eq!(crate::metrics::total(), expected, "threads = {threads}");
        }
    }

    /// The streaming driver and the trace-backed run see identical
    /// emissions: replaying the observer stream reconstructs the trace.
    #[test]
    fn observed_run_matches_trace_backed_run() {
        struct Collect {
            faulty: Vec<NodeId>,
            pulses: Vec<(usize, NodeId, Time)>,
        }
        impl crate::Observer for Collect {
            fn on_faulty(&mut self, node: NodeId) {
                self.faulty.push(node);
            }
            fn on_pulse(&mut self, k: usize, node: NodeId, t: Time) {
                self.pulses.push((k, node, t));
            }
        }
        let (g, env, layer0) = setup();
        let bad = g.node(2, 1);
        let trace = run_dataflow(&g, &env, &layer0, &MaxPlusOne, &Silence(bad), 2);
        let mut seen = Collect {
            faulty: Vec::new(),
            pulses: Vec::new(),
        };
        run_dataflow_observed(&g, &env, &layer0, &MaxPlusOne, &Silence(bad), 2, &mut seen);
        assert_eq!(seen.faulty, vec![bad]);
        // Bit-identical times, and every recorded trace entry is covered.
        let mut recorded = 0;
        for &(k, node, t) in &seen.pulses {
            assert_eq!(trace.time(k, node), Some(t));
            recorded += 1;
        }
        let in_trace = (0..2)
            .flat_map(|k| g.nodes().map(move |n| (k, n)))
            .filter(|&(k, n)| trace.time(k, n).is_some())
            .count();
        assert_eq!(recorded, in_trace);
    }

    /// One observer event stream, three drivers: the trace-backed run,
    /// the streaming serial run, and the sharded run must be
    /// indistinguishable — same events, same order, same bits.
    #[test]
    fn parallel_run_replays_the_serial_event_stream() {
        #[derive(Default, PartialEq, Debug)]
        struct Collect {
            events: Vec<(usize, NodeId, Time)>,
            faulty: Vec<NodeId>,
        }
        impl crate::Observer for Collect {
            fn on_faulty(&mut self, node: NodeId) {
                self.faulty.push(node);
            }
            fn on_pulse(&mut self, k: usize, node: NodeId, t: Time) {
                self.events.push((k, node, t));
            }
        }
        let (g, env, layer0) = setup();
        let bad = g.node(1, 2);
        let mut serial = Collect::default();
        run_dataflow_observed(
            &g,
            &env,
            &layer0,
            &MaxPlusOne,
            &Silence(bad),
            3,
            &mut serial,
        );
        for threads in [2, 4, 5, 16] {
            let mut sharded = Collect::default();
            run_dataflow_parallel(
                &g,
                &env,
                &layer0,
                &MaxPlusOne,
                &Silence(bad),
                3,
                threads,
                &mut sharded,
            );
            assert_eq!(serial, sharded, "threads = {threads}");
        }
    }

    /// A panic inside a worker's rule evaluation must re-raise on the
    /// calling thread (as the serial engine would), not deadlock the
    /// frontier protocol — this pins the abort-flag shutdown path.
    #[test]
    #[should_panic(expected = "rule exploded")]
    fn worker_panic_propagates_instead_of_deadlocking() {
        struct Explode;
        impl PulseRule for Explode {
            fn pulse_time(
                &self,
                node: NodeId,
                _k: usize,
                own: Option<Time>,
                _neighbors: &[Option<Time>],
                _clock: &AffineClock,
            ) -> Option<Time> {
                // Panic on a node that lands in a *spawned* worker's
                // chunk (chunk 1 of 3 on width 5), mid-run.
                if node.v == 3 && node.layer == 2 {
                    panic!("rule exploded");
                }
                own
            }
        }
        let (g, env, layer0) = setup();
        run_dataflow_parallel(
            &g,
            &env,
            &layer0,
            &Explode,
            &CorrectSends,
            3,
            3,
            &mut crate::NullObserver,
        );
    }

    /// A static environment that records every delay and clock query.
    struct Recording<'a> {
        inner: &'a StaticEnvironment,
        delays: RefCell<Vec<(usize, EdgeId)>>,
        clocks: RefCell<Vec<(usize, NodeId)>>,
    }

    impl Environment for Recording<'_> {
        fn delay(&self, k: usize, e: EdgeId) -> Duration {
            self.delays.borrow_mut().push((k, e));
            self.inner.delay(k, e)
        }

        fn clock(&self, k: usize, node: NodeId) -> AffineClock {
            self.clocks.borrow_mut().push((k, node));
            self.inner.clock(k, node)
        }
    }

    /// The serial driver reads each target's in-edges in `predecessors`
    /// order, own edge first, and asks for the target's own clock: on the
    /// paper's line and on a supernode overlay, whose hubs (degree 8) and
    /// leaves (degree 2) give blocks of mixed sizes.
    #[test]
    fn driver_queries_each_targets_predecessor_edges_in_order() {
        for base in [
            BaseGraph::line_with_replicated_ends(6),
            families::supernode_overlay(4, 3).into_graph(),
        ] {
            let g = LayeredGraph::new(base, 4);
            let inner = StaticEnvironment::nominal(&g, Duration::from(10.0));
            let env = Recording {
                inner: &inner,
                delays: RefCell::default(),
                clocks: RefCell::default(),
            };
            let layer0 = OffsetLayer0::synchronized(50.0, g.width());
            let mut obs = crate::NullObserver;
            run_dataflow_observed(&g, &env, &layer0, &MaxPlusOne, &CorrectSends, 2, &mut obs);
            let targets: Vec<(usize, NodeId)> = (0..2)
                .flat_map(|k| g.nodes().filter(|n| n.layer > 0).map(move |n| (k, n)))
                .collect();
            let edges: Vec<(usize, EdgeId)> = targets
                .iter()
                .flat_map(|&(k, n)| g.predecessors(n).map(move |(_, e)| (k, e)))
                .collect();
            assert_eq!(env.delays.into_inner(), edges);
            assert_eq!(env.clocks.into_inner(), targets);
        }
    }

    #[test]
    fn staggered_layer0_offsets_shift_downstream() {
        let g = LayeredGraph::new(BaseGraph::cycle(4), 2);
        let env = StaticEnvironment::nominal(&g, Duration::from(10.0));
        let layer0 = OffsetLayer0::new(50.0, vec![0.0, 1.0, 2.0, 3.0]);
        let trace = run_dataflow(&g, &env, &layer0, &MaxPlusOne, &CorrectSends, 1);
        // Node (0,1) sees preds {0,1,3} with offsets {0,1,3}: max 3.
        assert_eq!(trace.time(0, g.node(0, 1)), Some(Time::from(14.0)));
    }
}
