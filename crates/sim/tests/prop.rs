//! Property tests for the simulation substrate.

use proptest::prelude::*;
use trix_sim::{
    run_dataflow_observed, run_dataflow_parallel, CorrectSends, Des, Environment, Link, Node,
    NodeApi, Observer, OffsetLayer0, PulseRule, Rng, SendModel, SequenceEnvironment,
    StaticEnvironment,
};
use trix_time::{AffineClock, Duration, Time};
use trix_topology::{BaseGraph, EdgeId, LayeredGraph, NodeId};

/// Fires at `max(arrivals) + 1`, scaled a little by the clock rate so
/// environments influence the times (mirrors `crates/obs/tests/prop.rs`).
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

proptest! {
    /// RNG: fork streams are stable, uniform samples are in range.
    #[test]
    fn rng_fork_and_range(seed in any::<u64>(), stream in any::<u64>(), lo in -100.0f64..0.0, span in 0.001f64..100.0) {
        let root = Rng::seed_from(seed);
        let mut a = root.fork(stream);
        let mut b = root.fork(stream);
        prop_assert_eq!(a.next_u64(), b.next_u64());
        let x = a.f64_in(lo, lo + span);
        prop_assert!(x >= lo && x < lo + span);
        let i = a.usize_below(17);
        prop_assert!(i < 17);
    }

    /// Random environments always respect the model windows.
    #[test]
    fn environments_within_model(seed in any::<u64>(), width in 2usize..12, layers in 2usize..6) {
        use trix_sim::Environment;
        let g = LayeredGraph::new(BaseGraph::line_with_replicated_ends(width), layers);
        let d = Duration::from(100.0);
        let u = Duration::from(7.0);
        let theta = 1.002;
        let env = StaticEnvironment::random(&g, d, u, theta, &mut Rng::seed_from(seed));
        for e in 0..g.edge_count() {
            let delay = env.delay(0, EdgeId(e));
            prop_assert!(delay >= d - u && delay <= d);
        }
        for n in g.nodes() {
            prop_assert!(env.clock(0, n).within_drift_bound(theta));
        }
    }

    /// DES timer conversion: a node asking for a wake-up `dh` of local
    /// time in the future gets it `dh / rate` of real time later.
    #[test]
    fn des_timer_respects_clock_rate(rate in 1.0f64..2.0, dh in 0.1f64..100.0) {
        struct OneTimer {
            dh: Duration,
        }
        impl Node for OneTimer {
            fn on_start(&mut self, api: &mut NodeApi<'_>) {
                api.set_timer_local(api.local_now() + self.dh, 0);
            }
            fn on_pulse(&mut self, _from: usize, _api: &mut NodeApi<'_>) {}
            fn on_timer(&mut self, _tag: u64, api: &mut NodeApi<'_>) {
                api.broadcast();
            }
        }
        let mut des = Des::new(vec![AffineClock::with_rate(rate).into()]);
        let mut nodes: Vec<Box<dyn Node>> =
            vec![Box::new(OneTimer { dh: Duration::from(dh) })];
        des.run(&mut nodes, Time::from(1e9));
        prop_assert_eq!(des.broadcasts().len(), 1);
        let fired = des.broadcasts()[0].time.as_f64();
        prop_assert!((fired - dh / rate).abs() < 1e-9);
    }

    /// The parallel dataflow engine's determinism contract: for random
    /// topologies, environments (static and per-pulse), send models, and
    /// 1–4 workers, the frontier engine behind `run_dataflow_parallel`
    /// replays the serial driver's observer stream **bit for bit** — same
    /// events, same `(k, layer, v)` order, same `f64` bit patterns — and
    /// books the same simulated-event totals.
    #[test]
    fn parallel_dataflow_is_bit_identical_to_serial(
        seed in any::<u64>(),
        width in 3usize..12,
        layers in 2usize..6,
        pulses in 1usize..5,
        threads in 1usize..5,
        cycle in any::<bool>(),
        fault in any::<bool>(),
        per_pulse in any::<bool>(),
    ) {
        let base = if cycle {
            BaseGraph::cycle(width)
        } else {
            BaseGraph::line_with_replicated_ends(width)
        };
        let g = LayeredGraph::new(base, layers);
        let mut rng = Rng::seed_from(seed);
        let d = Duration::from(10.0);
        let u = Duration::from(2.0);
        let static_env = StaticEnvironment::random(&g, d, u, 1.05, &mut rng);
        // `per_pulse` swaps in a pulse-varying environment, exercising
        // the engine path without the pulse-invariant clock cache.
        let seq_env = SequenceEnvironment::new(vec![
            static_env.clone(),
            StaticEnvironment::random(&g, d, u, 1.05, &mut rng),
        ]);
        let offsets = (0..g.width()).map(|_| rng.f64_in(0.0, 3.0)).collect();
        let layer0 = OffsetLayer0::new(25.0, offsets);
        let bad = g.node(rng.usize_below(g.width()), 1 + rng.usize_below(g.layer_count() - 1));

        fn compare(
            g: &LayeredGraph,
            env: &(impl Environment + Sync),
            layer0: &OffsetLayer0,
            sends: &(impl SendModel + Sync),
            pulses: usize,
            threads: usize,
        ) -> Result<(), TestCaseError> {
            let mut serial = EventLog::default();
            trix_sim::metrics::reset();
            run_dataflow_observed(g, env, layer0, &MaxPlus, sends, pulses, &mut serial);
            let serial_events = trix_sim::metrics::total();
            let mut frontier = EventLog::default();
            trix_sim::metrics::reset();
            run_dataflow_parallel(g, env, layer0, &MaxPlus, sends, pulses, threads, &mut frontier);
            prop_assert_eq!(&serial, &frontier);
            prop_assert_eq!(serial_events, trix_sim::metrics::total());
            Ok(())
        }
        match (per_pulse, fault) {
            (false, false) => compare(&g, &static_env, &layer0, &CorrectSends, pulses, threads)?,
            (false, true) => compare(&g, &static_env, &layer0, &Silence(bad), pulses, threads)?,
            (true, false) => compare(&g, &seq_env, &layer0, &CorrectSends, pulses, threads)?,
            (true, true) => compare(&g, &seq_env, &layer0, &Silence(bad), pulses, threads)?,
        }
    }

    /// The same bit-identity on non-grid family graphs: tori and two-tier
    /// supernode overlays flow through the serial and frontier drivers
    /// with byte-identical observer streams — the chunking is cut from
    /// the graph's own width, never assumed square.
    #[test]
    fn family_graphs_are_bit_identical_across_engines(
        seed in any::<u64>(),
        rows in 3usize..6,
        cols in 3usize..6,
        supernodes in 3usize..6,
        leaves in 1usize..4,
        layers in 2usize..6,
        pulses in 1usize..4,
        threads in 2usize..5,
        fault in any::<bool>(),
    ) {
        use trix_topology::families;
        for base in [
            families::torus(rows, cols).into_graph(),
            families::supernode_overlay(supernodes, leaves).into_graph(),
        ] {
            let g = LayeredGraph::new(base, layers);
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
            let bad = g.node(
                rng.usize_below(g.width()),
                1 + rng.usize_below(g.layer_count() - 1),
            );
            let silence = Silence(if fault { bad } else { g.node(0, 0) });
            // Layer-0 nodes are never silenced by construction here when
            // `fault` is off (Silence only bites on layers >= 1 sends
            // when the node matches; (0,0) only affects its own sends).
            let mut serial = EventLog::default();
            trix_sim::metrics::reset();
            run_dataflow_observed(&g, &env, &layer0, &MaxPlus, &silence, pulses, &mut serial);
            let serial_events = trix_sim::metrics::total();
            let mut frontier = EventLog::default();
            trix_sim::metrics::reset();
            run_dataflow_parallel(
                &g, &env, &layer0, &MaxPlus, &silence, pulses, threads, &mut frontier,
            );
            prop_assert_eq!(trix_sim::metrics::total(), serial_events);
            prop_assert_eq!(&serial, &frontier);
        }
    }

    /// DES delivery: messages arrive exactly delay later, in order.
    #[test]
    fn des_delivery_order(d1 in 1.0f64..50.0, d2 in 1.0f64..50.0) {
        struct Sender;
        impl Node for Sender {
            fn on_start(&mut self, api: &mut NodeApi<'_>) {
                if api.id() == 0 {
                    api.broadcast();
                }
            }
            fn on_pulse(&mut self, _from: usize, _api: &mut NodeApi<'_>) {}
            fn on_timer(&mut self, _tag: u64, _api: &mut NodeApi<'_>) {}
        }
        #[derive(Default)]
        struct Recorder(Vec<(usize, f64)>);
        impl Node for Recorder {
            fn on_start(&mut self, _api: &mut NodeApi<'_>) {}
            fn on_pulse(&mut self, from: usize, api: &mut NodeApi<'_>) {
                self.0.push((from, api.now().as_f64()));
            }
            fn on_timer(&mut self, _tag: u64, _api: &mut NodeApi<'_>) {}
        }
        let mut des = Des::new(vec![
            AffineClock::PERFECT.into(),
            AffineClock::PERFECT.into(),
            AffineClock::PERFECT.into(),
        ]);
        des.add_link(0, Link { to: 1, delay: Duration::from(d1) });
        des.add_link(0, Link { to: 2, delay: Duration::from(d2) });
        let mut nodes: Vec<Box<dyn Node>> = vec![
            Box::new(Sender),
            Box::new(Recorder::default()),
            Box::new(Recorder::default()),
        ];
        des.run(&mut nodes, Time::from(1e6));
        prop_assert_eq!(des.events_processed(), 2);
    }
}
