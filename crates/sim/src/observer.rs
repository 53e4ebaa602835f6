//! Streaming observation hooks for both simulation engines.
//!
//! Every experiment used to materialize a full [`crate::PulseTrace`] (one
//! timestamp per node per pulse) and analyze it post-hoc, so memory grew
//! `O(nodes × pulses)`. The [`Observer`] trait inverts that: the engines
//! push each pulse emission to the observer as it happens, and observers
//! decide what to retain — a full trace, `O(nodes)` streaming statistics,
//! or a bounded ring of recent events. [`crate::PulseTrace`] is the
//! full-trace observer; the `trix-obs` crate provides the streaming ones
//! (`StreamingSkew`, `TraceRing`, `PodSketch`). This module only defines
//! the hook surface, which must live next to the engines to keep the
//! crate DAG acyclic (`trix-obs` depends on `trix-sim`).
//!
//! Both engines report here:
//!
//! * the dataflow executors ([`crate::run_dataflow_observed`] and
//!   [`crate::run_dataflow_parallel`]) call [`Observer::on_pulse_row`]
//!   with each whole published layer row, one call per `(k, layer)` step
//!   in deterministic serial order, after announcing faulty positions via
//!   [`Observer::on_faulty`]. Rows are the unit because of Lemma B.1:
//!   pulse `k` of layer `ℓ` is a function of layer `ℓ−1`'s row alone, so
//!   a row is complete the moment it is published. No engine calls
//!   [`Observer::on_pulse`]; it is reached only through the default
//!   `on_pulse_row`, which unpacks a row into per-element calls in
//!   ascending `v` order for observers that record single events;
//! * the event-driven engine ([`crate::Des::run_observed`]) calls
//!   [`Observer::on_broadcast`] with the engine node index and real time
//!   of every broadcast, in event order.
//!
//! All hooks default to no-ops so implementations only override the
//! events they care about, and a no-op observer compiles away from the
//! engine hot loops.

use trix_time::Time;
use trix_topology::NodeId;

/// A streaming consumer of simulation pulse emissions.
///
/// Implementations must be deterministic functions of the event sequence:
/// the bit-reproducibility of the sweep runner extends to everything an
/// observer computes.
pub trait Observer {
    /// A grid position is faulty (dataflow executor; called once per
    /// faulty node before any pulse of the run is emitted). Skew
    /// observers exclude these nodes, mirroring
    /// [`crate::PulseTrace::is_faulty`].
    fn on_faulty(&mut self, node: NodeId) {
        let _ = node;
    }

    /// `node` emitted its iteration-`k` pulse at real time `t`. The time
    /// is the *nominal* broadcast time, exactly what
    /// [`crate::PulseTrace::time`] would record; rule misfires (`None`)
    /// are not reported. Only the default [`Observer::on_pulse_row`]
    /// calls this; observers that override the row hook leave it at
    /// this no-op.
    fn on_pulse(&mut self, k: usize, node: NodeId, t: Time) {
        let _ = (k, node, t);
    }

    /// One whole published layer row: `row[v]` is the nominal time of
    /// node `(v, layer)` in iteration `k`, `None` where the rule
    /// misfired. Both dataflow drivers emit through this hook, one call
    /// per `(k, layer)` step, in the serial step order.
    ///
    /// The default forwards each `Some` entry to [`Observer::on_pulse`]
    /// in ascending `v` order, for observers that record single events
    /// (e.g. `trix-obs`'s `TraceRing`). Observers that store or fold
    /// whole fronts (the [`crate::PulseTrace`] recorder, `trix-obs`'s
    /// `StreamingSkew`, `PodSketch` and `FaultClassSkew`) override it and
    /// take only rows.
    fn on_pulse_row(&mut self, k: usize, layer: u32, row: &[Option<Time>]) {
        for (v, slot) in row.iter().enumerate() {
            if let Some(t) = *slot {
                self.on_pulse(k, NodeId::new(v as u32, layer), t);
            }
        }
    }

    /// Engine node `node` broadcast at real time `t` (event-driven
    /// engine). Node indices are raw engine ids; adapters such as
    /// `trix-obs`'s grid monitors translate them to grid positions.
    fn on_broadcast(&mut self, node: usize, t: Time) {
        let _ = (node, t);
    }
}

/// The do-nothing observer: both engines' unobserved entry points run
/// through it, so the observed drivers are the single source of truth for
/// the execution semantics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NullObserver;

impl Observer for NullObserver {}

impl<O: Observer + ?Sized> Observer for &mut O {
    fn on_faulty(&mut self, node: NodeId) {
        (**self).on_faulty(node);
    }

    fn on_pulse(&mut self, k: usize, node: NodeId, t: Time) {
        (**self).on_pulse(k, node, t);
    }

    fn on_pulse_row(&mut self, k: usize, layer: u32, row: &[Option<Time>]) {
        (**self).on_pulse_row(k, layer, row);
    }

    fn on_broadcast(&mut self, node: usize, t: Time) {
        (**self).on_broadcast(node, t);
    }
}

/// Fan-out composition: `(a, b)` forwards every event to `a` then `b`
/// (e.g. a `StreamingSkew` monitor plus a `TraceRing` for post-mortems).
impl<A: Observer, B: Observer> Observer for (A, B) {
    fn on_faulty(&mut self, node: NodeId) {
        self.0.on_faulty(node);
        self.1.on_faulty(node);
    }

    fn on_pulse(&mut self, k: usize, node: NodeId, t: Time) {
        self.0.on_pulse(k, node, t);
        self.1.on_pulse(k, node, t);
    }

    fn on_pulse_row(&mut self, k: usize, layer: u32, row: &[Option<Time>]) {
        self.0.on_pulse_row(k, layer, row);
        self.1.on_pulse_row(k, layer, row);
    }

    fn on_broadcast(&mut self, node: usize, t: Time) {
        self.0.on_broadcast(node, t);
        self.1.on_broadcast(node, t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Default)]
    struct Counter {
        faulty: usize,
        pulses: usize,
        broadcasts: usize,
    }

    impl Observer for Counter {
        fn on_faulty(&mut self, _node: NodeId) {
            self.faulty += 1;
        }
        fn on_pulse(&mut self, _k: usize, _node: NodeId, _t: Time) {
            self.pulses += 1;
        }
        fn on_broadcast(&mut self, _node: usize, _t: Time) {
            self.broadcasts += 1;
        }
    }

    #[test]
    fn tuple_observer_fans_out() {
        let mut pair = (Counter::default(), Counter::default());
        pair.on_faulty(NodeId::new(0, 0));
        pair.on_pulse(0, NodeId::new(1, 0), Time::from(1.0));
        pair.on_broadcast(3, Time::from(2.0));
        for c in [&pair.0, &pair.1] {
            assert_eq!((c.faulty, c.pulses, c.broadcasts), (1, 1, 1));
        }
    }

    /// The default row hook unpacks `Some` entries into per-element
    /// `on_pulse` calls, in ascending `v` order, skipping misfires.
    #[test]
    fn default_row_hook_forwards_elements_in_order() {
        #[derive(Default)]
        struct Events(Vec<(usize, NodeId, Time)>);
        impl Observer for Events {
            fn on_pulse(&mut self, k: usize, node: NodeId, t: Time) {
                self.0.push((k, node, t));
            }
        }
        let mut e = Events::default();
        let row = [Some(Time::from(1.0)), None, Some(Time::from(3.0))];
        e.on_pulse_row(2, 5, &row);
        assert_eq!(
            e.0,
            vec![
                (2, NodeId::new(0, 5), Time::from(1.0)),
                (2, NodeId::new(2, 5), Time::from(3.0)),
            ]
        );
        // Forwarding impls carry the row hook through.
        let mut pair = (Events::default(), Events::default());
        pair.on_pulse_row(0, 1, &row);
        assert_eq!(pair.0 .0.len(), 2);
        assert_eq!(pair.1 .0.len(), 2);
        let mut single = Events::default();
        {
            let r: &mut Events = &mut single;
            Observer::on_pulse_row(&mut { r }, 0, 0, &row);
        }
        assert_eq!(single.0.len(), 2);
    }

    #[test]
    fn mut_ref_observer_delegates() {
        let mut c = Counter::default();
        {
            let mut r: &mut Counter = &mut c;
            r.on_pulse(0, NodeId::new(0, 0), Time::ZERO);
            Observer::on_broadcast(&mut r, 0, Time::ZERO);
        }
        assert_eq!((c.pulses, c.broadcasts), (1, 1));
    }
}
