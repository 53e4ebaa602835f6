//! In-memory spans around the benchmark's calls into each layer, and an
//! observer wrapper that times observer hooks from outside the observer.
//!
//! A span records a name, its parent span and its duration. Spans stay
//! in memory until the run ends. Observer hook time cannot be
//! bracketed by one span (the engine calls the hooks from inside its
//! loop), so [`Timed`] accumulates it and [`Tracer::record`] files the
//! total as one child span of the engine span that drove it. A span's
//! self time is its duration minus that of its children.

use std::collections::BTreeMap;
use std::time::Instant;
use trix_sim::Observer;
use trix_time::Time;
use trix_topology::NodeId;

/// One finished span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified name, e.g. `sim.engine`.
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Wall seconds the span covers.
    pub secs: f64,
    /// Calls the span stands for (1, or the hook calls it aggregates).
    pub calls: u64,
    /// Elements passed to the aggregated hooks (0 for plain spans).
    pub elems: u64,
}

/// Span recorder. A disabled tracer runs the wrapped calls and records
/// nothing.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// Creates a tracer; `on = false` makes every method a pass-through.
    pub fn new(on: bool) -> Self {
        Self {
            on,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Runs `f` inside a span named `name`, nested in the open span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            secs: 0.0,
            calls: 1,
            elems: 0,
        });
        self.open.push(idx);
        let t0 = Instant::now();
        let out = f(self);
        self.spans[idx].secs = t0.elapsed().as_secs_f64();
        self.open.pop();
        out
    }

    /// Files an observer's accumulated hook time as a child of the open
    /// span.
    pub fn record(&mut self, name: &'static str, hooks: &HookStats) {
        if self.on {
            self.spans.push(Span {
                name,
                parent: self.open.last().copied(),
                secs: hooks.secs,
                calls: hooks.calls,
                elems: hooks.elems,
            });
        }
    }

    /// Per-name totals: `(calls, elems, seconds, self seconds)`.
    pub fn summary(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut child_secs = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_secs[p] += s.secs;
            }
        }
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_secs) {
            let t = out.entry(s.name).or_default();
            t.calls += s.calls;
            t.elems += s.elems;
            t.secs += s.secs;
            t.self_secs += s.secs - children;
        }
        out
    }
}

/// Totals of all spans sharing one name.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SpanTotals {
    /// Calls summed over the spans.
    pub calls: u64,
    /// Elements summed over the spans.
    pub elems: u64,
    /// Seconds summed over the spans.
    pub secs: f64,
    /// Self seconds (duration minus children) summed over the spans.
    pub self_secs: f64,
}

/// Time, calls and elements accumulated inside observer hooks.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct HookStats {
    /// Seconds spent inside the hooks.
    pub secs: f64,
    /// Hook calls.
    pub calls: u64,
    /// Row elements (or single pulses) handed to the hooks.
    pub elems: u64,
}

/// Observer wrapper that times every hook it forwards.
///
/// All four hooks are forwarded as themselves — in particular
/// `on_pulse_row` stays a row call — so an observer's native row path
/// is what runs and what gets timed. Disabled, it forwards without
/// reading the clock.
#[derive(Clone, Debug)]
pub struct Timed<O> {
    inner: O,
    on: bool,
    /// What the hooks have cost so far.
    pub stats: HookStats,
}

impl<O: Observer> Timed<O> {
    /// Wraps `inner`; `on = false` forwards without timing.
    pub fn new(inner: O, on: bool) -> Self {
        Self {
            inner,
            on,
            stats: HookStats::default(),
        }
    }

    /// The wrapped observer.
    pub fn into_inner(self) -> O {
        self.inner
    }

    #[inline]
    fn timed(&mut self, elems: u64, f: impl FnOnce(&mut O)) {
        if !self.on {
            f(&mut self.inner);
            return;
        }
        let t0 = Instant::now();
        f(&mut self.inner);
        self.stats.secs += t0.elapsed().as_secs_f64();
        self.stats.calls += 1;
        self.stats.elems += elems;
    }
}

impl<O: Observer> Observer for Timed<O> {
    fn on_faulty(&mut self, node: NodeId) {
        self.timed(0, |o| o.on_faulty(node));
    }

    fn on_pulse(&mut self, k: usize, node: NodeId, t: Time) {
        self.timed(1, |o| o.on_pulse(k, node, t));
    }

    fn on_pulse_row(&mut self, k: usize, layer: u32, row: &[Option<Time>]) {
        self.timed(row.len() as u64, |o| o.on_pulse_row(k, layer, row));
    }

    fn on_broadcast(&mut self, node: usize, t: Time) {
        self.timed(1, |o| o.on_broadcast(node, t));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        t.span("outer", |t| {
            t.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            t.record(
                "hook",
                &HookStats {
                    secs: 0.001,
                    calls: 3,
                    elems: 30,
                },
            );
        });
        let s = t.summary();
        let (outer, inner) = (s["outer"], s["inner"]);
        assert!((outer.self_secs - (outer.secs - inner.secs - 0.001)).abs() < 1e-12);
        assert_eq!((s["hook"].calls, s["hook"].elems), (3, 30));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", |_| 7), 7);
        t.record("y", &HookStats::default());
        assert!(t.summary().is_empty());
    }
}
