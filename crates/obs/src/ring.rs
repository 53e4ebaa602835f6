//! A memory-bounded ring buffer of recent pulse events.
//!
//! When a condition oracle fires deep into a long run, the full trace
//! that would explain it is exactly what a streaming run refuses to
//! keep. [`TraceRing`] is the compromise: a fixed-capacity ring of the
//! last `N` pulse events in a compact 16-byte encoding (the same
//! small-`Copy`-entry discipline as the DES engine's `EventQueue`
//! entries), so post-mortems of oracle violations cost `O(N)` memory no
//! matter how long the execution ran.

use trix_sim::Observer;
use trix_time::Time;
use trix_topology::NodeId;

/// One recorded pulse event: 16 bytes (`f64` time + packed node + pulse
/// index).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TraceEvent {
    /// Real time of the emission.
    pub time: Time,
    /// Node encoding — grid positions from the dataflow stream pack as
    /// `layer << 16 | v` (see [`TraceEvent::grid_node`]); events from the
    /// event-driven stream carry the raw engine index.
    pub node: u32,
    /// Pulse index: the dataflow iteration `k`, or (for engine
    /// broadcasts) the per-node broadcast count.
    pub pulse: u32,
}

impl TraceEvent {
    /// Decodes the packed grid position of a dataflow-recorded event.
    pub fn grid_node(&self) -> NodeId {
        NodeId::new(self.node & 0xFFFF, self.node >> 16)
    }
}

/// A bounded ring of the last `capacity` pulse events, fed by either
/// engine's observer stream.
#[derive(Clone, Debug)]
pub struct TraceRing {
    buf: Vec<TraceEvent>,
    capacity: usize,
    /// Index of the oldest entry once the ring has wrapped.
    head: usize,
    total: u64,
    /// Per-engine-node broadcast counters (grown on demand; only used by
    /// the event-driven stream).
    counts: Vec<u32>,
}

impl TraceRing {
    /// Creates a ring holding the last `capacity` events.
    ///
    /// `capacity == 0` is legal and means "retain nothing": every event
    /// is still counted by [`TraceRing::total_recorded`] (and the
    /// per-node broadcast counters still advance), but `len()` stays 0 —
    /// a run can disable post-mortem retention without changing any
    /// other observer bookkeeping.
    pub fn new(capacity: usize) -> Self {
        Self {
            buf: Vec::with_capacity(capacity.min(1 << 16)),
            capacity,
            head: 0,
            total: 0,
            counts: Vec::new(),
        }
    }

    fn push(&mut self, event: TraceEvent) {
        self.total += 1;
        if self.capacity == 0 {
            return;
        }
        if self.buf.len() < self.capacity {
            self.buf.push(event);
        } else {
            // Full ring: overwrite the oldest entry. When exactly
            // `capacity` events have been recorded the buffer is full
            // with `head == 0`, so the next push overwrites index 0 —
            // the ring always holds the most recent `capacity` events.
            self.buf[self.head] = event;
            self.head = (self.head + 1) % self.capacity;
        }
    }

    /// Number of retained events (≤ capacity).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The ring's capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total events ever pushed (including overwritten ones).
    pub fn total_recorded(&self) -> u64 {
        self.total
    }

    /// Retained events, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &TraceEvent> {
        self.buf[self.head..]
            .iter()
            .chain(self.buf[..self.head].iter())
    }

    /// The `n` most recent events, oldest of them first.
    pub fn recent(&self, n: usize) -> Vec<TraceEvent> {
        let keep = n.min(self.buf.len());
        self.iter().skip(self.buf.len() - keep).copied().collect()
    }

    /// Formats the `n` most recent events for a post-mortem message
    /// (e.g. appended to a condition-oracle violation).
    pub fn dump(&self, n: usize) -> String {
        use std::fmt::Write as _;
        let recent = self.recent(n);
        let mut out = format!(
            "last {} of {} pulse events:",
            recent.len(),
            self.total_recorded()
        );
        for e in recent {
            let _ = write!(out, " [t={} node={:#x} k={}]", e.time, e.node, e.pulse);
        }
        out
    }
}

impl Observer for TraceRing {
    fn on_pulse(&mut self, k: usize, node: NodeId, t: Time) {
        debug_assert!(
            node.v < 1 << 16 && node.layer < 1 << 16,
            "grid position does not fit the packed encoding"
        );
        self.push(TraceEvent {
            time: t,
            node: (node.layer << 16) | node.v,
            pulse: k as u32,
        });
    }

    fn on_broadcast(&mut self, node: usize, t: Time) {
        if node >= self.counts.len() {
            self.counts.resize(node + 1, 0);
        }
        let pulse = self.counts[node];
        self.counts[node] += 1;
        self.push(TraceEvent {
            time: t,
            node: node as u32,
            pulse,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entries_are_compact() {
        assert_eq!(std::mem::size_of::<TraceEvent>(), 16);
    }

    #[test]
    fn ring_keeps_the_last_n_in_order() {
        let mut r = TraceRing::new(3);
        for i in 0..5u32 {
            r.on_broadcast(0, Time::from(i as f64));
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.total_recorded(), 5);
        let pulses: Vec<u32> = r.iter().map(|e| e.pulse).collect();
        assert_eq!(pulses, vec![2, 3, 4]);
        let last_two = r.recent(2);
        assert_eq!(last_two.len(), 2);
        assert_eq!(last_two[1].time, Time::from(4.0));
    }

    #[test]
    fn zero_capacity_counts_without_retaining() {
        let mut r = TraceRing::new(0);
        r.on_broadcast(1, Time::from(0.0));
        r.on_broadcast(1, Time::from(1.0));
        r.on_pulse(0, NodeId::new(2, 1), Time::from(2.0));
        assert_eq!(r.len(), 0);
        assert!(r.is_empty());
        assert_eq!(r.capacity(), 0);
        assert_eq!(r.total_recorded(), 3);
        assert_eq!(r.iter().count(), 0);
        assert!(r.recent(5).is_empty());
        assert!(r.dump(5).starts_with("last 0 of 3"));
        // Broadcast counters still advance while retaining nothing.
        r.on_broadcast(1, Time::from(3.0));
        assert_eq!(r.counts[1], 3);
    }

    #[test]
    fn exact_capacity_then_one_more_wraps_to_the_oldest() {
        let mut r = TraceRing::new(3);
        for i in 0..3u32 {
            r.on_broadcast(0, Time::from(i as f64));
        }
        // Exactly at capacity: nothing overwritten yet, order preserved.
        assert_eq!(r.len(), 3);
        assert_eq!(r.total_recorded(), 3);
        let pulses: Vec<u32> = r.iter().map(|e| e.pulse).collect();
        assert_eq!(pulses, vec![0, 1, 2]);
        // One more: the oldest entry (pulse 0) is overwritten.
        r.on_broadcast(0, Time::from(3.0));
        assert_eq!(r.len(), 3);
        let pulses: Vec<u32> = r.iter().map(|e| e.pulse).collect();
        assert_eq!(pulses, vec![1, 2, 3]);
    }

    #[test]
    fn grid_node_round_trips_through_packing() {
        let mut r = TraceRing::new(4);
        let n = NodeId::new(513, 7);
        r.on_pulse(2, n, Time::from(1.5));
        let e = r.recent(1)[0];
        assert_eq!(e.grid_node(), n);
        assert_eq!(e.pulse, 2);
    }

    #[test]
    fn broadcast_pulse_counters_are_per_node() {
        let mut r = TraceRing::new(8);
        r.on_broadcast(1, Time::from(0.0));
        r.on_broadcast(2, Time::from(1.0));
        r.on_broadcast(1, Time::from(2.0));
        let pulses: Vec<(u32, u32)> = r.iter().map(|e| (e.node, e.pulse)).collect();
        assert_eq!(pulses, vec![(1, 0), (2, 0), (1, 1)]);
    }

    #[test]
    fn dump_mentions_totals() {
        let mut r = TraceRing::new(2);
        for i in 0..4u32 {
            r.on_broadcast(i as usize, Time::from(i as f64));
        }
        let d = r.dump(2);
        assert!(d.starts_with("last 2 of 4"), "{d}");
    }
}
