//! A deterministic discrete-event simulation (DES) engine.
//!
//! The dataflow executor ([`crate::run_dataflow`]) covers steady-state
//! executions; this engine covers everything it cannot: arbitrary initial
//! states (self-stabilization, Theorem 1.6), spurious in-flight messages,
//! babbling faulty nodes, and protocols with intra-layer communication
//! (HEX). Nodes are state machines implementing [`Node`]; the engine owns
//! the hardware clocks and the link topology, delivers pulse messages after
//! per-link delays, and fires timers that nodes request in *local* time.
//!
//! Determinism: events are ordered by `(time, sequence-number)`, where the
//! sequence number is assigned at scheduling time, so executions are
//! bit-reproducible.
//!
//! The event loop is allocation-lean in steady state: pending events are
//! compact 32-byte entries in a deterministic binary-heap queue (popped
//! by value — no peek-clone, no per-broadcast link-list clone), and node
//! callbacks write their actions into one reusable buffer that the engine
//! applies in request order.

use trix_time::{AffineClock, Clock, Duration, LocalTime, Time};

/// A directed communication link with a fixed delay.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Link {
    /// Destination node index.
    pub to: usize,
    /// End-to-end delay `δ_e ∈ [d−u, d]` (includes computation, per §2).
    pub delay: Duration,
}

/// Actions a node can request during a callback. The engine applies
/// them in request order once the callback returns, so scheduling order
/// (and with it the deterministic `(time, seq)` tie-break) follows the
/// order of the calls.
#[derive(Clone, Debug, PartialEq)]
enum Action {
    Broadcast,
    TimerLocal { at: LocalTime, tag: u64 },
}

/// The interface a node uses to interact with the simulated world.
///
/// Protocol logic should only consult [`NodeApi::local_now`]; real time
/// ([`NodeApi::now`]) is exposed for instrumentation and assertions.
#[derive(Debug)]
pub struct NodeApi<'a> {
    id: usize,
    now: Time,
    local: LocalTime,
    actions: &'a mut Vec<Action>,
}

impl NodeApi<'_> {
    /// This node's index.
    #[inline]
    pub fn id(&self) -> usize {
        self.id
    }

    /// Current real time (instrumentation only).
    #[inline]
    pub fn now(&self) -> Time {
        self.now
    }

    /// Current reading of this node's hardware clock.
    #[inline]
    pub fn local_now(&self) -> LocalTime {
        self.local
    }

    /// Broadcasts a pulse on all outgoing links.
    pub fn broadcast(&mut self) {
        self.actions.push(Action::Broadcast);
    }

    /// Requests a wake-up when this node's hardware clock reads `at`.
    ///
    /// If `at` is not after the current local time the timer fires
    /// immediately (at the current real time). Timers are not cancellable;
    /// nodes ignore stale ones by checking `tag` against their state.
    pub fn set_timer_local(&mut self, at: LocalTime, tag: u64) {
        self.actions.push(Action::TimerLocal { at, tag });
    }
}

/// A simulated node: a deterministic state machine reacting to the start
/// event, pulse deliveries, and its own timers.
pub trait Node {
    /// Called once at simulation start (real time 0).
    fn on_start(&mut self, api: &mut NodeApi<'_>);

    /// Called when a pulse from node `from` is delivered.
    fn on_pulse(&mut self, from: usize, api: &mut NodeApi<'_>);

    /// Called when a timer with tag `tag` fires.
    fn on_timer(&mut self, tag: u64, api: &mut NodeApi<'_>);
}

/// Packed event payload: `u32` node indices keep the whole queue entry at
/// 32 bytes (vs 40 with `usize` fields), which is worth ~10% on the event
/// loop — sift operations are pure memcpy + compare over these entries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum EventKind {
    Deliver { to: u32, from: u32 },
    Timer { node: u32, tag: u64 },
}

/// One queue entry: the `(time, seq)` ordering key plus the payload.
#[derive(Clone, Copy, Debug)]
struct Entry<T> {
    t: Time,
    seq: u64,
    payload: T,
}

// Ordering looks at the key only — `seq` is unique per queue, so distinct
// entries never compare equal and payloads never influence event order.
impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        (self.t, self.seq) == (other.t, other.seq)
    }
}

impl<T> Eq for Entry<T> {}

impl<T> Ord for Entry<T> {
    #[inline]
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.t, self.seq).cmp(&(other.t, other.seq))
    }
}

impl<T> PartialOrd for Entry<T> {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// A deterministic min-priority event queue for discrete-event loops.
///
/// Events are ordered by `(time, sequence-number)`, the sequence number
/// being assigned at push time, so ties resolve in scheduling order —
/// exactly the tie-break the DES engine's bit-reproducibility rests on.
/// `pop` moves the event out by value and `peek_time` reads just the key,
/// so the engine's former peek-clone-pop per event is gone.
///
/// Keep payloads small and `Copy` (the engine packs node indices to
/// `u32`): sift cost is proportional to entry size. Design note: an
/// index-based arena variant (24-byte heap keys, payloads in a free-list
/// arena) measured *slower* than `std`'s binary heap over compact inline
/// entries — the per-event arena bookkeeping costs more than the smaller
/// sift moves save — so the queue deliberately keeps payloads inline.
#[derive(Clone, Debug, Default)]
pub(crate) struct EventQueue<T> {
    heap: std::collections::BinaryHeap<std::cmp::Reverse<Entry<T>>>,
    seq: u64,
}

impl<T> EventQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self {
            heap: std::collections::BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Number of pending events (the engine never asks; the queue's
    /// unit tests do).
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    #[cfg(test)]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Time of the earliest pending event.
    #[inline]
    pub fn peek_time(&self) -> Option<Time> {
        self.heap.peek().map(|std::cmp::Reverse(entry)| entry.t)
    }

    /// Schedules `payload` at time `t`.
    #[inline]
    pub fn push(&mut self, t: Time, payload: T) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(std::cmp::Reverse(Entry { t, seq, payload }));
    }

    /// Removes and returns the earliest pending event.
    #[inline]
    pub fn pop(&mut self) -> Option<(Time, T)> {
        self.heap
            .pop()
            .map(|std::cmp::Reverse(entry)| (entry.t, entry.payload))
    }
}

/// A recorded broadcast: node index and real time.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Broadcast {
    /// Index of the broadcasting node.
    pub node: usize,
    /// Real time of the broadcast.
    pub time: Time,
}

/// The discrete-event engine.
///
/// # Examples
///
/// ```
/// use trix_sim::{Des, Link, Node, NodeApi};
/// use trix_time::{AffineClock, Duration, LocalTime, Time};
///
/// /// Fires once at local time 5, then re-broadcasts every received pulse
/// /// after a unit local delay.
/// struct Echo;
/// impl Node for Echo {
///     fn on_start(&mut self, api: &mut NodeApi<'_>) {
///         if api.id() == 0 {
///             api.set_timer_local(LocalTime::from(5.0), 0);
///         }
///     }
///     fn on_pulse(&mut self, _from: usize, api: &mut NodeApi<'_>) {
///         api.set_timer_local(api.local_now() + Duration::from(1.0), 0);
///     }
///     fn on_timer(&mut self, _tag: u64, api: &mut NodeApi<'_>) {
///         api.broadcast();
///     }
/// }
///
/// let mut des = Des::new(vec![AffineClock::PERFECT; 2]);
/// des.add_link(0, Link { to: 1, delay: Duration::from(2.0) });
/// let mut nodes: Vec<Box<dyn Node>> = vec![Box::new(Echo), Box::new(Echo)];
/// des.run(&mut nodes, Time::from(20.0));
/// // Node 0 fires at 5; node 1 receives at 7, fires at 8.
/// assert_eq!(des.broadcasts().len(), 2);
/// assert_eq!(des.broadcasts()[1].time, Time::from(8.0));
/// ```
#[derive(Debug)]
pub struct Des {
    clocks: Vec<AffineClock>,
    out_links: Vec<Vec<Link>>,
    queue: EventQueue<EventKind>,
    now: Time,
    broadcasts: Vec<Broadcast>,
    events_processed: u64,
    max_events: u64,
}

impl Des {
    /// Creates an engine for `clocks.len()` nodes with no links.
    ///
    /// # Panics
    ///
    /// Panics if the node count exceeds `u32::MAX` (node indices are
    /// packed to 32 bits in queue entries).
    pub fn new(clocks: Vec<AffineClock>) -> Self {
        let n = clocks.len();
        assert!(u32::try_from(n).is_ok(), "node count must fit in 32 bits");
        Self {
            clocks,
            out_links: vec![Vec::new(); n],
            queue: EventQueue::new(),
            now: Time::ZERO,
            broadcasts: Vec::new(),
            events_processed: 0,
            max_events: u64::MAX,
        }
    }

    /// Adds a directed link.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is out of range or the delay is negative.
    pub fn add_link(&mut self, from: usize, link: Link) {
        assert!(from < self.out_links.len(), "source out of range");
        assert!(link.to < self.out_links.len(), "target out of range");
        assert!(link.delay >= Duration::ZERO, "delays must be non-negative");
        self.out_links[from].push(link);
    }

    /// Caps the number of processed events (guards against babbling-fault
    /// runaway). The default is unlimited.
    pub fn set_max_events(&mut self, max_events: u64) {
        self.max_events = max_events;
    }

    /// Injects a pulse delivery at an absolute time — models spurious
    /// messages already in flight at simulation start (self-stabilization
    /// experiments, Appendix C).
    pub fn inject_delivery(&mut self, to: usize, from: usize, at: Time) {
        self.queue.push(
            at,
            EventKind::Deliver {
                to: to as u32,
                from: from as u32,
            },
        );
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.clocks.len()
    }

    /// The recorded broadcasts, in time order: the engine's one record
    /// of a run.
    pub fn broadcasts(&self) -> &[Broadcast] {
        &self.broadcasts
    }

    /// Number of events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Current simulation time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Records one broadcast and schedules its deliveries.
    ///
    /// Field-level borrows keep this allocation-free: the outgoing link
    /// list is read in place while events are pushed, instead of being
    /// cloned per broadcast.
    #[inline]
    fn emit_broadcast(&mut self, node: usize) {
        self.broadcasts.push(Broadcast {
            node,
            time: self.now,
        });
        for link in &self.out_links[node] {
            self.queue.push(
                self.now + link.delay,
                EventKind::Deliver {
                    to: link.to as u32,
                    from: node as u32,
                },
            );
        }
    }

    fn apply_actions(&mut self, node: usize, actions: &mut Vec<Action>) {
        for action in actions.drain(..) {
            match action {
                Action::Broadcast => self.emit_broadcast(node),
                Action::TimerLocal { at, tag } => {
                    let real = self.clocks[node].real_at(at).max(self.now);
                    self.queue.push(
                        real,
                        EventKind::Timer {
                            node: node as u32,
                            tag,
                        },
                    );
                }
            }
        }
    }

    /// Runs the simulation until `until` (inclusive) or until the event
    /// queue drains or the event cap is hit. Every broadcast is appended
    /// to [`Des::broadcasts`].
    ///
    /// `nodes[i]` is the state machine for node `i`; `on_start` is invoked
    /// for every node (in index order) at the current time on every call to
    /// `run`, so call it once per simulation.
    ///
    /// # Panics
    ///
    /// Panics if `nodes.len()` does not match the engine's node count.
    pub fn run(&mut self, nodes: &mut [Box<dyn Node>], until: Time) {
        assert_eq!(nodes.len(), self.node_count(), "node count mismatch");
        let mut actions = Vec::new();
        for (id, node) in nodes.iter_mut().enumerate() {
            let mut api = NodeApi {
                id,
                now: self.now,
                local: self.clocks[id].local_at(self.now),
                actions: &mut actions,
            };
            node.on_start(&mut api);
            self.apply_actions(id, &mut actions);
        }
        while let Some(t) = self.queue.peek_time() {
            if t > until || self.events_processed >= self.max_events {
                break;
            }
            let (t, kind) = self.queue.pop().expect("peeked event");
            self.now = t;
            self.events_processed += 1;
            crate::metrics::bump(1);
            let id = match kind {
                EventKind::Deliver { to, .. } => to as usize,
                EventKind::Timer { node, .. } => node as usize,
            };
            let mut api = NodeApi {
                id,
                now: t,
                local: self.clocks[id].local_at(t),
                actions: &mut actions,
            };
            match kind {
                EventKind::Deliver { from, .. } => nodes[id].on_pulse(from as usize, &mut api),
                EventKind::Timer { tag, .. } => nodes[id].on_timer(tag, &mut api),
            }
            self.apply_actions(id, &mut actions);
        }
        self.now = until.max(self.now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Broadcasts `count` pulses at a fixed local period.
    struct Ticker {
        period: Duration,
        remaining: u32,
    }

    impl Node for Ticker {
        fn on_start(&mut self, api: &mut NodeApi<'_>) {
            if self.remaining > 0 {
                api.set_timer_local(api.local_now() + self.period, 0);
            }
        }
        fn on_pulse(&mut self, _from: usize, _api: &mut NodeApi<'_>) {}
        fn on_timer(&mut self, _tag: u64, api: &mut NodeApi<'_>) {
            api.broadcast();
            self.remaining -= 1;
            if self.remaining > 0 {
                api.set_timer_local(api.local_now() + self.period, 0);
            }
        }
    }

    /// Records the real times at which it receives pulses.
    #[derive(Default)]
    struct Sink {
        received: Vec<Time>,
    }

    impl Node for Sink {
        fn on_start(&mut self, _api: &mut NodeApi<'_>) {}
        fn on_pulse(&mut self, _from: usize, api: &mut NodeApi<'_>) {
            self.received.push(api.now());
        }
        fn on_timer(&mut self, _tag: u64, _api: &mut NodeApi<'_>) {}
    }

    #[test]
    fn periodic_ticker_with_drifting_clock() {
        // Rate 2.0: local period 10 = real period 5.
        let mut des = Des::new(vec![AffineClock::with_rate(2.0)]);
        let mut nodes: Vec<Box<dyn Node>> = vec![Box::new(Ticker {
            period: Duration::from(10.0),
            remaining: 3,
        })];
        des.run(&mut nodes, Time::from(100.0));
        let times: Vec<Time> = des.broadcasts().iter().map(|b| b.time).collect();
        assert_eq!(
            times,
            vec![Time::from(5.0), Time::from(10.0), Time::from(15.0)]
        );
    }

    #[test]
    fn delivery_after_link_delay() {
        let mut des = Des::new(vec![AffineClock::PERFECT; 2]);
        des.add_link(
            0,
            Link {
                to: 1,
                delay: Duration::from(3.5),
            },
        );
        let mut nodes: Vec<Box<dyn Node>> = vec![
            Box::new(Ticker {
                period: Duration::from(1.0),
                remaining: 1,
            }),
            Box::new(Sink::default()),
        ];
        des.run(&mut nodes, Time::from(10.0));
        // Downcast via re-borrowing is awkward with Box<dyn Node>; check the
        // engine's log instead: broadcast at 1.0 delivered at 4.5 (no
        // broadcast from the sink).
        assert_eq!(des.broadcasts().len(), 1);
        assert_eq!(des.broadcasts()[0].time, Time::from(1.0));
        assert_eq!(des.events_processed(), 2); // timer + delivery
    }

    #[test]
    fn injected_delivery_reaches_node() {
        let mut des = Des::new(vec![AffineClock::PERFECT; 2]);
        des.inject_delivery(1, 0, Time::from(2.0));
        let mut nodes: Vec<Box<dyn Node>> =
            vec![Box::new(Sink::default()), Box::new(Sink::default())];
        des.run(&mut nodes, Time::from(5.0));
        assert_eq!(des.events_processed(), 1);
    }

    #[test]
    fn event_cap_stops_runaway() {
        // Two nodes echo every pulse back: infinite ping-pong.
        struct PingPong;
        impl Node for PingPong {
            fn on_start(&mut self, api: &mut NodeApi<'_>) {
                if api.id() == 0 {
                    api.broadcast();
                }
            }
            fn on_pulse(&mut self, _from: usize, api: &mut NodeApi<'_>) {
                api.broadcast();
            }
            fn on_timer(&mut self, _tag: u64, _api: &mut NodeApi<'_>) {}
        }
        let mut des = Des::new(vec![AffineClock::PERFECT; 2]);
        des.add_link(
            0,
            Link {
                to: 1,
                delay: Duration::from(1.0),
            },
        );
        des.add_link(
            1,
            Link {
                to: 0,
                delay: Duration::from(1.0),
            },
        );
        des.set_max_events(50);
        let mut nodes: Vec<Box<dyn Node>> = vec![Box::new(PingPong), Box::new(PingPong)];
        des.run(&mut nodes, Time::from(1e12));
        assert_eq!(des.events_processed(), 50);
    }

    #[test]
    fn ties_resolve_by_scheduling_order() {
        // Two injected deliveries at the same instant: processed in
        // injection order.
        struct Recorder(Vec<usize>);
        impl Node for Recorder {
            fn on_start(&mut self, _api: &mut NodeApi<'_>) {}
            fn on_pulse(&mut self, from: usize, _api: &mut NodeApi<'_>) {
                self.0.push(from);
            }
            fn on_timer(&mut self, _tag: u64, _api: &mut NodeApi<'_>) {}
        }
        let mut des = Des::new(vec![AffineClock::PERFECT; 3]);
        des.inject_delivery(0, 2, Time::from(1.0));
        des.inject_delivery(0, 1, Time::from(1.0));
        let mut nodes: Vec<Box<dyn Node>> = vec![
            Box::new(Recorder(Vec::new())),
            Box::new(Recorder(Vec::new())),
            Box::new(Recorder(Vec::new())),
        ];
        des.run(&mut nodes, Time::from(2.0));
        assert_eq!(des.events_processed(), 2);
    }

    #[test]
    fn past_local_timer_fires_immediately() {
        struct PastTimer {
            fired_at: Option<Time>,
        }
        impl Node for PastTimer {
            fn on_start(&mut self, api: &mut NodeApi<'_>) {
                // Ask for a wake-up in the local past.
                api.set_timer_local(LocalTime::from(-5.0), 7);
            }
            fn on_pulse(&mut self, _from: usize, _api: &mut NodeApi<'_>) {}
            fn on_timer(&mut self, tag: u64, api: &mut NodeApi<'_>) {
                assert_eq!(tag, 7);
                self.fired_at = Some(api.now());
                api.broadcast();
            }
        }
        let mut des = Des::new(vec![AffineClock::PERFECT]);
        let mut nodes: Vec<Box<dyn Node>> = vec![Box::new(PastTimer { fired_at: None })];
        des.run(&mut nodes, Time::from(1.0));
        assert_eq!(des.broadcasts().len(), 1);
        assert_eq!(des.broadcasts()[0].time, Time::ZERO);
    }

    /// Pins the `trix_sim::metrics` contract for this engine: exactly one
    /// counter bump per processed queue event, i.e. the thread-local
    /// total equals [`Des::events_processed`].
    #[test]
    fn des_bumps_metrics_once_per_event() {
        let mut des = Des::new(vec![AffineClock::PERFECT; 2]);
        des.add_link(
            0,
            Link {
                to: 1,
                delay: Duration::from(2.0),
            },
        );
        let mut nodes: Vec<Box<dyn Node>> = vec![
            Box::new(Ticker {
                period: Duration::from(1.0),
                remaining: 5,
            }),
            Box::new(Sink::default()),
        ];
        crate::metrics::reset();
        des.run(&mut nodes, Time::from(100.0));
        assert!(des.events_processed() > 0);
        assert_eq!(crate::metrics::total(), des.events_processed());
    }

    #[test]
    fn event_queue_orders_by_time_then_push_order() {
        let mut q = EventQueue::new();
        q.push(Time::from(3.0), 0u32);
        q.push(Time::from(1.0), 1);
        q.push(Time::from(2.0), 2);
        q.push(Time::from(1.0), 3);
        assert_eq!(q.len(), 4);
        let drained: Vec<u32> = std::iter::from_fn(|| q.pop()).map(|(_, p)| p).collect();
        assert_eq!(drained, vec![1, 3, 2, 0]);
        assert!(q.is_empty());
    }

    #[test]
    fn event_queue_len_tracks_interleaved_push_pop() {
        let mut q = EventQueue::new();
        for round in 0..100u32 {
            q.push(Time::from(round as f64), round);
            q.push(Time::from(round as f64 + 0.5), round);
            assert_eq!(q.len(), 2);
            assert_eq!(q.pop().map(|(_, p)| p), Some(round));
            assert_eq!(q.pop().map(|(_, p)| p), Some(round));
        }
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn event_queue_matches_binary_heap_reference() {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let mut q = EventQueue::new();
        let mut reference = BinaryHeap::new();
        let mut state = 42u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            state >> 33
        };
        let mut seq = 0u64;
        for _ in 0..500 {
            for _ in 0..next() % 4 {
                let t = Time::from((next() % 1000) as f64);
                q.push(t, seq);
                reference.push(Reverse((t, seq)));
                seq += 1;
            }
            if next() % 2 == 0 {
                assert_eq!(q.pop(), reference.pop().map(|Reverse((t, s))| (t, s)));
            }
        }
        while let Some(Reverse((t, s))) = reference.pop() {
            assert_eq!(q.pop(), Some((t, s)));
        }
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn actions_apply_in_request_order() {
        use std::cell::RefCell;
        use std::rc::Rc;

        // A node that broadcasts *and then* sets a timer at the current
        // instant: the broadcast's deliveries must get earlier sequence
        // numbers than the timer.
        struct MixedThenRecord {
            log: Rc<RefCell<Vec<&'static str>>>,
        }
        impl Node for MixedThenRecord {
            fn on_start(&mut self, api: &mut NodeApi<'_>) {
                if api.id() == 0 {
                    api.broadcast();
                    api.set_timer_local(api.local_now(), 1);
                }
            }
            fn on_pulse(&mut self, _from: usize, _api: &mut NodeApi<'_>) {
                self.log.borrow_mut().push("pulse");
            }
            fn on_timer(&mut self, _tag: u64, _api: &mut NodeApi<'_>) {
                self.log.borrow_mut().push("timer");
            }
        }
        let mut des = Des::new(vec![AffineClock::PERFECT; 2]);
        // Zero-delay self-loop via node 1 is not possible (no link 0→0), so
        // use a zero-delay link 0→1 and watch node 0's timer vs node 1's
        // delivery: both land at t = 0 and must process in schedule order.
        des.add_link(
            0,
            Link {
                to: 1,
                delay: Duration::ZERO,
            },
        );
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut nodes: Vec<Box<dyn Node>> = vec![
            Box::new(MixedThenRecord {
                log: Rc::clone(&log),
            }),
            Box::new(MixedThenRecord {
                log: Rc::clone(&log),
            }),
        ];
        des.run(&mut nodes, Time::from(1.0));
        // The delivery (scheduled by the broadcast, the *first* action)
        // must carry the earlier sequence number and therefore process
        // before the timer at the shared instant t = 0.
        assert_eq!(*log.borrow(), vec!["pulse", "timer"]);
        assert_eq!(des.events_processed(), 2);
        assert_eq!(des.broadcasts().len(), 1);
    }

    #[test]
    fn broadcast_only_callbacks_relay_along_a_chain() {
        struct Chain;
        impl Node for Chain {
            fn on_start(&mut self, api: &mut NodeApi<'_>) {
                if api.id() == 0 {
                    api.broadcast();
                }
            }
            fn on_pulse(&mut self, _from: usize, api: &mut NodeApi<'_>) {
                if api.id() + 1 < 4 {
                    api.broadcast();
                }
            }
            fn on_timer(&mut self, _tag: u64, _api: &mut NodeApi<'_>) {}
        }
        let mut des = Des::new(vec![AffineClock::PERFECT; 4]);
        for i in 0..3 {
            des.add_link(
                i,
                Link {
                    to: i + 1,
                    delay: Duration::from(1.0),
                },
            );
        }
        let mut nodes: Vec<Box<dyn Node>> = (0..4).map(|_| Box::new(Chain) as _).collect();
        des.run(&mut nodes, Time::from(10.0));
        assert_eq!(des.broadcasts().len(), 3);
        assert_eq!(
            des.broadcasts().iter().map(|b| b.node).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
    }
}
