//! Time-varying fault campaigns (paper §2 + Corollary 1.5, scaled up).
//!
//! A static assignment ([`FaultCampaign::from_static`]) fixes one behavior
//! per node for a whole run. Real deployments — and the paper's own
//! discussion of Corollary 1.5 ("a constant number of faulty nodes change
//! their output behavior between consecutive pulses") — need faults that
//! *move*: nodes crash and come back, flaky drivers drop some pulses but
//! not others, a fault burst sweeps across the grid, fault density ramps
//! up as a part ages. A [`FaultCampaign`] expresses both as a set of
//! per-node [`FaultSchedule`]s and plugs into both execution engines
//! through the [`SendModel`] hook.
//!
//! # Determinism contract
//!
//! Everything a campaign decides is a pure function of
//! `(node, pulse, target)` plus the campaign's own construction inputs:
//! per-pulse gating uses counter-based hashing (SplitMix64 over
//! `(seed, node, pulse)`), never a mutable RNG consumed during the run.
//! The dataflow engines evaluate send models inside `eval_layer_chunk`,
//! which is shared between the serial and `--sim-threads`-sharded
//! drivers — so a campaign-driven run is bit-identical for every thread
//! count, exactly like a static one (pinned by the campaign property
//! tests in `crates/faults/tests/prop.rs`).
//!
//! # Metrics contract
//!
//! [`SendModel::is_faulty`] — which decides exclusion from skew metrics —
//! reports **ever-faulty**: a node with any schedule is excluded for the
//! whole run, even during pulses where its schedule is inactive and it
//! sends nominally. Observers announce faulty positions once, up front,
//! and the paper's skew definitions range over permanently correct nodes;
//! a crash-recovered node's output is only trusted again by its
//! *successors*, not by the metrics. The per-pulse active set (what the
//! adversary is actually doing) is exposed separately via
//! [`FaultCampaign::active_set`] for the one-locality oracles.

use crate::table::LayerTable;
use crate::FaultBehavior;
use std::collections::HashSet;
use trix_sim::{splitmix64, SendModel};
use trix_time::Time;
use trix_topology::{LayeredGraph, NodeId};

/// When — and as what — a node misbehaves over the pulses of a run.
///
/// A schedule gates a [`FaultBehavior`] in (pulse) time: outside its
/// active pulses the node sends nominally, inside them the behavior
/// applies. All gating is deterministic per `(node, pulse)`.
#[derive(Clone, Debug, PartialEq)]
pub enum FaultSchedule {
    /// Faulty for the whole run (a static assignment).
    Always(FaultBehavior),
    /// Faulty exactly during pulses `from..until`, correct elsewhere.
    ///
    /// With [`FaultBehavior::Silent`] this is crash–recover: nothing is
    /// sent on any out-edge while the window is open, and the node sends
    /// nominally before and after. In the dataflow model recovery is
    /// clean by construction, since the node's nominal time is always
    /// defined. The event-driven twin, [`crate::RejoiningDesNode`], models
    /// the interesting part: rejoining with *arbitrary* post-reboot state
    /// that the Algorithm 4 sanitization must absorb.
    Window {
        /// First faulty pulse.
        from: usize,
        /// One past the last faulty pulse.
        until: usize,
        /// Behavior while the window is active.
        behavior: FaultBehavior,
    },
    /// Intermittent/flaky fault: each pulse independently misbehaves with
    /// probability `activity`, decided by hashing `(seed, node, pulse)` —
    /// deterministic, and identical for every execution sharding.
    Flaky {
        /// Behavior on the pulses that misbehave.
        behavior: FaultBehavior,
        /// Fraction of pulses that misbehave, in `[0, 1]`.
        activity: f64,
        /// Gating seed.
        seed: u64,
    },
}

impl FaultSchedule {
    /// Whether the schedule misbehaves at pulse `k` of `node`.
    pub fn is_active(&self, node: NodeId, k: usize) -> bool {
        match self {
            FaultSchedule::Always(_) => true,
            FaultSchedule::Window { from, until, .. } => (*from..*until).contains(&k),
            FaultSchedule::Flaky { activity, seed, .. } => {
                let mut state =
                    seed ^ (node.v as u64) << 40 ^ (node.layer as u64) << 20 ^ (k as u64);
                let unit = (splitmix64(&mut state) >> 11) as f64 / (1u64 << 53) as f64;
                unit < *activity
            }
        }
    }

    /// The send time toward `target` for pulse `k`: the gated behavior's
    /// time while active, the nominal time otherwise.
    pub fn send_time(
        &self,
        node: NodeId,
        k: usize,
        nominal: Option<Time>,
        target: NodeId,
    ) -> Option<Time> {
        if !self.is_active(node, k) {
            return nominal;
        }
        match self {
            FaultSchedule::Always(b)
            | FaultSchedule::Window { behavior: b, .. }
            | FaultSchedule::Flaky { behavior: b, .. } => b.send_time(node, k, nominal, target),
        }
    }

    /// Whether the timing profile is static across pulses (the
    /// Theorem 1.4 assumption): only an [`FaultSchedule::Always`] of a
    /// static behavior qualifies — every other schedule varies by
    /// construction.
    pub fn is_static(&self) -> bool {
        matches!(self, FaultSchedule::Always(b) if b.is_static())
    }
}

/// A set of per-node [`FaultSchedule`]s — the time-varying adversary —
/// usable directly as the [`SendModel`] of either dataflow driver.
///
/// The schedules sit in a table sorted by position with an offset per
/// layer, so a send from a node without a schedule (nearly every send
/// at the paper's densities) is answered without hashing.
///
/// # Examples
///
/// A minimal campaign: one node crashes for pulses 1–2 and recovers,
/// another is flaky half the time.
///
/// ```
/// use trix_faults::{FaultBehavior, FaultCampaign, FaultSchedule};
/// use trix_sim::SendModel;
/// use trix_time::{Duration, Time};
/// use trix_topology::NodeId;
///
/// let crash = NodeId::new(2, 3);
/// let flaky = NodeId::new(5, 4);
/// let campaign = FaultCampaign::from_schedules([
///     (crash, FaultSchedule::Window { from: 1, until: 3, behavior: FaultBehavior::Silent }),
///     (flaky, FaultSchedule::Flaky {
///         behavior: FaultBehavior::Shift(Duration::from(4.0)),
///         activity: 0.5,
///         seed: 7,
///     }),
/// ]);
/// // Down pulses send nothing; recovered pulses send nominally.
/// let t = Some(Time::from(10.0));
/// assert_eq!(campaign.send_time(crash, 1, t, NodeId::new(2, 4)), None);
/// assert_eq!(campaign.send_time(crash, 3, t, NodeId::new(2, 4)), t);
/// // Ever-faulty nodes are excluded from skew metrics for the whole run.
/// assert!(campaign.is_faulty(crash) && campaign.is_faulty(flaky));
/// assert_eq!(campaign.fault_count(), 2);
/// ```
#[derive(Clone, Debug, Default)]
pub struct FaultCampaign {
    schedules: LayerTable<FaultSchedule>,
    descriptor: String,
}

impl FaultCampaign {
    /// Creates an empty (fault-free) campaign.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a campaign from `(position, schedule)` pairs.
    pub fn from_schedules(schedules: impl IntoIterator<Item = (NodeId, FaultSchedule)>) -> Self {
        Self {
            schedules: schedules.into_iter().collect(),
            descriptor: String::new(),
        }
    }

    /// Wraps a static fault assignment: every pair becomes an
    /// [`FaultSchedule::Always`], faulty with its behavior for the whole
    /// run.
    pub fn from_static(faults: impl IntoIterator<Item = (NodeId, FaultBehavior)>) -> Self {
        Self::from_schedules(
            faults
                .into_iter()
                .map(|(n, b)| (n, FaultSchedule::Always(b))),
        )
    }

    /// A density ramp: `positions` activate one by one, spread evenly
    /// over `pulses`, each staying faulty (with `behavior`) to the end of
    /// the run — active fault density grows from one node to the whole
    /// set. Positions are sorted first so activation order is a pure
    /// function of the set, not of iteration order.
    pub fn ramp(
        positions: impl IntoIterator<Item = NodeId>,
        pulses: usize,
        behavior: FaultBehavior,
    ) -> Self {
        let mut sorted: Vec<NodeId> = positions.into_iter().collect();
        sorted.sort();
        let count = sorted.len().max(1);
        Self::from_schedules(sorted.into_iter().enumerate().map(|(i, n)| {
            (
                n,
                FaultSchedule::Window {
                    from: i * pulses / count,
                    until: usize::MAX,
                    behavior: behavior.clone(),
                },
            )
        }))
    }

    /// A moving one-local fault window: the fault "wave" occupies column
    /// `column` on layers `start_layer..start_layer + span`, one layer at
    /// a time, dwelling `dwell` pulses per layer (layer `start_layer + i`
    /// misbehaves during pulses `i·dwell .. (i+1)·dwell`). At every pulse
    /// at most one node is active, so the *active* set is trivially
    /// 1-local; the ever-faulty set is a same-column stack, 1-local by
    /// the same argument as [`crate::clustered_column`].
    ///
    /// # Panics
    ///
    /// Panics if `dwell` is zero or the stack exceeds the layer count
    /// (via [`LayeredGraph::node`]).
    pub fn moving_window(
        g: &LayeredGraph,
        column: usize,
        start_layer: usize,
        span: usize,
        dwell: usize,
        behavior: FaultBehavior,
    ) -> Self {
        assert!(dwell > 0, "dwell must be positive");
        Self::from_schedules((0..span).map(|i| {
            (
                g.node(column, start_layer + i),
                FaultSchedule::Window {
                    from: i * dwell,
                    until: (i + 1) * dwell,
                    behavior: behavior.clone(),
                },
            )
        }))
    }

    /// Attaches a human-readable campaign descriptor (stamped into the
    /// schema-v4 benchmark records by the experiment harness).
    pub fn with_descriptor(mut self, descriptor: impl Into<String>) -> Self {
        self.descriptor = descriptor.into();
        self
    }

    /// The campaign descriptor (empty if none was attached).
    pub fn descriptor(&self) -> &str {
        &self.descriptor
    }

    /// Adds (or replaces) a node's schedule.
    pub fn insert(&mut self, node: NodeId, schedule: FaultSchedule) {
        self.schedules.insert(node, schedule);
    }

    /// Number of ever-faulty positions.
    pub fn fault_count(&self) -> usize {
        self.schedules.len()
    }

    /// The ever-faulty positions, sorted (deterministic iteration).
    pub fn faulty_nodes(&self) -> Vec<NodeId> {
        self.schedules.keys().to_vec()
    }

    /// The node's schedule, if it has one.
    pub fn schedule(&self, node: NodeId) -> Option<&FaultSchedule> {
        self.schedules.get(node)
    }

    /// The positions actively misbehaving at pulse `k` — what the
    /// one-locality oracles check, per pulse, instead of the (possibly
    /// larger) ever-faulty set.
    pub fn active_set(&self, k: usize) -> HashSet<NodeId> {
        self.schedules
            .iter()
            .filter(|(n, s)| s.is_active(*n, k))
            .map(|(n, _)| n)
            .collect()
    }

    /// Number of positions active at pulse `k`.
    pub fn active_count(&self, k: usize) -> usize {
        self.schedules
            .iter()
            .filter(|(n, s)| s.is_active(*n, k))
            .count()
    }

    /// The largest concurrent active-fault count over `0..pulses` — the
    /// `f` the Theorem 1.2 envelope is evaluated at.
    pub fn max_concurrent(&self, pulses: usize) -> usize {
        (0..pulses).map(|k| self.active_count(k)).max().unwrap_or(0)
    }

    /// Whether every schedule has a static timing profile (only true for
    /// all-[`FaultSchedule::Always`] campaigns of static behaviors).
    pub fn all_static(&self) -> bool {
        self.schedules.values().iter().all(FaultSchedule::is_static)
    }
}

impl SendModel for FaultCampaign {
    fn send_time(
        &self,
        node: NodeId,
        k: usize,
        nominal: Option<Time>,
        target: NodeId,
    ) -> Option<Time> {
        match self.schedules.get(node) {
            Some(schedule) => schedule.send_time(node, k, nominal, target),
            None => nominal,
        }
    }

    fn is_faulty(&self, node: NodeId) -> bool {
        self.schedules.contains_key(node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::is_one_local;
    use trix_time::Duration;
    use trix_topology::BaseGraph;

    fn n(v: u32, layer: u32) -> NodeId {
        NodeId::new(v, layer)
    }

    fn grid() -> LayeredGraph {
        LayeredGraph::new(BaseGraph::line_with_replicated_ends(8), 10)
    }

    #[test]
    fn window_gates_behavior_in_pulse_time() {
        let s = FaultSchedule::Window {
            from: 2,
            until: 4,
            behavior: FaultBehavior::Shift(Duration::from(5.0)),
        };
        let t = Some(Time::from(10.0));
        assert_eq!(s.send_time(n(1, 1), 1, t, n(1, 2)), t);
        assert_eq!(s.send_time(n(1, 1), 2, t, n(1, 2)), Some(Time::from(15.0)));
        assert_eq!(s.send_time(n(1, 1), 3, t, n(1, 2)), Some(Time::from(15.0)));
        assert_eq!(s.send_time(n(1, 1), 4, t, n(1, 2)), t);
        assert!(!s.is_static());
    }

    #[test]
    fn crash_recover_is_silent_then_nominal() {
        let s = FaultSchedule::Window {
            from: 1,
            until: 3,
            behavior: FaultBehavior::Silent,
        };
        let t = Some(Time::from(7.0));
        assert_eq!(s.send_time(n(0, 1), 0, t, n(0, 2)), t);
        assert_eq!(s.send_time(n(0, 1), 1, t, n(0, 2)), None);
        assert_eq!(s.send_time(n(0, 1), 2, t, n(0, 2)), None);
        assert_eq!(s.send_time(n(0, 1), 3, t, n(0, 2)), t);
    }

    #[test]
    fn flaky_gating_is_deterministic_and_roughly_calibrated() {
        let s = FaultSchedule::Flaky {
            behavior: FaultBehavior::Silent,
            activity: 0.5,
            seed: 11,
        };
        let node = n(3, 4);
        let active: Vec<bool> = (0..400).map(|k| s.is_active(node, k)).collect();
        let again: Vec<bool> = (0..400).map(|k| s.is_active(node, k)).collect();
        assert_eq!(active, again, "gating must be a pure function of (node, k)");
        let hits = active.iter().filter(|&&a| a).count();
        assert!((120..280).contains(&hits), "activity 0.5 got {hits}/400");
        // Different nodes gate independently.
        let other: Vec<bool> = (0..400).map(|k| s.is_active(n(4, 4), k)).collect();
        assert_ne!(active, other);
    }

    #[test]
    fn ever_faulty_contract_vs_active_set() {
        let campaign = FaultCampaign::from_schedules([
            (
                n(1, 2),
                FaultSchedule::Window {
                    from: 0,
                    until: 2,
                    behavior: FaultBehavior::Silent,
                },
            ),
            (
                n(5, 2),
                FaultSchedule::Window {
                    from: 2,
                    until: 4,
                    behavior: FaultBehavior::Silent,
                },
            ),
        ]);
        // Metrics exclusion is for the whole run…
        assert!(campaign.is_faulty(n(1, 2)) && campaign.is_faulty(n(5, 2)));
        // …but the adversary only ever drives one node at a time.
        for k in 0..4 {
            assert_eq!(campaign.active_count(k), 1, "pulse {k}");
        }
        assert_eq!(campaign.max_concurrent(4), 1);
        assert_eq!(campaign.active_set(0), [n(1, 2)].into_iter().collect());
        assert_eq!(campaign.active_set(3), [n(5, 2)].into_iter().collect());
    }

    #[test]
    fn ramp_activates_positions_in_sorted_order() {
        let positions = [n(4, 3), n(2, 1), n(6, 5), n(0, 7)];
        let c = FaultCampaign::ramp(positions, 8, FaultBehavior::Silent);
        assert_eq!(c.fault_count(), 4);
        // Sorted order: (2,1), (4,3), (6,5), (0,7) — activation pulses
        // 0, 2, 4, 6.
        assert_eq!(c.active_count(0), 1);
        assert_eq!(c.active_count(2), 2);
        assert_eq!(c.active_count(5), 3);
        assert_eq!(c.active_count(7), 4);
        assert_eq!(c.max_concurrent(8), 4);
        assert!(c.active_set(0).contains(&n(2, 1)));
        // Density is monotone non-decreasing.
        let counts: Vec<usize> = (0..8).map(|k| c.active_count(k)).collect();
        assert!(counts.windows(2).all(|w| w[0] <= w[1]), "{counts:?}");
    }

    #[test]
    fn moving_window_is_one_local_at_every_pulse() {
        let g = grid();
        let c = FaultCampaign::moving_window(&g, 4, 2, 5, 2, FaultBehavior::Silent);
        assert_eq!(c.fault_count(), 5);
        for k in 0..12 {
            let active = c.active_set(k);
            assert!(active.len() <= 1, "pulse {k}: {active:?}");
            assert!(is_one_local(&g, &active), "pulse {k}");
        }
        // The ever-faulty stack is a clustered column — also 1-local.
        let ever: HashSet<NodeId> = c.faulty_nodes().into_iter().collect();
        assert!(is_one_local(&g, &ever));
        // The wave actually moves: layer 2 first, layer 6 last.
        assert_eq!(c.active_set(0), [g.node(4, 2)].into_iter().collect());
        assert_eq!(c.active_set(9), [g.node(4, 6)].into_iter().collect());
        // After the wave has passed, nothing is active.
        assert_eq!(c.active_count(10), 0);
    }

    #[test]
    fn campaign_is_a_send_model_with_nominal_fallthrough() {
        let c = FaultCampaign::from_static([(n(2, 2), FaultBehavior::Silent)]);
        let t = Some(Time::from(3.0));
        assert_eq!(c.send_time(n(2, 2), 0, t, n(2, 3)), None);
        assert_eq!(c.send_time(n(0, 0), 0, t, n(0, 1)), t);
        assert!(c.all_static());
        assert!(!FaultCampaign::from_schedules([(
            n(1, 1),
            FaultSchedule::Window {
                from: 0,
                until: 1,
                behavior: FaultBehavior::Silent,
            }
        )])
        .all_static());
    }

    #[test]
    fn descriptor_round_trips() {
        let c = FaultCampaign::new().with_descriptor("iid p=0.01 silent");
        assert_eq!(c.descriptor(), "iid p=0.01 silent");
        assert_eq!(FaultCampaign::new().descriptor(), "");
    }
}
