//! Open-world churn campaigns: membership, not misbehavior.
//!
//! A [`crate::FaultCampaign`] varies *behavior* over a fixed node set;
//! a [`ChurnCampaign`] varies the node set itself. Nodes join, leave,
//! rejoin, or flicker in and out per pulse — the sustained churn regime
//! of deployed P2P overlays — and the engines gate on it through the
//! [`SendModel::is_member`] hook: a non-member is not evaluated at all,
//! its published row slot is `None`, so departures stop emitting and
//! arrivals splice back into the frontier deterministically on every
//! engine leg.
//!
//! # Determinism contract
//!
//! Membership is a pure function of `(seed, node, pulse)` plus the
//! campaign's construction inputs — per-pulse flicker gating uses
//! counter-based SplitMix64 hashing, never a mutable RNG — so a
//! churn-driven run is bit-identical across the serial and frontier
//! drivers for every thread count, exactly like a fault
//! campaign (pinned by the churn property tests in
//! `crates/faults/tests/prop.rs` and the root `tests/determinism.rs`).
//!
//! # Metrics contract
//!
//! Unlike [`crate::FaultCampaign`], [`SendModel::is_faulty`] reports
//! **false** for every node: at sustained churn rates nearly every node
//! is absent *sometimes*, and the ever-excluded convention would empty
//! the skew statistics entirely. Churned nodes are instead masked
//! **per pulse** — an absent node's row slot is `None`, which the
//! streaming monitors already skip — so the skew envelope ranges over
//! exactly the nodes present at each pulse.

use crate::table::LayerTable;
use trix_sim::{splitmix64, SendModel};
use trix_time::Time;
use trix_topology::{LayeredGraph, NodeId};

/// Decorrelates flicker gating from [`crate::FaultSchedule::Flaky`]'s
/// hash stream when both run from the same seed.
const FLICKER_TAG: u64 = 0x6368_7572_6E21; // "churn!"

/// When a node is a member of the network, in pulse time.
///
/// All gating is deterministic per `(seed, node, pulse)`; the `seed` is
/// the owning [`ChurnCampaign`]'s, so one campaign value fully
/// determines every membership decision of a run.
#[derive(Clone, Debug, PartialEq)]
pub enum ChurnSchedule {
    /// Always a member (the closed-world default).
    Resident,
    /// A genuinely *new* arrival: absent until pulse `pulse`, a member
    /// from then on. The event-driven twin is
    /// [`crate::RejoiningDesNode`], which models what makes arrival
    /// hard — booting with stale, scrambled state.
    JoinAt {
        /// First member pulse.
        pulse: usize,
    },
    /// A departure: member until pulse `pulse`, absent from then on.
    LeaveAt {
        /// First absent pulse.
        pulse: usize,
    },
    /// Leave then rejoin: absent exactly during `leave..rejoin`.
    Rejoin {
        /// First absent pulse.
        leave: usize,
        /// First pulse back.
        rejoin: usize,
    },
    /// Memoryless per-pulse churn: absent at each pulse independently
    /// with probability `rate`, decided by hashing
    /// `(seed, node, pulse)` — the sustained-churn regime (every
    /// absent→present transition is a rejoin).
    Flicker {
        /// Fraction of pulses the node is absent, in `[0, 1]`.
        rate: f64,
    },
}

impl ChurnSchedule {
    /// Whether the schedule makes `node` a member at pulse `k` under
    /// the campaign seed `seed`.
    pub fn is_member(&self, node: NodeId, k: usize, seed: u64) -> bool {
        match self {
            ChurnSchedule::Resident => true,
            ChurnSchedule::JoinAt { pulse } => k >= *pulse,
            ChurnSchedule::LeaveAt { pulse } => k < *pulse,
            ChurnSchedule::Rejoin { leave, rejoin } => !(*leave..*rejoin).contains(&k),
            ChurnSchedule::Flicker { rate } => {
                let mut state = seed
                    ^ FLICKER_TAG
                    ^ (node.v as u64) << 40
                    ^ (node.layer as u64) << 20
                    ^ (k as u64);
                let unit = (splitmix64(&mut state) >> 11) as f64 / (1u64 << 53) as f64;
                unit >= *rate
            }
        }
    }
}

/// A membership adversary: a default [`ChurnSchedule`] applied to every
/// node plus per-node overrides, usable directly as the [`SendModel`]
/// of any dataflow driver.
///
/// The default-plus-overrides shape is what lets a campaign scale to
/// millions of nodes: an i.i.d. flicker sweep stores one schedule and
/// one seed, not a map over the node set.
///
/// # Examples
///
/// ```
/// use trix_faults::{ChurnCampaign, ChurnSchedule};
/// use trix_sim::SendModel;
/// use trix_topology::NodeId;
///
/// let arrival = NodeId::new(3, 2);
/// let mut campaign = ChurnCampaign::flicker(0.05, 11);
/// campaign.insert(arrival, ChurnSchedule::JoinAt { pulse: 4 });
/// assert!(!campaign.is_member(arrival, 3) && campaign.is_member(arrival, 4));
/// // Churn is membership, not faultiness: nothing is ever-excluded
/// // from the skew metrics — absent nodes are masked per pulse.
/// assert!(!campaign.is_faulty(arrival));
/// ```
#[derive(Clone, Debug)]
pub struct ChurnCampaign {
    default: ChurnSchedule,
    overrides: LayerTable<ChurnSchedule>,
    seed: u64,
    descriptor: String,
}

impl ChurnCampaign {
    /// The closed-world campaign: every node resident at every pulse.
    pub fn resident() -> Self {
        Self::from_schedules(ChurnSchedule::Resident, 0, [])
    }

    /// An i.i.d. sustained-churn campaign: every node flickers absent
    /// with per-pulse probability `rate`, gated by `seed`.
    ///
    /// # Panics
    ///
    /// Panics unless `rate` is in `[0, 1]`.
    pub fn flicker(rate: f64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "rate must be in [0, 1]");
        Self::from_schedules(ChurnSchedule::Flicker { rate }, seed, [])
    }

    /// Creates a campaign from a default schedule, a gating seed, and
    /// `(position, schedule)` overrides.
    pub fn from_schedules(
        default: ChurnSchedule,
        seed: u64,
        overrides: impl IntoIterator<Item = (NodeId, ChurnSchedule)>,
    ) -> Self {
        Self {
            default,
            overrides: overrides.into_iter().collect(),
            seed,
            descriptor: String::new(),
        }
    }

    /// Attaches a human-readable churn descriptor (stamped into the
    /// schema-v8 benchmark records by the experiment harness).
    pub fn with_descriptor(mut self, descriptor: impl Into<String>) -> Self {
        self.descriptor = descriptor.into();
        self
    }

    /// The churn descriptor (empty if none was attached).
    pub fn descriptor(&self) -> &str {
        &self.descriptor
    }

    /// The campaign's gating seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Adds (or replaces) a node's schedule override.
    pub fn insert(&mut self, node: NodeId, schedule: ChurnSchedule) {
        self.overrides.insert(node, schedule);
    }

    /// Number of per-node overrides (not counting the default).
    pub fn override_count(&self) -> usize {
        self.overrides.len()
    }

    /// The schedule governing `node` (its override, or the default).
    pub fn schedule(&self, node: NodeId) -> &ChurnSchedule {
        self.overrides.get(node).unwrap_or(&self.default)
    }

    /// Whether `node` is a member at pulse `k`.
    pub fn is_member(&self, node: NodeId, k: usize) -> bool {
        self.schedule(node).is_member(node, k, self.seed)
    }

    /// The positions absent at pulse `k`, sorted — the per-pulse hole
    /// set a churn oracle reasons about. `O(nodes)`; meant for tests
    /// and smoke-scale analytics, not the engine hot path.
    pub fn absent_set(&self, g: &LayeredGraph, k: usize) -> Vec<NodeId> {
        g.nodes().filter(|&n| !self.is_member(n, k)).collect()
    }

    /// Number of positions absent at pulse `k`.
    pub fn absent_count(&self, g: &LayeredGraph, k: usize) -> usize {
        g.nodes().filter(|&n| !self.is_member(n, k)).count()
    }
}

impl SendModel for ChurnCampaign {
    /// Nominal passthrough while a member, silence while absent. The
    /// engines never reach this for an absent sender (its published
    /// row slot is already `None`), but gating here too keeps the
    /// campaign self-contained under any driver.
    fn send_time(
        &self,
        node: NodeId,
        k: usize,
        nominal: Option<Time>,
        _target: NodeId,
    ) -> Option<Time> {
        if self.is_member(node, k) {
            nominal
        } else {
            None
        }
    }

    /// Always false: churn is membership, not misbehavior (see the
    /// module-level metrics contract).
    fn is_faulty(&self, _node: NodeId) -> bool {
        false
    }

    fn is_member(&self, node: NodeId, k: usize) -> bool {
        ChurnCampaign::is_member(self, node, k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trix_topology::BaseGraph;

    fn n(v: u32, layer: u32) -> NodeId {
        NodeId::new(v, layer)
    }

    fn grid() -> LayeredGraph {
        LayeredGraph::new(BaseGraph::line_with_replicated_ends(8), 6)
    }

    #[test]
    fn epoch_schedules_gate_in_pulse_time() {
        let seed = 3;
        let node = n(1, 1);
        let join = ChurnSchedule::JoinAt { pulse: 2 };
        assert!(!join.is_member(node, 0, seed) && !join.is_member(node, 1, seed));
        assert!(join.is_member(node, 2, seed) && join.is_member(node, 9, seed));
        let leave = ChurnSchedule::LeaveAt { pulse: 2 };
        assert!(leave.is_member(node, 1, seed) && !leave.is_member(node, 2, seed));
        let rejoin = ChurnSchedule::Rejoin {
            leave: 2,
            rejoin: 4,
        };
        let membership: Vec<bool> = (0..6).map(|k| rejoin.is_member(node, k, seed)).collect();
        assert_eq!(membership, [true, true, false, false, true, true]);
    }

    #[test]
    fn flicker_is_deterministic_and_roughly_calibrated() {
        let c = ChurnCampaign::flicker(0.1, 7);
        let node = n(3, 2);
        let first: Vec<bool> = (0..2000).map(|k| c.is_member(node, k)).collect();
        let again: Vec<bool> = (0..2000).map(|k| c.is_member(node, k)).collect();
        assert_eq!(first, again, "membership must be a pure function");
        let absent = first.iter().filter(|&&m| !m).count();
        assert!((100..350).contains(&absent), "rate 0.1 got {absent}/2000");
        // Different nodes and different seeds gate independently.
        let other: Vec<bool> = (0..2000).map(|k| c.is_member(n(4, 2), k)).collect();
        assert_ne!(first, other);
        let reseeded = ChurnCampaign::flicker(0.1, 8);
        let differently: Vec<bool> = (0..2000).map(|k| reseeded.is_member(node, k)).collect();
        assert_ne!(first, differently);
    }

    #[test]
    fn overrides_shadow_the_default() {
        let mut c = ChurnCampaign::resident();
        c.insert(n(2, 1), ChurnSchedule::LeaveAt { pulse: 0 });
        assert!(!c.is_member(n(2, 1), 0));
        assert!(c.is_member(n(3, 1), 0));
        assert_eq!(c.override_count(), 1);
        assert_eq!(c.schedule(n(3, 1)), &ChurnSchedule::Resident);
    }

    #[test]
    fn absent_set_is_sorted_and_matches_count() {
        let g = grid();
        let mut c = ChurnCampaign::flicker(0.3, 5);
        c.insert(n(0, 1), ChurnSchedule::LeaveAt { pulse: 0 });
        for k in 0..4 {
            let absent = c.absent_set(&g, k);
            assert_eq!(absent.len(), c.absent_count(&g, k));
            assert!(absent.windows(2).all(|w| w[0] < w[1]), "pulse {k}");
            assert!(absent.contains(&n(0, 1)), "pulse {k}");
        }
    }

    #[test]
    fn send_model_masks_absent_pulses_without_faultiness() {
        let mut c = ChurnCampaign::resident();
        c.insert(
            n(1, 2),
            ChurnSchedule::Rejoin {
                leave: 1,
                rejoin: 3,
            },
        );
        let t = Some(Time::from(5.0));
        assert_eq!(c.send_time(n(1, 2), 0, t, n(1, 3)), t);
        assert_eq!(c.send_time(n(1, 2), 1, t, n(1, 3)), None);
        assert_eq!(c.send_time(n(1, 2), 3, t, n(1, 3)), t);
        assert!(!c.is_faulty(n(1, 2)));
        assert!(SendModel::is_member(&c, n(1, 2), 0));
        assert!(!SendModel::is_member(&c, n(1, 2), 2));
    }

    #[test]
    fn descriptor_round_trips() {
        let c = ChurnCampaign::flicker(0.05, 1).with_descriptor("flicker r=0.05");
        assert_eq!(c.descriptor(), "flicker r=0.05");
        assert_eq!(ChurnCampaign::resident().descriptor(), "");
        assert_eq!(c.seed(), 1);
    }

    #[test]
    #[should_panic(expected = "rate must be in")]
    fn rejects_out_of_range_rate() {
        let _ = ChurnCampaign::flicker(1.5, 0);
    }
}
