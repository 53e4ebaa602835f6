//! The complete pulse-forwarding decision (paper Algorithm 3) as a pure,
//! per-iteration rule for the dataflow executor.
//!
//! Algorithm 3 extends the simplified Algorithm 1 with deadline logic so a
//! faulty predecessor that sends late — or never — cannot deadlock its
//! successors. Its receive loop exits at the first local time `T` with
//!
//! ```text
//! H_min < ∞   and   H(T) ≥ min( term1, term2 )
//! term1 = H_max + 3κ/2 + ϑκ                      (own-predecessor deadline)
//! term2 = max(H_own, H_min) + ϑ(2·L̂ + u) + 2κ   (neighbor deadline)
//! ```
//!
//! where each term is `∞` while its timestamps are unknown and `L̂` is a
//! configured skew-bound estimate. These deadlines follow the Appendix B
//! prose ("wait until `median{H_own, H_min, H_max} + ϑ·L_{ℓ−1}` or later …
//! any message missing is due to a fault") rather than the printed
//! condition, which can fire before correct-but-lagging neighbor pulses
//! arrive — see DESIGN.md §"Algorithm-text ambiguities" items 1–2. With
//! them, Lemma B.2 (equivalence with Algorithm 1 for fault-free
//! predecessors) holds *exactly*, which the test suite verifies
//! bit-for-bit. The branch taken after exit depends on whether `H_own` was
//! known at that moment:
//!
//! * `H_own = ∞` (own predecessor silent/late): pulse at local time
//!   `H_max + 3κ/2 + Λ − d`;
//! * otherwise: compute `C` from the snapshot (with `H_max` possibly still
//!   missing — see [`MissingNeighborPolicy`](crate::MissingNeighborPolicy))
//!   and pulse at `H_own + Λ − d − C`.
//!
//! This module evaluates that temporal process in closed form: reception
//! events are swept in local-time order and the earliest exit instant is
//! computed exactly, which is possible because hardware clocks are affine
//! within an iteration. The sweep runs once per node and pulse, so it
//! sorts its events in a stack buffer and allocates nothing for
//! in-degrees up to `INLINE_EVENTS`.

use crate::{correction, CorrectionConfig, Params};
use trix_sim::PulseRule;
use trix_time::{AffineClock, Clock, Duration, LocalTime, Time};
use trix_topology::NodeId;

/// Receptions (own plus neighbors) a decision sweeps from a stack buffer.
/// This covers the paper grid (in-degree ≤ 4), tori (5) and hypercubes up
/// to dimension 15; larger arrival sets, such as supernode hubs, spill
/// into one heap buffer and run the same sweep.
const INLINE_EVENTS: usize = 16;

/// One reception of the receive loop, at its local time.
#[derive(Clone, Copy)]
enum Ev {
    Own(LocalTime),
    Neighbor(LocalTime),
}

impl Ev {
    #[inline]
    fn at(self) -> LocalTime {
        match self {
            Ev::Own(h) | Ev::Neighbor(h) => h,
        }
    }
}

/// Writes the receptions into `buf` in local-time order and returns them.
///
/// An insertion sort under `LocalTime`'s total order that shifts only
/// strictly later events, so it is stable: on a tie the own reception
/// comes first and neighbors keep slot order, as a stable sort of
/// `own, neighbors…` would leave them.
fn sort_events(
    buf: &mut [Ev],
    own: Option<LocalTime>,
    neighbors: impl Iterator<Item = Option<LocalTime>>,
) -> &[Ev] {
    let mut len = 0;
    if let Some(h) = own {
        buf[0] = Ev::Own(h);
        len = 1;
    }
    for h in neighbors.flatten() {
        let mut j = len;
        while j > 0 && buf[j - 1].at() > h {
            buf[j] = buf[j - 1];
            j -= 1;
        }
        buf[j] = Ev::Neighbor(h);
        len += 1;
    }
    &buf[..len]
}

/// The Gradient TRIX forwarding rule (Algorithm 3 semantics).
///
/// # Examples
///
/// ```
/// use trix_core::{GradientTrixRule, Params};
/// use trix_sim::PulseRule;
/// use trix_time::{AffineClock, Duration, Time};
/// use trix_topology::NodeId;
///
/// let p = Params::with_standard_lambda(Duration::from(2000.0), Duration::from(1.0), 1.0001);
/// let rule = GradientTrixRule::new(p);
/// let t = rule
///     .pulse_time(
///         NodeId::new(0, 1),
///         0,
///         Some(Time::from(100.0)),
///         &[Some(Time::from(100.0)), Some(Time::from(100.0))],
///         &AffineClock::PERFECT,
///     )
///     .unwrap();
/// // Perfectly synchronized inputs: pulse Λ − d after reception.
/// assert_eq!(t, Time::from(100.0) + (p.lambda() - p.d()));
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GradientTrixRule {
    params: Params,
    config: CorrectionConfig,
    skew_estimate: Duration,
}

/// How the receive loop of Algorithm 3 terminated.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExitKind {
    /// All predecessors heard; values complete.
    Complete,
    /// Exited by deadline with `H_own` unknown (faulty own predecessor).
    OwnMissing,
    /// Exited by deadline with some neighbor unknown (faulty neighbor).
    NeighborMissing,
    /// Loop can never exit (fewer than one neighbor heard, or both `H_own`
    /// and a neighbor missing — impossible under 1-local faults).
    Starved,
}

/// The full outcome of one decision, for analysis and testing.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Decision {
    /// How the receive loop exited.
    pub exit: ExitKind,
    /// Local time at which the receive loop exited.
    pub exit_local: LocalTime,
    /// The correction applied (`None` for the `OwnMissing` branch, which
    /// schedules directly off `H_max`).
    pub correction: Option<Duration>,
    /// Local broadcast time.
    pub pulse_local: LocalTime,
}

impl GradientTrixRule {
    /// Creates the rule with the published correction configuration and a
    /// conservative default skew estimate `L̂` (half the largest skew the
    /// parameters support).
    pub fn new(params: Params) -> Self {
        Self {
            params,
            config: CorrectionConfig::paper(),
            skew_estimate: params.max_supported_skew() / 2.0,
        }
    }

    /// Creates the rule with a custom correction configuration
    /// (ablations: jump damping margin, missing-neighbor policy).
    pub fn with_config(params: Params, config: CorrectionConfig) -> Self {
        Self {
            params,
            config,
            skew_estimate: params.max_supported_skew() / 2.0,
        }
    }

    /// Sets the skew estimate `L̂` used by the neighbor deadline
    /// `term2 = max(H_own, H_min) + ϑ(2·L̂ + u) + 2κ`. A tighter estimate
    /// makes nodes give up on silent faulty neighbors sooner.
    #[must_use]
    pub fn with_skew_estimate(mut self, skew_estimate: Duration) -> Self {
        assert!(
            skew_estimate > Duration::ZERO,
            "skew estimate must be positive"
        );
        self.skew_estimate = skew_estimate;
        self
    }

    /// The parameters in use.
    pub fn params(&self) -> &Params {
        &self.params
    }

    /// The correction configuration in use.
    pub fn config(&self) -> &CorrectionConfig {
        &self.config
    }

    /// The skew estimate `L̂` used by the neighbor deadline.
    pub fn skew_estimate(&self) -> Duration {
        self.skew_estimate
    }

    /// Evaluates one iteration's decision from *local* reception times.
    ///
    /// `own` is the reception of the pulse from `(v, ℓ−1)`; `neighbors[i]`
    /// from the `i`-th base-graph neighbor's copy. `None` = that message
    /// never arrives in this iteration. Returns `None` only when the
    /// receive loop can never terminate ([`ExitKind::Starved`]).
    pub fn decide(
        &self,
        own: Option<LocalTime>,
        neighbors: &[Option<LocalTime>],
    ) -> Option<Decision> {
        self.decide_from(own, neighbors.iter().copied())
    }

    /// [`decide`](Self::decide) over neighbor receptions produced on the
    /// fly, so that [`PulseRule::pulse_time`] converts each arrival to
    /// local time straight into the event buffer.
    fn decide_from(
        &self,
        own: Option<LocalTime>,
        neighbors: impl ExactSizeIterator<Item = Option<LocalTime>>,
    ) -> Option<Decision> {
        let total_neighbors = neighbors.len();
        let mut inline = [Ev::Own(LocalTime::ZERO); INLINE_EVENTS];
        let mut spill = Vec::new();
        let buf = if total_neighbors < INLINE_EVENTS {
            &mut inline[..]
        } else {
            spill.resize(1 + total_neighbors, Ev::Own(LocalTime::ZERO));
            &mut spill[..]
        };
        self.sweep(sort_events(buf, own, neighbors), total_neighbors)
    }

    /// The receive loop over `events`, sorted by local time, from a
    /// node with `total_neighbors` neighbor slots.
    fn sweep(&self, events: &[Ev], total_neighbors: usize) -> Option<Decision> {
        let kappa = self.params.kappa();
        let lambda_minus_d = self.params.lambda() - self.params.d();
        let theta_kappa = self.params.theta_kappa();
        // Operands of the two deadline terms, fixed for the whole sweep.
        let kappa_3_2 = kappa * 1.5;
        let kappa_2 = kappa * 2.0;
        let wait_window = (2.0 * self.skew_estimate + self.params.u()) * self.params.theta();

        let mut h_own: Option<LocalTime> = None;
        let mut h_min: Option<LocalTime> = None;
        let mut h_max_running: Option<LocalTime> = None;
        let mut heard_neighbors = 0usize;

        let mut exit: Option<(LocalTime, Option<LocalTime>, Option<LocalTime>)> = None;
        for (idx, &event) in events.iter().enumerate() {
            let event_local = match event {
                Ev::Own(h) => {
                    h_own = Some(h);
                    h
                }
                Ev::Neighbor(h) => {
                    heard_neighbors += 1;
                    if h_min.is_none() {
                        h_min = Some(h);
                    }
                    h_max_running = Some(h_max_running.map_or(h, |m: LocalTime| m.max(h)));
                    h
                }
            };
            let Some(hmin) = h_min else { continue };
            let h_max_known = if heard_neighbors == total_neighbors {
                h_max_running
            } else {
                None
            };
            let term1 = h_max_known.map(|m| m + kappa_3_2 + theta_kappa);
            let term2 = h_own.map(|o| o.max(hmin) + wait_window + kappa_2);
            let threshold = match (term1, term2) {
                (Some(a), Some(b)) => a.min(b),
                (Some(a), None) => a,
                (None, Some(b)) => b,
                (None, None) => continue,
            };
            let candidate = event_local.max(threshold);
            // If another reception happens before (or exactly at) the
            // candidate exit time, process it first — it may change the
            // snapshot the decision is based on.
            if let Some(next) = events.get(idx + 1) {
                if next.at() <= candidate {
                    continue;
                }
            }
            exit = Some((candidate, h_own, h_max_known));
            break;
        }

        let Some((exit_local, own_at_exit, h_max_at_exit)) = exit else {
            return Some(Decision {
                exit: ExitKind::Starved,
                exit_local: LocalTime::INFINITY,
                correction: None,
                pulse_local: LocalTime::INFINITY,
            });
        };
        let h_min = h_min.expect("exit requires at least one neighbor heard");

        let decision = match own_at_exit {
            None => {
                // Own predecessor missing: fire off the last neighbor.
                let h_max =
                    h_max_at_exit.expect("deadline exit without H_own requires H_max known");
                let pulse_local = h_max + kappa_3_2 + lambda_minus_d;
                Decision {
                    exit: ExitKind::OwnMissing,
                    exit_local,
                    correction: None,
                    pulse_local: pulse_local.max(exit_local),
                }
            }
            Some(h_own) => {
                let c = correction(&self.params, h_own, h_min, h_max_at_exit, &self.config);
                let pulse_local = h_own + lambda_minus_d - c;
                Decision {
                    exit: if h_max_at_exit.is_some() {
                        ExitKind::Complete
                    } else {
                        ExitKind::NeighborMissing
                    },
                    exit_local,
                    correction: Some(c),
                    pulse_local: pulse_local.max(exit_local),
                }
            }
        };
        Some(decision)
    }
}

impl PulseRule for GradientTrixRule {
    fn pulse_time(
        &self,
        _node: NodeId,
        _k: usize,
        own: Option<Time>,
        neighbors: &[Option<Time>],
        clock: &AffineClock,
    ) -> Option<Time> {
        let own_local = own.map(|t| clock.local_at(t));
        let neighbor_locals = neighbors.iter().map(|t| t.map(|t| clock.local_at(t)));
        let decision = self.decide_from(own_local, neighbor_locals)?;
        if decision.exit == ExitKind::Starved {
            return None;
        }
        Some(clock.real_at(decision.pulse_local))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> Params {
        Params::with_standard_lambda(Duration::from(2000.0), Duration::from(1.0), 1.0001)
    }

    fn lt(x: f64) -> LocalTime {
        LocalTime::from(x)
    }

    #[test]
    fn complete_reception_uses_correction_path() {
        let rule = GradientTrixRule::new(params());
        let d = rule
            .decide(Some(lt(100.0)), &[Some(lt(100.0)), Some(lt(100.0))])
            .unwrap();
        assert_eq!(d.exit, ExitKind::Complete);
        assert_eq!(d.correction, Some(Duration::ZERO));
        let lmd = params().lambda() - params().d();
        assert_eq!(d.pulse_local, lt(100.0) + lmd);
    }

    #[test]
    fn own_missing_fires_from_h_max() {
        let p = params();
        let rule = GradientTrixRule::new(p);
        let d = rule
            .decide(None, &[Some(lt(100.0)), Some(lt(101.0))])
            .unwrap();
        assert_eq!(d.exit, ExitKind::OwnMissing);
        let expected = lt(101.0) + p.kappa() * 1.5 + (p.lambda() - p.d());
        assert_eq!(d.pulse_local, expected);
        // Exit happened at the H_max deadline.
        assert_eq!(d.exit_local, lt(101.0) + p.kappa() * 1.5 + p.theta_kappa());
    }

    #[test]
    fn own_late_is_treated_as_missing() {
        let p = params();
        let rule = GradientTrixRule::new(p);
        // Own arrives far after the H_max deadline.
        let deadline = 101.0 + (p.kappa() * 1.5 + p.theta_kappa()).as_f64();
        let d = rule
            .decide(
                Some(lt(deadline + 500.0)),
                &[Some(lt(100.0)), Some(lt(101.0))],
            )
            .unwrap();
        assert_eq!(d.exit, ExitKind::OwnMissing);
    }

    #[test]
    fn own_just_before_deadline_is_used() {
        let p = params();
        let rule = GradientTrixRule::new(p);
        let deadline = 101.0 + (p.kappa() * 1.5 + p.theta_kappa()).as_f64();
        let d = rule
            .decide(
                Some(lt(deadline - 0.01)),
                &[Some(lt(100.0)), Some(lt(101.0))],
            )
            .unwrap();
        assert_eq!(d.exit, ExitKind::Complete);
        assert!(d.correction.is_some());
    }

    #[test]
    fn neighbor_missing_uses_policy() {
        let p = params();
        let rule = GradientTrixRule::new(p);
        // One neighbor silent; own behind the heard neighbor.
        let d = rule
            .decide(Some(lt(105.0)), &[Some(lt(100.0)), None])
            .unwrap();
        assert_eq!(d.exit, ExitKind::NeighborMissing);
        // StickToEarlier: C = H_own − H_min − κ/2 ⇒ pulse at H_min + Λ−d + κ/2.
        let expected = lt(100.0) + (p.lambda() - p.d()) + p.kappa() / 2.0;
        assert_eq!(d.pulse_local, expected);
        // Exit at the neighbor deadline max(H_own, H_min) + ϑ(2L̂+u) + 2κ.
        let window = (2.0 * rule.skew_estimate() + p.u()) * p.theta();
        assert_eq!(d.exit_local, lt(105.0) + window + p.kappa() * 2.0);
    }

    #[test]
    fn starved_without_any_neighbor() {
        let rule = GradientTrixRule::new(params());
        let d = rule.decide(Some(lt(100.0)), &[None, None]).unwrap();
        assert_eq!(d.exit, ExitKind::Starved);
        let d = rule.decide(None, &[None, None]).unwrap();
        assert_eq!(d.exit, ExitKind::Starved);
    }

    #[test]
    fn starved_when_own_and_one_neighbor_missing() {
        // Both H_own and H_max unknown: neither deadline term ever becomes
        // finite (requires ≥ 2 faulty predecessors — outside the model).
        let rule = GradientTrixRule::new(params());
        let d = rule.decide(None, &[Some(lt(100.0)), None]).unwrap();
        assert_eq!(d.exit, ExitKind::Starved);
    }

    #[test]
    fn pulse_rule_converts_clock_domains() {
        let p = params();
        let rule = GradientTrixRule::new(p);
        let clock = AffineClock::with_rate_and_offset(1.00005, 17.0);
        let t = rule
            .pulse_time(
                NodeId::new(0, 1),
                0,
                Some(Time::from(100.0)),
                &[Some(Time::from(100.0)), Some(Time::from(100.0))],
                &clock,
            )
            .unwrap();
        // C = 0; pulse at local(100) + Λ−d, i.e. real 100 + (Λ−d)/rate.
        let expected = Time::from(100.0 + (p.lambda() - p.d()).as_f64() / 1.00005);
        assert!((t - expected).abs().as_f64() < 1e-9);
    }

    #[test]
    fn late_neighbor_arriving_before_candidate_exit_is_included() {
        let p = params();
        let rule = GradientTrixRule::new(p);
        let k = p.kappa().as_f64();
        // Own and first neighbor at 100; second neighbor arrives slightly
        // after, but well before the deadline 2·H_own − H_min + 2κ.
        let d = rule
            .decide(Some(lt(100.0)), &[Some(lt(100.0)), Some(lt(100.0 + k))])
            .unwrap();
        assert_eq!(d.exit, ExitKind::Complete);
    }

    #[test]
    fn very_late_neighbor_is_excluded_from_snapshot() {
        let p = params();
        let rule = GradientTrixRule::new(p);
        // Second neighbor arrives long after every deadline: decision is
        // made without it.
        let d = rule
            .decide(
                Some(lt(100.0)),
                &[Some(lt(100.0)), Some(lt(100.0 + 10_000.0))],
            )
            .unwrap();
        assert_eq!(d.exit, ExitKind::NeighborMissing);
    }

    #[test]
    fn decision_is_deterministic() {
        let rule = GradientTrixRule::new(params());
        let a = rule.decide(Some(lt(100.3)), &[Some(lt(99.9)), Some(lt(101.2))]);
        let b = rule.decide(Some(lt(100.3)), &[Some(lt(99.9)), Some(lt(101.2))]);
        assert_eq!(a, b);
    }
}
