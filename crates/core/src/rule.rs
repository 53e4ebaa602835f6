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
//! arrive — see ARCHITECTURE.md, "Algorithm-text ambiguities and the
//! diagonal re-indexing", items 1–2. With
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
//! # The receive loop in closed form
//!
//! Hardware clocks are affine within an iteration, so the loop's exit
//! follows from the receptions alone. One pass over the `N` neighbor
//! slots counts the heard ones, `m`, and folds `H_min` and `H_max` in
//! [`LocalTime`]'s total order. With the two deadlines over those values:
//!
//! | receptions | [`ExitKind`] | exit time |
//! |---|---|---|
//! | `m = 0`, or `m < N` with `H_own` missing | `Starved` | `∞` |
//! | `m < N`, `H_own` heard | `NeighborMissing` | `term2` |
//! | `m = N`, `H_own` missing or `H_own > term1` | `OwnMissing` | `term1` |
//! | `m = N`, `H_own` heard, `H_max > term2` | `NeighborMissing` | `term2` |
//! | otherwise | `Complete` | `min(term1, term2)` |
//!
//! This is the loop's exit to the bit. `term2` is fixed once `H_own` and
//! the first neighbor are heard, `term1` once the last neighbor is. Each
//! adds a positive window to a reception already heard, so the active
//! deadline is never earlier than the reception being processed, and the
//! loop, which takes in every reception up to and including that
//! deadline, exits exactly at it. While a neighbor is missing only
//! `term2` can fire. With every neighbor heard, the loop misses `H_own`
//! only if it comes strictly after `term1`, and the last neighbor only if
//! it comes strictly after `term2`; not both, since `H_own > term1 ≥
//! H_max` gives `term2 ≥ H_own > H_max`. A reception exactly at a
//! deadline is heard, hence the strict `>`.
//!
//! Receptions may be `±0.0` and `±∞`, ordered as [`f64::total_cmp`]
//! orders them; NaN receptions are outside this contract.

use crate::{correction, CorrectionConfig, Params};
use trix_sim::PulseRule;
use trix_time::{AffineClock, Clock, Duration, LocalTime, Time};
use trix_topology::NodeId;

/// Maps the bits of an `f64` to an integer in [`f64::total_cmp`]'s order
/// by flipping the magnitude bits of negative values. The map is its own
/// inverse, so integer `min`/`max` over keys, which compile without
/// branches, pick the same instant as [`LocalTime::min`]/[`LocalTime::max`].
#[inline]
fn total_order_key(bits: i64) -> i64 {
    bits ^ (((bits >> 63) as u64) >> 1) as i64
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

impl Decision {
    /// The receive loop never exits.
    const STARVED: Self = Self {
        exit: ExitKind::Starved,
        exit_local: LocalTime::INFINITY,
        correction: None,
        pulse_local: LocalTime::INFINITY,
    };
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
    ///
    /// # Panics
    ///
    /// Panics unless `skew_estimate` is finite and positive: the closed
    /// form of the receive loop needs a finite positive wait window.
    #[must_use]
    pub fn with_skew_estimate(mut self, skew_estimate: Duration) -> Self {
        assert!(
            skew_estimate.is_finite() && skew_estimate.is_positive(),
            "skew estimate must be finite and positive"
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
    /// never arrives in this iteration. A receive loop that can never
    /// terminate comes back as [`ExitKind::Starved`], with exit and pulse
    /// at `∞`.
    pub fn decide(&self, own: Option<LocalTime>, neighbors: &[Option<LocalTime>]) -> Decision {
        self.decide_from(own, neighbors.iter().copied())
    }

    /// [`decide`](Self::decide) over neighbor receptions produced on the
    /// fly, so that [`PulseRule::pulse_time`] converts each arrival to
    /// local time inside the fold.
    fn decide_from(
        &self,
        own: Option<LocalTime>,
        neighbors: impl ExactSizeIterator<Item = Option<LocalTime>>,
    ) -> Decision {
        let slots = neighbors.len();
        let (mut heard, mut min_key, mut max_key) = (0, i64::MAX, i64::MIN);
        for h in neighbors.flatten() {
            let key = total_order_key(h.as_f64().to_bits() as i64);
            heard += 1;
            min_key = min_key.min(key);
            max_key = max_key.max(key);
        }
        if heard == 0 {
            return Decision::STARVED;
        }
        let [h_min, h_max] = [min_key, max_key]
            .map(|key| LocalTime::from(f64::from_bits(total_order_key(key) as u64)));
        let all_heard = heard == slots;
        let kappa = self.params.kappa();
        let kappa_3_2 = kappa * 1.5;
        let lambda_minus_d = self.params.lambda() - self.params.d();
        let term1 = h_max + kappa_3_2 + self.params.theta_kappa();

        // With every neighbor heard, an own reception after term1 comes
        // after the exit.
        let Some(h_own) = own.filter(|&h| !(all_heard && h > term1)) else {
            if !all_heard {
                return Decision::STARVED;
            }
            // Own predecessor missing or late: fire off the last neighbor.
            let pulse_local = h_max + kappa_3_2 + lambda_minus_d;
            return Decision {
                exit: ExitKind::OwnMissing,
                exit_local: term1,
                correction: None,
                pulse_local: pulse_local.max(term1),
            };
        };
        let wait_window = (2.0 * self.skew_estimate + self.params.u()) * self.params.theta();
        let term2 = h_own.max(h_min) + wait_window + kappa * 2.0;
        let (exit, exit_local, h_max_at_exit) = if !all_heard || h_max > term2 {
            (ExitKind::NeighborMissing, term2, None)
        } else {
            (ExitKind::Complete, term1.min(term2), Some(h_max))
        };
        let c = correction(&self.params, h_own, h_min, h_max_at_exit, &self.config);
        let pulse_local = h_own + lambda_minus_d - c;
        Decision {
            exit,
            exit_local,
            correction: Some(c),
            pulse_local: pulse_local.max(exit_local),
        }
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
        let decision = self.decide_from(own_local, neighbor_locals);
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
        let d = rule.decide(Some(lt(100.0)), &[Some(lt(100.0)), Some(lt(100.0))]);
        assert_eq!(d.exit, ExitKind::Complete);
        assert_eq!(d.correction, Some(Duration::ZERO));
        let lmd = params().lambda() - params().d();
        assert_eq!(d.pulse_local, lt(100.0) + lmd);
    }

    #[test]
    fn own_missing_fires_from_h_max() {
        let p = params();
        let rule = GradientTrixRule::new(p);
        let d = rule.decide(None, &[Some(lt(100.0)), Some(lt(101.0))]);
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
        let d = rule.decide(
            Some(lt(deadline + 500.0)),
            &[Some(lt(100.0)), Some(lt(101.0))],
        );
        assert_eq!(d.exit, ExitKind::OwnMissing);
    }

    #[test]
    fn own_just_before_deadline_is_used() {
        let p = params();
        let rule = GradientTrixRule::new(p);
        let deadline = 101.0 + (p.kappa() * 1.5 + p.theta_kappa()).as_f64();
        let d = rule.decide(
            Some(lt(deadline - 0.01)),
            &[Some(lt(100.0)), Some(lt(101.0))],
        );
        assert_eq!(d.exit, ExitKind::Complete);
        assert!(d.correction.is_some());
    }

    #[test]
    fn neighbor_missing_uses_policy() {
        let p = params();
        let rule = GradientTrixRule::new(p);
        // One neighbor silent; own behind the heard neighbor.
        let d = rule.decide(Some(lt(105.0)), &[Some(lt(100.0)), None]);
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
        let d = rule.decide(Some(lt(100.0)), &[None, None]);
        assert_eq!(d.exit, ExitKind::Starved);
        let d = rule.decide(None, &[None, None]);
        assert_eq!(d.exit, ExitKind::Starved);
    }

    #[test]
    fn starved_when_own_and_one_neighbor_missing() {
        // Both H_own and H_max unknown: neither deadline term ever becomes
        // finite (requires ≥ 2 faulty predecessors — outside the model).
        let rule = GradientTrixRule::new(params());
        let d = rule.decide(None, &[Some(lt(100.0)), None]);
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
        let d = rule.decide(Some(lt(100.0)), &[Some(lt(100.0)), Some(lt(100.0 + k))]);
        assert_eq!(d.exit, ExitKind::Complete);
    }

    #[test]
    fn very_late_neighbor_is_excluded_from_snapshot() {
        let p = params();
        let rule = GradientTrixRule::new(p);
        // Second neighbor arrives long after every deadline: decision is
        // made without it.
        let d = rule.decide(
            Some(lt(100.0)),
            &[Some(lt(100.0)), Some(lt(100.0 + 10_000.0))],
        );
        assert_eq!(d.exit, ExitKind::NeighborMissing);
    }

    #[test]
    #[should_panic(expected = "skew estimate must be finite and positive")]
    fn rejects_nan_skew_estimate() {
        // A positive NaN, which `Duration`'s total order puts above zero.
        // Built by arithmetic, as `Duration::from` debug-asserts on NaN.
        let nan = (Duration::from(1.0) * f64::NAN).abs();
        assert!(nan > Duration::ZERO);
        let _ = GradientTrixRule::new(params()).with_skew_estimate(nan);
    }

    #[test]
    #[should_panic(expected = "skew estimate must be finite and positive")]
    fn rejects_infinite_skew_estimate() {
        let _ = GradientTrixRule::new(params()).with_skew_estimate(Duration::INFINITY);
    }

    #[test]
    #[should_panic(expected = "skew estimate must be finite and positive")]
    fn rejects_zero_skew_estimate() {
        let _ = GradientTrixRule::new(params()).with_skew_estimate(Duration::ZERO);
    }

    #[test]
    fn decision_is_deterministic() {
        let rule = GradientTrixRule::new(params());
        let a = rule.decide(Some(lt(100.3)), &[Some(lt(99.9)), Some(lt(101.2))]);
        let b = rule.decide(Some(lt(100.3)), &[Some(lt(99.9)), Some(lt(101.2))]);
        assert_eq!(a, b);
    }
}
