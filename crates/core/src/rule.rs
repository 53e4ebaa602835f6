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
//!
//! Nearly every decision of a fault-free run takes the `Complete` row, so
//! right after the fold a kernel over raw `f64` tries that row first. It
//! runs the typed code's operations in the same order, from constants
//! built with the rule, but compares with IEEE `<` and `>`, which differ
//! from the total order only between `−0.0` and `+0.0` and at NaN. It
//! leaves the decision to the typed table, which is exact everywhere,
//! unless the row is `Complete`, every constant is finite (not so for an
//! overflowing `κ` or a NaN margin) and so is `(H_own − H_min) − (H_own −
//! H_max)`. That difference is finite only if the receptions and both
//! differences are: it rules out `±∞` and NaN receptions, the typed code's
//! panics among them, and overflow, as for own `1.7e308` and neighbors
//! `[−1.7e308, 1.7e308]`, where `H_own − H_min` is `∞`. On the rest no NaN
//! arises and a signed zero changes no bit. A sum or difference is `−0.0`
//! only if both operands are zeros, so the deadlines, the exit, `Δ` and
//! the pulse, each with a nonzero constant among its terms, are never
//! `−0.0`; a zero that `max(H_own, H_min)` or the `Δ` fold picks with
//! either sign is next added to a term that is not `−0.0`, which gives the
//! same sum for either sign.
//! The correction's one compare that can meet `−0.0`, `min(H_own − H_min +
//! margin, 0)` under a `−0.0` margin, is written `x <= 0.0`: the total
//! order's `x ≤ +0.0` for every non-NaN `x`.

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
    constants: Constants,
}

/// The constants of one rule's decisions, built when the rule is: the
/// typed exit table and the `Complete` kernel both read them.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Constants {
    /// `3κ/2`.
    kappa_3_2: Duration,
    /// `ϑκ`.
    theta_kappa: Duration,
    /// `Λ − d`.
    lambda_minus_d: Duration,
    /// `ϑ(2·L̂ + u)`, the neighbor deadline's wait window.
    wait_window: Duration,
    /// `2κ`.
    kappa_2: Duration,
    /// `4κ`, the step of [`discrete_delta`](crate::discrete_delta).
    kappa_4: Duration,
    /// `8κ = 4κ·2`.
    kappa_8: Duration,
    /// `κ/2`.
    kappa_half: Duration,
    /// The jump damping margin `κ · jump_margin_kappas`.
    margin: Duration,
    /// Every constant above is finite, as the kernel requires.
    finite: bool,
}

impl Constants {
    fn new(params: &Params, config: &CorrectionConfig, skew_estimate: Duration) -> Self {
        let kappa = params.kappa();
        let kappa_4 = kappa * 4.0;
        let mut c = Self {
            kappa_3_2: kappa * 1.5,
            theta_kappa: params.theta_kappa(),
            lambda_minus_d: params.lambda() - params.d(),
            wait_window: (2.0 * skew_estimate + params.u()) * params.theta(),
            kappa_2: kappa * 2.0,
            kappa_4,
            kappa_8: kappa_4 * 2.0,
            kappa_half: kappa / 2.0,
            margin: kappa * config.jump_margin_kappas,
            finite: false,
        };
        c.finite = [
            c.kappa_3_2,
            c.theta_kappa,
            c.lambda_minus_d,
            c.wait_window,
            c.kappa_2,
            c.kappa_4,
            c.kappa_8,
            c.kappa_half,
            c.margin,
        ]
        .iter()
        .all(|d| d.is_finite());
        c
    }
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
        Self::with_config(params, CorrectionConfig::paper())
    }

    /// Creates the rule with a custom correction configuration
    /// (ablations: jump damping margin, missing-neighbor policy).
    pub fn with_config(params: Params, config: CorrectionConfig) -> Self {
        let skew_estimate = params.max_supported_skew() / 2.0;
        Self {
            params,
            config,
            skew_estimate,
            constants: Constants::new(&params, &config, skew_estimate),
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
        self.constants = Constants::new(&self.params, &self.config, skew_estimate);
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
        let [h_min, h_max] =
            [min_key, max_key].map(|key| f64::from_bits(total_order_key(key) as u64));
        let all_heard = heard == slots;
        if let (true, Some(h_own)) = (all_heard, own) {
            if let Some(decision) = self.complete(h_own.as_f64(), h_min, h_max) {
                return decision;
            }
        }
        self.exit_table(
            own,
            LocalTime::from(h_min),
            LocalTime::from(h_max),
            all_heard,
        )
    }

    /// The exit table of the module docs, in the total order, once at
    /// least one neighbor is heard.
    fn exit_table(
        &self,
        own: Option<LocalTime>,
        h_min: LocalTime,
        h_max: LocalTime,
        all_heard: bool,
    ) -> Decision {
        let k = &self.constants;
        let term1 = h_max + k.kappa_3_2 + k.theta_kappa;

        // With every neighbor heard, an own reception after term1 comes
        // after the exit.
        let Some(h_own) = own.filter(|&h| !(all_heard && h > term1)) else {
            if !all_heard {
                return Decision::STARVED;
            }
            // Own predecessor missing or late: fire off the last neighbor.
            let pulse_local = h_max + k.kappa_3_2 + k.lambda_minus_d;
            return Decision {
                exit: ExitKind::OwnMissing,
                exit_local: term1,
                correction: None,
                pulse_local: pulse_local.max(term1),
            };
        };
        let term2 = h_own.max(h_min) + k.wait_window + k.kappa_2;
        let (exit, exit_local, h_max_at_exit) = if !all_heard || h_max > term2 {
            (ExitKind::NeighborMissing, term2, None)
        } else {
            (ExitKind::Complete, term1.min(term2), Some(h_max))
        };
        let c = correction(&self.params, h_own, h_min, h_max_at_exit, &self.config);
        let pulse_local = h_own + k.lambda_minus_d - c;
        Decision {
            exit,
            exit_local,
            correction: Some(c),
            pulse_local: pulse_local.max(exit_local),
        }
    }

    /// The `Complete` exit over raw `f64`, with every neighbor and the own
    /// reception heard: both deadline tests, the exit time, `Δ`, the
    /// correction and the pulse, each in the operation order of
    /// [`exit_table`](Self::exit_table), with IEEE compares for [`LocalTime`]'s and
    /// [`Duration`]'s total-order `min`/`max`. `None` leaves the decision
    /// to the typed code: on a passed deadline, and wherever a NaN or a
    /// signed zero could reach a compare (see the module docs).
    #[inline]
    fn complete(&self, h_own: f64, h_min: f64, h_max: f64) -> Option<Decision> {
        let k = &self.constants;
        let term1 = h_max + k.kappa_3_2.as_f64() + k.theta_kappa.as_f64();
        if !k.finite || h_own > term1 {
            return None;
        }
        let later = if h_own > h_min { h_own } else { h_min };
        let term2 = later + k.wait_window.as_f64() + k.kappa_2.as_f64();
        if h_max > term2 {
            return None;
        }
        let (a, b) = (h_own - h_max, h_own - h_min);
        // Finite only if `H_own`, `H_min`, `H_max`, `a` and `b` all are.
        let spread = b - a;
        if !spread.is_finite() {
            return None;
        }
        let (four_kappa, theta_kappa) = (k.kappa_4.as_f64(), k.theta_kappa.as_f64());
        let s_star = spread / k.kappa_8.as_f64();
        let f = |s: f64| {
            let (up, down) = (a + four_kappa * s, b - four_kappa * s);
            if up > down {
                up
            } else {
                down
            }
        };
        let (f_lo, f_hi) = (f(s_star.floor().max(0.0)), f(s_star.ceil().max(0.0)));
        let f_min = if f_lo < f_hi { f_lo } else { f_hi };
        let delta = f_min - k.kappa_half.as_f64();
        let c = if delta < 0.0 {
            // `<=`, the total order's `min`: it keeps a `−0.0`.
            let jump = b + k.margin.as_f64();
            if jump <= 0.0 {
                jump
            } else {
                0.0
            }
        } else if delta > theta_kappa {
            let jump = a - k.margin.as_f64();
            if jump > theta_kappa {
                jump
            } else {
                theta_kappa
            }
        } else {
            delta
        };
        let exit_local = if term1 < term2 { term1 } else { term2 };
        let pulse_local = h_own + k.lambda_minus_d.as_f64() - c;
        Some(Decision {
            exit: ExitKind::Complete,
            exit_local: LocalTime::from(exit_local),
            correction: Some(Duration::from(c)),
            pulse_local: LocalTime::from(if pulse_local > exit_local {
                pulse_local
            } else {
                exit_local
            }),
        })
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
    fn kernel_decides_receptions_on_the_deadlines() {
        // A reception exactly on a deadline is heard: the exit stays
        // `Complete`, and the kernel, not the exit table, decides it.
        let p = params();
        for rule in [
            GradientTrixRule::new(p),
            GradientTrixRule::new(p).with_skew_estimate(p.kappa()),
        ] {
            let c = rule.constants;
            for origin in [0.0, 1e3, -2.5e4] {
                let (h_min, h_max) = (lt(origin), lt(origin) + p.kappa());
                let own_on_term1 = h_max + c.kappa_3_2 + c.theta_kappa;
                // The own reception at `H_min`: `max(H_own, H_min) = H_min`.
                let last_on_term2 = h_min + c.wait_window + c.kappa_2;
                for (own, h_max) in [(own_on_term1, h_max), (h_min, last_on_term2)] {
                    let typed = rule.exit_table(Some(own), h_min, h_max, true);
                    assert_eq!(typed.exit, ExitKind::Complete);
                    let kernel = rule.complete(own.as_f64(), h_min.as_f64(), h_max.as_f64());
                    assert_eq!(kernel, Some(typed), "own {own:?}, H_max {h_max:?}");
                }
            }
        }
    }

    #[test]
    fn kernel_defers_to_the_exit_table_on_non_finite_constants() {
        // κ overflows to ∞, and a NaN margin: either puts a NaN into the
        // kernel's compares, where IEEE and the total order part.
        let huge = Params::new(
            Duration::from(1.5e308),
            Duration::from(1e308),
            1.0,
            Duration::from(1.7e308),
        );
        assert!(!huge.kappa().is_finite());
        let nan_margin = CorrectionConfig {
            jump_margin_kappas: f64::NAN,
            ..CorrectionConfig::paper()
        };
        let k = params().kappa().as_f64();
        for rule in [
            GradientTrixRule::new(huge),
            GradientTrixRule::with_config(params(), nan_margin),
        ] {
            // In sync, own ahead (Δ < 0) and own behind (Δ > ϑκ).
            for (own, neighbors) in [
                (0.0, [0.0, 0.0]),
                (0.0, [k, 2.0 * k]),
                (0.0, [-2.0 * k, -3.0 * k]),
            ] {
                let heard = neighbors.map(|h| Some(lt(h)));
                let typed = rule.exit_table(
                    Some(lt(own)),
                    lt(neighbors[0].min(neighbors[1])),
                    lt(neighbors[0].max(neighbors[1])),
                    true,
                );
                let bits = |d: Decision| {
                    (
                        d.exit,
                        d.exit_local.as_f64().to_bits(),
                        d.correction.map(|c| c.as_f64().to_bits()),
                        d.pulse_local.as_f64().to_bits(),
                    )
                };
                assert_eq!(
                    bits(rule.decide(Some(lt(own)), &heard)),
                    bits(typed),
                    "own {own}, neighbors {neighbors:?}"
                );
            }
        }
    }

    #[test]
    fn decision_is_deterministic() {
        let rule = GradientTrixRule::new(params());
        let a = rule.decide(Some(lt(100.3)), &[Some(lt(99.9)), Some(lt(101.2))]);
        let b = rule.decide(Some(lt(100.3)), &[Some(lt(99.9)), Some(lt(101.2))]);
        assert_eq!(a, b);
    }
}
