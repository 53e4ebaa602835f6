//! The correction value `C_{v,ℓ}` (paper §3, Algorithms 1 and 3).
//!
//! Given the local reception timestamps
//!
//! * `H_own` — pulse from `(v, ℓ−1)` (the node's own predecessor),
//! * `H_min` — first pulse from a neighbor `(w, ℓ−1)`, `w ≠ v`,
//! * `H_max` — last pulse from a neighbor (set only once *all* neighbors
//!   have been heard),
//!
//! the node computes
//!
//! ```text
//! Δ = min_{s∈ℕ} max(H_own − H_max + 4sκ, H_own − H_min − 4sκ) − κ/2
//! ```
//!
//! and clamps: `Δ < 0` ⇒ `C = min(H_own − H_min + 3κ/2, 0)` (a *negative*
//! correction, i.e. a delayed pulse — the paper's novel "jump"); `Δ > ϑκ` ⇒
//! `C = max(H_own − H_max − 3κ/2, ϑκ)`; otherwise `C = Δ`. The `3κ/2`
//! offsets realize the jump condition (JC): jumps stop short of the
//! measured extreme, damping the oscillation of Figure 5.
//!
//! When `H_max` never arrives (a silent faulty neighbor), Algorithm 3 exits
//! its receive loop via the `2·H_own − H_min + 2κ` deadline and must decide
//! without it; [`MissingNeighborPolicy`] selects between the two readings
//! of the text (ARCHITECTURE.md, "Algorithm-text ambiguities and the
//! diagonal re-indexing", item 3).

use crate::Params;
use trix_time::{Duration, LocalTime};

/// How to compute `C` when the last neighbor pulse never arrived
/// (`H_max = ∞` at loop exit).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum MissingNeighborPolicy {
    /// The §3 intuition bullets: if `H_own ≥ H_min` the node jumps back to
    /// the first neighbor (`C = H_own − H_min − κ/2`, pulse at
    /// `H_min + Λ − d + κ/2`); otherwise it keeps its own schedule with a
    /// small safety advance (`C = κ/2`).
    #[default]
    StickToEarlier,
    /// The literal pseudocode reading: the missing `H_max` makes
    /// `Δ = −∞`, so the negative-clamp branch fires:
    /// `C = min(H_own − H_min + 3κ/2, 0)`.
    ClampLiteral,
}

/// Tunable correction behavior; [`CorrectionConfig::paper`] is the
/// published algorithm.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CorrectionConfig {
    /// Damping margin of the jump condition. The paper uses `3κ/2`
    /// (as a multiple of κ: 1.5). Setting this to `0` or a negative value
    /// disables/overshoots the damping — the Figure 5 ablation.
    pub jump_margin_kappas: f64,
    /// Policy for a missing `H_max`.
    pub missing_neighbor: MissingNeighborPolicy,
}

impl CorrectionConfig {
    /// The published algorithm: damping margin `3κ/2`, `StickToEarlier`.
    pub const fn paper() -> Self {
        Self {
            jump_margin_kappas: 1.5,
            missing_neighbor: MissingNeighborPolicy::StickToEarlier,
        }
    }

    /// The Figure 5 ablation: jumps go all the way to the measured extreme
    /// (no damping margin), which lets measurement error accumulate into
    /// growing oscillations.
    pub const fn no_jump_damping() -> Self {
        Self {
            jump_margin_kappas: -0.5,
            missing_neighbor: MissingNeighborPolicy::StickToEarlier,
        }
    }
}

impl Default for CorrectionConfig {
    fn default() -> Self {
        Self::paper()
    }
}

/// `Δ = min_{s∈ℕ} max(a + 4sκ, b − 4sκ) − κ/2` where `a = H_own − H_max`
/// and `b = H_own − H_min`.
///
/// The discretization over `s ∈ ℕ` (rather than `x ∈ ℝ`, which would give
/// the midpoint `(H_min + H_max)/2`) is the key idea inherited from
/// Kuhn–Oshman: it alternates between over- and under-estimating skews in
/// units of `4κ`, which is what makes the gradient argument work.
///
/// # Panics
///
/// Panics if `a > b` (i.e. `H_max < H_min`) or `κ ≤ 0`.
pub fn discrete_delta(a: Duration, b: Duration, kappa: Duration) -> Duration {
    assert!(kappa > Duration::ZERO, "kappa must be positive");
    assert!(a <= b, "H_max must be at least H_min");
    let four_kappa = kappa * 4.0;
    // f(s) = max(a + 4sκ, b − 4sκ) is convex piecewise-linear; real-valued
    // minimum at s* = (b − a) / (8κ) ≥ 0.
    let s_star = (b - a) / (four_kappa * 2.0);
    let f = |s: f64| (a + four_kappa * s).max(b - four_kappa * s);
    let lo = s_star.floor().max(0.0);
    let hi = s_star.ceil().max(0.0);
    f(lo).min(f(hi)) - kappa / 2.0
}

/// Computes the correction `C_{v,ℓ}` from the local reception timestamps.
///
/// `h_max` is `None` when the receive loop exited before the last neighbor
/// pulse arrived (possible only with a faulty predecessor).
///
/// # Panics
///
/// Panics if `h_max < h_min`.
///
/// # Examples
///
/// ```
/// use trix_core::{correction, CorrectionConfig, Params};
/// use trix_time::{Duration, LocalTime};
///
/// let p = Params::with_standard_lambda(Duration::from(2000.0), Duration::from(1.0), 1.0001);
/// // All three receptions simultaneous: the node is perfectly in sync and
/// // applies no correction.
/// let c = correction(
///     &p,
///     LocalTime::from(100.0),
///     LocalTime::from(100.0),
///     Some(LocalTime::from(100.0)),
///     &CorrectionConfig::paper(),
/// );
/// assert_eq!(c, Duration::ZERO);
/// ```
pub fn correction(
    params: &Params,
    h_own: LocalTime,
    h_min: LocalTime,
    h_max: Option<LocalTime>,
    cfg: &CorrectionConfig,
) -> Duration {
    let kappa = params.kappa();
    let margin = kappa * cfg.jump_margin_kappas;
    let b = h_own - h_min;
    match h_max {
        Some(h_max) => {
            let a = h_own - h_max;
            let delta = discrete_delta(a, b, kappa);
            if delta < Duration::ZERO {
                // Negative correction: delay the pulse toward the earliest
                // neighbor, stopping `margin` short (JC damping).
                (b + margin).min(Duration::ZERO)
            } else if delta > params.theta_kappa() {
                // Large positive correction: advance toward the latest
                // neighbor, stopping `margin` short.
                (a - margin).max(params.theta_kappa())
            } else {
                delta
            }
        }
        None => match cfg.missing_neighbor {
            MissingNeighborPolicy::StickToEarlier => {
                if b >= Duration::ZERO {
                    b - kappa / 2.0
                } else {
                    kappa / 2.0
                }
            }
            MissingNeighborPolicy::ClampLiteral => (b + margin).min(Duration::ZERO),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p() -> Params {
        Params::with_standard_lambda(Duration::from(2000.0), Duration::from(1.0), 1.0001)
    }

    fn lt(x: f64) -> LocalTime {
        LocalTime::from(x)
    }

    #[test]
    fn discrete_delta_at_zero_gap() {
        let k = Duration::from(1.0);
        // a = b = 0: f(0) = 0, minimum; Δ = −κ/2.
        assert_eq!(
            discrete_delta(Duration::ZERO, Duration::ZERO, k),
            Duration::from(-0.5)
        );
    }

    #[test]
    fn discrete_delta_midpoint_within_quantum() {
        let k = Duration::from(1.0);
        // H_own − H_max = −6, H_own − H_min = 6: s* = 12/8 = 1.5.
        // f(1) = max(−2, 2) = 2; f(2) = max(2, −2) = 2; Δ = 2 − 0.5.
        assert_eq!(
            discrete_delta(Duration::from(-6.0), Duration::from(6.0), k),
            Duration::from(1.5)
        );
        // The continuous optimum would be (b+a)/2 = 0; the discrete value
        // stays within 2κ of it.
        assert!(
            discrete_delta(Duration::from(-6.0), Duration::from(6.0), k)
                .abs()
                .as_f64()
                <= 2.0
        );
    }

    #[test]
    fn discrete_delta_matches_bruteforce() {
        let k = Duration::from(0.7);
        for (a, b) in [
            (-10.0, -1.0),
            (-3.0, 5.0),
            (0.0, 0.0),
            (1.0, 2.0),
            (-20.0, 30.0),
            (4.0, 4.0),
        ] {
            let a = Duration::from(a);
            let b = Duration::from(b);
            let brute = (0..200)
                .map(|s| {
                    let s = s as f64;
                    (a + k * 4.0 * s).max(b - k * 4.0 * s)
                })
                .min()
                .unwrap()
                - k / 2.0;
            assert_eq!(discrete_delta(a, b, k), brute, "a={a:?} b={b:?}");
        }
    }

    #[test]
    fn in_sync_receptions_yield_zero() {
        // All equal: Δ = −κ/2 < 0 ⇒ C = min(0 + 3κ/2, 0) = 0.
        let c = correction(
            &p(),
            lt(0.0),
            lt(0.0),
            Some(lt(0.0)),
            &CorrectionConfig::paper(),
        );
        assert_eq!(c, Duration::ZERO);
    }

    #[test]
    fn own_ahead_of_all_delays_pulse() {
        // Own way ahead (received first): Δ < 0, jump back toward H_min but
        // stop 3κ/2 short.
        let p = p();
        let k = p.kappa().as_f64();
        let c = correction(
            &p,
            lt(0.0),
            lt(50.0 * k),
            Some(lt(52.0 * k)),
            &CorrectionConfig::paper(),
        );
        // b = −50κ; C = b + 1.5κ.
        assert!((c.as_f64() - (-48.5 * k)).abs() < 1e-9);
        assert!(c.is_negative(), "pulse must be delayed");
    }

    #[test]
    fn own_behind_all_advances_pulse() {
        // Own way behind: Δ > ϑκ, jump forward toward H_max, stop 3κ/2 short.
        let p = p();
        let k = p.kappa().as_f64();
        let c = correction(
            &p,
            lt(50.0 * k),
            lt(0.0),
            Some(lt(2.0 * k)),
            &CorrectionConfig::paper(),
        );
        // a = 48κ; C = a − 1.5κ = 46.5κ.
        assert!((c.as_f64() - 46.5 * k).abs() < 1e-9);
        assert!(c > p.theta_kappa());
    }

    #[test]
    fn moderate_offsets_stay_in_standard_range() {
        // Small skews: C stays within [0, ϑκ] (the classic GCS regime).
        let p = p();
        let k = p.kappa().as_f64();
        for own in [-0.4, 0.0, 0.3] {
            let c = correction(
                &p,
                lt(own * k),
                lt(-0.5 * k),
                Some(lt(0.5 * k)),
                &CorrectionConfig::paper(),
            );
            assert!(
                c >= Duration::ZERO && c <= p.theta_kappa(),
                "own={own}: c={c}"
            );
        }
    }

    #[test]
    fn missing_neighbor_stick_to_earlier() {
        let p = p();
        let k = p.kappa().as_f64();
        let cfg = CorrectionConfig::paper();
        // own after first neighbor: jump back to H_min (pulse near
        // H_min + Λ − d).
        let c = correction(&p, lt(10.0 * k), lt(0.0), None, &cfg);
        assert!((c.as_f64() - 9.5 * k).abs() < 1e-9);
        // own before first neighbor: keep own schedule, small advance.
        let c = correction(&p, lt(-10.0 * k), lt(0.0), None, &cfg);
        assert!((c.as_f64() - 0.5 * k).abs() < 1e-9);
    }

    #[test]
    fn missing_neighbor_clamp_literal() {
        let p = p();
        let k = p.kappa().as_f64();
        let cfg = CorrectionConfig {
            missing_neighbor: MissingNeighborPolicy::ClampLiteral,
            ..CorrectionConfig::paper()
        };
        // own ≥ min ⇒ b + 3κ/2 > 0 ⇒ C = 0.
        assert_eq!(
            correction(&p, lt(10.0 * k), lt(0.0), None, &cfg),
            Duration::ZERO
        );
        // own far before min ⇒ C = b + 3κ/2 < 0.
        let c = correction(&p, lt(-10.0 * k), lt(0.0), None, &cfg);
        assert!((c.as_f64() - (-8.5 * k)).abs() < 1e-9);
    }

    #[test]
    fn no_damping_config_overshoots() {
        let p = p();
        let k = p.kappa().as_f64();
        let damped = correction(
            &p,
            lt(0.0),
            lt(10.0 * k),
            Some(lt(10.0 * k)),
            &CorrectionConfig::paper(),
        );
        let overshoot = correction(
            &p,
            lt(0.0),
            lt(10.0 * k),
            Some(lt(10.0 * k)),
            &CorrectionConfig::no_jump_damping(),
        );
        assert!(
            overshoot < damped,
            "undamped jump must go further: {overshoot} vs {damped}"
        );
    }

    #[test]
    #[should_panic(expected = "H_max must be at least H_min")]
    fn rejects_inverted_window() {
        let _ = correction(
            &p(),
            lt(0.0),
            lt(5.0),
            Some(lt(1.0)),
            &CorrectionConfig::paper(),
        );
    }
}
