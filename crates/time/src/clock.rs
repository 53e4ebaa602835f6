//! Hardware clock models.

use crate::{LocalTime, Time};

/// A strictly monotone, invertible hardware clock.
///
/// Implementations map real time to local time and back. The paper's drift
/// model requires the instantaneous rate to stay within `[1, ϑ]`.
///
/// [`AffineClock`] is the one implementor: every engine runs constant-rate
/// clocks, and slowly changing rates are modelled per pulse by the dataflow
/// environments instead. The trait stays because the host-time benchmark
/// under `hostbench/` imports it to call [`Clock::local_at`] and
/// [`Clock::real_at`].
///
/// # Examples
///
/// ```
/// use trix_time::{AffineClock, Clock, Duration, Time};
///
/// let c = AffineClock::with_rate(1.001);
/// let h0 = c.local_at(Time::ZERO);
/// let h1 = c.local_at(Time::ZERO + Duration::from(1.0));
/// assert!((h1 - h0).as_f64() > 1.0);
/// ```
pub trait Clock {
    /// Local clock reading at real time `t`.
    fn local_at(&self, t: Time) -> LocalTime;

    /// The real time at which the clock reads `h`.
    ///
    /// This is the inverse of [`Clock::local_at`]; implementations guarantee
    /// `real_at(local_at(t)) == t` up to floating-point rounding.
    fn real_at(&self, h: LocalTime) -> Time;
}

/// A constant-rate hardware clock: `H(t) = rate · t + offset`.
///
/// This is the static model used in the paper's analysis: "we assume that
/// hardware clock speeds are static (or changing slowly)" (§2). The rate must
/// lie in `[1, ϑ]` for the skew bounds to apply; this type only requires a
/// strictly positive rate so that adversarial/out-of-model experiments remain
/// expressible.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AffineClock {
    rate: f64,
    offset: f64,
}

impl AffineClock {
    /// A perfect clock (`rate = 1`, `offset = 0`).
    pub const PERFECT: Self = Self {
        rate: 1.0,
        offset: 0.0,
    };

    /// Creates a clock with the given rate and zero offset.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not strictly positive and finite.
    pub fn with_rate(rate: f64) -> Self {
        Self::with_rate_and_offset(rate, 0.0)
    }

    /// Creates a clock with the given rate and offset.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not strictly positive and finite, or `offset` is
    /// not finite.
    pub fn with_rate_and_offset(rate: f64, offset: f64) -> Self {
        assert!(
            rate.is_finite() && rate > 0.0,
            "clock rate must be positive and finite, got {rate}"
        );
        assert!(offset.is_finite(), "clock offset must be finite");
        Self { rate, offset }
    }

    /// The constant rate of this clock.
    #[inline]
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// The local reading at real time zero.
    #[inline]
    pub fn offset(&self) -> f64 {
        self.offset
    }

    /// Returns `true` if the rate satisfies the paper's `[1, ϑ]` window.
    pub fn within_drift_bound(&self, theta: f64) -> bool {
        (1.0..=theta).contains(&self.rate)
    }
}

impl Default for AffineClock {
    fn default() -> Self {
        Self::PERFECT
    }
}

impl Clock for AffineClock {
    #[inline]
    fn local_at(&self, t: Time) -> LocalTime {
        LocalTime::from(self.rate * t.as_f64() + self.offset)
    }

    #[inline]
    fn real_at(&self, h: LocalTime) -> Time {
        Time::from((h.as_f64() - self.offset) / self.rate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn affine_round_trip() {
        let c = AffineClock::with_rate_and_offset(1.25, -3.0);
        for &t in &[0.0, 1.0, 17.5, 1e6] {
            let t = Time::from(t);
            let back = c.real_at(c.local_at(t));
            assert!((back - t).abs().as_f64() < 1e-9);
        }
    }

    #[test]
    fn affine_rate_scales_elapsed_time() {
        let c = AffineClock::with_rate(2.0);
        let h0 = c.local_at(Time::from(1.0));
        let h1 = c.local_at(Time::from(4.0));
        assert!(((h1 - h0).as_f64() - 6.0).abs() < 1e-12);
        let real = c.real_at(h1) - c.real_at(h0);
        assert!((real.as_f64() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn affine_drift_bound_check() {
        assert!(AffineClock::with_rate(1.0).within_drift_bound(1.01));
        assert!(AffineClock::with_rate(1.01).within_drift_bound(1.01));
        assert!(!AffineClock::with_rate(0.999).within_drift_bound(1.01));
        assert!(!AffineClock::with_rate(1.02).within_drift_bound(1.01));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn affine_rejects_zero_rate() {
        let _ = AffineClock::with_rate(0.0);
    }
}
