//! Hardware clock models.

use crate::{Duration, LocalTime, Time};

/// A strictly monotone, invertible hardware clock.
///
/// Implementations map real time to local time and back. The paper's drift
/// model requires the instantaneous rate to stay within `[1, ϑ]`; both
/// provided implementations ([`AffineClock`], [`PiecewiseClock`]) enforce a
/// positive rate and validate the `≥ 1` lower bound at construction when the
/// paper's convention is requested.
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

    /// Real duration corresponding to a span of `dh` local time starting at
    /// local time `h`.
    fn real_elapsed(&self, h: LocalTime, dh: Duration) -> Duration {
        self.real_at(h + dh) - self.real_at(h)
    }
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

/// One constant-rate segment of a [`PiecewiseClock`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RateSegment {
    /// Real time at which this segment begins.
    pub start: Time,
    /// Clock rate during the segment.
    pub rate: f64,
}

/// A piecewise-affine hardware clock whose rate changes at given real times.
///
/// Used for Corollary 1.5 experiments, where hardware clock speeds vary by up
/// to `n^{-1/2}(ϑ−1)·log D` between pulses. The clock is continuous: local
/// time accumulates across segments without jumps.
///
/// # Examples
///
/// ```
/// use trix_time::{Clock, Duration, PiecewiseClock, RateSegment, Time};
///
/// let clock = PiecewiseClock::new(
///     0.0,
///     vec![
///         RateSegment { start: Time::ZERO, rate: 1.0 },
///         RateSegment { start: Time::from(10.0), rate: 1.01 },
///     ],
/// );
/// let h = clock.local_at(Time::from(20.0));
/// assert!((h.as_f64() - (10.0 + 10.0 * 1.01)).abs() < 1e-12);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct PiecewiseClock {
    /// Local reading at the start of the first segment.
    initial_local: f64,
    /// Segments in strictly increasing order of `start`; the first segment's
    /// `start` is the clock's origin (queries before it extrapolate with the
    /// first rate).
    segments: Vec<RateSegment>,
    /// Cached cumulative local time at each segment start.
    local_at_start: Vec<f64>,
}

impl PiecewiseClock {
    /// Creates a piecewise clock from rate segments.
    ///
    /// # Panics
    ///
    /// Panics if `segments` is empty, starts are not strictly increasing, or
    /// any rate is non-positive.
    pub fn new(initial_local: f64, segments: Vec<RateSegment>) -> Self {
        assert!(!segments.is_empty(), "need at least one rate segment");
        for w in segments.windows(2) {
            assert!(
                w[0].start < w[1].start,
                "segment starts must be strictly increasing"
            );
        }
        for s in &segments {
            assert!(
                s.rate.is_finite() && s.rate > 0.0,
                "segment rates must be positive"
            );
        }
        let mut local_at_start = Vec::with_capacity(segments.len());
        let mut acc = initial_local;
        for (i, s) in segments.iter().enumerate() {
            local_at_start.push(acc);
            if i + 1 < segments.len() {
                let span = segments[i + 1].start - s.start;
                acc += s.rate * span.as_f64();
            }
        }
        Self {
            initial_local,
            segments,
            local_at_start,
        }
    }

    /// The segments of this clock.
    pub fn segments(&self) -> &[RateSegment] {
        &self.segments
    }
}

impl Clock for PiecewiseClock {
    fn local_at(&self, t: Time) -> LocalTime {
        // Find the last segment with start <= t (extrapolate before origin).
        let idx = match self.segments.binary_search_by(|s| s.start.cmp(&t)) {
            Ok(i) => i,
            Err(0) => 0,
            Err(i) => i - 1,
        };
        let seg = &self.segments[idx];
        let base = self.local_at_start[idx];
        LocalTime::from(base + seg.rate * (t - seg.start).as_f64())
    }

    fn real_at(&self, h: LocalTime) -> Time {
        let hv = h.as_f64();
        // Find the last segment with local_at_start <= h.
        let idx = match self.local_at_start.binary_search_by(|v| v.total_cmp(&hv)) {
            Ok(i) => i,
            Err(0) => 0,
            Err(i) => i - 1,
        };
        let seg = &self.segments[idx];
        let base = self.local_at_start[idx];
        seg.start + Duration::from((hv - base) / seg.rate)
    }
}

// A single affine clock is a degenerate piecewise clock; provide conversion.
impl From<AffineClock> for PiecewiseClock {
    fn from(c: AffineClock) -> Self {
        PiecewiseClock::new(
            c.offset(),
            vec![RateSegment {
                start: Time::ZERO,
                rate: c.rate(),
            }],
        )
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
        let real = c.real_elapsed(h0, Duration::from(6.0));
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

    #[test]
    fn piecewise_accumulates_across_segments() {
        let c = PiecewiseClock::new(
            5.0,
            vec![
                RateSegment {
                    start: Time::ZERO,
                    rate: 1.0,
                },
                RateSegment {
                    start: Time::from(10.0),
                    rate: 2.0,
                },
                RateSegment {
                    start: Time::from(20.0),
                    rate: 1.0,
                },
            ],
        );
        assert!((c.local_at(Time::from(10.0)).as_f64() - 15.0).abs() < 1e-12);
        assert!((c.local_at(Time::from(20.0)).as_f64() - 35.0).abs() < 1e-12);
        assert!((c.local_at(Time::from(25.0)).as_f64() - 40.0).abs() < 1e-12);
    }

    #[test]
    fn piecewise_round_trip() {
        let c = PiecewiseClock::new(
            0.0,
            vec![
                RateSegment {
                    start: Time::ZERO,
                    rate: 1.0001,
                },
                RateSegment {
                    start: Time::from(100.0),
                    rate: 1.0005,
                },
                RateSegment {
                    start: Time::from(250.0),
                    rate: 1.0002,
                },
            ],
        );
        for &t in &[0.0, 55.5, 100.0, 199.0, 250.0, 1234.5] {
            let t = Time::from(t);
            let back = c.real_at(c.local_at(t));
            assert!((back - t).abs().as_f64() < 1e-8, "t = {t:?}");
        }
    }

    #[test]
    fn piecewise_matches_affine_on_single_segment() {
        let a = AffineClock::with_rate_and_offset(1.003, 7.0);
        let p = PiecewiseClock::from(a);
        for &t in &[0.0, 3.25, 99.0] {
            let t = Time::from(t);
            assert!((p.local_at(t).as_f64() - a.local_at(t).as_f64()).abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn piecewise_rejects_unsorted_segments() {
        let _ = PiecewiseClock::new(
            0.0,
            vec![
                RateSegment {
                    start: Time::from(5.0),
                    rate: 1.0,
                },
                RateSegment {
                    start: Time::ZERO,
                    rate: 1.0,
                },
            ],
        );
    }
}
