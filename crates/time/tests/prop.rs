//! Property tests for clocks and time algebra.

use proptest::prelude::*;
use trix_time::{AffineClock, Clock, LocalTime, Time};

proptest! {
    /// Elapsed local time respects the rate bounds on affine clocks.
    #[test]
    fn affine_elapsed_within_rate_bounds(
        rate in 1.0f64..1.5,
        t0 in 0.0f64..1e6,
        dt in 0.001f64..1e4,
    ) {
        let c = AffineClock::with_rate(rate);
        let h0 = c.local_at(Time::from(t0));
        let h1 = c.local_at(Time::from(t0 + dt));
        let elapsed = (h1 - h0).as_f64();
        prop_assert!(elapsed >= dt * 0.999_999);
        prop_assert!(elapsed <= dt * rate * 1.000_001);
    }

    /// `real_at` maps a local span of `dh` to a real span of `dh / rate`.
    #[test]
    fn real_at_inverts_local_spans(rate in 1.0f64..1.5, dh in 0.1f64..1e4) {
        let c = AffineClock::with_rate(rate);
        let real = c.real_at(LocalTime::from(dh)) - c.real_at(LocalTime::ZERO);
        prop_assert!((real.as_f64() - dh / rate).abs() < 1e-6);
    }
}
