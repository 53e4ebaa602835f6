//! Property-based tests (proptest) for the core invariants:
//!
//! * the discretized correction formula matches a brute-force evaluation;
//! * every decision keeps the pulse inside the predecessor interval
//!   (the decision-level form of Corollary 4.29);
//! * Algorithm 1 ≡ Algorithm 3 on fault-free inputs (Lemma B.2);
//! * time/clock algebra round-trips.

use gradient_trix::core::{
    correction, discrete_delta, CorrectionConfig, ExitKind, GradientTrixRule, Params,
    SimplifiedRule,
};
use gradient_trix::time::{AffineClock, Clock, Duration, LocalTime, Time};
use proptest::prelude::*;

fn params() -> Params {
    Params::with_standard_lambda(Duration::from(2000.0), Duration::from(1.0), 1.0001)
}

proptest! {
    /// `discrete_delta` equals the brute-force minimum over s ∈ ℕ.
    #[test]
    fn discrete_delta_matches_bruteforce(
        a in -500.0f64..500.0,
        gap in 0.0f64..500.0,
        kappa in 0.1f64..10.0,
    ) {
        let a = Duration::from(a);
        let b = a + Duration::from(gap);
        let k = Duration::from(kappa);
        let brute = (0..2000)
            .map(|s| {
                let s = s as f64;
                (a + k * 4.0 * s).max(b - k * 4.0 * s)
            })
            .min()
            .unwrap()
            - k / 2.0;
        prop_assert_eq!(discrete_delta(a, b, k), brute);
    }

    /// The correction keeps the pulse inside
    /// `[min(H_own, H_min) + Λ−d − 2κ, max(H_own, H_max) + Λ−d + 2κ]`
    /// for *arbitrary* reception patterns — the containment behind every
    /// fault-tolerance theorem.
    #[test]
    fn correction_sticks_to_the_reception_interval(
        own in -1000.0f64..1000.0,
        min in -1000.0f64..1000.0,
        spread in 0.0f64..500.0,
    ) {
        let p = params();
        let h_own = LocalTime::from(own);
        let h_min = LocalTime::from(min);
        let h_max = LocalTime::from(min + spread);
        let c = correction(&p, h_own, h_min, Some(h_max), &CorrectionConfig::paper());
        let lmd = p.lambda() - p.d();
        let pulse = h_own + lmd - c;
        let lo = h_own.min(h_min) + lmd - p.kappa() * 2.0;
        let hi = h_own.max(h_max) + lmd + p.kappa() * 2.0;
        prop_assert!(pulse >= lo, "pulse {:?} below {:?}", pulse, lo);
        prop_assert!(pulse <= hi, "pulse {:?} above {:?}", pulse, hi);
    }

    /// Same containment for the complete Algorithm 3 decision, including
    /// missing-message branches.
    #[test]
    fn full_decision_sticks_to_heard_interval(
        own in proptest::option::of(-100.0f64..100.0),
        n1 in proptest::option::of(-100.0f64..100.0),
        n2 in proptest::option::of(-100.0f64..100.0),
    ) {
        let p = params();
        let rule = GradientTrixRule::new(p);
        let to_lt = |x: Option<f64>| x.map(LocalTime::from);
        let d = rule.decide(to_lt(own), &[to_lt(n1), to_lt(n2)]);
        let heard: Vec<f64> = own.into_iter().chain(n1).chain(n2).collect();
        if d.exit == ExitKind::Starved {
            return Ok(());
        }
        let lmd = (p.lambda() - p.d()).as_f64();
        let lo = heard.iter().cloned().fold(f64::MAX, f64::min) + lmd
            - 2.0 * p.kappa().as_f64();
        // Upper bound also covers the deadline-exit guard (pulse may be
        // pushed to the exit time, itself bounded by the heard interval
        // plus the deadline window).
        let window = (2.0 * rule.skew_estimate() + p.u()).as_f64() * p.theta()
            + 2.0 * p.kappa().as_f64();
        let hi = heard.iter().cloned().fold(f64::MIN, f64::max)
            + lmd.max(window)
            + 2.0 * p.kappa().as_f64();
        let pulse = d.pulse_local.as_f64();
        prop_assert!(pulse >= lo, "pulse {} below {}", pulse, lo);
        prop_assert!(pulse <= hi, "pulse {} above {}", pulse, hi);
    }

    /// Lemma B.2: with all messages present and skews in the supported
    /// range, Algorithm 1 and Algorithm 3 agree, to the bit on the
    /// `Complete` exit, where Algorithm 1's `correction` and Algorithm 3's
    /// straight-line kernel compute the same arithmetic independently.
    #[test]
    fn algorithms_1_and_3_agree_fault_free(
        base in 0.0f64..1e6,
        d_own in -60.0f64..60.0,
        d1 in -60.0f64..60.0,
        d2 in -60.0f64..60.0,
        d3 in -60.0f64..60.0,
    ) {
        let p = params();
        let simplified = SimplifiedRule::new(p);
        let full = GradientTrixRule::new(p);
        let own = LocalTime::from(base + d_own);
        let neighbors = vec![
            LocalTime::from(base + d1),
            LocalTime::from(base + d2),
            LocalTime::from(base + d3),
        ];
        let a = simplified.pulse_local(own, &neighbors);
        let d = full.decide(Some(own), &neighbors.iter().map(|&h| Some(h)).collect::<Vec<_>>());
        prop_assert!((a - d.pulse_local).abs().as_f64() < 1e-9);
        if d.exit == ExitKind::Complete {
            prop_assert_eq!(a.as_f64().to_bits(), d.pulse_local.as_f64().to_bits());
        }
    }

    /// Clock round trips: `real_at(local_at(t)) == t` within float noise.
    #[test]
    fn clock_round_trip(
        rate in 1.0f64..1.01,
        offset in -1e6f64..1e6,
        t in 0.0f64..1e9,
    ) {
        let c = AffineClock::with_rate_and_offset(rate, offset);
        let t = Time::from(t);
        let back = c.real_at(c.local_at(t));
        prop_assert!((back - t).abs().as_f64() < 1e-6);
    }

    /// Duration algebra: addition/subtraction are inverses; ordering is
    /// consistent with the underlying float.
    #[test]
    fn duration_algebra(a in -1e9f64..1e9, b in -1e9f64..1e9) {
        let da = Duration::from(a);
        let db = Duration::from(b);
        // Float addition is not exactly invertible; round-trip up to one
        // ulp at the magnitude of the larger operand.
        let tol = 1e-6 * (a.abs() + b.abs()).max(1.0);
        prop_assert!(((da + db - db) - da).abs().as_f64() <= tol);
        prop_assert_eq!(da < db, a < b);
        prop_assert_eq!((da + db).as_f64(), a + b);
    }

    /// Corrections are invariant under a common shift of all receptions
    /// (the algorithm only uses local time differences).
    #[test]
    fn correction_is_shift_invariant(
        own in -100.0f64..100.0,
        min in -100.0f64..100.0,
        spread in 0.0f64..100.0,
        shift in -1e5f64..1e5,
    ) {
        let p = params();
        let cfg = CorrectionConfig::paper();
        let c1 = correction(
            &p,
            LocalTime::from(own),
            LocalTime::from(min),
            Some(LocalTime::from(min + spread)),
            &cfg,
        );
        let c2 = correction(
            &p,
            LocalTime::from(own + shift),
            LocalTime::from(min + shift),
            Some(LocalTime::from(min + spread + shift)),
            &cfg,
        );
        prop_assert!((c1 - c2).abs().as_f64() < 1e-6);
    }
}
