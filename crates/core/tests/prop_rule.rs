//! Property tests for the decision procedure beyond the root-level suite:
//! discretization quality, robust-rule reduction, decision monotonicity,
//! and bit equality with a reference implementation of the receive loop.

use proptest::prelude::*;
use trix_core::{
    correction, discrete_delta, CorrectionConfig, Decision, ExitKind, GradientTrixRule,
    MissingNeighborPolicy, Params, RobustRule, SimplifiedRule,
};
use trix_sim::PulseRule;
use trix_time::{AffineClock, Clock, Duration, LocalTime, Time};
use trix_topology::NodeId;

fn params() -> Params {
    Params::with_standard_lambda(Duration::from(2000.0), Duration::from(1.0), 1.0001)
}

/// Reference Algorithm 3 decision: the receive loop as first written,
/// collecting the receptions into a `Vec`, ordering them with the
/// standard library's stable sort and sweeping them one reception at a
/// time. `GradientTrixRule::decide` computes the exit in closed form
/// instead and must agree with this bit for bit.
fn reference_decide(
    rule: &GradientTrixRule,
    own: Option<LocalTime>,
    neighbors: &[Option<LocalTime>],
) -> Decision {
    let params = rule.params();
    let kappa = params.kappa();
    let lambda_minus_d = params.lambda() - params.d();
    let theta_kappa = params.theta_kappa();

    // Sweep reception events in local-time order.
    #[derive(Clone, Copy)]
    enum Ev {
        Own(LocalTime),
        Neighbor(LocalTime),
    }
    let mut events: Vec<Ev> = Vec::with_capacity(1 + neighbors.len());
    if let Some(h) = own {
        events.push(Ev::Own(h));
    }
    for h in neighbors.iter().flatten() {
        events.push(Ev::Neighbor(*h));
    }
    events.sort_by_key(|e| match *e {
        Ev::Own(h) | Ev::Neighbor(h) => h,
    });

    let total_neighbors = neighbors.len();
    let mut h_own: Option<LocalTime> = None;
    let mut h_min: Option<LocalTime> = None;
    let mut h_max_running: Option<LocalTime> = None;
    let mut heard_neighbors = 0usize;

    let mut exit: Option<(LocalTime, Option<LocalTime>, Option<LocalTime>)> = None;
    for idx in 0..events.len() {
        let event_local = match events[idx] {
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
        let term1 = h_max_known.map(|m| m + kappa * 1.5 + theta_kappa);
        let wait_window = (2.0 * rule.skew_estimate() + params.u()) * params.theta();
        let term2 = h_own.map(|o| o.max(hmin) + wait_window + kappa * 2.0);
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
            let next_local = match *next {
                Ev::Own(h) | Ev::Neighbor(h) => h,
            };
            if next_local <= candidate {
                continue;
            }
        }
        exit = Some((candidate, h_own, h_max_known));
        break;
    }

    let Some((exit_local, own_at_exit, h_max_at_exit)) = exit else {
        return Decision {
            exit: ExitKind::Starved,
            exit_local: LocalTime::INFINITY,
            correction: None,
            pulse_local: LocalTime::INFINITY,
        };
    };
    let h_min = h_min.expect("exit requires at least one neighbor heard");

    match own_at_exit {
        None => {
            // Own predecessor missing: fire off the last neighbor.
            let h_max = h_max_at_exit.expect("deadline exit without H_own requires H_max known");
            let pulse_local = h_max + kappa * 1.5 + lambda_minus_d;
            Decision {
                exit: ExitKind::OwnMissing,
                exit_local,
                correction: None,
                pulse_local: pulse_local.max(exit_local),
            }
        }
        Some(h_own) => {
            let c = correction(params, h_own, h_min, h_max_at_exit, rule.config());
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
    }
}

/// Every field of a decision, floats by their bits.
fn decision_bits(d: Decision) -> (ExitKind, u64, Option<u64>, u64) {
    (
        d.exit,
        d.exit_local.as_f64().to_bits(),
        d.correction.map(|c| c.as_f64().to_bits()),
        d.pulse_local.as_f64().to_bits(),
    )
}

/// `PulseRule::pulse_time` computed through the reference decision.
fn reference_pulse_time(
    rule: &GradientTrixRule,
    own: Option<Time>,
    neighbors: &[Option<Time>],
    clock: &AffineClock,
) -> Option<Time> {
    let own_local = own.map(|t| clock.local_at(t));
    let neighbor_locals: Vec<Option<LocalTime>> = neighbors
        .iter()
        .map(|t| t.map(|t| clock.local_at(t)))
        .collect();
    let decision = reference_decide(rule, own_local, &neighbor_locals);
    if decision.exit == ExitKind::Starved {
        return None;
    }
    Some(clock.real_at(decision.pulse_local))
}

/// The rules the two reference properties check: the paper's, with a
/// drawn skew estimate of `estimate_quarters · κ/4`, and under every
/// correction setting the decision reads: the no-damping ablation, the
/// literal missing-neighbor clamp and margins of `0.0` and `−0.0`. The
/// last has `κ = ϑκ = 1`, where every lattice reception, difference and
/// window is exact, so `Δ` lands on both correction thresholds. Its
/// margin `−κ` is below `−κ/2`: only there can `min(H_own − H_min +
/// margin, 0)` differ from `Δ = 0`, so only there does the `Δ < 0` test's
/// strictness show.
fn rules(estimate_quarters: u32) -> Vec<GradientTrixRule> {
    let p = params();
    let margin = |jump_margin_kappas| CorrectionConfig {
        jump_margin_kappas,
        ..CorrectionConfig::paper()
    };
    let exact = Params::new(
        Duration::from(2000.0),
        Duration::from(0.5),
        1.0,
        Duration::from(4000.0),
    );
    vec![
        GradientTrixRule::new(p),
        GradientTrixRule::new(p).with_skew_estimate(p.kappa() / 4.0 * estimate_quarters as f64),
        GradientTrixRule::with_config(p, CorrectionConfig::no_jump_damping()),
        GradientTrixRule::with_config(
            p,
            CorrectionConfig {
                missing_neighbor: MissingNeighborPolicy::ClampLiteral,
                ..CorrectionConfig::paper()
            },
        ),
        GradientTrixRule::with_config(p, margin(0.0)),
        GradientTrixRule::with_config(p, margin(-0.0)),
        GradientTrixRule::with_config(exact, margin(-1.0)),
    ]
}

/// Origins of the deadline property's receptions: ordinary ones,
/// magnitudes from 1e17 up, where `κ/4` steps, and at the larger ones the
/// deadline windows too, round back to the reception they are added to,
/// and `±1.7e308`, where `H_own − H_min` overflows when the lead neighbor
/// sits at the other sign.
const ORIGINS: [f64; 10] = [
    0.0, 1e3, -2.5e4, 1e17, -1e17, 3.0e18, -4.0e19, 1e22, 1.7e308, -1.7e308,
];

/// Reception `pick` of the deadline property: `±0.0`, `±∞`, or one of
/// eight `quarter` steps from `origin`.
fn reception(pick: usize, origin: f64, quarter: f64) -> LocalTime {
    LocalTime::from(match pick {
        0 => 0.0,
        1 => -0.0,
        2 => f64::INFINITY,
        3 => f64::NEG_INFINITY,
        step => origin + (step - 4) as f64 * quarter,
    })
}

proptest! {
    /// The discretized Δ stays within 2κ of the continuous optimum
    /// `(a + b)/2` when that optimum is non-negative (the regime the
    /// algorithm's greedy strategy targets).
    #[test]
    fn discrete_delta_close_to_continuous(
        a in -200.0f64..200.0,
        gap in 0.0f64..200.0,
        kappa in 0.5f64..5.0,
    ) {
        let a_d = Duration::from(a);
        let b_d = Duration::from(a + gap);
        let k = Duration::from(kappa);
        let delta = discrete_delta(a_d, b_d, k);
        // Continuous optimum of max(a + x, b − x) over x ≥ 0 is
        // (a+b)/2 when b ≥ −... restrict to the crossing-at-positive case.
        let cont = (2.0 * a + gap) / 2.0;
        if cont >= 0.0 {
            prop_assert!((delta.as_f64() - (cont - kappa / 2.0)).abs() <= 2.0 * kappa,
                "delta {} vs continuous {}", delta.as_f64(), cont);
        }
    }

    /// RobustRule with f = 1 agrees with the simplified rule on complete
    /// receptions (it is a strict generalization).
    #[test]
    fn robust_f1_equals_simplified(
        own in -50.0f64..50.0,
        n1 in -50.0f64..50.0,
        n2 in -50.0f64..50.0,
    ) {
        let p = params();
        let robust = RobustRule::new(p, 1);
        let simplified = SimplifiedRule::new(p);
        let a = robust
            .pulse_local(
                Some(LocalTime::from(own)),
                &[Some(LocalTime::from(n1)), Some(LocalTime::from(n2))],
            )
            .unwrap();
        let b = simplified.pulse_local(
            LocalTime::from(own),
            &[LocalTime::from(n1), LocalTime::from(n2)],
        );
        prop_assert_eq!(a, b);
    }

    /// Monotonicity: delaying every reception by the same amount delays
    /// the pulse by exactly that amount (time-invariance of the decision).
    #[test]
    fn decision_is_time_invariant(
        own in -50.0f64..50.0,
        n1 in -50.0f64..50.0,
        n2 in -50.0f64..50.0,
        shift in -1e4f64..1e4,
    ) {
        let p = params();
        let rule = GradientTrixRule::new(p);
        let d1 = rule
            .decide(
                Some(LocalTime::from(own)),
                &[Some(LocalTime::from(n1)), Some(LocalTime::from(n2))],
            );
        let d2 = rule
            .decide(
                Some(LocalTime::from(own + shift)),
                &[
                    Some(LocalTime::from(n1 + shift)),
                    Some(LocalTime::from(n2 + shift)),
                ],
            );
        let moved = (d2.pulse_local - d1.pulse_local).as_f64();
        prop_assert!((moved - shift).abs() < 1e-6, "moved {} vs shift {}", moved, shift);
    }

    /// Monotonicity in the own-reception: receiving your own predecessor
    /// later never makes you pulse earlier.
    #[test]
    fn later_own_never_pulses_earlier(
        own in -20.0f64..20.0,
        bump in 0.0f64..5.0,
        n1 in -20.0f64..20.0,
        n2 in -20.0f64..20.0,
    ) {
        let p = params();
        let rule = GradientTrixRule::new(p);
        let neighbors = [Some(LocalTime::from(n1)), Some(LocalTime::from(n2))];
        let before = rule
            .decide(Some(LocalTime::from(own)), &neighbors)
            .pulse_local;
        let after = rule
            .decide(Some(LocalTime::from(own + bump)), &neighbors)
            .pulse_local;
        prop_assert!(after >= before - Duration::from(1e-9),
            "own later by {} but pulse moved from {:?} to {:?}", bump, before, after);
    }

    /// The closed-form decision agrees bit for bit with the reference on
    /// every prefix of an arrival set of up to 20 neighbors, as many as a
    /// supernode hub has, for each of the [`rules`]. Times sit on a κ/4
    /// lattice (at four random origins, which vary the rounding), so
    /// own/neighbor and neighbor/neighbor ties occur; the own reception
    /// may also come after every deadline; up to three neighbor slots are
    /// missing. `pulse_time` agrees too, under a random affine clock.
    #[test]
    fn decide_matches_the_reference_bit_for_bit(
        own in proptest::option::of(0u32..96),
        times in proptest::collection::vec(0u32..48, 0..=20),
        holes in proptest::collection::vec(0usize..20, 0..4),
        origins in proptest::collection::vec(-1e4f64..1e4, 4),
        estimate_quarters in 1u32..64,
        rate in 1.0f64..1.0001,
        offset in -1e3f64..1e3,
    ) {
        let clock = AffineClock::with_rate_and_offset(rate, offset);
        let slots: Vec<Option<u32>> = times
            .iter()
            .enumerate()
            .map(|(i, &q)| (!holes.contains(&i)).then_some(q))
            .collect();
        let rules = rules(estimate_quarters);
        for (origin, rule) in origins.iter().flat_map(|o| rules.iter().map(move |r| (o, r))) {
            let quarter = rule.params().kappa().as_f64() / 4.0;
            let at = |q: u32| origin + q as f64 * quarter;
            let own_local = own.map(|q| LocalTime::from(at(q)));
            let own_real = own.map(|q| Time::from(at(q)));
            let locals: Vec<Option<LocalTime>> =
                slots.iter().map(|s| s.map(|q| LocalTime::from(at(q)))).collect();
            let reals: Vec<Option<Time>> =
                slots.iter().map(|s| s.map(|q| Time::from(at(q)))).collect();
            for n in 0..=slots.len() {
                prop_assert_eq!(
                    decision_bits(rule.decide(own_local, &locals[..n])),
                    decision_bits(reference_decide(rule, own_local, &locals[..n])),
                    "own {:?}, neighbors {:?}, rule {:?}", own, &slots[..n], rule
                );
                prop_assert_eq!(
                    rule.pulse_time(NodeId::new(0, 1), 0, own_real, &reals[..n], &clock)
                        .map(|t| t.as_f64().to_bits()),
                    reference_pulse_time(rule, own_real, &reals[..n], &clock)
                        .map(|t| t.as_f64().to_bits()),
                    "own {:?}, neighbors {:?}, clock {:?}, rule {:?}", own, &slots[..n], clock, rule
                );
            }
        }
    }

    /// The closed form's strict comparisons at their edges, for each of
    /// the [`rules`] at each of the [`ORIGINS`]. `boundary` places:
    ///
    /// 1. the own reception exactly on `term1 = H_max + 3κ/2 + ϑκ`;
    /// 2. a new last neighbor exactly on `term2 = max(H_own, H_min) +
    ///    ϑ(2·L̂ + u) + 2κ`;
    /// 3. the own reception at `−0.0`, every neighbor finite and at or
    ///    after `+0.0`, and a new one on `+0.0`, which makes `H_own −
    ///    H_min`, and under a `−0.0` margin the correction, `−0.0`;
    /// 4. the own reception on `H_min + κ/2`, or
    /// 5. on `H_min + κ/2 + ϑκ`, which put `Δ` on the correction's
    ///    thresholds `0` and `ϑκ` while the neighbors lie within `4κ` of
    ///    each other (exactly so for the `κ = 1` rule);
    ///
    /// or none of these (0), each computed in the rule's operation order.
    /// The loop still hears a reception on a deadline, so a `>` turned
    /// into `≥` in either deadline test changes the exit kind. Receptions
    /// also take `±0.0` and `±∞`, and the lead neighbor may sit around the
    /// negated origin, so that receptions of opposite sign meet near
    /// `±f64::MAX`. `pulse_time` agrees too, under a clock that maps every
    /// reception to itself, `−0.0` included.
    #[test]
    fn decide_matches_the_reference_on_the_deadlines(
        own in proptest::option::of(0usize..12),
        picks in proptest::collection::vec(0usize..12, 1..=8),
        hole in proptest::option::of(0usize..8),
        lead_negated in any::<bool>(),
        estimate_quarters in 1u32..64,
        boundary in 0u32..6,
    ) {
        let identity = AffineClock::with_rate_and_offset(1.0, -0.0);
        let rules = rules(estimate_quarters);
        for (&origin, rule) in ORIGINS.iter().flat_map(|o| rules.iter().map(move |r| (o, r))) {
            let p = rule.params();
            let quarter = p.kappa().as_f64() / 4.0;
            let at = |pick| reception(pick, origin, quarter);
            let lead_origin = if lead_negated { -origin } else { origin };
            let mut neighbors: Vec<Option<LocalTime>> = picks
                .iter()
                .enumerate()
                .map(|(slot, &pick)| {
                    Some(if slot == 0 { reception(pick, lead_origin, quarter) } else { at(pick) })
                })
                .collect();
            if let Some(slot) = hole.filter(|&slot| slot < neighbors.len()) {
                neighbors[slot] = None;
            }
            let mut own = own.map(at);
            let heard = neighbors.iter().flatten().copied();
            match boundary {
                1 => own = heard.max().map(|m| m + p.kappa() * 1.5 + p.theta_kappa()),
                2 => {
                    if let (Some(o), Some(m)) = (own, heard.min()) {
                        let window = (2.0 * rule.skew_estimate() + p.u()) * p.theta();
                        neighbors.push(Some(o.max(m) + window + p.kappa() * 2.0));
                    }
                }
                3 => {
                    own = Some(LocalTime::from(-0.0));
                    for h in neighbors.iter_mut().flatten() {
                        if !(h.is_finite() && *h > LocalTime::ZERO) {
                            *h = LocalTime::ZERO;
                        }
                    }
                    neighbors.push(Some(LocalTime::ZERO));
                }
                4 => own = heard.min().map(|m| m + p.kappa() / 2.0),
                5 => own = heard.min().map(|m| m + p.kappa() / 2.0 + p.theta_kappa()),
                _ => {}
            }
            // An own reception sharing an infinity with a neighbor makes
            // the correction compute `∞ − ∞`, a NaN that `LocalTime`
            // subtraction debug-asserts against; NaN is out of scope.
            if own.is_some_and(|o| !o.is_finite() && neighbors.contains(&Some(o))) {
                continue;
            }
            prop_assert_eq!(
                decision_bits(rule.decide(own, &neighbors)),
                decision_bits(reference_decide(rule, own, &neighbors)),
                "own {:?}, neighbors {:?}, rule {:?}", own, neighbors, rule
            );
            let real = |h: LocalTime| Time::from(h.as_f64());
            let own_real = own.map(real);
            let reals: Vec<Option<Time>> = neighbors.iter().map(|h| h.map(real)).collect();
            prop_assert_eq!(
                rule.pulse_time(NodeId::new(0, 1), 0, own_real, &reals, &identity)
                    .map(|t| t.as_f64().to_bits()),
                reference_pulse_time(rule, own_real, &reals, &identity)
                    .map(|t| t.as_f64().to_bits()),
                "own {:?}, neighbors {:?}, rule {:?}", own, neighbors, rule
            );
        }
    }
}
