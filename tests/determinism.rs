//! Determinism guarantees: identical seeds must produce bit-identical
//! executions on both engines — the foundation for reproducible
//! experiments.

use gradient_trix::core::{GradientTrixRule, GridNetwork, Layer0Line, Params};
use gradient_trix::faults::{
    arrival_network, crash_recover_network, ChurnCampaign, ChurnSchedule, FaultBehavior,
    FaultCampaign, FaultSchedule,
};
use gradient_trix::sim::{run_dataflow, Rng, StaticEnvironment};
use gradient_trix::time::{Duration, LocalTime, Time};
use gradient_trix::topology::{BaseGraph, LayeredGraph};

fn params() -> Params {
    Params::with_standard_lambda(Duration::from(2000.0), Duration::from(1.0), 1.0001)
}

#[test]
fn dataflow_is_bit_reproducible() {
    let p = params();
    let g = LayeredGraph::new(BaseGraph::line_with_replicated_ends(12), 12);
    let run = || {
        let mut rng = Rng::seed_from(0xABCD);
        let env = StaticEnvironment::random(&g, p.d(), p.u(), p.theta(), &mut rng);
        let layer0 = Layer0Line::random_for_line(&p, g.width(), &mut rng);
        run_dataflow(
            &g,
            &env,
            &layer0,
            &GradientTrixRule::new(p),
            &gradient_trix::sim::CorrectSends,
            4,
        )
    };
    let a = run();
    let b = run();
    for k in 0..4 {
        for n in g.nodes() {
            assert_eq!(a.time(k, n), b.time(k, n), "divergence at {n} pulse {k}");
        }
    }
}

#[test]
fn dataflow_with_faults_is_bit_reproducible() {
    let p = params();
    let g = LayeredGraph::new(BaseGraph::line_with_replicated_ends(10), 10);
    let model = FaultCampaign::from_static([
        (g.node(4, 3), FaultBehavior::Silent),
        (
            g.node(7, 6),
            FaultBehavior::Jitter {
                amplitude: p.kappa() * 5.0,
                seed: 17,
            },
        ),
    ]);
    let run = || {
        let mut rng = Rng::seed_from(99);
        let env = StaticEnvironment::random(&g, p.d(), p.u(), p.theta(), &mut rng);
        let layer0 = Layer0Line::random_for_line(&p, g.width(), &mut rng);
        run_dataflow(&g, &env, &layer0, &GradientTrixRule::new(p), &model, 3)
    };
    let a = run();
    let b = run();
    for k in 0..3 {
        for n in g.nodes() {
            assert_eq!(a.time(k, n), b.time(k, n));
        }
    }
}

#[test]
fn des_is_bit_reproducible() {
    let p = params();
    let g = LayeredGraph::new(BaseGraph::line_with_replicated_ends(5), 5);
    let run = || {
        let mut rng = Rng::seed_from(5);
        let env = StaticEnvironment::random(&g, p.d(), p.u(), p.theta(), &mut rng);
        let mut net = GridNetwork::build(&g, &p, &env, 12, &mut rng, |_, _| None);
        net.run(Time::from(1e9));
        net.des
            .broadcasts()
            .iter()
            .map(|b| (b.node, b.time))
            .collect::<Vec<_>>()
    };
    assert_eq!(run(), run());
}

/// Runs `fingerprint` twice: the two runs must agree with each other
/// *and* with `recorded`, the value the seeded tests below compute on
/// x86_64 Linux. So a change that moves a single bit of a dataflow pulse
/// time or a DES broadcast fails here, not only one that makes a run
/// nondeterministic. A change that means to move them updates the
/// recorded value and says so in CHANGES.md.
fn assert_pinned(scenario: &str, fingerprint: impl Fn() -> u64, recorded: u64) {
    let h = fingerprint();
    assert_eq!(h, fingerprint(), "{scenario} produced diverging traces");
    assert_eq!(
        h, recorded,
        "{scenario} moved from its recorded fingerprint"
    );
}

/// Folds one value into an FNV-1a fingerprint.
fn mix(h: &mut u64, bits: u64) {
    *h ^= bits;
    *h = h.wrapping_mul(0x100_0000_01b3);
}

/// Regression: the *entire* execution of a seeded scenario — every pulse
/// time on the dataflow engine (faults included) plus every DES broadcast —
/// must be **bit-identical** across two runs, not merely close under a
/// float tolerance. Any nondeterminism anywhere in the stack (RNG use,
/// iteration order, event tie-breaking) changes the fingerprint.
#[test]
fn seeded_scenario_traces_are_bit_identical() {
    let p = params();
    let g = LayeredGraph::new(BaseGraph::line_with_replicated_ends(9), 9);
    let model = FaultCampaign::from_static([
        (g.node(2, 1), FaultBehavior::Silent),
        (
            g.node(6, 4),
            FaultBehavior::Jitter {
                amplitude: p.kappa() * 3.0,
                seed: 7,
            },
        ),
    ]);
    let fingerprint = || {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;

        // Dataflow engine, with Byzantine senders in the mix.
        let mut rng = Rng::seed_from(0x5EED_2025);
        let env = StaticEnvironment::random(&g, p.d(), p.u(), p.theta(), &mut rng);
        let layer0 = Layer0Line::random_for_line(&p, g.width(), &mut rng);
        let trace = run_dataflow(&g, &env, &layer0, &GradientTrixRule::new(p), &model, 3);
        for k in 0..3 {
            for n in g.nodes() {
                match trace.time(k, n) {
                    Some(t) => mix(&mut h, t.as_f64().to_bits()),
                    None => mix(&mut h, u64::MAX),
                }
            }
        }

        // DES engine over the same seed.
        let mut rng = Rng::seed_from(0x5EED_2025);
        let env = StaticEnvironment::random(&g, p.d(), p.u(), p.theta(), &mut rng);
        let mut net = GridNetwork::build(&g, &p, &env, 6, &mut rng, |_, _| None);
        net.run(Time::from(1e9));
        for b in net.des.broadcasts() {
            mix(&mut h, b.node as u64);
            mix(&mut h, b.time.as_f64().to_bits());
        }
        h
    };
    assert_pinned("seeded scenario", fingerprint, 0xdf50_3345_c3f3_a60d);
}

/// The campaign extension of the regression above: a **time-varying**
/// adversary — flaky gating, a crash–recover window, a behavior change —
/// on the dataflow engine, plus a mid-run DES rejoin with scrambled
/// state, must also fingerprint bit-identically across runs. Pins that
/// campaign gating (counter-based hashing) and rejoin scrambling
/// (forked streams) never consume nondeterministic state.
#[test]
fn seeded_campaign_traces_are_bit_identical() {
    let p = params();
    let g = LayeredGraph::new(BaseGraph::line_with_replicated_ends(9), 9);
    let campaign = FaultCampaign::from_schedules([
        (
            g.node(2, 1),
            FaultSchedule::Flaky {
                behavior: FaultBehavior::Shift(p.kappa() * 8.0),
                activity: 0.5,
                seed: 0xF1A2,
            },
        ),
        (
            g.node(6, 4),
            FaultSchedule::Window {
                from: 1,
                until: 3,
                behavior: FaultBehavior::Silent,
            },
        ),
        (
            g.node(4, 7),
            FaultSchedule::Window {
                from: 2,
                until: 4,
                behavior: FaultBehavior::Jitter {
                    amplitude: p.kappa() * 3.0,
                    seed: 7,
                },
            },
        ),
    ]);
    let fingerprint = || {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;

        // Dataflow engine under the campaign.
        let mut rng = Rng::seed_from(0xCA3B_A167);
        let env = StaticEnvironment::random(&g, p.d(), p.u(), p.theta(), &mut rng);
        let layer0 = Layer0Line::random_for_line(&p, g.width(), &mut rng);
        let trace = run_dataflow(&g, &env, &layer0, &GradientTrixRule::new(p), &campaign, 4);
        for k in 0..4 {
            for n in g.nodes() {
                match trace.time(k, n) {
                    Some(t) => mix(&mut h, t.as_f64().to_bits()),
                    None => mix(&mut h, u64::MAX),
                }
            }
        }

        // DES engine with a crash–recover rejoin (scrambled reboot).
        let small = LayeredGraph::new(BaseGraph::line_with_replicated_ends(4), 4);
        let mut rng = Rng::seed_from(0xCA3B_A167);
        let env = StaticEnvironment::random(&small, p.d(), p.u(), p.theta(), &mut rng);
        let rejoins: std::collections::HashMap<_, _> =
            [(small.node(2, 2), LocalTime::from(5.0 * p.lambda().as_f64()))]
                .into_iter()
                .collect();
        let mut net = crash_recover_network(&small, &p, &env, 12, &rejoins, &mut rng);
        net.run(Time::from(1e9));
        for b in net.des.broadcasts() {
            mix(&mut h, b.node as u64);
            mix(&mut h, b.time.as_f64().to_bits());
        }
        h
    };
    assert_pinned("seeded campaign", fingerprint, 0x90c1_d197_b915_c046);
}

/// The churn extension of the campaign regression: an **open-world**
/// membership campaign — i.i.d. flicker plus join/leave/rejoin epoch
/// events — on the dataflow engine, plus a stale-state new arrival on
/// the DES engine, must fingerprint bit-identically across runs. Pins
/// that per-pulse membership gating (SplitMix64 keyed on
/// `(seed, node, pulse)`) and arrival scrambling (forked streams) never
/// consume nondeterministic state.
#[test]
fn seeded_churn_traces_are_bit_identical() {
    let p = params();
    let g = LayeredGraph::new(BaseGraph::line_with_replicated_ends(9), 9);
    let campaign = ChurnCampaign::from_schedules(
        ChurnSchedule::Flicker { rate: 0.1 },
        0xC4A2_2026,
        [
            (g.node(2, 1), ChurnSchedule::JoinAt { pulse: 2 }),
            (g.node(6, 4), ChurnSchedule::LeaveAt { pulse: 2 }),
            (
                g.node(4, 7),
                ChurnSchedule::Rejoin {
                    leave: 1,
                    rejoin: 3,
                },
            ),
        ],
    );
    let fingerprint = || {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;

        // Dataflow engine under per-pulse membership masking.
        let mut rng = Rng::seed_from(0xC4A2_2026);
        let env = StaticEnvironment::random(&g, p.d(), p.u(), p.theta(), &mut rng);
        let layer0 = Layer0Line::random_for_line(&p, g.width(), &mut rng);
        let trace = run_dataflow(&g, &env, &layer0, &GradientTrixRule::new(p), &campaign, 4);
        for k in 0..4 {
            for n in g.nodes() {
                match trace.time(k, n) {
                    Some(t) => mix(&mut h, t.as_f64().to_bits()),
                    None => mix(&mut h, u64::MAX),
                }
            }
        }

        // DES engine with a genuinely new arrival booting stale state.
        let small = LayeredGraph::new(BaseGraph::line_with_replicated_ends(4), 4);
        let mut rng = Rng::seed_from(0xC4A2_2026);
        let env = StaticEnvironment::random(&small, p.d(), p.u(), p.theta(), &mut rng);
        let arrivals: std::collections::HashMap<_, _> =
            [(small.node(2, 2), LocalTime::from(6.0 * p.lambda().as_f64()))]
                .into_iter()
                .collect();
        let stale = p.lambda() * 4.0;
        let mut net = arrival_network(&small, &p, &env, 12, &arrivals, stale, &mut rng);
        net.run(Time::from(1e9));
        for b in net.des.broadcasts() {
            mix(&mut h, b.node as u64);
            mix(&mut h, b.time.as_f64().to_bits());
        }
        h
    };
    assert_pinned("seeded churn scenario", fingerprint, 0x73dd_0989_802e_28d1);
}

#[test]
fn different_seeds_differ() {
    let p = params();
    let g = LayeredGraph::new(BaseGraph::line_with_replicated_ends(8), 8);
    let run = |seed: u64| {
        let mut rng = Rng::seed_from(seed);
        let env = StaticEnvironment::random(&g, p.d(), p.u(), p.theta(), &mut rng);
        let layer0 = Layer0Line::random_for_line(&p, g.width(), &mut rng);
        run_dataflow(
            &g,
            &env,
            &layer0,
            &GradientTrixRule::new(p),
            &gradient_trix::sim::CorrectSends,
            1,
        )
    };
    let a = run(1);
    let b = run(2);
    let differs = g.nodes().any(|n| a.time(0, n) != b.time(0, n));
    assert!(differs, "different seeds must yield different executions");
}
