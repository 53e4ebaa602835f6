//! Property tests for fault placement, behaviors, and time-varying
//! campaigns.

use proptest::prelude::*;
use trix_faults::{
    is_one_local, sample_one_local, ChurnCampaign, ChurnSchedule, FaultBehavior, FaultCampaign,
    FaultSchedule,
};
use trix_sim::{
    run_dataflow_observed, run_dataflow_parallel, Environment, Observer, OffsetLayer0, PulseRule,
    Rng, SequenceEnvironment, StaticEnvironment,
};
use trix_time::{AffineClock, Duration, Time};
use trix_topology::{BaseGraph, LayeredGraph, NodeId};

/// Fires at `max(arrivals) + rate` (mirrors `crates/sim/tests/prop.rs`).
struct MaxPlus;

impl PulseRule for MaxPlus {
    fn pulse_time(
        &self,
        _node: NodeId,
        _k: usize,
        own: Option<Time>,
        neighbors: &[Option<Time>],
        clock: &AffineClock,
    ) -> Option<Time> {
        let mut best: Option<Time> = own;
        for &n in neighbors {
            best = match (best, n) {
                (Some(a), Some(b)) => Some(a.max(b)),
                (a, b) => a.or(b),
            };
        }
        best.map(|t| t + Duration::from(clock.rate()))
    }
}

/// Records the full observer event stream, `f64` bits and all.
#[derive(Default, PartialEq, Debug)]
struct EventLog {
    faulty: Vec<NodeId>,
    pulses: Vec<(usize, NodeId, u64)>,
}

impl Observer for EventLog {
    fn on_faulty(&mut self, node: NodeId) {
        self.faulty.push(node);
    }
    fn on_pulse(&mut self, k: usize, node: NodeId, t: Time) {
        self.pulses.push((k, node, t.as_f64().to_bits()));
    }
}

/// A random campaign: 1-local placement at the given density, each
/// position given a schedule drawn from all four schedule kinds.
fn random_campaign(g: &LayeredGraph, density: f64, pulses: usize, seed: u64) -> FaultCampaign {
    let mut rng = Rng::seed_from(seed);
    let (positions, _) = sample_one_local(g, density, 1, &mut rng);
    let mut sorted: Vec<NodeId> = positions.into_iter().collect();
    sorted.sort();
    FaultCampaign::from_schedules(sorted.into_iter().enumerate().map(|(i, n)| {
        let behavior = match i % 3 {
            0 => FaultBehavior::Silent,
            1 => FaultBehavior::Shift(Duration::from(3.0)),
            _ => FaultBehavior::Jitter {
                amplitude: Duration::from(2.0),
                seed: seed ^ i as u64,
            },
        };
        let schedule = match i % 4 {
            0 => FaultSchedule::Always(behavior),
            1 => FaultSchedule::Window {
                from: i % pulses.max(1),
                until: pulses,
                behavior,
            },
            2 => FaultSchedule::CrashRecover {
                down_from: i % pulses.max(1),
                down_until: pulses,
            },
            _ => FaultSchedule::Flaky {
                behavior,
                activity: 0.5,
                seed: seed.rotate_left(i as u32),
            },
        };
        (n, schedule)
    }))
}

/// A random churn campaign: i.i.d. flicker at the given rate as the
/// default, plus overrides drawn from every schedule kind at random
/// positions.
fn random_churn_campaign(
    g: &LayeredGraph,
    rate: f64,
    pulses: usize,
    overrides: usize,
    seed: u64,
) -> ChurnCampaign {
    let mut rng = Rng::seed_from(seed);
    let mut campaign = ChurnCampaign::flicker(rate, rng.next_u64());
    for i in 0..overrides {
        let v = rng.usize_below(g.width());
        let layer = rng.usize_below(g.layer_count());
        let schedule = match i % 4 {
            0 => ChurnSchedule::JoinAt {
                pulse: rng.usize_below(pulses.max(1)),
            },
            1 => ChurnSchedule::LeaveAt {
                pulse: rng.usize_below(pulses.max(1)),
            },
            2 => {
                let leave = rng.usize_below(pulses.max(1));
                ChurnSchedule::Rejoin {
                    leave,
                    rejoin: leave + 1 + rng.usize_below(pulses.max(1)),
                }
            }
            _ => ChurnSchedule::Resident,
        };
        campaign.insert(g.node(v, layer), schedule);
    }
    campaign
}

proptest! {
    /// `sample_one_local` always returns 1-local sets, at any density.
    #[test]
    fn sampled_sets_are_one_local(
        seed in any::<u64>(),
        width in 3usize..16,
        layers in 2usize..10,
        p in 0.0f64..0.4,
    ) {
        let g = LayeredGraph::new(BaseGraph::line_with_replicated_ends(width), layers);
        let (faults, _) = sample_one_local(&g, p, 1, &mut Rng::seed_from(seed));
        prop_assert!(is_one_local(&g, &faults));
        prop_assert!(faults.iter().all(|n| n.layer >= 1));
    }

    /// Behaviors are deterministic functions of (node, pulse, target).
    #[test]
    fn behaviors_are_deterministic(
        seed in any::<u64>(),
        k in 0usize..100,
        nominal in -1e6f64..1e6,
        amp in 0.1f64..100.0,
    ) {
        let b = FaultBehavior::Jitter {
            amplitude: Duration::from(amp),
            seed,
        };
        let node = NodeId::new(3, 4);
        let target = NodeId::new(2, 5);
        let t = Some(Time::from(nominal));
        prop_assert_eq!(
            b.send_time(node, k, t, target),
            b.send_time(node, k, t, target)
        );
        // Jitter bounded by the amplitude.
        let out = b.send_time(node, k, t, target).unwrap();
        prop_assert!((out.as_f64() - nominal).abs() <= amp + 1e-12);
    }

    /// Static behaviors really are static: identical output across pulses.
    #[test]
    fn static_behaviors_do_not_vary(
        shift in -100.0f64..100.0,
        nominal in -1e3f64..1e3,
    ) {
        let b = FaultBehavior::Shift(Duration::from(shift));
        prop_assert!(b.is_static());
        let node = NodeId::new(0, 1);
        let target = NodeId::new(0, 2);
        let first = b.send_time(node, 0, Some(Time::from(nominal)), target);
        for k in 1..10 {
            prop_assert_eq!(b.send_time(node, k, Some(Time::from(nominal)), target), first);
        }
    }

    /// The campaign determinism contract at the engine level: a
    /// time-varying campaign sharded across `--sim-threads` workers
    /// replays the serial driver's event stream bit for bit — over
    /// random densities, schedule mixes, topologies, worker counts, and
    /// both static and per-pulse environments — through the frontier
    /// scheduler behind `run_dataflow_parallel`. (The sweep-level twin
    /// lives in `tests/parallel_determinism.rs`; the campaign gating runs
    /// inside `eval_layer_chunk`, shared by both drivers, which is what
    /// this pins.)
    #[test]
    fn campaign_under_sim_threads_equals_serial(
        seed in any::<u64>(),
        width in 3usize..10,
        layers in 2usize..7,
        density in 0.0f64..0.35,
        pulses in 1usize..4,
        threads in 2usize..5,
        per_pulse in any::<bool>(),
    ) {
        let g = LayeredGraph::new(BaseGraph::line_with_replicated_ends(width), layers);
        let campaign = random_campaign(&g, density, pulses, seed);
        let mut env_rng = Rng::seed_from(seed ^ 0xE17);
        let static_env = StaticEnvironment::random(
            &g,
            Duration::from(10.0),
            Duration::from(1.0),
            1.01,
            &mut env_rng,
        );
        // `per_pulse` drives the engines through a pulse-varying
        // environment, disabling the pulse-invariant clock fast path.
        let seq_env = SequenceEnvironment::new(vec![
            static_env.clone(),
            StaticEnvironment::random(
                &g,
                Duration::from(10.0),
                Duration::from(1.0),
                1.01,
                &mut env_rng,
            ),
        ]);
        let layer0 = OffsetLayer0::synchronized(30.0, g.width());
        fn check(
            g: &LayeredGraph,
            env: &(impl Environment + Sync),
            layer0: &OffsetLayer0,
            campaign: &FaultCampaign,
            pulses: usize,
            threads: usize,
        ) -> Result<(), TestCaseError> {
            let mut serial = EventLog::default();
            run_dataflow_observed(g, env, layer0, &MaxPlus, campaign, pulses, &mut serial);
            let mut frontier = EventLog::default();
            run_dataflow_parallel(
                g, env, layer0, &MaxPlus, campaign, pulses, threads, &mut frontier,
            );
            prop_assert_eq!(&serial, &frontier);
            Ok(())
        }
        if per_pulse {
            check(&g, &seq_env, &layer0, &campaign, pulses, threads)?;
        } else {
            check(&g, &static_env, &layer0, &campaign, pulses, threads)?;
        }
    }

    /// The churn determinism contract at the engine level: a churn
    /// campaign — random rate, random join/leave/rejoin/flicker mix —
    /// masks the **same** membership through both drivers, so the serial
    /// and frontier event streams are bit-identical for every
    /// `--sim-threads` worker count in 1–4, and the emitted set is
    /// exactly the campaign's member set at each pulse.
    #[test]
    fn churn_under_sim_threads_equals_serial(
        seed in any::<u64>(),
        width in 3usize..10,
        layers in 2usize..7,
        rate in 0.0f64..0.25,
        pulses in 1usize..4,
        overrides in 0usize..6,
        threads in 1usize..5,
        per_pulse in any::<bool>(),
    ) {
        let g = LayeredGraph::new(BaseGraph::line_with_replicated_ends(width), layers);
        let campaign = random_churn_campaign(&g, rate, pulses, overrides, seed);
        let mut env_rng = Rng::seed_from(seed ^ 0xC0FF);
        let static_env = StaticEnvironment::random(
            &g,
            Duration::from(10.0),
            Duration::from(1.0),
            1.01,
            &mut env_rng,
        );
        let seq_env = SequenceEnvironment::new(vec![
            static_env.clone(),
            StaticEnvironment::random(
                &g,
                Duration::from(10.0),
                Duration::from(1.0),
                1.01,
                &mut env_rng,
            ),
        ]);
        let layer0 = OffsetLayer0::synchronized(30.0, g.width());
        let mut serial = EventLog::default();
        let mut frontier = EventLog::default();
        if per_pulse {
            run_dataflow_observed(&g, &seq_env, &layer0, &MaxPlus, &campaign, pulses, &mut serial);
            run_dataflow_parallel(
                &g, &seq_env, &layer0, &MaxPlus, &campaign, pulses, threads, &mut frontier,
            );
        } else {
            run_dataflow_observed(
                &g, &static_env, &layer0, &MaxPlus, &campaign, pulses, &mut serial,
            );
            run_dataflow_parallel(
                &g, &static_env, &layer0, &MaxPlus, &campaign, pulses, threads, &mut frontier,
            );
        }
        prop_assert_eq!(&serial, &frontier);
        // Masking semantics: no absent node ever emits, and on layer 0
        // (fed directly by the synchronized source, so the rule cannot
        // go silent on its own) the emitted set is *exactly* the member
        // set. Layers ≥ 1 may additionally drop members whose entire
        // predecessor row churned out — that is dataflow, not a leak.
        for k in 0..pulses {
            let emitted: std::collections::HashSet<NodeId> = serial
                .pulses
                .iter()
                .filter(|&&(pk, _, _)| pk == k)
                .map(|&(_, n, _)| n)
                .collect();
            for n in g.nodes() {
                if !campaign.is_member(n, k) {
                    prop_assert!(!emitted.contains(&n), "absent {:?} emitted at {}", n, k);
                } else if n.layer == 0 {
                    prop_assert!(emitted.contains(&n), "member {:?} silent at {}", n, k);
                }
            }
        }
    }

    /// Churn membership is a pure function of `(seed, node, pulse)`:
    /// identical campaigns replay identical absent sets, the flicker
    /// share tracks its nominal rate, and `is_faulty` never ever-excludes
    /// a churning node (absence is per-pulse masking only).
    #[test]
    fn churn_membership_replays_and_calibrates(
        seed in any::<u64>(),
        rate in 0.0f64..0.5,
    ) {
        use trix_sim::SendModel;
        let g = LayeredGraph::new(BaseGraph::line_with_replicated_ends(10), 8);
        let pulses = 6;
        let a = random_churn_campaign(&g, rate, pulses, 4, seed);
        let b = random_churn_campaign(&g, rate, pulses, 4, seed);
        let mut total_absent = 0usize;
        for k in 0..pulses {
            let absent = a.absent_set(&g, k);
            prop_assert_eq!(&absent, &b.absent_set(&g, k));
            prop_assert_eq!(absent.len(), a.absent_count(&g, k));
            prop_assert!(absent.windows(2).all(|w| w[0] < w[1]), "sorted");
            total_absent += absent.len();
        }
        for n in g.nodes() {
            prop_assert!(!a.is_faulty(n), "churn must not ever-exclude {:?}", n);
        }
        let share = total_absent as f64 / (pulses * g.node_count()) as f64;
        // Binomial concentration: ~480 samples, tolerance 4σ + override
        // slack (4 overrides can shift up to 4/80 per pulse).
        let sigma = (rate * (1.0 - rate) / (pulses * g.node_count()) as f64).sqrt();
        prop_assert!((share - rate).abs() <= 4.0 * sigma + 0.06);
    }

    /// Campaign gating is a pure function of `(node, pulse)`: the active
    /// set replays identically, and every ever-faulty node is excluded
    /// (`is_faulty`) for the whole run regardless of when its schedule
    /// is live.
    #[test]
    fn campaign_active_sets_replay(seed in any::<u64>(), density in 0.0f64..0.3) {
        use trix_sim::SendModel;
        let g = LayeredGraph::new(BaseGraph::line_with_replicated_ends(8), 6);
        let pulses = 4;
        let a = random_campaign(&g, density, pulses, seed);
        let b = random_campaign(&g, density, pulses, seed);
        prop_assert_eq!(a.faulty_nodes(), b.faulty_nodes());
        for k in 0..pulses {
            prop_assert_eq!(a.active_set(k), b.active_set(k));
        }
        for n in a.faulty_nodes() {
            prop_assert!(a.is_faulty(n));
        }
    }

    /// ChangeAt switches exactly at the configured pulse.
    #[test]
    fn change_at_switches_exactly(at in 1usize..20) {
        let b = FaultBehavior::dies_at(at);
        let node = NodeId::new(1, 1);
        let target = NodeId::new(1, 2);
        for k in 0..at {
            prop_assert!(b.send_time(node, k, Some(Time::ZERO), target).is_some());
        }
        for k in at..at + 5 {
            prop_assert!(b.send_time(node, k, Some(Time::ZERO), target).is_none());
        }
    }
}
