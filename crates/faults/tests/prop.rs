//! Property tests for fault placement, behaviors, and time-varying
//! campaigns.
//!
//! The differential tests keep the straightforward implementations the
//! fast paths replaced as references: the all-neighborhood 1-locality
//! scan, the restart-from-zero thinning, and `HashMap`-backed send
//! models.

use proptest::prelude::*;
use std::collections::{HashMap, HashSet};
use trix_faults::{
    is_one_local, sample_iid, sample_one_local, ChurnCampaign, ChurnSchedule, FaultBehavior,
    FaultCampaign, FaultSchedule,
};
use trix_sim::{
    run_dataflow_observed, run_dataflow_parallel, Environment, Observer, OffsetLayer0, PulseRule,
    Rng, SendModel, SequenceEnvironment, StaticEnvironment,
};
use trix_time::{AffineClock, Duration, Time};
use trix_topology::{families, BaseGraph, LayeredGraph, NodeId};

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
            2 => FaultSchedule::Window {
                from: i % pulses.max(1),
                until: pulses,
                behavior: FaultBehavior::Silent,
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

/// Reference 1-locality check: count the faults of every closed
/// neighborhood of every layer.
fn reference_is_one_local(g: &LayeredGraph, faults: &HashSet<NodeId>) -> bool {
    for layer in 0..g.layer_count() {
        for v in 0..g.width() {
            let mut count = usize::from(faults.contains(&g.node(v, layer)));
            for &w in g.base().neighbors(v) {
                count += usize::from(faults.contains(&g.node(w, layer)));
                if count > 1 {
                    return false;
                }
            }
        }
    }
    true
}

/// Reference thinning: sample iid, then rescan from `(0, 0)` after every
/// drop, dropping the last member of the first violating neighborhood.
fn reference_sample_one_local(
    g: &LayeredGraph,
    p: f64,
    min_layer: usize,
    rng: &mut Rng,
) -> (HashSet<NodeId>, usize) {
    let mut faults: HashSet<NodeId> = g
        .nodes()
        .filter(|n| (n.layer as usize) >= min_layer && rng.bernoulli(p))
        .collect();
    let mut dropped = 0;
    loop {
        let mut offender = None;
        'scan: for layer in 0..g.layer_count() {
            for v in 0..g.width() {
                let mut members = Vec::new();
                if faults.contains(&g.node(v, layer)) {
                    members.push(g.node(v, layer));
                }
                for &w in g.base().neighbors(v) {
                    if faults.contains(&g.node(w, layer)) {
                        members.push(g.node(w, layer));
                    }
                }
                if members.len() > 1 {
                    offender = Some(members[members.len() - 1]);
                    break 'scan;
                }
            }
        }
        match offender {
            Some(node) => {
                faults.remove(&node);
                dropped += 1;
            }
            None => return (faults, dropped),
        }
    }
}

/// A layered graph over one of four base families — the line with
/// replicated ends, a torus, a hypercube or a supernode overlay — in one
/// of three sizes.
fn family_graph(family: usize, size: usize, layers: usize) -> LayeredGraph {
    let base = match family {
        0 => BaseGraph::line_with_replicated_ends(4 + 5 * size),
        1 => families::torus(3 + size, 4).into_graph(),
        2 => families::hypercube(2 + size as u32).into_graph(),
        _ => families::supernode_overlay(3 + size, 1 + size).into_graph(),
    };
    LayeredGraph::new(base, layers)
}

/// Writes per send-model test: positions fall in a 6×6 corner so they
/// repeat, queries range over 8×8 so they also miss past the last
/// written layer.
const WRITE_SPAN: usize = 6;
const QUERY_SPAN: u32 = 8;

fn random_position(rng: &mut Rng) -> NodeId {
    NodeId::new(
        rng.usize_below(WRITE_SPAN) as u32,
        rng.usize_below(WRITE_SPAN) as u32,
    )
}

fn query_positions() -> impl Iterator<Item = NodeId> {
    (0..QUERY_SPAN).flat_map(|layer| (0..QUERY_SPAN).map(move |v| NodeId::new(v, layer)))
}

fn random_behavior(rng: &mut Rng) -> FaultBehavior {
    match rng.usize_below(4) {
        0 => FaultBehavior::Silent,
        1 => FaultBehavior::Shift(Duration::from(rng.usize_below(9) as f64 - 4.0)),
        2 => FaultBehavior::Jitter {
            amplitude: Duration::from(2.0),
            seed: rng.next_u64(),
        },
        _ => FaultBehavior::dies_at(rng.usize_below(4)),
    }
}

fn random_schedule(rng: &mut Rng) -> FaultSchedule {
    let behavior = random_behavior(rng);
    let from = rng.usize_below(4);
    let until = from + rng.usize_below(4);
    match rng.usize_below(4) {
        0 => FaultSchedule::Always(behavior),
        1 => FaultSchedule::Window {
            from,
            until,
            behavior,
        },
        2 => FaultSchedule::Window {
            from,
            until,
            behavior: FaultBehavior::Silent,
        },
        _ => FaultSchedule::Flaky {
            behavior,
            activity: 0.5,
            seed: rng.next_u64(),
        },
    }
}

fn random_churn_schedule(rng: &mut Rng) -> ChurnSchedule {
    let pulse = rng.usize_below(4);
    match rng.usize_below(5) {
        0 => ChurnSchedule::Resident,
        1 => ChurnSchedule::JoinAt { pulse },
        2 => ChurnSchedule::LeaveAt { pulse },
        3 => ChurnSchedule::Rejoin {
            leave: pulse,
            rejoin: pulse + 1 + rng.usize_below(3),
        },
        _ => ChurnSchedule::Flicker { rate: 0.5 },
    }
}

/// `count` random writes, with the `HashMap` they leave behind when
/// applied in order (the last write to a position wins).
fn random_writes<T: Clone>(
    rng: &mut Rng,
    count: usize,
    value: impl Fn(&mut Rng) -> T,
) -> (Vec<(NodeId, T)>, HashMap<NodeId, T>) {
    let writes: Vec<(NodeId, T)> = (0..count)
        .map(|_| {
            let node = random_position(rng);
            (node, value(rng))
        })
        .collect();
    let map = writes.iter().cloned().collect();
    (writes, map)
}

/// The keys of a reference map in `(layer, v)` order.
fn sorted_keys<T>(map: &HashMap<NodeId, T>) -> Vec<NodeId> {
    let mut keys: Vec<NodeId> = map.keys().copied().collect();
    keys.sort();
    keys
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

    /// The fault-local 1-locality check agrees with the full scan over
    /// every closed neighborhood on four base families, for 1-local
    /// sets, for the same sets with extra faults (usually violating),
    /// for raw iid samples, and with a position outside the graph.
    #[test]
    fn one_locality_check_matches_the_full_scan(
        seed in any::<u64>(),
        family in 0usize..4,
        size in 0usize..3,
        layers in 1usize..6,
        density in 0.0f64..0.4,
        extra in 0usize..4,
    ) {
        let g = family_graph(family, size, layers);
        let mut rng = Rng::seed_from(seed);
        let (thinned, _) = sample_one_local(&g, density, 0, &mut rng);
        prop_assert!(reference_is_one_local(&g, &thinned));
        let mut crowded = thinned.clone();
        for _ in 0..extra {
            crowded.insert(g.node(rng.usize_below(g.width()), rng.usize_below(layers)));
        }
        let raw = sample_iid(&g, density, 0, &mut rng);
        let mut outside = crowded.clone();
        outside.insert(NodeId::new(g.width() as u32, 0));
        outside.insert(NodeId::new(0, layers as u32));
        for set in [&thinned, &crowded, &raw, &outside] {
            prop_assert_eq!(is_one_local(&g, set), reference_is_one_local(&g, set));
        }
    }

    /// The resumed thinning keeps and drops the same nodes as the
    /// restart-from-zero thinning, and leaves the RNG in the same state.
    #[test]
    fn thinning_matches_restart_from_zero(
        seed in any::<u64>(),
        family in 0usize..4,
        size in 0usize..3,
        layers in 1usize..8,
        p in 0.0f64..0.3,
        min_layer in 0usize..3,
    ) {
        let g = family_graph(family, size, layers);
        let (mut fast_rng, mut reference_rng) = (Rng::seed_from(seed), Rng::seed_from(seed));
        let (fast, fast_dropped) = sample_one_local(&g, p, min_layer, &mut fast_rng);
        let (reference, reference_dropped) =
            reference_sample_one_local(&g, p, min_layer, &mut reference_rng);
        prop_assert_eq!(fast, reference);
        prop_assert_eq!(fast_dropped, reference_dropped);
        prop_assert_eq!(fast_rng.next_u64(), reference_rng.next_u64());
    }

    /// `FaultCampaign` answers like a `HashMap` of schedules, built
    /// partly by `from_schedules` and partly by `insert`, with repeats.
    #[test]
    fn fault_campaign_matches_a_hash_map(
        seed in any::<u64>(),
        count in 0usize..40,
        split in 0usize..40,
    ) {
        let mut rng = Rng::seed_from(seed);
        let (writes, reference) = random_writes(&mut rng, count, random_schedule);
        let split = split.min(count);
        let mut campaign = FaultCampaign::from_schedules(writes[..split].iter().cloned());
        for (node, schedule) in &writes[split..] {
            campaign.insert(*node, schedule.clone());
        }
        prop_assert_eq!(campaign.fault_count(), reference.len());
        prop_assert_eq!(campaign.faulty_nodes(), sorted_keys(&reference));
        prop_assert_eq!(
            campaign.all_static(),
            reference.values().all(FaultSchedule::is_static)
        );
        let pulses = 6;
        for k in 0..pulses {
            let active: HashSet<NodeId> = reference
                .iter()
                .filter(|(n, s)| s.is_active(**n, k))
                .map(|(n, _)| *n)
                .collect();
            prop_assert_eq!(campaign.active_count(k), active.len());
            prop_assert_eq!(campaign.active_set(k), active);
        }
        let nominal = Some(Time::from(10.0));
        for node in query_positions() {
            prop_assert_eq!(campaign.is_faulty(node), reference.contains_key(&node));
            prop_assert_eq!(campaign.schedule(node), reference.get(&node));
            let target = NodeId::new(node.v, node.layer + 1);
            for k in 0..pulses {
                let expected = match reference.get(&node) {
                    Some(schedule) => schedule.send_time(node, k, nominal, target),
                    None => nominal,
                };
                prop_assert_eq!(campaign.send_time(node, k, nominal, target), expected);
            }
        }
    }

    /// `ChurnCampaign` overrides answer like a `HashMap` over the
    /// default schedule, built partly by `from_schedules` and partly by
    /// `insert`, with repeats.
    #[test]
    fn churn_overrides_match_a_hash_map(
        seed in any::<u64>(),
        count in 0usize..40,
        split in 0usize..40,
    ) {
        let mut rng = Rng::seed_from(seed);
        let (writes, reference) = random_writes(&mut rng, count, random_churn_schedule);
        let split = split.min(count);
        let default = ChurnSchedule::Flicker { rate: 0.2 };
        let churn_seed = rng.next_u64();
        let mut campaign = ChurnCampaign::from_schedules(
            default.clone(),
            churn_seed,
            writes[..split].iter().cloned(),
        );
        for (node, schedule) in &writes[split..] {
            campaign.insert(*node, schedule.clone());
        }
        prop_assert_eq!(campaign.override_count(), reference.len());
        let nominal = Some(Time::from(10.0));
        for node in query_positions() {
            let schedule = reference.get(&node).unwrap_or(&default);
            prop_assert_eq!(campaign.schedule(node), schedule);
            prop_assert!(!campaign.is_faulty(node));
            let target = NodeId::new(node.v, node.layer + 1);
            for k in 0..6 {
                let member = schedule.is_member(node, k, churn_seed);
                prop_assert_eq!(campaign.is_member(node, k), member);
                prop_assert_eq!(SendModel::is_member(&campaign, node, k), member);
                prop_assert_eq!(
                    campaign.send_time(node, k, nominal, target),
                    if member { nominal } else { None }
                );
            }
        }
    }
}
