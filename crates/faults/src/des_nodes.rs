//! Faulty node state machines and transient corruption for the
//! event-driven engine.

use std::collections::HashMap;
use trix_core::{GradientTrixNode, GridNetwork, GridNodeConfig, Params};
use trix_sim::{Node, NodeApi, Rng, StaticEnvironment};
use trix_time::{Duration, LocalTime, Time};
use trix_topology::{LayeredGraph, NodeId};

/// A crashed node: never sends anything.
#[derive(Clone, Copy, Debug, Default)]
pub struct SilentDesNode;

impl Node for SilentDesNode {
    fn on_start(&mut self, _api: &mut NodeApi<'_>) {}
    fn on_pulse(&mut self, _from: usize, _api: &mut NodeApi<'_>) {}
    fn on_timer(&mut self, _tag: u64, _api: &mut NodeApi<'_>) {}
}

/// Timer tag reserved by [`RejoiningDesNode`] for its join alarm.
///
/// [`GradientTrixNode`] tags timers `generation · 4 + kind` with
/// `kind < 3`, so `u64::MAX` (≡ 3 mod 4) can never collide with a
/// forwarded inner timer.
const JOIN_TAG: u64 = u64::MAX;

/// A grid node that is silent until a local join time, then a
/// [`GradientTrixNode`] waking up with **arbitrary state**: the DES twin
/// of [`crate::FaultSchedule::CrashRecover`] and of the arrival half of a
/// [`crate::ChurnSchedule::JoinAt`] event.
///
/// The dataflow model's crash–recover is clean by construction (the
/// nominal time is always well-defined); the event-driven engine models
/// what actually makes rejoin hard: the node's registers hold garbage.
/// At its join time the inner node is scrambled exactly like the
/// Theorem 1.6 transient-corruption workload, around the local time
/// `stale_age` before the join (clamped to local time zero):
///
/// * a **crash–recover** node (`stale_age` zero) reboots with garbage
///   referenced to *now*;
/// * a genuinely **new arrival** boots from **stale** state — registers
///   cloned from a snapshot `stale_age` old (a peer's cached profile, a
///   checkpoint from before the outage that made it leave), then
///   scrambled. Its recorded `H_min`/`H_max` reception extremes point an
///   epoch into the past, so the very first genuine pulses it hears
///   invert them.
///
/// Either way the scramble includes states whose recorded extremes
/// invert once genuine pulses arrive, which the Algorithm 4 sanitization
/// in `exit_collecting` must absorb instead of panicking (pinned by this
/// module's tests and `tests/des_faults.rs`).
#[derive(Clone, Debug)]
pub struct RejoiningDesNode {
    inner: GradientTrixNode,
    join_at: LocalTime,
    stale_age: Duration,
    scramble_seed: u64,
    joined: bool,
}

impl RejoiningDesNode {
    /// Creates a node that stays silent until local time `join_at`, then
    /// runs `inner` from a `scramble_seed`-corrupted state referenced
    /// `stale_age` before its join time (clamped to local time zero;
    /// [`Duration::ZERO`] for a crash–recover reboot).
    pub fn new(
        inner: GradientTrixNode,
        join_at: LocalTime,
        stale_age: Duration,
        scramble_seed: u64,
    ) -> Self {
        Self {
            inner,
            join_at,
            stale_age,
            scramble_seed,
            joined: false,
        }
    }
}

impl Node for RejoiningDesNode {
    fn on_start(&mut self, api: &mut NodeApi<'_>) {
        api.set_timer_local(self.join_at, JOIN_TAG);
    }

    fn on_pulse(&mut self, from: usize, api: &mut NodeApi<'_>) {
        if self.joined {
            self.inner.on_pulse(from, api);
        }
        // Before joining, receptions are lost: a crashed or absent block
        // latches nothing.
    }

    fn on_timer(&mut self, tag: u64, api: &mut NodeApi<'_>) {
        if tag == JOIN_TAG {
            if !self.joined {
                self.joined = true;
                // Boot with arbitrary state (Thm 1.6's transient-fault
                // model), scrambled around a reference `stale_age` in the
                // past.
                let reference = LocalTime::ZERO.max(api.local_now() - self.stale_age);
                self.inner
                    .scramble(&mut Rng::seed_from(self.scramble_seed), reference);
                self.inner.on_start(api);
            }
            return;
        }
        // Timers can only have been armed by the inner node after joining.
        if self.joined {
            self.inner.on_timer(tag, api);
        }
    }
}

/// A babbling node: broadcasts on its own fixed local period, ignoring all
/// input. The period need not relate to `Λ`, so downstream nodes see
/// arbitrarily timed spurious pulses.
#[derive(Clone, Copy, Debug)]
pub struct BabblingDesNode {
    period: Duration,
    offset: Duration,
}

impl BabblingDesNode {
    /// Creates a babbler with the given local period and initial offset.
    ///
    /// # Panics
    ///
    /// Panics if `period` is not positive.
    pub fn new(period: Duration, offset: Duration) -> Self {
        assert!(period > Duration::ZERO, "period must be positive");
        Self { period, offset }
    }
}

impl Node for BabblingDesNode {
    fn on_start(&mut self, api: &mut NodeApi<'_>) {
        api.set_timer_local(api.local_now() + self.offset, 0);
    }
    fn on_pulse(&mut self, _from: usize, _api: &mut NodeApi<'_>) {}
    fn on_timer(&mut self, _tag: u64, api: &mut NodeApi<'_>) {
        api.broadcast();
        api.set_timer_local(api.local_now() + self.period, 0);
    }
}

/// Builds a [`GridNetwork`] whose grid nodes (layers ≥ 1) all start from
/// randomly corrupted state, and injects `spurious` in-flight messages —
/// the Theorem 1.6 self-stabilization workload ("transient faults may
/// result in an arbitrary state of the system's constituent components").
///
/// Permanently faulty positions can additionally be supplied through
/// `permanent`: those get a [`SilentDesNode`] (self-stabilization must
/// work *in the presence of* permanent faults, Appendix C).
#[allow(clippy::too_many_arguments)] // experiment-facing constructor; a config struct would obscure the knobs
pub fn scrambled_network(
    g: &LayeredGraph,
    params: &Params,
    env: &StaticEnvironment,
    cfg: GridNodeConfig,
    source_pulses: u64,
    spurious: usize,
    permanent: &std::collections::HashSet<NodeId>,
    rng: &mut Rng,
) -> GridNetwork {
    let mut scramble_rng = rng.fork(0xDEAD);
    let mut net = GridNetwork::build(g, params, env, cfg, source_pulses, rng, |id, wiring| {
        if permanent.contains(&id) {
            return Some(Box::new(SilentDesNode));
        }
        if id.layer == 0 {
            return None; // Algorithm 2 is memoryless enough; see Lemma A.1.
        }
        let mut node = GradientTrixNode::new(
            wiring.config,
            wiring.own_pred,
            wiring.neighbor_preds.clone(),
        );
        node.scramble(&mut scramble_rng, LocalTime::ZERO);
        Some(Box::new(node))
    });
    // Spurious messages already in flight at time 0.
    let mut inject_rng = rng.fork(0xBEEF);
    for _ in 0..spurious {
        let to_engine = 1 + inject_rng.usize_below(g.node_count());
        let from_engine = 1 + inject_rng.usize_below(g.node_count());
        let at = Time::from(inject_rng.f64_in(0.0, params.d().as_f64()));
        net.des.inject_delivery(to_engine, from_engine, at);
    }
    net
}

/// Builds a [`GridNetwork`] in which the grid nodes listed in `rejoins`
/// start crashed and rejoin — with scrambled state — at the given local
/// times: the event-driven half of a crash–recover fault campaign
/// (the dataflow half is [`crate::FaultSchedule::CrashRecover`]).
///
/// Each rejoiner's scramble seed derives deterministically from `rng` and
/// its sorted position, so the run is a pure function of the inputs.
pub fn crash_recover_network(
    g: &LayeredGraph,
    params: &Params,
    env: &StaticEnvironment,
    cfg: GridNodeConfig,
    source_pulses: u64,
    rejoins: &HashMap<NodeId, LocalTime>,
    rng: &mut Rng,
) -> GridNetwork {
    rejoining_network(
        g,
        params,
        env,
        cfg,
        source_pulses,
        rejoins,
        Duration::ZERO,
        0x7E70,
        rng,
    )
}

/// Builds a [`GridNetwork`] in which the grid nodes listed in
/// `arrivals` are genuinely *new*: nonexistent until their join time,
/// then booting from a stale (`stale_age`-old), scrambled snapshot —
/// the event-driven half of a [`crate::ChurnSchedule::JoinAt`] event
/// (the dataflow half is the membership gate in the engines).
///
/// Each arrival's scramble seed derives deterministically from `rng`
/// and its sorted position, so the run is a pure function of the
/// inputs, exactly like [`crash_recover_network`].
#[allow(clippy::too_many_arguments)] // crash_recover_network's signature + the staleness knob
pub fn arrival_network(
    g: &LayeredGraph,
    params: &Params,
    env: &StaticEnvironment,
    cfg: GridNodeConfig,
    source_pulses: u64,
    arrivals: &HashMap<NodeId, LocalTime>,
    stale_age: Duration,
    rng: &mut Rng,
) -> GridNetwork {
    rejoining_network(
        g,
        params,
        env,
        cfg,
        source_pulses,
        arrivals,
        stale_age,
        0x7019,
        rng,
    )
}

/// The shared body of [`crash_recover_network`] and [`arrival_network`]:
/// one [`RejoiningDesNode`] per grid node listed in `joins`, scramble
/// seeds drawn from `rng.fork(seed_stream)` in sorted node order.
#[allow(clippy::too_many_arguments)] // arrival_network's signature + the seed stream
fn rejoining_network(
    g: &LayeredGraph,
    params: &Params,
    env: &StaticEnvironment,
    cfg: GridNodeConfig,
    source_pulses: u64,
    joins: &HashMap<NodeId, LocalTime>,
    stale_age: Duration,
    seed_stream: u64,
    rng: &mut Rng,
) -> GridNetwork {
    let mut seed_rng = rng.fork(seed_stream);
    let mut sorted: Vec<NodeId> = joins.keys().copied().collect();
    sorted.sort();
    let seeds: HashMap<NodeId, u64> = sorted
        .into_iter()
        .map(|n| (n, seed_rng.next_u64()))
        .collect();
    GridNetwork::build(g, params, env, cfg, source_pulses, rng, |id, wiring| {
        let join_at = *joins.get(&id)?;
        if id.layer == 0 {
            return None; // layer 0 runs Algorithm 2; campaigns and churn target grid nodes
        }
        let inner = GradientTrixNode::new(
            wiring.config,
            wiring.own_pred,
            wiring.neighbor_preds.clone(),
        );
        Some(Box::new(RejoiningDesNode::new(
            inner, join_at, stale_age, seeds[&id],
        )))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use trix_sim::Des;
    use trix_time::AffineClock;
    use trix_topology::BaseGraph;

    fn params() -> Params {
        Params::with_standard_lambda(Duration::from(2000.0), Duration::from(1.0), 1.0001)
    }

    #[test]
    fn babbler_fires_on_schedule() {
        let mut des = Des::new(vec![AffineClock::PERFECT]);
        let mut nodes: Vec<Box<dyn Node>> = vec![Box::new(BabblingDesNode::new(
            Duration::from(7.0),
            Duration::from(3.0),
        ))];
        des.run(&mut nodes, Time::from(20.0));
        let times: Vec<f64> = des.broadcasts().iter().map(|b| b.time.as_f64()).collect();
        assert_eq!(times, vec![3.0, 10.0, 17.0]);
    }

    #[test]
    fn scrambled_network_stabilizes() {
        let p = params();
        let g = LayeredGraph::new(BaseGraph::line_with_replicated_ends(4), 4);
        let mut rng = Rng::seed_from(77);
        let env = StaticEnvironment::random(&g, p.d(), p.u(), p.theta(), &mut rng);
        let cfg = GridNodeConfig::standard(p, g.base().diameter());
        let mut net = scrambled_network(&g, &p, &env, cfg, 30, 25, &HashSet::new(), &mut rng);
        net.run(Time::from(1e9));
        let by_node = net.broadcasts_by_node();
        let lambda = p.lambda().as_f64();
        // Every grid node must eventually settle into Λ-periodic pulsing.
        for layer in 1..g.layer_count() {
            for v in 0..g.width() {
                let pulses = &by_node[net.index.engine_id(g.node(v, layer))];
                assert!(
                    pulses.len() >= 10,
                    "node ({v},{layer}) stalled: {} pulses",
                    pulses.len()
                );
                let tail = &pulses[pulses.len() - 6..pulses.len() - 1];
                for w in tail.windows(2) {
                    let gap = (w[1] - w[0]).as_f64();
                    assert!(
                        (gap - lambda).abs() < p.kappa().as_f64(),
                        "node ({v},{layer}) did not stabilize: gap {gap}"
                    );
                }
            }
        }
    }

    /// On a clean-start fault-free deployment, corresponding fires of
    /// adjacent nodes land at the κ scale: the nearest-fire misalignment
    /// around a mid-run reference, over every base-graph edge on every
    /// layer (intra) and every grid edge (inter), read from the engine's
    /// broadcast log. Consecutive fires of one node are Λ ≈ 1700κ apart,
    /// so the 10κ bound has teeth.
    #[test]
    fn clean_network_monitor_sees_kappa_scale_misalignment() {
        let p = params();
        let g = LayeredGraph::new(BaseGraph::line_with_replicated_ends(5), 4);
        let mut rng = Rng::seed_from(3);
        let env = StaticEnvironment::random(&g, p.d(), p.u(), p.theta(), &mut rng);
        let cfg = GridNodeConfig::standard(p, g.base().diameter());
        let mut net = GridNetwork::build(&g, &p, &env, cfg, 24, &mut rng, |_, _| None);
        net.run(Time::from(1e9));
        let by_node = net.broadcasts_by_node();
        let reference = 12.0 * p.lambda().as_f64();
        let nearest = |n: NodeId| -> f64 {
            by_node[net.index.engine_id(n)]
                .iter()
                .map(|t| t.as_f64())
                .min_by(|a, b| (a - reference).abs().total_cmp(&(b - reference).abs()))
                .expect("every grid node fires")
        };
        let mut intra = 0f64;
        for layer in 0..g.layer_count() {
            for (a, b) in g.base().edges() {
                intra = intra.max((nearest(g.node(a, layer)) - nearest(g.node(b, layer))).abs());
            }
        }
        let mut inter = 0f64;
        for n in g.nodes() {
            for (succ, _) in g.successors(n) {
                inter = inter.max((nearest(n) - nearest(succ)).abs());
            }
        }
        assert!(intra > 0.0 && inter > 0.0);
        let bound = 10.0 * p.kappa().as_f64();
        assert!(
            intra <= bound && inter <= bound,
            "misalignment intra {intra} / inter {inter} above 10κ {bound}"
        );
    }

    /// Crash–recover regression, extending the Thm 1.6 `H_min`/`H_max`
    /// fix: a node that rejoins mid-run wakes with scrambled state —
    /// across many scramble seeds this includes recorded reception
    /// extremes that a genuine early pulse inverts — and the Algorithm 4
    /// sanitization must absorb every one of them (no `correction()`
    /// panic) while the node re-synchronizes into Λ-periodic pulsing.
    #[test]
    fn crash_recover_rejoins_with_sanitized_extremes_and_resyncs() {
        let p = params();
        let g = LayeredGraph::new(BaseGraph::line_with_replicated_ends(4), 4);
        let lambda = p.lambda().as_f64();
        for seed in 0..12u64 {
            let mut rng = Rng::seed_from(seed);
            let env = StaticEnvironment::random(&g, p.d(), p.u(), p.theta(), &mut rng);
            let cfg = GridNodeConfig::standard(p, g.base().diameter());
            let node = g.node(2, 2);
            let rejoins: std::collections::HashMap<_, _> = [(node, LocalTime::from(6.0 * lambda))]
                .into_iter()
                .collect();
            let mut net = crash_recover_network(&g, &p, &env, cfg, 30, &rejoins, &mut rng);
            net.run(Time::from(40.0 * lambda));
            let by_node = net.broadcasts_by_node();
            let pulses = &by_node[net.index.engine_id(node)];
            // Dead until rejoin…
            assert!(
                pulses.iter().all(|t| t.as_f64() >= 6.0 * lambda),
                "seed {seed}: pulse before rejoin: {pulses:?}"
            );
            // …then re-synchronized: a healthy tail of Λ-periodic pulses.
            assert!(
                pulses.len() >= 8,
                "seed {seed}: rejoined node stalled with {} pulses",
                pulses.len()
            );
            let tail = &pulses[pulses.len() - 5..pulses.len() - 1];
            for w in tail.windows(2) {
                let gap = (w[1] - w[0]).as_f64();
                assert!(
                    (gap - lambda).abs() < 2.0 * p.kappa().as_f64(),
                    "seed {seed}: rejoined node did not re-sync, gap {gap}"
                );
            }
        }
    }

    /// The crash window is invisible to the rest of the grid's liveness:
    /// every other node keeps pulsing through the outage and after the
    /// rejoin (the node's successors ride their remaining predecessors,
    /// exactly like a permanent silent fault — but here the hole heals).
    #[test]
    fn grid_rides_through_a_crash_recover_outage() {
        let p = params();
        let g = LayeredGraph::new(BaseGraph::line_with_replicated_ends(4), 4);
        let lambda = p.lambda().as_f64();
        let mut rng = Rng::seed_from(21);
        let env = StaticEnvironment::random(&g, p.d(), p.u(), p.theta(), &mut rng);
        let cfg = GridNodeConfig::standard(p, g.base().diameter());
        let node = g.node(3, 1);
        let rejoins: std::collections::HashMap<_, _> = [(node, LocalTime::from(8.0 * lambda))]
            .into_iter()
            .collect();
        let mut net = crash_recover_network(&g, &p, &env, cfg, 30, &rejoins, &mut rng);
        net.run(Time::from(40.0 * lambda));
        let by_node = net.broadcasts_by_node();
        for layer in 1..g.layer_count() {
            for v in 0..g.width() {
                let pos = g.node(v, layer);
                if pos == node {
                    continue;
                }
                let pulses = &by_node[net.index.engine_id(pos)];
                assert!(
                    pulses.len() >= 10,
                    "node ({v},{layer}) stalled during the outage: {} pulses",
                    pulses.len()
                );
                let tail = &pulses[pulses.len() - 6..pulses.len() - 1];
                for w in tail.windows(2) {
                    let gap = (w[1] - w[0]).as_f64();
                    assert!(
                        (gap - lambda).abs() < 2.0 * p.kappa().as_f64(),
                        "node ({v},{layer}): gap {gap}"
                    );
                }
            }
        }
    }

    /// A new arrival boots from a stale scrambled snapshot — recorded
    /// reception extremes an epoch in the past — and must still splice
    /// into the running grid: no pulse before the join time, then a
    /// Λ-periodic tail once Algorithm 4 has sanitized the stale state.
    #[test]
    fn new_arrival_boots_stale_and_splices_in() {
        let p = params();
        let g = LayeredGraph::new(BaseGraph::line_with_replicated_ends(4), 4);
        let lambda = p.lambda().as_f64();
        let mut rng = Rng::seed_from(9);
        let env = StaticEnvironment::random(&g, p.d(), p.u(), p.theta(), &mut rng);
        let cfg = GridNodeConfig::standard(p, g.base().diameter());
        let node = g.node(1, 2);
        let arrivals: std::collections::HashMap<_, _> = [(node, LocalTime::from(7.0 * lambda))]
            .into_iter()
            .collect();
        let stale_age = Duration::from(5.0 * lambda);
        let mut net = arrival_network(&g, &p, &env, cfg, 30, &arrivals, stale_age, &mut rng);
        net.run(Time::from(40.0 * lambda));
        let by_node = net.broadcasts_by_node();
        let pulses = &by_node[net.index.engine_id(node)];
        assert!(
            pulses.iter().all(|t| t.as_f64() >= 7.0 * lambda),
            "pulse before arrival: {pulses:?}"
        );
        assert!(
            pulses.len() >= 8,
            "arrival stalled: {} pulses",
            pulses.len()
        );
        let tail = &pulses[pulses.len() - 5..pulses.len() - 1];
        for w in tail.windows(2) {
            let gap = (w[1] - w[0]).as_f64();
            assert!(
                (gap - lambda).abs() < 2.0 * p.kappa().as_f64(),
                "arrival did not sync into the grid: gap {gap}"
            );
        }
    }

    #[test]
    fn scrambled_network_with_permanent_fault_still_stabilizes() {
        let p = params();
        let g = LayeredGraph::new(BaseGraph::line_with_replicated_ends(4), 4);
        let mut rng = Rng::seed_from(13);
        let env = StaticEnvironment::random(&g, p.d(), p.u(), p.theta(), &mut rng);
        let cfg = GridNodeConfig::standard(p, g.base().diameter());
        let dead = g.node(2, 1);
        let permanent: HashSet<_> = [dead].into_iter().collect();
        let mut net = scrambled_network(&g, &p, &env, cfg, 30, 10, &permanent, &mut rng);
        net.run(Time::from(1e9));
        let by_node = net.broadcasts_by_node();
        assert!(
            by_node[net.index.engine_id(dead)].is_empty(),
            "silent node must not pulse"
        );
        let lambda = p.lambda().as_f64();
        for layer in 1..g.layer_count() {
            for v in 0..g.width() {
                let node = g.node(v, layer);
                if node == dead {
                    continue;
                }
                let pulses = &by_node[net.index.engine_id(node)];
                assert!(
                    pulses.len() >= 8,
                    "node ({v},{layer}) stalled with {} pulses",
                    pulses.len()
                );
                let tail = &pulses[pulses.len() - 5..pulses.len() - 1];
                for w in tail.windows(2) {
                    let gap = (w[1] - w[0]).as_f64();
                    assert!(
                        (gap - lambda).abs() < 2.0 * p.kappa().as_f64(),
                        "node ({v},{layer}): gap {gap}"
                    );
                }
            }
        }
    }
}
