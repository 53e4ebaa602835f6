//! Layer-0 pulse generation (paper Appendix A, Algorithm 2).
//!
//! Layer 0 is a chain fed by the clock source: node `i` stores the local
//! reception time `H` of the pulse from its chain predecessor and
//! broadcasts `Λ − d` local time later. Lemma A.1: the `k`-th pulse of
//! chain position `i` lands in `[(k+i−1)Λ − iκ/2, (k+i−1)Λ]`, so adjacent
//! chain positions are at most `κ/2` apart (after the diagonal index
//! shift), and the scheme self-stabilizes within `ΛD` time.
//!
//! Two implementations:
//!
//! * [`Layer0Line`] — closed form for the dataflow executor. Pulse indices
//!   are *diagonal-reindexed* (iteration `k` of every node is concurrent,
//!   near `k·Λ`), matching [`trix_sim::Layer0Source`]'s contract.
//! * [`ClockSourceNode`] / [`LineForwarderNode`] — literal Algorithm 2
//!   state machines for the event-driven engine (used by the
//!   self-stabilization experiments).

use crate::Params;
use trix_sim::{Layer0Source, Node, NodeApi, Rng};
use trix_time::Duration;

/// Closed-form layer-0 chain for the dataflow executor.
///
/// Each chain hop contributes `δ + (Λ−d)/ρ − Λ ∈ [−κ/2, 0]` to a node's
/// offset from the nominal grid `k·Λ`; offsets accumulate along the chain
/// (a forest: the replicated end copies hang off the same parent).
#[derive(Clone, Debug)]
pub struct Layer0Line {
    period: f64,
    phi: Vec<f64>,
}

impl Layer0Line {
    /// Builds the chain from per-node parents, hop delays, and hop clock
    /// rates. `parents[v] = None` means `v` is fed directly by the source.
    ///
    /// # Panics
    ///
    /// Panics on length mismatches, a cyclic parent structure, delays
    /// outside `[d−u, d]`, or rates outside `[1, ϑ]`.
    pub fn new(
        params: &Params,
        parents: &[Option<usize>],
        hop_delays: &[Duration],
        hop_rates: &[f64],
    ) -> Self {
        let n = parents.len();
        assert_eq!(hop_delays.len(), n, "one hop delay per node");
        assert_eq!(hop_rates.len(), n, "one hop rate per node");
        for &delay in hop_delays {
            assert!(
                delay >= params.d_min() && delay <= params.d(),
                "hop delay outside [d-u, d]"
            );
        }
        for &rate in hop_rates {
            assert!(
                (1.0..=params.theta()).contains(&rate),
                "hop rate outside [1, theta]"
            );
        }
        let lambda = params.lambda().as_f64();
        let lmd = (params.lambda() - params.d()).as_f64();
        let hop = |v: usize| hop_delays[v].as_f64() + lmd / hop_rates[v] - lambda;

        let mut phi = vec![f64::NAN; n];
        for start in 0..n {
            if !phi[start].is_nan() {
                continue;
            }
            // Walk up to a resolved ancestor or a root, then unwind.
            let mut stack = Vec::new();
            let mut cur = start;
            loop {
                stack.push(cur);
                assert!(stack.len() <= n, "cyclic parent structure in layer-0 chain");
                match parents[cur] {
                    Some(p) if phi[p].is_nan() => cur = p,
                    _ => break,
                }
            }
            while let Some(v) = stack.pop() {
                let base = match parents[v] {
                    Some(p) => phi[p],
                    None => 0.0,
                };
                phi[v] = base + hop(v);
            }
        }
        Self {
            period: lambda,
            phi,
        }
    }

    /// The canonical chain for the line-with-replicated-ends base graph:
    /// both left copies are fed by the source; every later node by its
    /// predecessor in index order.
    pub fn chain_for_line(width: usize) -> Vec<Option<usize>> {
        (0..width)
            .map(|v| if v <= 1 { None } else { Some(v - 1) })
            .collect()
    }

    /// A random in-model instantiation over the canonical line chain.
    pub fn random_for_line(params: &Params, width: usize, rng: &mut Rng) -> Self {
        let parents = Self::chain_for_line(width);
        Self::random_for_parents(params, &parents, rng)
    }

    /// The canonical chain for an arbitrary base graph: the BFS tree from
    /// node 0, children discovered in sorted-neighbor order.
    ///
    /// Every node sits at BFS depth at most the diameter `D`, and each
    /// tree hop contributes an offset in `[−κ/2, 0]` (Lemma A.1), so all
    /// layer-0 offsets lie in `[−(D+1)·κ/2, 0]` and any two nodes —
    /// graph-adjacent or not — are within `(D+1)·κ/2` of each other.
    /// That stays below the diameter-parameterized Theorem 1.1 envelope
    /// `4κ(2 + log₂ D)` for every `D ≤ 43`, comfortably covering the
    /// family sweeps.
    ///
    /// Deterministic: same graph ⇒ same forest (node 0 is the unique
    /// root fed directly by the source).
    pub fn chain_for_graph(base: &trix_topology::BaseGraph) -> Vec<Option<usize>> {
        let n = base.node_count();
        let mut parents: Vec<Option<usize>> = vec![None; n];
        let mut seen = vec![false; n];
        let mut queue = std::collections::VecDeque::new();
        seen[0] = true;
        queue.push_back(0usize);
        while let Some(v) = queue.pop_front() {
            for &w in base.neighbors(v) {
                if !seen[w] {
                    seen[w] = true;
                    parents[w] = Some(v);
                    queue.push_back(w);
                }
            }
        }
        assert!(seen.iter().all(|&s| s), "base graph must be connected");
        parents
    }

    /// A random in-model instantiation over [`Layer0Line::chain_for_graph`].
    pub fn random_for_graph(
        params: &Params,
        base: &trix_topology::BaseGraph,
        rng: &mut Rng,
    ) -> Self {
        let parents = Self::chain_for_graph(base);
        Self::random_for_parents(params, &parents, rng)
    }

    /// Draws in-model hop delays then hop rates for a given forest (the
    /// draw order — all delays, then all rates — is part of the seed
    /// contract pinned by the experiment fingerprints).
    fn random_for_parents(params: &Params, parents: &[Option<usize>], rng: &mut Rng) -> Self {
        let n = parents.len();
        let delays: Vec<Duration> = (0..n)
            .map(|_| Duration::from(rng.f64_in(params.d_min().as_f64(), params.d().as_f64())))
            .collect();
        let rates: Vec<f64> = (0..n).map(|_| rng.f64_in(1.0, params.theta())).collect();
        Self::new(params, parents, &delays, &rates)
    }

    /// Per-node offsets from the nominal pulse grid `k·Λ`.
    pub fn offsets(&self) -> &[f64] {
        &self.phi
    }
}

impl Layer0Source for Layer0Line {
    fn pulse_time(&self, k: usize, v: usize) -> trix_time::Time {
        trix_time::Time::from(k as f64 * self.period + self.phi[v])
    }
}

/// DES node: the clock source, broadcasting every `Λ` of *local* time.
///
/// Whatever drives layer 0 defines "true time" (§2), so experiments give
/// the source a perfect clock; a drifting source clock is subsumed in `ϑ`.
#[derive(Clone, Debug)]
pub struct ClockSourceNode {
    period: Duration,
    remaining: u64,
}

impl ClockSourceNode {
    /// Creates a source emitting `count` pulses with the given local
    /// period.
    pub fn new(period: Duration, count: u64) -> Self {
        assert!(period > Duration::ZERO, "period must be positive");
        Self {
            period,
            remaining: count,
        }
    }
}

impl Node for ClockSourceNode {
    fn on_start(&mut self, api: &mut NodeApi<'_>) {
        if self.remaining > 0 {
            api.set_timer_local(api.local_now() + self.period, 0);
        }
    }

    fn on_pulse(&mut self, _from: usize, _api: &mut NodeApi<'_>) {}

    fn on_timer(&mut self, _tag: u64, api: &mut NodeApi<'_>) {
        api.broadcast();
        self.remaining -= 1;
        if self.remaining > 0 {
            api.set_timer_local(api.local_now() + self.period, 0);
        }
    }
}

/// DES node: Algorithm 2 — forwards each pulse from its chain predecessor
/// after `Λ − d` local time.
///
/// The state (`H`) is overwritten on every reception, which is exactly why
/// the scheme is self-stabilizing (Lemma A.1's proof): spurious state is
/// flushed by the first genuine pulse.
#[derive(Clone, Debug)]
pub struct LineForwarderNode {
    predecessor: usize,
    wait: Duration,
    generation: u64,
}

impl LineForwarderNode {
    /// Creates a forwarder listening to engine node `predecessor`.
    pub fn new(params: &Params, predecessor: usize) -> Self {
        Self {
            predecessor,
            wait: params.lambda() - params.d(),
            generation: 0,
        }
    }
}

impl Node for LineForwarderNode {
    fn on_start(&mut self, _api: &mut NodeApi<'_>) {}

    fn on_pulse(&mut self, from: usize, api: &mut NodeApi<'_>) {
        if from != self.predecessor {
            return;
        }
        // H := H(t); any previously armed timer becomes stale.
        self.generation += 1;
        api.set_timer_local(api.local_now() + self.wait, self.generation);
    }

    fn on_timer(&mut self, tag: u64, api: &mut NodeApi<'_>) {
        if tag == self.generation {
            api.broadcast();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trix_sim::{Des, Link};
    use trix_time::{AffineClock, Time};

    fn params() -> Params {
        Params::with_standard_lambda(Duration::from(2000.0), Duration::from(1.0), 1.0001)
    }

    #[test]
    fn offsets_accumulate_within_kappa_over_2_per_hop() {
        let p = params();
        let mut rng = Rng::seed_from(42);
        let line = Layer0Line::random_for_line(&p, 12, &mut rng);
        let phi = line.offsets();
        let half_kappa = p.kappa().as_f64() / 2.0;
        // Roots are one hop from the source.
        for v in 0..12 {
            let parent_phi = match Layer0Line::chain_for_line(12)[v] {
                Some(q) => phi[q],
                None => 0.0,
            };
            let hop = phi[v] - parent_phi;
            assert!(
                (-half_kappa - 1e-12..=0.0).contains(&hop),
                "hop {v}: {hop} outside [-kappa/2, 0]"
            );
        }
        // Lemma A.1 window: phi_v in [-pos(v)*kappa/2, 0].
        for (v, &f) in phi.iter().enumerate() {
            let pos = (v.max(1)) as f64;
            assert!(f <= 0.0 && f >= -pos * half_kappa - 1e-12, "v={v}: {f}");
        }
    }

    #[test]
    fn adjacent_chain_offsets_stay_close() {
        let p = params();
        let mut rng = Rng::seed_from(7);
        let line = Layer0Line::random_for_line(&p, 32, &mut rng);
        let phi = line.offsets();
        let kappa = p.kappa().as_f64();
        for v in 2..32 {
            assert!(
                (phi[v] - phi[v - 1]).abs() <= kappa / 2.0 + 1e-12,
                "chain-adjacent offsets must differ by <= kappa/2"
            );
        }
        // The replicated-copy pair (0, 1) shares the source parent.
        assert!((phi[0] - phi[1]).abs() <= kappa / 2.0 + 1e-12);
    }

    #[test]
    fn pulse_times_follow_the_period() {
        let p = params();
        let mut rng = Rng::seed_from(1);
        let line = Layer0Line::random_for_line(&p, 8, &mut rng);
        for v in 0..8 {
            let t0 = line.pulse_time(0, v);
            let t5 = line.pulse_time(5, v);
            assert!(((t5 - t0).as_f64() - 5.0 * p.lambda().as_f64()).abs() < 1e-9);
        }
    }

    #[test]
    fn des_line_matches_lemma_a1_window() {
        // Source -> chain of 5 forwarders with in-model random delays.
        let p = params();
        let mut rng = Rng::seed_from(3);
        let n = 6; // node 0 = source
        let mut clocks = Vec::new();
        clocks.push(AffineClock::PERFECT.into());
        for _ in 1..n {
            clocks.push(AffineClock::with_rate(rng.f64_in(1.0, p.theta())).into());
        }
        let mut des = Des::new(clocks);
        for i in 0..n - 1 {
            des.add_link(
                i,
                Link {
                    to: i + 1,
                    delay: Duration::from(rng.f64_in(p.d_min().as_f64(), p.d().as_f64())),
                },
            );
        }
        let mut nodes: Vec<Box<dyn Node>> = Vec::new();
        nodes.push(Box::new(ClockSourceNode::new(p.lambda(), 4)));
        for i in 1..n {
            nodes.push(Box::new(LineForwarderNode::new(&p, i - 1)));
        }
        des.run(&mut nodes, Time::from(1e6));
        // Node i's k-th pulse must lie in [(k+i-1)Λ - i·κ/2, (k+i-1)Λ]
        // where the source's k-th pulse is at (k-1)Λ... here source pulse 1
        // fires at local Λ = real Λ.
        let lambda = p.lambda().as_f64();
        let half_kappa = p.kappa().as_f64() / 2.0;
        for b in des.broadcasts() {
            if b.node == 0 {
                continue;
            }
            let i = b.node as f64;
            // Which k is this? Broadcasts at ~ (k + i - 1 + 1)Λ... recover k
            // by rounding.
            let nominal_idx = (b.time.as_f64() / lambda).round();
            let nominal = nominal_idx * lambda;
            assert!(
                b.time.as_f64() <= nominal + 1e-9
                    && b.time.as_f64() >= nominal - i * half_kappa - 1e-9,
                "node {} pulse at {} outside Lemma A.1 window around {}",
                b.node,
                b.time,
                nominal
            );
        }
        // 4 source pulses, each forwarded down 5 hops.
        assert_eq!(des.broadcasts().len(), 4 + 4 * 5);
    }

    #[test]
    fn line_forwarder_ignores_strangers() {
        let p = params();
        let mut des = Des::new(vec![
            AffineClock::PERFECT.into(),
            AffineClock::PERFECT.into(),
            AffineClock::PERFECT.into(),
        ]);
        // Node 2 listens to node 1, but only node 0 sends (a stranger).
        des.add_link(
            0,
            Link {
                to: 2,
                delay: Duration::from(10.0),
            },
        );
        let mut nodes: Vec<Box<dyn Node>> = vec![
            Box::new(ClockSourceNode::new(p.lambda(), 2)),
            Box::new(ClockSourceNode::new(p.lambda(), 0)),
            Box::new(LineForwarderNode::new(&p, 1)),
        ];
        des.run(&mut nodes, Time::from(1e6));
        // Only the two source pulses; the forwarder never fires.
        assert_eq!(des.broadcasts().len(), 2);
        assert!(des.broadcasts().iter().all(|b| b.node == 0));
    }

    #[test]
    fn graph_chain_is_a_bfs_forest_with_bounded_offsets() {
        let p = params();
        let torus = trix_topology::families::torus(4, 5).into_graph();
        let parents = Layer0Line::chain_for_graph(&torus);
        // Node 0 is the unique root; every parent is a graph neighbor.
        assert_eq!(parents[0], None);
        assert_eq!(parents.iter().filter(|p| p.is_none()).count(), 1);
        for (v, parent) in parents.iter().enumerate().skip(1) {
            let q = parent.expect("non-root has a parent");
            assert!(torus.neighbors(v).contains(&q));
        }
        // BFS depth never exceeds the eccentricity of node 0 <= D, so all
        // offsets land in [-(D+1)·κ/2, 0] — under the Thm 1.1 envelope.
        let mut rng = Rng::seed_from(9);
        let line = Layer0Line::random_for_graph(&p, &torus, &mut rng);
        let bound = (torus.diameter() as f64 + 1.0) * p.kappa().as_f64() / 2.0;
        for &f in line.offsets() {
            assert!(f <= 0.0 && f >= -bound - 1e-12, "{f} outside [-{bound}, 0]");
        }
        // Deterministic: the same graph yields the same forest.
        assert_eq!(parents, Layer0Line::chain_for_graph(&torus));
    }

    #[test]
    #[should_panic(expected = "cyclic parent structure")]
    fn rejects_cyclic_chain() {
        let p = params();
        let _ = Layer0Line::new(&p, &[Some(1), Some(0)], &[p.d(), p.d()], &[1.0, 1.0]);
    }
}
