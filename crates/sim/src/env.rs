//! Link-delay and hardware-clock assignments (the "environment" of an
//! execution).
//!
//! The paper's model (§2): each edge `e` has an unknown but *fixed* delay
//! `δ_e ∈ [d−u, d]`; each node has a hardware clock with rate in `[1, ϑ]`.
//! Corollary 1.5 additionally allows both to vary slowly between pulses.
//! [`StaticEnvironment`] covers the static case; [`SequenceEnvironment`]
//! lets experiments supply a different assignment for every pulse index.

use crate::Rng;
use trix_time::{AffineClock, Duration};
use trix_topology::{EdgeId, LayeredGraph, NodeId};

/// Delay and clock assignment used when evaluating pulse `k`.
///
/// The dataflow executor queries this for every (pulse, edge) and
/// (pulse, node) pair. Implementations must be deterministic.
pub trait Environment {
    /// Delay of edge `e` while pulse `k` traverses it.
    fn delay(&self, k: usize, e: EdgeId) -> Duration;

    /// Clock of `node` during its `k`-th iteration.
    ///
    /// An [`AffineClock`] snapshot is sufficient even for slowly varying
    /// clocks because a node's decision in one iteration only uses local
    /// time *differences* within that iteration.
    fn clock(&self, k: usize, node: NodeId) -> AffineClock;
}

/// The static environment of the paper's core analysis: per-edge delays and
/// per-node clock rates fixed for the whole execution.
#[derive(Clone, Debug)]
pub struct StaticEnvironment {
    delays: Vec<Duration>,
    clocks: Vec<AffineClock>,
    width: usize,
}

impl StaticEnvironment {
    /// Creates an environment from explicit assignments.
    ///
    /// `delays` is indexed by [`EdgeId`], `clocks` by base-node index (all
    /// copies of a base node share a physical column and hence a clock
    /// *rate*; sharing the full clock is harmless because only in-iteration
    /// differences matter).
    ///
    /// # Panics
    ///
    /// Panics if the vector lengths do not match the graph.
    pub fn new(g: &LayeredGraph, delays: Vec<Duration>, clocks: Vec<AffineClock>) -> Self {
        assert_eq!(delays.len(), g.edge_count(), "one delay per edge required");
        assert_eq!(clocks.len(), g.node_count(), "one clock per node required");
        Self {
            delays,
            clocks,
            width: g.width(),
        }
    }

    /// All delays equal to `d` (no uncertainty), all clocks perfect.
    pub fn nominal(g: &LayeredGraph, d: Duration) -> Self {
        Self::new(
            g,
            vec![d; g.edge_count()],
            vec![AffineClock::PERFECT; g.node_count()],
        )
    }

    /// Uniformly random delays in `[d−u, d]` and clock rates in `[1, ϑ]`.
    pub fn random(g: &LayeredGraph, d: Duration, u: Duration, theta: f64, rng: &mut Rng) -> Self {
        assert!(u >= Duration::ZERO && u <= d, "need 0 <= u <= d");
        assert!(theta >= 1.0, "theta must be at least 1");
        let delays = (0..g.edge_count())
            .map(|_| Duration::from(rng.f64_in(d.as_f64() - u.as_f64(), d.as_f64())))
            .collect();
        let clocks = (0..g.node_count())
            .map(|_| AffineClock::with_rate(rng.f64_in(1.0, theta)))
            .collect();
        Self::new(g, delays, clocks)
    }

    /// The per-edge delays.
    pub fn delays(&self) -> &[Duration] {
        &self.delays
    }

    /// The per-node clocks.
    pub fn clocks(&self) -> &[AffineClock] {
        &self.clocks
    }
}

impl Environment for StaticEnvironment {
    #[inline]
    fn delay(&self, _k: usize, e: EdgeId) -> Duration {
        self.delays[e.0]
    }

    #[inline]
    fn clock(&self, _k: usize, node: NodeId) -> AffineClock {
        self.clocks[node.layer as usize * self.width + node.v as usize]
    }
}

/// An environment that changes between pulses: one [`StaticEnvironment`]
/// per pulse, built eagerly.
///
/// Used by the Corollary 1.5 experiments ("link delays vary by up to
/// `n^{-1/2}·u·log D` [per pulse]").
#[derive(Clone, Debug)]
pub struct SequenceEnvironment {
    envs: Vec<StaticEnvironment>,
}

impl SequenceEnvironment {
    /// Creates a sequence environment; pulse `k` uses `envs[min(k, len-1)]`.
    ///
    /// # Panics
    ///
    /// Panics if `envs` is empty.
    pub fn new(envs: Vec<StaticEnvironment>) -> Self {
        assert!(!envs.is_empty(), "need at least one environment");
        Self { envs }
    }
}

impl Environment for SequenceEnvironment {
    fn delay(&self, k: usize, e: EdgeId) -> Duration {
        self.envs[k.min(self.envs.len() - 1)].delays[e.0]
    }

    fn clock(&self, k: usize, node: NodeId) -> AffineClock {
        let env = &self.envs[k.min(self.envs.len() - 1)];
        env.clocks[node.layer as usize * env.width + node.v as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trix_topology::BaseGraph;

    fn graph() -> LayeredGraph {
        LayeredGraph::new(BaseGraph::cycle(5), 4)
    }

    #[test]
    fn nominal_env() {
        let g = graph();
        let env = StaticEnvironment::nominal(&g, Duration::from(10.0));
        assert_eq!(env.delay(0, EdgeId(3)), Duration::from(10.0));
        assert_eq!(env.clock(0, g.node(1, 2)).rate(), 1.0);
    }

    #[test]
    fn random_env_within_model() {
        let g = graph();
        let mut rng = Rng::seed_from(1);
        let d = Duration::from(10.0);
        let u = Duration::from(1.0);
        let env = StaticEnvironment::random(&g, d, u, 1.01, &mut rng);
        for e in 0..g.edge_count() {
            let delay = env.delay(0, EdgeId(e));
            assert!(delay >= d - u && delay <= d);
        }
        for n in g.nodes() {
            let c = env.clock(0, n);
            assert!(c.within_drift_bound(1.01));
        }
    }

    #[test]
    fn random_env_is_deterministic() {
        let g = graph();
        let d = Duration::from(10.0);
        let u = Duration::from(1.0);
        let a = StaticEnvironment::random(&g, d, u, 1.01, &mut Rng::seed_from(2));
        let b = StaticEnvironment::random(&g, d, u, 1.01, &mut Rng::seed_from(2));
        assert_eq!(a.delays(), b.delays());
    }

    #[test]
    fn sequence_env_switches_per_pulse() {
        let g = graph();
        let env = SequenceEnvironment::new(vec![
            StaticEnvironment::nominal(&g, Duration::from(10.0)),
            StaticEnvironment::nominal(&g, Duration::from(11.0)),
        ]);
        assert_eq!(env.delay(0, EdgeId(0)), Duration::from(10.0));
        assert_eq!(env.delay(1, EdgeId(0)), Duration::from(11.0));
        // Clamps to the last environment beyond the end.
        assert_eq!(env.delay(9, EdgeId(0)), Duration::from(11.0));
    }
}
