//! Wiring a complete Gradient TRIX deployment into the DES engine:
//! clock source → layer-0 chain (Algorithm 2) → grid (Algorithm 3/4).
//!
//! Engine node indices: `0` is the clock source; node `(v, ℓ)` of the
//! layered graph maps to `1 + ℓ·width + v` (see [`GridIndex`]).
//!
//! [`GridNetwork::build`] wires the line-with-replicated-ends setting
//! (Figure 2), whose canonical layer-0 chain
//! ([`crate::Layer0Line::chain_for_line`]) visits nodes in index order;
//! [`GridNetwork::build_with_chain`] accepts any base-graph family paired
//! with an explicit layer-0 forest (canonically
//! [`crate::Layer0Line::chain_for_graph`]).

use crate::{ClockSourceNode, Layer0Line};
use crate::{GradientTrixNode, GridNodeConfig, LineForwarderNode, Params};
use trix_sim::{converged_from, Des, Environment, Link, Node, Rng, StaticEnvironment};
use trix_time::{Duration, Time};
use trix_topology::{LayeredGraph, NodeId};

/// Mapping between layered-graph nodes and engine indices.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GridIndex {
    width: usize,
    layer_count: usize,
}

impl GridIndex {
    /// Engine index of the clock source.
    #[inline]
    pub fn source(&self) -> usize {
        0
    }

    /// Engine index of a grid node.
    #[inline]
    pub fn engine_id(&self, n: NodeId) -> usize {
        1 + n.layer as usize * self.width + n.v as usize
    }

    /// The grid node behind an engine index (`None` for the source).
    pub fn node_id(&self, engine: usize) -> Option<NodeId> {
        if engine == 0 {
            return None;
        }
        let idx = engine - 1;
        let layer = idx / self.width;
        if layer >= self.layer_count {
            return None;
        }
        Some(NodeId::new((idx % self.width) as u32, layer as u32))
    }

    /// Total engine node count (source + grid).
    pub fn engine_count(&self) -> usize {
        1 + self.width * self.layer_count
    }
}

/// The engine wiring of one grid position, handed to the node-override
/// hook of [`GridNetwork::build`] so custom (e.g. faulty or scrambled)
/// state machines can be constructed with the correct predecessor ids.
#[derive(Clone, Debug)]
pub struct NodeWiring {
    /// Engine id of `(v, ℓ−1)` (meaningless for layer 0).
    pub own_pred: usize,
    /// Engine ids of the neighbor copies on layer `ℓ−1` (empty for
    /// layer 0).
    pub neighbor_preds: Vec<usize>,
    /// Engine id of the layer-0 chain predecessor (only meaningful for
    /// layer 0).
    pub chain_pred: usize,
    /// The grid-node configuration in use.
    pub config: GridNodeConfig,
}

/// A fully wired DES deployment.
pub struct GridNetwork {
    /// The engine (topology, clocks, queue).
    pub des: Des,
    /// Node state machines, indexed by engine id.
    pub nodes: Vec<Box<dyn Node>>,
    /// Index mapping.
    pub index: GridIndex,
}

impl GridNetwork {
    /// Builds a deployment of `g` with the given environment. Every grid
    /// node runs [`GridNodeConfig::standard`] for `params` and `g`'s
    /// diameter.
    ///
    /// * `source_pulses` — how many pulses the clock source emits;
    /// * `rng` — used for the layer-0 chain link delays (drawn from
    ///   `[d−u, d]`);
    /// * `override_node` — return `Some(node)` to replace the default
    ///   (correct) state machine at a grid position, e.g. with a faulty
    ///   behavior.
    ///
    /// # Panics
    ///
    /// Panics if the environment does not match `g`.
    pub fn build(
        g: &LayeredGraph,
        params: &Params,
        env: &StaticEnvironment,
        source_pulses: u64,
        rng: &mut Rng,
        override_node: impl FnMut(NodeId, &NodeWiring) -> Option<Box<dyn Node>>,
    ) -> Self {
        let chain = Layer0Line::chain_for_line(g.width());
        Self::build_with_chain(g, params, env, source_pulses, rng, &chain, override_node)
    }

    /// As [`GridNetwork::build`], but with an explicit layer-0 parent
    /// forest — the entry point for non-line base graphs, which pair
    /// naturally with [`Layer0Line::chain_for_graph`] (a BFS forest whose
    /// depth, and hence layer-0 offset spread, is bounded by the graph
    /// diameter instead of the width).
    ///
    /// # Panics
    ///
    /// Panics if the environment does not match `g` or `chain` is not
    /// one parent slot per base node.
    #[allow(clippy::needless_range_loop)] // v indexes the parallel `chain` table
    pub fn build_with_chain(
        g: &LayeredGraph,
        params: &Params,
        env: &StaticEnvironment,
        source_pulses: u64,
        rng: &mut Rng,
        chain: &[Option<usize>],
        mut override_node: impl FnMut(NodeId, &NodeWiring) -> Option<Box<dyn Node>>,
    ) -> Self {
        assert_eq!(chain.len(), g.width(), "one chain parent per base node");
        let cfg = GridNodeConfig::standard(*params, g.base().diameter());
        let index = GridIndex {
            width: g.width(),
            layer_count: g.layer_count(),
        };
        // Clocks: source perfect; grid nodes from the environment.
        let mut clocks = Vec::with_capacity(index.engine_count());
        clocks.push(trix_time::AffineClock::PERFECT);
        clocks.extend_from_slice(&env.clocks()[..g.node_count()]);
        let mut des = Des::new(clocks);
        let chain_delay = |rng: &mut Rng| {
            Duration::from(rng.f64_in(params.d_min().as_f64(), params.d().as_f64()))
        };
        for v in 0..g.width() {
            let to = index.engine_id(g.node(v, 0));
            let from = match chain[v] {
                None => index.source(),
                Some(p) => index.engine_id(g.node(p, 0)),
            };
            des.add_link(
                from,
                Link {
                    to,
                    delay: chain_delay(rng),
                },
            );
        }
        // Grid links with the environment's per-edge delays (static).
        for n in g.nodes() {
            for (succ, edge) in g.successors(n) {
                des.add_link(
                    index.engine_id(n),
                    Link {
                        to: index.engine_id(succ),
                        delay: env.delay(0, edge),
                    },
                );
            }
        }

        // Node state machines.
        let mut nodes: Vec<Box<dyn Node>> = Vec::with_capacity(index.engine_count());
        nodes.push(Box::new(ClockSourceNode::new(
            params.lambda(),
            source_pulses,
        )));
        for layer in 0..g.layer_count() {
            for v in 0..g.width() {
                let id = g.node(v, layer);
                let chain_pred = match chain[v] {
                    None => index.source(),
                    Some(p) => index.engine_id(g.node(p, 0)),
                };
                let wiring = if layer == 0 {
                    NodeWiring {
                        own_pred: index.source(),
                        neighbor_preds: Vec::new(),
                        chain_pred,
                        config: cfg,
                    }
                } else {
                    NodeWiring {
                        own_pred: index.engine_id(g.node(v, layer - 1)),
                        neighbor_preds: g
                            .base()
                            .neighbors(v)
                            .iter()
                            .map(|&x| index.engine_id(g.node(x, layer - 1)))
                            .collect(),
                        chain_pred,
                        config: cfg,
                    }
                };
                if let Some(custom) = override_node(id, &wiring) {
                    nodes.push(custom);
                    continue;
                }
                if layer == 0 {
                    nodes.push(Box::new(LineForwarderNode::new(params, wiring.chain_pred)));
                } else {
                    nodes.push(Box::new(GradientTrixNode::new(
                        cfg,
                        wiring.own_pred,
                        wiring.neighbor_preds,
                    )));
                }
            }
        }
        Self { des, nodes, index }
    }

    /// Runs the deployment until `until`.
    pub fn run(&mut self, until: Time) {
        self.des.run(&mut self.nodes, until);
    }

    /// Broadcast times grouped by engine node.
    pub fn broadcasts_by_node(&self) -> Vec<Vec<Time>> {
        let mut out = vec![Vec::new(); self.index.engine_count()];
        for b in self.des.broadcasts() {
            out[b.node].push(b.time);
        }
        out
    }

    /// Each layer's worst [`converged_from`] over its nodes, against
    /// `twin`, the same deployment run from a clean state: the broadcast
    /// from which every node of the layer has joined its twin for good,
    /// or `None` if some node never does. Positions silent in both runs
    /// converge at 0.
    ///
    /// # Panics
    ///
    /// Panics if `twin` deploys a different grid shape.
    pub fn convergence_by_layer(&self, twin: &GridNetwork) -> Vec<Option<usize>> {
        assert_eq!(self.index, twin.index, "the twin must deploy the same grid");
        let (run, twin) = (self.broadcasts_by_node(), twin.broadcasts_by_node());
        let width = self.index.width;
        (0..self.index.layer_count)
            .map(|layer| {
                (1 + layer * width..1 + (layer + 1) * width)
                    .map(|engine| converged_from(&run[engine], &twin[engine]))
                    .try_fold(0, |worst, s| s.map(|s| worst.max(s)))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trix_topology::BaseGraph;

    fn params() -> Params {
        Params::with_standard_lambda(Duration::from(2000.0), Duration::from(1.0), 1.0001)
    }

    #[test]
    fn index_round_trip() {
        let idx = GridIndex {
            width: 7,
            layer_count: 5,
        };
        assert_eq!(idx.source(), 0);
        for engine in 1..idx.engine_count() {
            let n = idx.node_id(engine).unwrap();
            assert_eq!(idx.engine_id(n), engine);
        }
        assert_eq!(idx.node_id(0), None);
        assert_eq!(idx.node_id(idx.engine_count()), None);
    }

    #[test]
    fn full_network_reaches_steady_state() {
        let p = params();
        let g = LayeredGraph::new(BaseGraph::line_with_replicated_ends(5), 4);
        let mut rng = Rng::seed_from(11);
        let env = StaticEnvironment::random(&g, p.d(), p.u(), p.theta(), &mut rng);
        let mut net = GridNetwork::build(&g, &p, &env, 24, &mut rng, |_, _| None);
        net.run(Time::from(1e9));
        let by_node = net.broadcasts_by_node();
        let lambda = p.lambda().as_f64();
        for layer in 1..g.layer_count() {
            for v in 0..g.width() {
                let pulses = &by_node[net.index.engine_id(g.node(v, layer))];
                assert!(
                    pulses.len() >= 18,
                    "node ({v},{layer}) produced too few pulses: {}",
                    pulses.len()
                );
                // Steady-state periodicity in the tail (excluding the
                // degraded final iteration after the source stops). Unlike
                // the dataflow executor, the DES delimits iterations by the
                // node's own broadcasts, so a reception landing near an
                // iteration boundary can sustain a small limit cycle; its
                // amplitude is bounded by O(kappa) (the correction
                // dead-band).
                let tail = &pulses[pulses.len() - 8..pulses.len() - 1];
                for w in tail.windows(2) {
                    let gap = (w[1] - w[0]).as_f64();
                    assert!(
                        (gap - lambda).abs() < p.kappa().as_f64(),
                        "node ({v},{layer}): gap {gap} too far from lambda"
                    );
                }
            }
        }
        // Intra-layer skew: pulses of the same index are staggered by
        // lambda per chain position (the diagonal indexing of Lemma A.1),
        // so the meaningful comparison is between *nearest-in-time* pulses
        // of adjacent nodes.
        let reference = 12.0 * lambda;
        let nearest = |pulses: &[Time]| -> f64 {
            pulses
                .iter()
                .map(|t| t.as_f64())
                .min_by(|a, b| (a - reference).abs().total_cmp(&(b - reference).abs()))
                .unwrap()
        };
        let bound =
            p.fault_free_local_skew_bound(g.base().diameter()).as_f64() + p.lambda().as_f64() / 2.0;
        for layer in 1..g.layer_count() {
            for (a, b) in g.base().edges() {
                let ta = nearest(&by_node[net.index.engine_id(g.node(a, layer))]);
                let tb = nearest(&by_node[net.index.engine_id(g.node(b, layer))]);
                assert!(
                    (ta - tb).abs() <= bound,
                    "layer {layer} pair ({a},{b}): skew {}",
                    (ta - tb).abs()
                );
            }
        }
    }

    /// A non-grid family flows through the full DES deployment: torus
    /// base graph, BFS layer-0 forest, every node reaches steady state
    /// and graph-adjacent pulses respect the diameter-parameterized
    /// envelope.
    #[test]
    fn torus_network_reaches_steady_state() {
        let p = params();
        let torus = trix_topology::families::torus(3, 4).into_graph();
        let g = LayeredGraph::new(torus, 4);
        let mut rng = Rng::seed_from(23);
        let env = StaticEnvironment::random(&g, p.d(), p.u(), p.theta(), &mut rng);
        let chain = Layer0Line::chain_for_graph(g.base());
        let mut net =
            GridNetwork::build_with_chain(&g, &p, &env, 24, &mut rng, &chain, |_, _| None);
        net.run(Time::from(1e9));
        let by_node = net.broadcasts_by_node();
        let lambda = p.lambda().as_f64();
        for layer in 1..g.layer_count() {
            for v in 0..g.width() {
                let pulses = &by_node[net.index.engine_id(g.node(v, layer))];
                assert!(
                    pulses.len() >= 18,
                    "node ({v},{layer}) produced too few pulses: {}",
                    pulses.len()
                );
                let tail = &pulses[pulses.len() - 8..pulses.len() - 1];
                for w in tail.windows(2) {
                    let gap = (w[1] - w[0]).as_f64();
                    assert!(
                        (gap - lambda).abs() < p.kappa().as_f64(),
                        "node ({v},{layer}): gap {gap} too far from lambda"
                    );
                }
            }
        }
        // Graph-adjacent nodes' nearest-in-time pulses stay within the
        // diameter-parameterized bound (BFS chain depth <= D keeps the
        // layer-0 spread small; the wrap edges are the interesting pairs
        // an index chain would have torn apart).
        let reference = 12.0 * lambda;
        let nearest = |pulses: &[Time]| -> f64 {
            pulses
                .iter()
                .map(|t| t.as_f64())
                .min_by(|a, b| (a - reference).abs().total_cmp(&(b - reference).abs()))
                .unwrap()
        };
        let bound =
            p.fault_free_local_skew_bound(g.base().diameter()).as_f64() + p.lambda().as_f64() / 2.0;
        for layer in 1..g.layer_count() {
            for (a, b) in g.base().edges() {
                let ta = nearest(&by_node[net.index.engine_id(g.node(a, layer))]);
                let tb = nearest(&by_node[net.index.engine_id(g.node(b, layer))]);
                assert!(
                    (ta - tb).abs() <= bound,
                    "layer {layer} pair ({a},{b}): skew {}",
                    (ta - tb).abs()
                );
            }
        }
    }
}
