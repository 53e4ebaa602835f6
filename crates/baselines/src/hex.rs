//! The HEX pulse-forwarding scheme (Dolev et al., DFL+16).
//!
//! HEX fires a node when it has received pulses from **two** of its four
//! in-neighbors — two on the previous layer, two on the same layer (see
//! [`trix_topology::HexGrid`]). Firing propagates both down-layer and
//! along the layer, so a pulse cannot be solved layer by layer; it runs on
//! the discrete-event engine [`trix_sim::Des`], one private `HexNode`
//! state machine per grid node, and is read from [`Des::broadcasts`].
//!
//! The paper's Figure 1 (right) highlights HEX's weakness: if a node's
//! previous-layer in-neighbor crashes, the node must wait for an
//! *in-layer* pulse, adding a full message delay `d` (not just the
//! uncertainty `u`) to its firing time — hence the `d + O(u²D/d)` local
//! skew of DFL+16 versus Gradient TRIX's `O(κ log D)`.

use std::collections::HashSet;
use trix_sim::{Des, Link, Node, NodeApi, Rng};
use trix_time::{AffineClock, Duration, LocalTime, Time};
use trix_topology::{HexGrid, NodeId};

/// Per-directed-link delays for a HEX grid: the out-links of every node,
/// indexed by [`HexGrid::node_index`], in [`HexGrid::out_neighbors`]
/// order — the lists [`run_hex_pulse`] hands the engine.
#[derive(Clone, Debug)]
pub struct HexEnvironment {
    links: Vec<Vec<Link>>,
}

impl HexEnvironment {
    /// All links of `grid` share the fixed delay `d`.
    pub fn fixed(grid: &HexGrid, d: Duration) -> Self {
        assert!(d > Duration::ZERO, "delay must be positive");
        Self::with_delays(grid, || d)
    }

    /// Uniformly random delays in `[d−u, d]` for every link of `grid`,
    /// drawn in [`HexGrid::nodes`] × [`HexGrid::out_neighbors`] order.
    pub fn random(grid: &HexGrid, d: Duration, u: Duration, rng: &mut Rng) -> Self {
        assert!(u >= Duration::ZERO && u < d, "need 0 <= u < d");
        Self::with_delays(grid, || {
            Duration::from(rng.f64_in(d.as_f64() - u.as_f64(), d.as_f64()))
        })
    }

    fn with_delays(grid: &HexGrid, mut delay: impl FnMut() -> Duration) -> Self {
        let links = grid
            .nodes()
            .map(|from| {
                grid.out_neighbors(from)
                    .into_iter()
                    .map(|to| Link {
                        to: grid.node_index(to),
                        delay: delay(),
                    })
                    .collect()
            })
            .collect();
        Self { links }
    }
}

/// One HEX node on the engine.
enum HexNode {
    /// Layer 0: fires on a start timer at its layer-0 time.
    Source(Time),
    /// Any other layer: broadcasts on its second reception.
    Relay { received: u8 },
    /// Crashed: never fires.
    Crashed,
}

impl Node for HexNode {
    fn on_start(&mut self, api: &mut NodeApi<'_>) {
        if let HexNode::Source(t) = *self {
            api.set_timer_local(LocalTime::from(t.as_f64()), 0);
        }
    }

    fn on_pulse(&mut self, _from: usize, api: &mut NodeApi<'_>) {
        if let HexNode::Relay { received } = self {
            *received += 1;
            if *received == 2 {
                api.broadcast();
            }
        }
    }

    fn on_timer(&mut self, _tag: u64, api: &mut NodeApi<'_>) {
        api.broadcast();
    }
}

/// The result of propagating one pulse through a HEX grid.
#[derive(Clone, Debug)]
pub struct HexPulse {
    grid: HexGrid,
    times: Vec<Option<Time>>,
}

impl HexPulse {
    /// Firing time of a node (`None` if it never collected two pulses or
    /// is faulty).
    pub fn time(&self, n: NodeId) -> Option<Time> {
        self.times[self.grid.node_index(n)]
    }

    /// Maximum firing-time difference between *intra-layer adjacent*
    /// correct nodes on `layer`. Pairs involving a node that never fired
    /// (crashed) are skipped.
    pub fn local_skew(&self, layer: usize) -> Option<Duration> {
        let w = self.grid.width();
        let mut worst: Option<Duration> = None;
        for i in 0..w {
            let Some(a) = self.time(self.grid.node(i, layer)) else {
                continue;
            };
            let Some(b) = self.time(self.grid.node((i + 1) % w, layer)) else {
                continue;
            };
            let skew = (a - b).abs();
            worst = Some(worst.map_or(skew, |x| x.max(skew)));
        }
        worst
    }
}

/// Propagates a single pulse through the HEX grid.
///
/// `layer0[i]` is the externally supplied firing time of node `(i, 0)`;
/// `faulty` nodes never fire (crash faults — the failure mode Figure 1
/// discusses). The pulse runs on one [`Des`] with perfect clocks, engine
/// node `HexGrid::node_index(n)` for grid node `n`, and `env`'s links;
/// every processed event counts in `trix_sim::metrics`.
///
/// # Panics
///
/// Panics if `layer0.len() != grid.width()`, if a layer-0 time is
/// negative, `-0.0` included (the engine starts at time 0), or if `env`
/// was built for a grid of another size.
///
/// # Examples
///
/// ```
/// use trix_baselines::{run_hex_pulse, HexEnvironment};
/// use trix_time::{Duration, Time};
/// use trix_topology::HexGrid;
///
/// let grid = HexGrid::new(6, 4);
/// let env = HexEnvironment::fixed(&grid, Duration::from(10.0));
/// let layer0: Vec<Time> = vec![Time::ZERO; 6];
/// let pulse = run_hex_pulse(&grid, &env, &layer0, &Default::default());
/// // With uniform delays each layer fires exactly d later.
/// assert_eq!(pulse.time(grid.node(2, 3)), Some(Time::from(30.0)));
/// ```
pub fn run_hex_pulse(
    grid: &HexGrid,
    env: &HexEnvironment,
    layer0: &[Time],
    faulty: &HashSet<NodeId>,
) -> HexPulse {
    assert_eq!(layer0.len(), grid.width(), "one layer-0 time per column");
    assert!(
        layer0.iter().all(|&t| t >= Time::ZERO),
        "layer-0 times must not be negative"
    );
    assert_eq!(
        env.links.len(),
        grid.node_count(),
        "environment built for another grid"
    );
    let mut des = Des::new(vec![AffineClock::PERFECT; grid.node_count()]);
    for (from, links) in env.links.iter().enumerate() {
        for &link in links {
            des.add_link(from, link);
        }
    }
    let mut nodes: Vec<Box<dyn Node>> = grid
        .nodes()
        .map(|n| -> Box<dyn Node> {
            Box::new(if faulty.contains(&n) {
                HexNode::Crashed
            } else if n.layer == 0 {
                HexNode::Source(layer0[n.v as usize])
            } else {
                HexNode::Relay { received: 0 }
            })
        })
        .collect();
    des.run(&mut nodes, Time::INFINITY);

    let mut times = vec![None; grid.node_count()];
    for b in des.broadcasts() {
        times[b.node] = Some(b.time);
    }
    HexPulse {
        grid: grid.clone(),
        times,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_delays_give_zero_skew() {
        let grid = HexGrid::new(8, 5);
        let env = HexEnvironment::fixed(&grid, Duration::from(10.0));
        let layer0 = vec![Time::ZERO; 8];
        let pulse = run_hex_pulse(&grid, &env, &layer0, &HashSet::new());
        for layer in 1..5 {
            assert_eq!(pulse.local_skew(layer), Some(Duration::ZERO));
            for i in 0..8 {
                assert_eq!(
                    pulse.time(grid.node(i, layer)),
                    Some(Time::from(10.0 * layer as f64))
                );
            }
        }
    }

    #[test]
    fn crashed_previous_layer_neighbor_costs_a_full_delay() {
        // Figure 1 (right): crash one node; its successors must wait for
        // an in-layer pulse, adding ~d to their firing time.
        let grid = HexGrid::new(8, 5);
        let d = Duration::from(10.0);
        let env = HexEnvironment::fixed(&grid, d);
        let layer0 = vec![Time::ZERO; 8];
        let crashed: HashSet<_> = [grid.node(3, 2)].into_iter().collect();
        let pulse = run_hex_pulse(&grid, &env, &layer0, &crashed);
        // Node (3, 3) lost one of its two previous-layer feeds (only
        // (2, 2) remains): its second pulse comes from an in-layer
        // neighbor at 3d, arriving at 4d instead of 3d.
        let victim = pulse.time(grid.node(3, 3)).unwrap();
        assert_eq!(victim, Time::from(40.0));
        // The local skew on layer 3 jumps to a full d.
        assert_eq!(pulse.local_skew(3), Some(d));
        // Everyone still fires (1-fault tolerance).
        for n in grid.nodes() {
            if !crashed.contains(&n) {
                assert!(pulse.time(n).is_some(), "{n} must fire");
            }
        }
    }

    #[test]
    fn random_delays_keep_skew_moderate_without_faults() {
        let grid = HexGrid::new(16, 12);
        let d = Duration::from(10.0);
        let u = Duration::from(1.0);
        let mut rng = Rng::seed_from(5);
        let env = HexEnvironment::random(&grid, d, u, &mut rng);
        let layer0 = vec![Time::ZERO; 16];
        let pulse = run_hex_pulse(&grid, &env, &layer0, &HashSet::new());
        // Without faults skew stays well below d (the DFL+16 bound is
        // d + O(u²D/d); fault-free the additive d disappears).
        let skew = pulse.local_skew(11).unwrap();
        assert!(skew < d, "skew {skew} should stay below d fault-free");
        assert!(skew > Duration::ZERO);
    }

    #[test]
    fn deterministic_under_same_seed() {
        let grid = HexGrid::new(8, 6);
        let d = Duration::from(10.0);
        let u = Duration::from(1.0);
        let env1 = HexEnvironment::random(&grid, d, u, &mut Rng::seed_from(9));
        let env2 = HexEnvironment::random(&grid, d, u, &mut Rng::seed_from(9));
        let layer0 = vec![Time::ZERO; 8];
        let p1 = run_hex_pulse(&grid, &env1, &layer0, &HashSet::new());
        let p2 = run_hex_pulse(&grid, &env2, &layer0, &HashSet::new());
        for n in grid.nodes() {
            assert_eq!(p1.time(n), p2.time(n));
        }
    }

    #[test]
    #[should_panic(expected = "one layer-0 time per column")]
    fn rejects_wrong_layer0_width() {
        let grid = HexGrid::new(8, 3);
        let env = HexEnvironment::fixed(&grid, Duration::from(1.0));
        let _ = run_hex_pulse(&grid, &env, &[Time::ZERO; 3], &HashSet::new());
    }

    #[test]
    #[should_panic(expected = "layer-0 times must not be negative")]
    fn rejects_negative_layer0_time() {
        let grid = HexGrid::new(3, 2);
        let env = HexEnvironment::fixed(&grid, Duration::from(1.0));
        let layer0 = [Time::ZERO, Time::from(-0.0), Time::ZERO];
        let _ = run_hex_pulse(&grid, &env, &layer0, &HashSet::new());
    }

    #[test]
    #[should_panic(expected = "environment built for another grid")]
    fn rejects_environment_of_another_grid() {
        let grid = HexGrid::new(8, 3);
        let env = HexEnvironment::fixed(&HexGrid::new(8, 2), Duration::from(1.0));
        let _ = run_hex_pulse(&grid, &env, &[Time::ZERO; 8], &HashSet::new());
    }
}
