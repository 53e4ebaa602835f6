//! The naive TRIX pulse-forwarding rule (Lenzen & Wiederhake, LW20).
//!
//! On the same layered grid as Gradient TRIX, each node simply waits for
//! the **second copy** of a pulse from its (up to three) predecessors and
//! forwards it immediately. This tolerates one faulty predecessor (the
//! second copy is always from a correct node… or bracketed by correct
//! copies) and is trivially self-stabilizing — but it applies no skew
//! *control*: the paper's Figure 1 (left) shows how an adversarial delay
//! assignment accumulates local skew `Θ(u·D)` by layer `D`, the weakness
//! Gradient TRIX fixes.

use trix_sim::PulseRule;
use trix_time::{AffineClock, Time};
use trix_topology::NodeId;

/// The second-copy forwarding rule.
///
/// # Examples
///
/// ```
/// use trix_baselines::NaiveTrixRule;
/// use trix_sim::PulseRule;
/// use trix_time::{AffineClock, Time};
/// use trix_topology::NodeId;
///
/// let rule = NaiveTrixRule::new();
/// let t = rule.pulse_time(
///     NodeId::new(0, 1),
///     0,
///     Some(Time::from(12.0)),
///     &[Some(Time::from(10.0)), Some(Time::from(11.0))],
///     &AffineClock::PERFECT,
/// );
/// // Second copy arrives at 11.
/// assert_eq!(t, Some(Time::from(11.0)));
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct NaiveTrixRule;

impl NaiveTrixRule {
    /// The second-copy rule.
    pub fn new() -> Self {
        Self
    }

    /// Firing time for a set of arrival times: the second-smallest
    /// arrival; `None` if fewer than two pulses arrive.
    pub fn second_copy(&self, arrivals: impl IntoIterator<Item = Time>) -> Option<Time> {
        let mut first: Option<Time> = None;
        let mut second: Option<Time> = None;
        for t in arrivals {
            if first.is_none_or(|f| t < f) {
                second = first;
                first = Some(t);
            } else if second.is_none_or(|s| t < s) {
                second = Some(t);
            }
        }
        second
    }
}

impl PulseRule for NaiveTrixRule {
    fn pulse_time(
        &self,
        _node: NodeId,
        _k: usize,
        own: Option<Time>,
        neighbors: &[Option<Time>],
        _clock: &AffineClock,
    ) -> Option<Time> {
        self.second_copy(own.into_iter().chain(neighbors.iter().copied().flatten()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trix_sim::{run_dataflow, CorrectSends, OffsetLayer0, StaticEnvironment};
    use trix_time::Duration;
    use trix_topology::{BaseGraph, EdgeId, LayeredGraph};

    #[test]
    fn second_copy_of_three() {
        let r = NaiveTrixRule::new();
        let t = r.second_copy([Time::from(3.0), Time::from(1.0), Time::from(2.0)]);
        assert_eq!(t, Some(Time::from(2.0)));
    }

    #[test]
    fn needs_two_copies() {
        let r = NaiveTrixRule::new();
        assert_eq!(r.second_copy([Time::from(1.0)]), None);
        assert_eq!(r.second_copy([]), None);
    }

    #[test]
    fn tolerates_one_silent_predecessor() {
        let r = NaiveTrixRule::new();
        let t = r.pulse_time(
            NodeId::new(0, 1),
            0,
            None,
            &[Some(Time::from(10.0)), Some(Time::from(11.0))],
            &AffineClock::PERFECT,
        );
        assert_eq!(t, Some(Time::from(11.0)));
    }

    /// The Figure 1 (left) accumulation: split the grid into a fast half
    /// (all in-edges at `d−u`) and a slow half (`d`). The median
    /// (second-copy) rule keeps the step sharp, so the *adjacent* skew at
    /// the boundary column grows by exactly `u` per layer — the `Θ(u·D)`
    /// weakness of naive TRIX.
    #[test]
    fn adversarial_delays_accumulate_linear_skew() {
        let width = 8;
        let layers = 12;
        let g = LayeredGraph::new(BaseGraph::line_with_replicated_ends(width), layers);
        let d = Duration::from(10.0);
        let u = Duration::from(1.0);
        let split = g.width() / 2;
        let mut delays = vec![d; g.edge_count()];
        for n in g.nodes().filter(|n| n.layer > 0) {
            for (_, EdgeId(e)) in g.predecessors(n) {
                if (n.v as usize) < split {
                    delays[e] = d - u;
                }
            }
        }
        let env = StaticEnvironment::new(
            &g,
            delays,
            vec![trix_time::AffineClock::PERFECT; g.node_count()],
        );
        let layer0 = OffsetLayer0::synchronized(1e6, g.width());
        let trace = run_dataflow(&g, &env, &layer0, &NaiveTrixRule::new(), &CorrectSends, 1);
        let boundary_skew = |layer: usize| {
            let a = trace.time(0, g.node(split - 1, layer)).unwrap().as_f64();
            let b = trace.time(0, g.node(split, layer)).unwrap().as_f64();
            (a - b).abs()
        };
        for layer in 1..layers {
            assert!(
                (boundary_skew(layer) - layer as f64 * u.as_f64()).abs() < 1e-9,
                "layer {layer}: adjacent skew {} != {}·u",
                boundary_skew(layer),
                layer
            );
        }
    }
}
