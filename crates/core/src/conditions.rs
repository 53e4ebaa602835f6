//! Executable oracles for the paper's proof obligations.
//!
//! * [`check_gcs_conditions`] — the slow, fast, and jump conditions
//!   (Definitions 4.3–4.5), which Lemmas D.4–D.6 prove the algorithm
//!   implements. We *recompute* each node's correction from the recorded
//!   trace (the decision procedure is deterministic) and verify the
//!   disjunctions for every relevant `s`.
//! * [`check_pulse_interval`] — the median-interval invariant
//!   (Lemmas 4.27/4.28, Corollary 4.29): every correct node pulses within
//!   `[t_min + Λ − 2κ, t_max + Λ + 2κ]` of its correct predecessors'
//!   pulses, *regardless of what a faulty predecessor does*. This is the
//!   key containment property behind all fault-tolerance theorems.

use crate::{GradientTrixRule, Params};
use trix_sim::{Environment, PulseTrace};
use trix_time::{Clock, Duration, Time};
use trix_topology::{LayeredGraph, NodeId};

/// Which condition a violation refers to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Condition {
    /// Slow condition SC(s) (Definition 4.3).
    Slow,
    /// Fast condition FC(s) (Definition 4.4).
    Fast,
    /// Jump condition JC (Definition 4.5).
    Jump,
}

/// A recorded violation of one of the conditions.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ConditionViolation {
    /// The node at which the condition failed.
    pub node: NodeId,
    /// The pulse index.
    pub k: usize,
    /// Which condition failed.
    pub condition: Condition,
    /// The level `s` at which it failed (`None` for JC).
    pub s: Option<usize>,
    /// The correction value involved.
    pub correction: Duration,
}

/// Summary of a condition check over a trace.
#[derive(Clone, Debug, Default)]
pub struct ConditionReport {
    /// Number of (node, pulse) decisions checked.
    pub checked: usize,
    /// All violations found (empty = Lemmas D.4–D.6 hold on this trace).
    pub violations: Vec<ConditionViolation>,
}

impl ConditionReport {
    /// `true` if no violations were found.
    pub fn all_hold(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Recomputes the correction `C_{v,ℓ}` that `node` applied in iteration
/// `k`, by replaying its receptions from the trace and environment.
///
/// Returns `None` if the node, a predecessor, or a required pulse time is
/// missing/faulty (those decisions are not covered by the fault-free
/// conditions).
pub fn reconstruct_correction(
    g: &LayeredGraph,
    env: &impl Environment,
    trace: &PulseTrace,
    rule: &GradientTrixRule,
    k: usize,
    node: NodeId,
) -> Option<Duration> {
    if node.layer == 0 || trace.is_faulty(node) {
        return None;
    }
    let clock = env.clock(k, node);
    let own_pred = NodeId::new(node.v, node.layer - 1);
    if trace.is_faulty(own_pred) {
        return None;
    }
    let own_arrival = trace.time(k, own_pred)? + env.delay(k, g.own_in_edge(node));
    let mut neighbor_locals = Vec::new();
    for (slot, &x) in g.base().neighbors(node.v as usize).iter().enumerate() {
        let sender = NodeId::new(x as u32, node.layer - 1);
        if trace.is_faulty(sender) {
            return None;
        }
        let arrival = trace.time(k, sender)? + env.delay(k, g.neighbor_in_edge(node, slot));
        neighbor_locals.push(Some(clock.local_at(arrival)));
    }
    rule.decide(Some(clock.local_at(own_arrival)), &neighbor_locals)
        .correction
}

/// Checks SC(s), FC(s), and JC (Definitions 4.3–4.5) for every correct
/// node with correct predecessors over the pulses `k_range`.
///
/// The conditions relate the applied correction `C_{v,ℓ}` (in local time)
/// to *real-time* differences of the previous layer's pulse times; `ϑ`
/// converts between the two exactly as in the paper.
pub fn check_gcs_conditions(
    g: &LayeredGraph,
    env: &impl Environment,
    trace: &PulseTrace,
    rule: &GradientTrixRule,
    k_range: core::ops::Range<usize>,
) -> ConditionReport {
    let params = rule.params();
    let kappa = params.kappa().as_f64();
    let theta = params.theta();
    let mut report = ConditionReport::default();

    for k in k_range {
        for layer in 1..g.layer_count() {
            'nodes: for v in 0..g.width() {
                let node = g.node(v, layer);
                let Some(c) = reconstruct_correction(g, env, trace, rule, k, node) else {
                    continue;
                };
                let own_prev = NodeId::new(node.v, node.layer - 1);
                let Some(t_own) = trace.time(k, own_prev) else {
                    continue;
                };
                let mut t_min = Time::INFINITY;
                let mut t_max = Time::from(f64::NEG_INFINITY);
                for &x in g.base().neighbors(v) {
                    let Some(t) = trace.time(k, NodeId::new(x as u32, layer as u32 - 1)) else {
                        continue 'nodes;
                    };
                    t_min = t_min.min(t);
                    t_max = t_max.max(t);
                }
                report.checked += 1;

                let c_f = c.as_f64();
                let gap_max = (t_own - t_max).as_f64();
                let gap_min = (t_own - t_min).as_f64();
                // Enough levels that the trivially-true disjunct is reached.
                let range = gap_min.abs().max(gap_max.abs()) + c_f.abs() / theta + 1.0;
                let s_max = (range / (4.0 * kappa)).ceil() as usize + 2;

                // SC(s) for all s ∈ ℕ.
                if c_f > 0.0 {
                    // SC-3 (C ≤ 0) fails; need SC-1 or SC-2 per level.
                    for s in 0..=s_max {
                        let sk = 4.0 * s as f64 * kappa;
                        let sc1 = c_f / theta <= gap_max + sk + 1e-9;
                        let sc2 = c_f / theta <= gap_min - sk + 1e-9;
                        if !(sc1 || sc2) {
                            report.violations.push(ConditionViolation {
                                node,
                                k,
                                condition: Condition::Slow,
                                s: Some(s),
                                correction: c,
                            });
                        }
                    }
                }
                // FC(s) for all s ∈ ℕ>0.
                if c_f < kappa {
                    // FC-3 (C ≥ κ) fails; need FC-1 or FC-2 per level.
                    for s in 1..=s_max {
                        let sk = (4.0 * s as f64 - 2.0) * kappa;
                        let fc1 = c_f >= gap_max + sk + kappa - 1e-9;
                        let fc2 = c_f >= gap_min - sk + kappa - 1e-9;
                        if !(fc1 || fc2) {
                            report.violations.push(ConditionViolation {
                                node,
                                k,
                                condition: Condition::Fast,
                                s: Some(s),
                                correction: c,
                            });
                        }
                    }
                }
                // JC: one of the three cases must hold.
                let jc1 = kappa < c_f / theta && c_f / theta <= gap_max - kappa + 1e-9;
                let jc2 = c_f < 0.0 && c_f >= gap_min + kappa - 1e-9;
                let jc3 = (0.0..=kappa + 1e-9).contains(&(c_f / theta));
                if !(jc1 || jc2 || jc3) {
                    report.violations.push(ConditionViolation {
                        node,
                        k,
                        condition: Condition::Jump,
                        s: None,
                        correction: c,
                    });
                }
            }
        }
    }
    report
}

/// A violation of the median-interval invariant (Corollary 4.29).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct IntervalViolation {
    /// The offending node.
    pub node: NodeId,
    /// The pulse index.
    pub k: usize,
    /// The node's pulse time.
    pub t: Time,
    /// Lower admissible bound `t_min + Λ − slack·κ`.
    pub lower: Time,
    /// Upper admissible bound `t_max + Λ + slack·κ`.
    pub upper: Time,
}

/// Checks Corollary 4.29 on a trace: every correct node on layer ≥ 1 with
/// at least one correct predecessor pulses within
/// `[t_min + Λ − slack_kappas·κ, t_max + Λ + slack_kappas·κ]`, where
/// `t_min`/`t_max` range over its **correct** predecessors' pulse times.
///
/// The paper proves slack `2κ`; pass `slack_kappas = 2.0` to check the
/// published constant.
pub fn check_pulse_interval(
    g: &LayeredGraph,
    trace: &PulseTrace,
    params: &Params,
    k_range: core::ops::Range<usize>,
    slack_kappas: f64,
) -> Vec<IntervalViolation> {
    let slack = params.kappa() * slack_kappas;
    let lambda = params.lambda();
    let mut violations = Vec::new();
    for k in k_range {
        for layer in 1..g.layer_count() {
            for v in 0..g.width() {
                let node = g.node(v, layer);
                if trace.is_faulty(node) {
                    continue;
                }
                let Some(t) = trace.time(k, node) else {
                    continue;
                };
                let mut t_min = Time::INFINITY;
                let mut t_max = Time::from(f64::NEG_INFINITY);
                let mut any = false;
                for (pred, _) in g.predecessors(node) {
                    if trace.is_faulty(pred) {
                        continue;
                    }
                    let Some(tp) = trace.time(k, pred) else {
                        continue;
                    };
                    t_min = t_min.min(tp);
                    t_max = t_max.max(tp);
                    any = true;
                }
                if !any {
                    continue;
                }
                let lower = t_min + lambda - slack;
                let upper = t_max + lambda + slack;
                if t < lower || t > upper {
                    violations.push(IntervalViolation {
                        node,
                        k,
                        t,
                        lower,
                        upper,
                    });
                }
            }
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use trix_sim::{run_dataflow, CorrectSends, OffsetLayer0, Rng, StaticEnvironment};

    fn params() -> Params {
        Params::with_standard_lambda(Duration::from(2000.0), Duration::from(1.0), 1.0001)
    }

    fn run(
        seed: u64,
    ) -> (
        LayeredGraph,
        StaticEnvironment,
        PulseTrace,
        GradientTrixRule,
    ) {
        let g = LayeredGraph::new(trix_topology::BaseGraph::line_with_replicated_ends(8), 10);
        let p = params();
        let mut rng = Rng::seed_from(seed);
        let env = StaticEnvironment::random(&g, p.d(), p.u(), p.theta(), &mut rng);
        let rule = GradientTrixRule::new(p);
        let layer0 = OffsetLayer0::synchronized(p.lambda().as_f64(), g.width());
        let trace = run_dataflow(&g, &env, &layer0, &rule, &CorrectSends, 4);
        (g, env, trace, rule)
    }

    #[test]
    fn conditions_hold_on_fault_free_runs() {
        for seed in 0..5 {
            let (g, env, trace, rule) = run(seed);
            let report = check_gcs_conditions(&g, &env, &trace, &rule, 0..4);
            assert!(report.checked > 0);
            assert!(
                report.all_hold(),
                "seed {seed}: violations {:?}",
                &report.violations[..report.violations.len().min(3)]
            );
        }
    }

    #[test]
    fn interval_invariant_holds_on_fault_free_runs() {
        let (g, _env, trace, rule) = run(7);
        let violations = check_pulse_interval(&g, &trace, rule.params(), 0..4, 2.0);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn reconstruction_matches_recorded_outcome() {
        // The reconstructed correction must reproduce the recorded pulse
        // time exactly: t = real_at(local(own_arrival) + Λ − d − C).
        let (g, env, trace, rule) = run(3);
        let p = *rule.params();
        let mut checked = 0;
        for k in 0..4 {
            for layer in 1..g.layer_count() {
                for v in 0..g.width() {
                    let node = g.node(v, layer);
                    let Some(c) = reconstruct_correction(&g, &env, &trace, &rule, k, node) else {
                        continue;
                    };
                    let clock = env.clock(k, node);
                    let own_pred = NodeId::new(node.v, node.layer - 1);
                    let own_arrival =
                        trace.time(k, own_pred).unwrap() + env.delay(k, g.own_in_edge(node));
                    let pulse_local = clock.local_at(own_arrival) + (p.lambda() - p.d()) - c;
                    let expected = clock.real_at(pulse_local);
                    let actual = trace.time(k, node).unwrap();
                    assert!(
                        (expected - actual).abs().as_f64() < 1e-9,
                        "node {node} k={k}"
                    );
                    checked += 1;
                }
            }
        }
        assert!(checked > 100);
    }

    #[test]
    fn violation_is_reported_for_tampered_trace() {
        let (g, _env, mut trace, rule) = run(1);
        // Yank one node far out of the admissible interval.
        let node = g.node(3, 5);
        let t = trace.time(2, node).unwrap();
        let tampered = t + Duration::from(500.0);
        trace.set_time(2, node, Some(tampered));
        let violations = check_pulse_interval(&g, &trace, rule.params(), 0..4, 2.0);
        let v = violations
            .iter()
            .find(|v| v.node == node && v.k == 2)
            .expect("tampered node must be reported at the tampered pulse");
        // The report must carry the offending time and a bound it breaks.
        assert_eq!(v.t, tampered);
        assert!(
            v.t > v.upper,
            "tampering pushed the pulse past the upper bound"
        );
        assert!(v.lower <= v.upper);
    }

    /// Feeds a known-violating trace to `check_gcs_conditions` and checks
    /// the reported violation kind and location.
    ///
    /// Layer 0 is synchronized except one neighbor pulling 10κ ahead. The
    /// Figure 5 ablation (`no_jump_damping`) then jumps *past* the damping
    /// margin: at `(1, 1)` the correction comes out negative while both
    /// predecessor gaps are zero, violating the jump condition JC at that
    /// exact node. The published configuration clamps the same jump to 0
    /// and must stay clean on the identical trace.
    #[test]
    fn jump_violation_reports_kind_and_location() {
        let p = params();
        let kappa = p.kappa();
        let g = LayeredGraph::new(trix_topology::BaseGraph::line_with_replicated_ends(4), 2);
        let env = StaticEnvironment::nominal(&g, p.d());
        let mut trace = PulseTrace::new(&g, 1);
        for v in 0..g.width() {
            trace.set_time(0, g.node(v, 0), Some(Time::from(0.0)));
        }
        trace.set_time(0, g.node(2, 0), Some(Time::from(0.0) + kappa * 10.0));

        let ablated = GradientTrixRule::with_config(p, crate::CorrectionConfig::no_jump_damping());
        let report = check_gcs_conditions(&g, &env, &trace, &ablated, 0..1);
        assert!(report.checked > 0);
        let v = report
            .violations
            .iter()
            .find(|v| v.node == g.node(1, 1))
            .expect("ablated rule must violate a condition at the jumping node");
        assert_eq!(v.condition, Condition::Jump);
        assert_eq!(v.k, 0);
        assert!(
            v.correction < Duration::ZERO,
            "the offending correction is an undamped backward jump"
        );

        let paper = GradientTrixRule::new(p);
        let clean = check_gcs_conditions(&g, &env, &trace, &paper, 0..1);
        assert!(
            clean.all_hold(),
            "published configuration must satisfy the conditions on the same trace: {:?}",
            clean.violations
        );
    }
}
