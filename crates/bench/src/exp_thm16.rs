//! Experiment `thm16_self_stab` — Theorem 1.6 / Corollary A.2.
//!
//! *Claim:* the pulse-propagation algorithm self-stabilizes within
//! `O(√n)` pulses from an arbitrary initial state (with the Algorithm 4
//! modifications), even in the presence of permanent faults; the layer-0
//! line stabilizes within `ΛD` time.
//!
//! *Workload:* event-driven runs with every grid node's state randomly
//! scrambled and spurious messages in flight, with and without a
//! permanent silent fault. Stabilization is detected per node as the
//! first broadcast after which all inter-pulse gaps stay within `κ` of
//! `Λ`; we report the worst node's stabilization pulse count against the
//! `layer_count + D` budget (one grid sweep — the `Θ(√n)` witness in the
//! square layout).

use crate::common::{square_grid, standard_params};
use crate::suite::{kv, scenario_seeds, Scenario, ScenarioResult};
use crate::Scale;
use std::collections::HashSet;
use trix_analysis::{fmt_f64, theory, Table};
use trix_core::GridNodeConfig;
use trix_faults::scrambled_network;
use trix_sim::{Rng, StaticEnvironment};
use trix_time::Time;

/// Index of the first pulse after which all gaps stay within `tol` of
/// `lambda` (requires at least 3 stable trailing gaps; `None` if never).
///
/// The last `DRAIN_GAPS` inter-pulse gaps are ignored: once the clock
/// source stops, the pipeline drains and the final couple of iterations
/// at every node run with missing next-diagonal inputs, degrading their
/// timing by design (a shutdown boundary effect, not an instability).
pub fn stabilization_pulse(times: &[Time], lambda: f64, tol: f64) -> Option<usize> {
    const DRAIN_GAPS: usize = 3;
    if times.len() < DRAIN_GAPS + 4 {
        return None;
    }
    let gaps: Vec<f64> = times.windows(2).map(|w| (w[1] - w[0]).as_f64()).collect();
    let end = gaps.len() - DRAIN_GAPS;
    let mut first_stable = end;
    for i in (0..end).rev() {
        if (gaps[i] - lambda).abs() <= tol {
            first_stable = i;
        } else {
            break;
        }
    }
    if end - first_stable >= 3 {
        Some(first_stable)
    } else {
        None
    }
}

/// Runs the self-stabilization experiment over grid widths. A row that
/// is not within its pulse budget (or never stabilizes) is a violation.
pub fn run(widths: &[usize], seeds: &[u64]) -> ScenarioResult {
    let p = standard_params();
    let mut table = Table::new(
        "Thm 1.6 — self-stabilization from scrambled state (event-driven)",
        &[
            "width",
            "n",
            "permanent fault?",
            "worst stabilization pulse",
            "budget layers+D (Θ(√n))",
            "within budget?",
        ],
    );
    let mut violations = Vec::new();
    for &w in widths {
        let g = square_grid(w);
        let budget = theory::thm_1_6_pulse_budget(g.base().diameter(), g.layer_count());
        for &with_fault in &[false, true] {
            let mut worst: Option<usize> = Some(0);
            for &seed in seeds {
                let mut rng = Rng::seed_from(seed ^ 0x16);
                let env = StaticEnvironment::random(&g, p.d(), p.u(), p.theta(), &mut rng);
                let cfg = GridNodeConfig::standard(p, g.base().diameter());
                let permanent: HashSet<_> = if with_fault {
                    [g.node(w / 2, 1)].into_iter().collect()
                } else {
                    HashSet::new()
                };
                let pulses = (2 * budget + 10) as u64;
                let mut net =
                    scrambled_network(&g, &p, &env, cfg, pulses, 40, &permanent, &mut rng);
                net.run(Time::from(
                    (pulses as f64 + 4.0) * p.lambda().as_f64()
                        + g.layer_count() as f64 * p.lambda().as_f64(),
                ));
                let by_node = net.broadcasts_by_node();
                for layer in 1..g.layer_count() {
                    for v in 0..g.width() {
                        let node = g.node(v, layer);
                        if permanent.contains(&node) {
                            continue;
                        }
                        let times = &by_node[net.index.engine_id(node)];
                        let s = stabilization_pulse(times, p.lambda().as_f64(), p.kappa().as_f64());
                        worst = match (worst, s) {
                            (Some(a), Some(b)) => Some(a.max(b)),
                            _ => None,
                        };
                    }
                }
            }
            let (cell, ok) = match worst {
                Some(wst) => (wst.to_string(), wst <= budget),
                None => ("never".to_owned(), false),
            };
            if !ok {
                violations.push(format!(
                    "width {w} (permanent fault: {with_fault}): worst stabilization pulse \
                     {cell} is not within the budget of {budget} pulses"
                ));
            }
            table.row_values(&[
                w.to_string(),
                g.node_count().to_string(),
                with_fault.to_string(),
                cell,
                budget.to_string(),
                ok.to_string(),
            ]);
        }
    }
    ScenarioResult::checked(table, violations)
}

/// Corollary A.2: layer-0 line stabilization time in units of `Λ·D`.
pub fn run_layer0(width: usize, seeds: &[u64]) -> Table {
    use trix_core::{ClockSourceNode, LineForwarderNode, Params};
    use trix_sim::{Des, Link, Node};
    use trix_time::{AffineClock, Duration};

    let p: Params = standard_params();
    let mut table = Table::new(
        "Cor A.2 — layer-0 line stabilization (spurious in-flight messages)",
        &["seed", "stabilized by (units of Λ·D)", "bound"],
    );
    for &seed in seeds {
        let mut rng = Rng::seed_from(seed ^ 0xA2);
        let n = width + 1; // + source
        let mut clocks = vec![AffineClock::PERFECT];
        for _ in 1..n {
            clocks.push(AffineClock::with_rate(rng.f64_in(1.0, p.theta())));
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
        // Spurious in-flight messages to every node.
        for i in 1..n {
            let at = Time::from(rng.f64_in(0.0, p.d().as_f64()));
            des.inject_delivery(i, i - 1, at);
        }
        let pulses = 3 * width as u64;
        let mut nodes: Vec<Box<dyn Node>> =
            vec![Box::new(ClockSourceNode::new(p.lambda(), pulses))];
        for i in 1..n {
            nodes.push(Box::new(LineForwarderNode::new(&p, i - 1)));
        }
        des.run(&mut nodes, Time::from(1e12));
        // The last node's pulse train must be Λ-periodic after ΛD time.
        let last_times: Vec<Time> = des
            .broadcasts()
            .iter()
            .filter(|b| b.node == n - 1)
            .map(|b| b.time)
            .collect();
        let cutoff = p.lambda().as_f64() * width as f64;
        let mut stabilized_by = f64::NAN;
        'outer: for (i, w2) in last_times.windows(2).enumerate() {
            if ((w2[1] - w2[0]).as_f64() - p.lambda().as_f64()).abs() < 1e-6 {
                // All subsequent gaps must also be periodic.
                for w3 in last_times[i..last_times.len() - 1].windows(2) {
                    if ((w3[1] - w3[0]).as_f64() - p.lambda().as_f64()).abs() > 1e-6 {
                        continue 'outer;
                    }
                }
                stabilized_by = w2[0].as_f64() / cutoff;
                break;
            }
        }
        table.row_values(&[
            seed.to_string(),
            fmt_f64(stabilized_by),
            "≤ ~2 (ΛD after first source pulse)".into(),
        ]);
    }
    table
}

/// Scenario decomposition for the sweep runner: one scenario per scrambled
/// grid width, plus the layer-0 line stabilization check.
///
/// The event-driven scenarios are the most expensive in the suite, so they
/// cap at two seeds even at full scale (matching the historical harness).
pub fn scenarios(scale: Scale, base_seed: u64) -> Vec<Scenario> {
    let widths = scale.pick(&[4usize][..], &[4][..], &[4, 6, 8][..]);
    let des_seeds = scale.seed_count().min(2);
    let mut out: Vec<Scenario> = widths
        .iter()
        .enumerate()
        .map(|(i, &w)| {
            let seeds = scenario_seeds(base_seed, "thm16", i as u64, des_seeds);
            let job_seeds = seeds.clone();
            Scenario::new(
                "thm16",
                format!("w={w}"),
                vec![kv("width", w)],
                &seeds,
                move || run(&[w], &job_seeds),
            )
        })
        .collect();
    let l0_width = scale.pick(8usize, 8, 32);
    let seeds = scenario_seeds(base_seed, "thm16_layer0", 0, scale.seed_count());
    let job_seeds = seeds.clone();
    out.push(Scenario::new(
        "thm16_layer0",
        format!("w={l0_width}"),
        vec![kv("width", l0_width)],
        &seeds,
        move || run_layer0(l0_width, &job_seeds),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Regression: this derived seed scrambles a width-6 grid into a state
    /// whose recorded `H_min`/`H_max` invert once a genuine early pulse
    /// arrives — the node must sanitize (and stabilize) instead of
    /// panicking in `correction()` (`H_max must be at least H_min`).
    #[test]
    fn scrambled_state_with_inverted_extremes_stabilizes() {
        let r = run(&[6], &[0xe55d_45f8_9bf6_23a1]);
        assert_eq!(r.table.len(), 2);
    }

    #[test]
    fn stabilization_detector() {
        let lambda = 10.0;
        let times: Vec<Time> = [
            0.0,
            7.0,
            20.0,
            30.0,
            40.0,
            50.0,
            60.0,
            70.0,
            80.0,
            63.0 + 30.0,
        ]
        .iter()
        .map(|&t| Time::from(t))
        .collect();
        // Gaps: 7, 13, 10, 10, 10, 10, 10, 10, 13 — the last 3 gaps are
        // drain (ignored); stable from index 2.
        assert_eq!(stabilization_pulse(&times, lambda, 0.5), Some(2));
        // Never stable:
        let bad: Vec<Time> = [0.0, 5.0, 11.0, 18.0, 26.0, 33.0, 41.0, 48.0, 56.0]
            .iter()
            .map(|&t| Time::from(t))
            .collect();
        assert_eq!(stabilization_pulse(&bad, lambda, 0.5), None);
    }

    #[test]
    fn scrambled_grids_stabilize_within_budget() {
        let r = run(&[4], &[0, 1]);
        assert!(r.violations.is_empty(), "{:?}", r.violations);
        // Two rows (with/without permanent fault); the "within budget?"
        // (last) column must be true everywhere.
        let md = r.table.to_markdown();
        for line in md.lines().filter(|l| l.starts_with("| 4 ")) {
            let cells: Vec<&str> = line.split('|').map(str::trim).collect();
            assert_eq!(
                cells[cells.len() - 2],
                "true",
                "stabilization failed:\n{md}"
            );
        }
    }

    #[test]
    fn layer0_stabilizes() {
        let t = run_layer0(8, &[0, 1, 2]);
        let md = t.to_markdown();
        assert!(!md.contains("NaN"), "layer-0 never stabilized:\n{md}");
    }
}
