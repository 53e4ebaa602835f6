//! Experiment `thm16_self_stab` — Theorem 1.6 / Corollary A.2.
//!
//! *Claim:* the pulse-propagation algorithm self-stabilizes within
//! `O(√n)` pulses from an arbitrary initial state (with the Algorithm 4
//! modifications), even in the presence of permanent faults; the layer-0
//! line stabilizes within `ΛD` time.
//!
//! *Workload:* event-driven runs with every grid node's state randomly
//! scrambled and spurious messages in flight, with and without a
//! permanent silent fault. A node has stabilized from the first broadcast
//! after which it pulses exactly, bit for bit, as in a clean-start run of
//! the same deployment ([`trix_faults::scrambled_convergence`]); we
//! report the worst grid node's index against the `layer_count + D`
//! budget (one grid sweep — the `Θ(√n)` witness in the square layout).
//! The layer-0 line is judged the same way against a run without the
//! spurious messages.

use crate::common::{square_grid, standard_params};
use crate::suite::{kv, scenario_seeds, Scenario, ScenarioResult};
use crate::Scale;
use std::collections::HashSet;
use trix_analysis::{fmt_f64, theory, Table};
use trix_faults::scrambled_convergence;
use trix_sim::{converged_from, Rng, StaticEnvironment};
use trix_time::Time;

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
                let permanent: HashSet<_> = if with_fault {
                    [g.node(w / 2, 1)].into_iter().collect()
                } else {
                    HashSet::new()
                };
                let layers = scrambled_convergence(&g, &p, &env, 40, &permanent, &mut rng);
                for &s in &layers[1..] {
                    worst = worst.zip(s).map(|(a, b)| a.max(b));
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

/// Corollary A.2: layer-0 line stabilization time in units of `Λ·D`, read
/// at the line's last node as the first broadcast from which it pulses
/// bit for bit as the same line without the spurious messages.
pub fn run_layer0(width: usize, seeds: &[u64]) -> Table {
    use trix_core::{ClockSourceNode, LineForwarderNode, Params};
    use trix_sim::{Des, Link, Node};
    use trix_time::{AffineClock, Duration};

    let p: Params = standard_params();
    let n = width + 1; // + source
    let pulses = 3 * width as u64;
    // The last node's broadcasts on the line drawn from `rng`. The
    // spurious in-flight messages, one to every node, are drawn last, so
    // the line built without them is the clean twin.
    let last_node = |mut rng: Rng, spurious: bool| -> Vec<Time> {
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
        if spurious {
            for i in 1..n {
                let at = Time::from(rng.f64_in(0.0, p.d().as_f64()));
                des.inject_delivery(i, i - 1, at);
            }
        }
        let mut nodes: Vec<Box<dyn Node>> =
            vec![Box::new(ClockSourceNode::new(p.lambda(), pulses))];
        for i in 1..n {
            nodes.push(Box::new(LineForwarderNode::new(&p, i - 1)));
        }
        des.run(&mut nodes, Time::INFINITY);
        des.broadcasts()
            .iter()
            .filter(|b| b.node == n - 1)
            .map(|b| b.time)
            .collect()
    };
    let mut table = Table::new(
        "Cor A.2 — layer-0 line stabilization (spurious in-flight messages)",
        &["seed", "stabilized by (units of Λ·D)", "bound"],
    );
    let cutoff = p.lambda().as_f64() * width as f64;
    for &seed in seeds {
        let rng = Rng::seed_from(seed ^ 0xA2);
        let run = last_node(rng.clone(), true);
        let twin = last_node(rng, false);
        let stabilized_by =
            converged_from(&run, &twin).map_or(f64::NAN, |i| run[i].as_f64() / cutoff);
        table.row_values(&[
            seed.to_string(),
            fmt_f64(stabilized_by),
            "≤ ~2 (ΛD after first source pulse)".into(),
        ]);
    }
    table
}

/// Scenario decomposition for the sweep runner: one scenario per scrambled
/// grid width, each over the scale's seed count, plus the layer-0 line
/// stabilization check.
pub fn scenarios(scale: Scale, base_seed: u64) -> Vec<Scenario> {
    let widths = scale.pick(&[4usize][..], &[4][..], &[4, 6, 8, 12, 16, 24][..]);
    let mut out: Vec<Scenario> = widths
        .iter()
        .enumerate()
        .map(|(i, &w)| {
            let seeds = scenario_seeds(base_seed, "thm16", i as u64, scale.seed_count());
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
    fn scrambled_grids_stabilize_within_budget() {
        let r = run(&[4, 12], &[0, 1]);
        assert!(r.violations.is_empty(), "{:?}", r.violations);
        // Two rows per width (with/without permanent fault); the "within
        // budget?" (last) column must be true everywhere.
        let md = r.table.to_markdown();
        let rows: Vec<&str> = md
            .lines()
            .filter(|l| l.starts_with("| 4 ") || l.starts_with("| 12 "))
            .collect();
        assert_eq!(rows.len(), 4, "{md}");
        for line in rows {
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
