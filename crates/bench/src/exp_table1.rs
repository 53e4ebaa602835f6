//! Experiment `table1_comparison` — the paper's Table 1.
//!
//! Cross-method comparison on equal footing: naive TRIX (LW20), HEX
//! (DFL+16), and Gradient TRIX, fault-free and with one fault, across
//! grid widths. The paper's claims to verify:
//!
//! * naive TRIX: local skew `Θ(u·D)` — grows linearly with depth;
//! * HEX: local skew `d + O(u²D/d)` with a fault — the additive `d`
//!   dominates;
//! * Gradient TRIX: `Θ(κ log D)` local skew, fault or no fault —
//!   asymptotically flattest, and the only scheme with both optimal
//!   degree and logarithmic skew.

use crate::common::{square_grid, standard_params};
use crate::suite::{kv, Scenario};
use crate::Scale;
use std::collections::HashSet;
use trix_analysis::{fmt_f64, intra_layer_skew, theory, Table};
use trix_baselines::{run_hex_pulse, split_delay_env, HexEnvironment, NaiveTrixRule};
use trix_core::GradientTrixRule;
use trix_faults::{FaultBehavior, FaultCampaign};
use trix_sim::{run_dataflow, CorrectSends, OffsetLayer0, Rng};
use trix_time::Time;
use trix_topology::HexGrid;

/// Runs the Table 1 comparison over grid widths.
pub fn run(widths: &[usize]) -> Table {
    let p = standard_params();
    let mut table = Table::new(
        "Table 1 — local skew at the deepest layer: naive TRIX vs HEX vs Gradient TRIX",
        &[
            "width",
            "D",
            "naive TRIX (adv.)",
            "u·D",
            "HEX (1 crash)",
            "d",
            "Gradient TRIX (adv.)",
            "GT (1 fault)",
            "4κ(2+log₂D)·5·(1+1/5)",
        ],
    );
    for &w in widths {
        let g = square_grid(w);
        let d_diam = g.base().diameter();
        let env = split_delay_env(&g, p.d(), p.u());
        let layer0 = OffsetLayer0::synchronized(p.lambda().as_f64(), g.width());
        let last = g.layer_count() - 1;

        // Naive TRIX under the adversarial split.
        let naive = run_dataflow(&g, &env, &layer0, &NaiveTrixRule::new(), &CorrectSends, 1);
        let naive_skew = intra_layer_skew(&g, &naive, 0, last).unwrap().as_f64();

        // HEX with one crash mid-grid.
        let hex_grid = HexGrid::new(g.width().max(4), g.layer_count());
        let mut rng = Rng::seed_from(w as u64);
        let hex_env = HexEnvironment::random(&hex_grid, p.d(), p.u(), &mut rng);
        let crashed: HashSet<_> = [hex_grid.node(hex_grid.width() / 2, last / 2)]
            .into_iter()
            .collect();
        let hex = run_hex_pulse(
            &hex_grid,
            &hex_env,
            &vec![Time::ZERO; hex_grid.width()],
            &crashed,
        );
        let hex_skew = (last / 2 + 1..g.layer_count())
            .filter_map(|l| hex.local_skew(l))
            .map(|d| d.as_f64())
            .fold(0f64, f64::max);

        // Gradient TRIX under the same adversarial split.
        let rule = GradientTrixRule::new(p);
        let gt = run_dataflow(&g, &env, &layer0, &rule, &CorrectSends, 1);
        let gt_skew = intra_layer_skew(&g, &gt, 0, last).unwrap().as_f64();

        // Gradient TRIX with one silent fault mid-grid (random env).
        let fault =
            FaultCampaign::from_static([(g.node(g.width() / 2, last / 2), FaultBehavior::Silent)]);
        let (gt_fault_trace, _) =
            crate::common::run_gradient_trix(&g, &p, &rule, &fault, 2, w as u64);
        let gt_fault = (0..g.layer_count())
            .filter_map(|l| intra_layer_skew(&g, &gt_fault_trace, 1, l))
            .map(|d| d.as_f64())
            .fold(0f64, f64::max);

        table.row_values(&[
            w.to_string(),
            d_diam.to_string(),
            fmt_f64(naive_skew),
            fmt_f64(theory::naive_trix_worst_case(&p, last).as_f64()),
            fmt_f64(hex_skew),
            fmt_f64(p.d().as_f64()),
            fmt_f64(gt_skew),
            fmt_f64(gt_fault),
            fmt_f64(theory::thm_1_2_envelope(&p, d_diam, 1).as_f64()),
        ]);
    }
    table
}

/// Scenario decomposition for the sweep runner: one scenario per grid
/// width (widths are independent columns of Table 1).
pub fn scenarios(scale: Scale, _base_seed: u64) -> Vec<Scenario> {
    let widths = scale.pick(&[8usize][..], &[8, 16][..], &[8, 16, 32, 64][..]);
    widths
        .iter()
        .map(|&w| {
            Scenario::new(
                "table1",
                format!("w={w}"),
                vec![kv("width", w)],
                &[],
                move || run(&[w]),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gradient_trix_wins_at_depth() {
        let p = standard_params();
        let g = square_grid(24);
        let env = split_delay_env(&g, p.d(), p.u());
        let layer0 = OffsetLayer0::synchronized(p.lambda().as_f64(), g.width());
        let last = g.layer_count() - 1;
        let naive = run_dataflow(&g, &env, &layer0, &NaiveTrixRule::new(), &CorrectSends, 1);
        let gt = run_dataflow(
            &g,
            &env,
            &layer0,
            &GradientTrixRule::new(p),
            &CorrectSends,
            1,
        );
        let naive_skew = intra_layer_skew(&g, &naive, 0, last).unwrap();
        let gt_skew = intra_layer_skew(&g, &gt, 0, last).unwrap();
        assert!(
            gt_skew.as_f64() < naive_skew.as_f64() / 1.5,
            "Gradient TRIX must beat naive TRIX at depth: {gt_skew} vs {naive_skew}"
        );
    }

    #[test]
    fn hex_fault_penalty_dwarfs_gradient_trix() {
        // HEX's crash penalty is a full d = 2000; Gradient TRIX's fault
        // penalty is O(κ log D) ~ tens.
        let p = standard_params();
        let g = square_grid(16);
        let rule = GradientTrixRule::new(p);
        let fault = FaultCampaign::from_static([(
            g.node(g.width() / 2, g.layer_count() / 2),
            FaultBehavior::Silent,
        )]);
        let (trace, _) = crate::common::run_gradient_trix(&g, &p, &rule, &fault, 2, 3);
        let gt_fault = (0..g.layer_count())
            .filter_map(|l| intra_layer_skew(&g, &trace, 1, l))
            .map(|d| d.as_f64())
            .fold(0f64, f64::max);
        assert!(
            gt_fault < p.d().as_f64() / 10.0,
            "GT fault skew {gt_fault} must be far below HEX's d penalty"
        );
    }

    /// Pins the smoke `table1` row, whose HEX column runs one crashed
    /// pulse on a 10-wide grid.
    #[test]
    fn table_is_pinned() {
        let t = run(&[8]);
        assert_eq!(crate::suite::table_fingerprint(&t), 0xdd38_d983_5c4f_96b2);
    }

    #[test]
    fn table_renders() {
        let t = run(&[8, 12]);
        assert_eq!(t.len(), 2);
    }
}
