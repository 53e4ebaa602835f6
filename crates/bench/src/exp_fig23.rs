//! Experiment `fig2_fig3_topology` — Figures 2 and 3 (structure checks).
//!
//! Verifies the construction the figures depict: the base graph `H` is a
//! line with both end nodes replicated (minimum degree 2), and in the
//! layered graph `G` "most nodes have in- and out-degree 3, some 4".

use crate::suite::{kv, Scenario};
use crate::Scale;
use trix_analysis::Table;
use trix_topology::{BaseGraph, LayeredGraph};

/// Reports degree statistics for the Figure 2/3 construction.
pub fn run(widths: &[usize]) -> Table {
    let mut table = Table::new(
        "Fig 2/3 — degree structure of H and G",
        &[
            "width",
            "|V(H)|",
            "min deg H",
            "diameter D",
            "#in-degree-3 nodes",
            "#in-degree-4 nodes",
            "other",
        ],
    );
    for &w in widths {
        let base = BaseGraph::line_with_replicated_ends(w);
        let g = LayeredGraph::new(base, 4);
        let mut deg3 = 0;
        let mut deg4 = 0;
        let mut other = 0;
        for v in 0..g.width() {
            match g.in_degree(v) {
                3 => deg3 += 1,
                4 => deg4 += 1,
                _ => other += 1,
            }
        }
        table.row_values(&[
            w.to_string(),
            g.width().to_string(),
            g.base().min_degree().to_string(),
            g.base().diameter().to_string(),
            deg3.to_string(),
            deg4.to_string(),
            other.to_string(),
        ]);
    }
    table
}

/// Scenario decomposition for the sweep runner: one scenario per width
/// (pure structure checks, no randomness).
pub fn scenarios(scale: Scale, _base_seed: u64) -> Vec<Scenario> {
    let widths = scale.pick(&[8usize, 16][..], &[8, 16, 32][..], &[8, 16, 32][..]);
    widths
        .iter()
        .map(|&w| {
            Scenario::new(
                "fig23",
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
    fn most_degree_3_some_4_none_other() {
        let t = run(&[8, 16, 32]);
        for line in t.to_markdown().lines().skip(4) {
            let cells: Vec<&str> = line.split('|').map(str::trim).collect();
            if cells.len() < 8 {
                continue;
            }
            let deg3: usize = cells[5].parse().unwrap();
            let deg4: usize = cells[6].parse().unwrap();
            let other: usize = cells[7].parse().unwrap();
            assert!(deg3 > deg4, "most nodes must have degree 3");
            assert_eq!(deg4, 2, "exactly the two next-to-boundary nodes have 4");
            assert_eq!(other, 0);
        }
    }
}
