//! Online skew statistics over a streaming pulse feed.
//!
//! [`StreamingSkew`] consumes the dataflow executor's
//! [`Observer::on_pulse_row`] stream and maintains the paper's skew
//! metrics incrementally. It retains **one pulse front**: the latest row
//! of each layer, masked once as it arrives, and the pulse it holds
//! (`O(nodes)`). Each row is folded once, on arrival, into the maxima of
//! its pulse, and each finished pulse's maxima go straight into the
//! fields of the [`SkewStats`] record: three maxima, the intra-layer sum
//! and a fixed-bin intra-layer histogram, and the pulse count. Peak memory
//! is `O(nodes)` — independent of the pulse count — versus the
//! `O(nodes × pulses)` of a full [`trix_sim::PulseTrace`], which is what
//! lets `exp_scale` sweep grids an order of magnitude wider than the
//! trace-backed experiments.
//!
//! The per-row maxima are computed by the shared definitions in
//! [`crate::defs`], the same functions the post-hoc analyzer uses, so the
//! streamed `max` statistics are **bit-identical** to
//! `trix_analysis::skew` results over the reconstructed trace (pinned by
//! the workspace equivalence tests and the property tests in this
//! crate).

use crate::defs;
use trix_sim::Observer;
use trix_time::{Duration, Time};
use trix_topology::{LayeredGraph, NodeId};

/// A plain-data snapshot of a completed [`StreamingSkew`] run — what the
/// benchmark records persist (`skew` object of the v2 `BENCH_*.json`
/// schema).
#[derive(Clone, Debug, PartialEq)]
pub struct SkewStats {
    /// Worst intra-layer local skew `sup L_ℓ` over all pulses.
    pub max_intra: f64,
    /// Worst inter-layer local skew `sup L_{ℓ,ℓ+1}` over all pulse pairs.
    pub max_inter: f64,
    /// The full local skew `L = max(max_intra, max_inter)`.
    pub max_full: f64,
    /// Worst same-layer global skew over all pulses.
    pub max_global: f64,
    /// Mean of the per-pulse intra-layer maxima.
    pub mean_intra: f64,
    /// Number of finalized pulses.
    pub pulses: u64,
    /// Bin width of the intra-layer histogram.
    pub hist_bin_width: f64,
    /// Histogram of the per-pulse intra-layer maxima.
    pub hist_intra: Vec<u64>,
}

impl SkewStats {
    /// Folds another snapshot into this one — the partial-merge used to
    /// combine statistics of **independent runs** of the same workload
    /// shape (per-seed shards of one scenario, per-scenario shards of one
    /// sweep): maxima fold with `max`, pulse counts and histograms add,
    /// and the mean becomes the sample-count-weighted mean of the two
    /// partial means, with the histogram mass as the intra sample count
    /// (the mass *is* that count, pinned by this crate's property tests).
    ///
    /// Runs merge here, as snapshots, never as monitors: each run keeps
    /// one `O(width)`-state monitor, and a sweep reports a single summary
    /// without retaining per-run traces. One run's stream is never split
    /// across monitors, since an inter-layer pair at a split point would
    /// belong to neither side.
    ///
    /// # Panics
    ///
    /// Panics if the histogram shapes differ.
    pub fn merge(&mut self, other: &SkewStats) {
        // Exhaustive destructuring: adding a field to `SkewStats` must
        // fail to compile here rather than silently vanish from merged
        // benchmark records.
        let SkewStats {
            max_intra,
            max_inter,
            max_full,
            max_global,
            mean_intra,
            pulses,
            hist_bin_width,
            hist_intra,
        } = other;
        assert_eq!(
            self.hist_bin_width.to_bits(),
            hist_bin_width.to_bits(),
            "histogram bin widths differ"
        );
        assert_eq!(
            self.hist_intra.len(),
            hist_intra.len(),
            "histogram sizes differ"
        );
        let self_mass: u64 = self.hist_intra.iter().sum();
        let other_mass: u64 = hist_intra.iter().sum();
        if self_mass + other_mass > 0 {
            self.mean_intra = (self.mean_intra * self_mass as f64 + mean_intra * other_mass as f64)
                / (self_mass + other_mass) as f64;
        }
        self.max_intra = self.max_intra.max(*max_intra);
        self.max_inter = self.max_inter.max(*max_inter);
        self.max_full = self.max_full.max(*max_full);
        self.max_global = self.max_global.max(*max_global);
        self.pulses += pulses;
        for (acc, b) in self.hist_intra.iter_mut().zip(hist_intra) {
            *acc += b;
        }
    }
}

/// Incremental intra-layer, inter-layer, and global skew tracking over
/// the dataflow pulse stream.
///
/// Feed it to [`trix_sim::run_dataflow_observed`], then call
/// [`StreamingSkew::finish`] once the run returns and read
/// [`StreamingSkew::snapshot`]. Its maxima equal `trix_analysis::skew`'s
/// batch results bit for bit:
///
/// * `max_intra` == `max_intra_layer_skew(g, trace, 0..pulses)`;
/// * `max_full` == `full_local_skew(g, trace, 0..pulses)`;
/// * `max_global` == the fold of `global_skew(g, trace, k, ℓ)` over all
///   pulses and layers.
///
/// The monitor consumes whole rows through [`Observer::on_pulse_row`],
/// the hook both dataflow drivers emit through; its
/// [`Observer::on_pulse`] is the trait's no-op. Rows must arrive
/// `(k, layer)`-major, each `(k, layer)` at most once, which is the
/// order both drivers emit in; debug builds assert it. The monitor keeps
/// one pulse front, the latest row of each layer, and folds each row
/// once, when it arrives: `L_ℓ` and the spread over the row itself, and
/// `L_{ℓ,ℓ+1}` against layer `ℓ+1`'s row if that still holds pulse
/// `k−1`. Each finished pulse's maxima then go straight into the
/// [`SkewStats`] fields: the intra-layer maximum, sum and histogram, the
/// inter-layer and global maxima, and the pulse count.
#[derive(Clone, Debug)]
pub struct StreamingSkew {
    pairs: defs::SkewPairs,
    width: usize,
    faulty: Vec<bool>,
    /// The pulse front: the latest row of each layer, masked.
    front: defs::MaskedRows,
    /// The pulse each layer's row holds (`None`: no row yet).
    held: Vec<Option<usize>>,
    /// The last folded `(k, layer)`; `k` is the pulse being folded.
    last: Option<(usize, u32)>,
    /// Pulse `last.k`'s maxima so far.
    pulse_intra: Option<Duration>,
    pulse_global: Option<Duration>,
    pulse_inter: Option<Duration>,
    finished: bool,
    /// The finished pulses' folds; `0` while there are none, matching
    /// the `Duration::ZERO` fold the batch analyzer starts from.
    max_intra: f64,
    sum_intra: f64,
    max_inter: f64,
    max_global: f64,
    pulses: u64,
    bin_width: f64,
    /// Histogram of the per-pulse intra-layer maxima: bin `i` counts
    /// `[i·w, (i+1)·w)`, and the last bin also takes everything beyond,
    /// so the mass is the intra sample count.
    hist_intra: [u64; StreamingSkew::HIST_BINS],
}

/// Folds `s` into a running maximum.
fn fold_max(acc: &mut Option<Duration>, s: Option<Duration>) {
    if let Some(s) = s {
        *acc = Some(acc.map_or(s, |w| w.max(s)));
    }
}

impl StreamingSkew {
    /// Number of bins of the intra-layer histogram.
    pub const HIST_BINS: usize = 16;

    /// Creates a monitor for executions of `g` whose intra-layer
    /// histogram has [`Self::HIST_BINS`] bins of width `bin_width`.
    ///
    /// # Panics
    ///
    /// Panics unless `bin_width > 0`.
    pub fn new(g: &LayeredGraph, bin_width: f64) -> Self {
        assert!(bin_width > 0.0, "bin width must be positive");
        Self {
            pairs: defs::SkewPairs::new(g.base()),
            width: g.width(),
            faulty: vec![false; g.node_count()],
            front: defs::MaskedRows::new(g.width(), g.layer_count()),
            held: vec![None; g.layer_count()],
            last: None,
            pulse_intra: None,
            pulse_global: None,
            pulse_inter: None,
            finished: false,
            max_intra: 0.0,
            sum_intra: 0.0,
            max_inter: 0.0,
            max_global: 0.0,
            pulses: 0,
            bin_width,
            hist_intra: [0; Self::HIST_BINS],
        }
    }

    /// Records the finished pulse's maxima, intra then global then inter,
    /// and counts it.
    fn end_pulse(&mut self) {
        if let Some(s) = self.pulse_intra.take() {
            let s = s.as_f64();
            self.max_intra = self.max_intra.max(s);
            self.sum_intra += s;
            self.hist_intra[((s / self.bin_width) as usize).min(Self::HIST_BINS - 1)] += 1;
        }
        if let Some(s) = self.pulse_global.take() {
            self.max_global = self.max_global.max(s.as_f64());
        }
        if let Some(s) = self.pulse_inter.take() {
            self.max_inter = self.max_inter.max(s.as_f64());
        }
        self.pulses += 1;
    }

    /// Folds row `(k, layer)`, which has at least one emission: ends every
    /// pulse before `k`, stores the row in the front, and folds its
    /// maxima.
    fn fold_row(&mut self, k: usize, layer: u32, row: &[Option<Time>]) {
        debug_assert!(!self.finished, "pulse after finish()");
        debug_assert!(
            self.last.is_none_or(|l| l < (k, layer)),
            "pulse emissions must arrive front-row-major"
        );
        for _ in self.last.map_or(0, |(cur, _)| cur)..k {
            self.end_pulse();
        }
        self.last = Some((k, layer));
        let l = layer as usize;
        let span = l * self.width..(l + 1) * self.width;
        self.front.set(l, row, &self.faulty[span]);
        self.held[l] = Some(k);
        let upper = self.front.row(l);
        fold_max(
            &mut self.pulse_intra,
            defs::worst_intra_layer(&self.pairs, upper),
        );
        fold_max(&mut self.pulse_global, defs::layer_spread(upper));
        // Layer ℓ+1 is not yet overwritten by pulse k: rows arrive
        // layer-ascending within a pulse.
        if k > 0 && self.held.get(l + 1) == Some(&Some(k - 1)) {
            let lower = self.front.row(l + 1);
            fold_max(
                &mut self.pulse_inter,
                defs::worst_inter_layer(&self.pairs, upper, lower),
            );
        }
    }

    /// Finalizes the last pulse. Must be called after the run and before
    /// reading [`StreamingSkew::snapshot`]; idempotent.
    pub fn finish(&mut self) {
        if !self.finished {
            if self.last.is_some() {
                self.end_pulse();
            }
            self.finished = true;
        }
    }

    /// Plain-data snapshot of the completed run.
    ///
    /// # Panics
    ///
    /// Panics if [`StreamingSkew::finish`] has not been called (the last
    /// pulse would be silently dropped otherwise).
    pub fn snapshot(&self) -> SkewStats {
        assert!(
            self.finished,
            "call StreamingSkew::finish() before snapshot()"
        );
        let samples: u64 = self.hist_intra.iter().sum();
        SkewStats {
            max_intra: self.max_intra,
            max_inter: self.max_inter,
            max_full: Duration::from(self.max_intra)
                .max(Duration::from(self.max_inter))
                .as_f64(),
            max_global: self.max_global,
            mean_intra: if samples == 0 {
                0.0
            } else {
                self.sum_intra / samples as f64
            },
            pulses: self.pulses,
            hist_bin_width: self.bin_width,
            hist_intra: self.hist_intra.to_vec(),
        }
    }
}

impl Observer for StreamingSkew {
    fn on_faulty(&mut self, node: NodeId) {
        self.faulty[node.layer as usize * self.width + node.v as usize] = true;
    }

    /// The row is folded as it arrives. All-`None` rows are skipped
    /// outright: pulses are counted up to the last one with an emission.
    fn on_pulse_row(&mut self, k: usize, layer: u32, row: &[Option<Time>]) {
        if row.iter().any(Option::is_some) {
            self.fold_row(k, layer, row);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::feed_pulse;
    use trix_topology::BaseGraph;

    /// Feeds a synthetic trace `t(k, v, ℓ) = k·100 + ℓ·10 + v` and checks
    /// the folds against hand-computed values.
    #[test]
    fn streaming_matches_hand_computed_folds() {
        let g = LayeredGraph::new(BaseGraph::cycle(4), 3);
        let mut s = StreamingSkew::new(&g, 1.0);
        for k in 0..2usize {
            feed_pulse(&mut s, &g, k, |n| {
                k as f64 * 100.0 + n.layer as f64 * 10.0 + n.v as f64
            });
        }
        s.finish();
        let snap = s.snapshot();
        // Intra: worst cycle edge (0, 3) → 3, every pulse and layer.
        assert_eq!(snap.max_intra, 3.0);
        // Global: same spread (3) — max over v within a layer.
        assert_eq!(snap.max_global, 3.0);
        // Inter: |t^{k+1}_{v,ℓ} − t^k_{w,ℓ+1}| = |100 − 10 + v − w| = 93
        // at the wraparound (v=3, w=0).
        assert_eq!(snap.max_inter, 93.0);
        assert_eq!(snap.max_full, 93.0);
        // Two pulses finalized, each with one intra sample of 3.
        assert_eq!(snap.pulses, 2);
        assert_eq!(snap.mean_intra, 3.0);
        let mut bins = [0; StreamingSkew::HIST_BINS];
        bins[3] = 2;
        assert_eq!(snap.hist_intra, bins);
    }

    #[test]
    fn faulty_nodes_are_excluded() {
        let g = LayeredGraph::new(BaseGraph::cycle(4), 2);
        let mut s = StreamingSkew::new(&g, 1.0);
        s.on_faulty(g.node(3, 1));
        // Node (3, 1) is an extreme outlier; the monitor must ignore it
        // entirely.
        feed_pulse(&mut s, &g, 0, |n| {
            if n.v == 3 && n.layer == 1 {
                1e9
            } else {
                n.v as f64
            }
        });
        s.finish();
        let snap = s.snapshot();
        // Remaining worst: layer 0 wraparound edge (0, 3) → 3; layer 1
        // without node 3: edges (0,1), (1,2) → 1.
        assert_eq!(snap.max_intra, 3.0);
        assert_eq!(snap.max_global, 3.0);
    }

    /// A layer's slot two pulses old never pairs with the current pulse.
    /// Row `(1, 1)` is missing, so when `(2, 0)` arrives layer 1's slot
    /// still holds pulse 0: pulse 2's `L_{0,1}` must stay empty rather
    /// than read `|t^2_{v,0} − t^0_{w,1}|`, up to 192, which would raise
    /// the inter-layer maximum.
    #[test]
    fn stale_rows_do_not_pair() {
        let g = LayeredGraph::new(BaseGraph::cycle(3), 3);
        let mut s = StreamingSkew::new(&g, 1.0);
        for k in 0..3usize {
            for layer in 0..3u32 {
                if (k, layer) == (1, 1) {
                    continue;
                }
                let row: Vec<Option<Time>> = (0..3)
                    .map(|v| {
                        Some(Time::from(
                            100.0 * k as f64 + 10.0 * layer as f64 + v as f64,
                        ))
                    })
                    .collect();
                s.on_pulse_row(k, layer, &row);
            }
        }
        s.finish();
        let snap = s.snapshot();
        assert_eq!(snap.pulses, 3);
        // Pulse 1 pairs (1, 0) with (0, 1), pulse 2 pairs (2, 1) with
        // (1, 2); each reads 100 − 10 + (v − w), at most 92.
        assert_eq!(snap.max_inter, 92.0);
        assert_eq!(snap.max_full, 92.0);
    }

    /// Rows need `(k, layer)`-major order; a layer 1 row before the
    /// layer 0 row of the same pulse is a caller error.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "front-row-major")]
    fn row_path_rejects_layers_out_of_order() {
        let g = LayeredGraph::new(BaseGraph::cycle(3), 2);
        let mut s = StreamingSkew::new(&g, 1.0);
        let row = [Some(Time::ZERO); 3];
        s.on_pulse_row(0, 1, &row);
        s.on_pulse_row(0, 0, &row);
    }

    /// Per-pulse intra maxima `3·s_k` (the 4-cycle's wraparound edge
    /// under `t = k·100 + v·s_k`) land in bins of width 0.5; `7.6` fills
    /// the last of the 16 bins and `77` lies far past it, so the last
    /// bin holds both and the mass still equals the pulse count.
    #[test]
    fn histogram_clamps_overflow_into_last_bin() {
        let g = LayeredGraph::new(BaseGraph::cycle(4), 2);
        let mut s = StreamingSkew::new(&g, 0.5);
        let maxima = [0.0, 0.4, 0.6, 1.9, 7.6, 77.0];
        for (k, m) in maxima.into_iter().enumerate() {
            feed_pulse(&mut s, &g, k, |n| k as f64 * 100.0 + n.v as f64 * m / 3.0);
        }
        s.finish();
        let snap = s.snapshot();
        let mut bins = [0; StreamingSkew::HIST_BINS];
        (bins[0], bins[1], bins[3], bins[15]) = (2, 1, 1, 2);
        assert_eq!(snap.hist_intra, bins);
        assert_eq!(snap.pulses, maxima.len() as u64);
    }

    /// Three pulses of `t = k·100 + ℓ·10 + v·scale` on a 4-cycle.
    fn scaled_run(g: &LayeredGraph, scale: f64, bin_width: f64) -> SkewStats {
        let mut s = StreamingSkew::new(g, bin_width);
        for k in 0..3usize {
            feed_pulse(&mut s, g, k, |n| {
                k as f64 * 100.0 + n.layer as f64 * 10.0 + n.v as f64 * scale
            });
        }
        s.finish();
        s.snapshot()
    }

    /// Per-seed monitors' snapshots merge into exactly the componentwise
    /// fold: maxima fold with `max`, pulses and histogram bins add, and
    /// the merged mean is the pooled mean of the two runs' pulses.
    #[test]
    fn merged_monitors_equal_componentwise_folds() {
        let g = LayeredGraph::new(BaseGraph::cycle(4), 3);
        let (a, b) = (scaled_run(&g, 1.0, 1.0), scaled_run(&g, 2.0, 1.0));
        // Intra per pulse: the wraparound edge, 3·scale.
        assert_eq!((a.max_intra, b.max_intra), (3.0, 6.0));
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.max_intra, 6.0);
        assert_eq!(merged.max_inter, a.max_inter.max(b.max_inter));
        assert_eq!(merged.max_full, a.max_full.max(b.max_full));
        assert_eq!(merged.max_global, 6.0);
        assert_eq!(merged.pulses, 6);
        // Three pulses at 3 and three at 6.
        assert_eq!(merged.mean_intra, 4.5);
        let bins: Vec<u64> = a
            .hist_intra
            .iter()
            .zip(&b.hist_intra)
            .map(|(x, y)| x + y)
            .collect();
        assert_eq!(merged.hist_intra, bins);
        assert_eq!(merged.hist_intra.iter().sum::<u64>(), 6);
    }

    #[test]
    #[should_panic(expected = "bin widths differ")]
    fn histogram_merge_rejects_mismatched_shapes() {
        let g = LayeredGraph::new(BaseGraph::cycle(4), 3);
        let mut a = scaled_run(&g, 1.0, 0.5);
        a.merge(&scaled_run(&g, 1.0, 0.25));
    }

    #[test]
    #[should_panic(expected = "finish()")]
    fn snapshot_requires_finish() {
        let g = LayeredGraph::new(BaseGraph::cycle(3), 2);
        let _ = StreamingSkew::new(&g, 1.0).snapshot();
    }

    #[test]
    fn empty_run_snapshots_zeroes() {
        let g = LayeredGraph::new(BaseGraph::cycle(3), 2);
        let mut s = StreamingSkew::new(&g, 1.0);
        s.finish();
        let snap = s.snapshot();
        assert_eq!(snap.pulses, 0);
        assert_eq!(snap.max_full, 0.0);
        assert_eq!(snap.mean_intra, 0.0);
        assert_eq!(snap.hist_intra, [0; StreamingSkew::HIST_BINS]);
    }
}
