//! The paper's skew definitions (§2, "Output and Skew") as folds over
//! masked dense layer rows.
//!
//! Both consumers — the post-hoc analyzer (`trix_analysis::skew`, which
//! masks rows of a full `PulseTrace`) and the online monitor
//! ([`crate::StreamingSkew`], which masks each published row once, as it
//! arrives) — delegate to these functions, so the two *cannot drift*:
//! they mask rows the same way, visit the same pairs and fold with the
//! same `max`.
//!
//! A layer row is a [`MaskedRow`]: one `f64` time per position and an
//! all-ones or zero `u64` validity mask. [`MaskedRows::set`] clears the
//! mask of nodes that are faulty or did not fire, and the folds skip every
//! pair with a cleared endpoint, exactly as the paper restricts skew to
//! correct nodes. The pairs come from [`SkewPairs`], flat lists built once
//! from the base graph's adjacency.
//!
//! The folds are branch-free. `|Δ|` has its sign bit clear, so
//! `Duration`'s [`f64::total_cmp`] order on it is the unsigned order of
//! its bits, the NaN `|∞ − ∞|` included; a masked pair
//! contributes `0`, the bits of `+0.0`, which no valid sample lies below.
//! The spread folds `min`/`max` over `total_cmp`'s integer key. A maximum
//! under a total order does not depend on the fold order, so every result
//! is bit-identical to a fold of `Duration::max` over the same pairs.

use trix_time::{Duration, Time};
use trix_topology::BaseGraph;

/// The node pairs the skew folds visit, flattened once from a base
/// graph's adjacency.
#[derive(Clone, Debug)]
pub struct SkewPairs {
    /// Base-graph edges `(a, b)` with `a < b`, in [`BaseGraph::edges`]
    /// order: the pairs of `L_ℓ`.
    edges: Vec<[u32; 2]>,
    /// `(v, x)` for every `x` of `v`'s closed neighbourhood `{v} ∪ N(v)`,
    /// in `LayeredGraph::successors` order (`v` first, then its sorted
    /// neighbors): the grid edges `((v,ℓ), (x,ℓ+1))` of `L_{ℓ,ℓ+1}`.
    closed: Vec<[u32; 2]>,
}

impl SkewPairs {
    /// Flattens the pairs of `base`.
    pub fn new(base: &BaseGraph) -> Self {
        let pair = |a: usize, b: usize| [a as u32, b as u32];
        let edges = base.edges().map(|(a, b)| pair(a, b)).collect();
        let closed = (0..base.node_count())
            .flat_map(|v| {
                let closed = std::iter::once(v).chain(base.neighbors(v).iter().copied());
                closed.map(move |x| pair(v, x))
            })
            .collect();
        Self { edges, closed }
    }
}

/// One layer row of a [`MaskedRows`] block: `times[v]` is position
/// `v`'s pulse time where `ok[v]` is all ones (`!0`); where the node is
/// faulty or did not fire, `ok[v]` is `0` and the time is ignored.
#[derive(Clone, Copy, Debug)]
pub struct MaskedRow<'a> {
    times: &'a [f64],
    ok: &'a [u64],
}

/// A block of equally wide [`MaskedRow`]s, written from engine rows.
#[derive(Clone, Debug)]
pub struct MaskedRows {
    width: usize,
    times: Vec<f64>,
    ok: Vec<u64>,
}

impl MaskedRows {
    /// `rows` rows of `width` positions, all masked.
    pub fn new(width: usize, rows: usize) -> Self {
        Self {
            width,
            times: vec![0.0; width * rows],
            ok: vec![0; width * rows],
        }
    }

    /// Overwrites row `i` with `row`, masking the positions that did not
    /// fire or are `faulty`.
    ///
    /// # Panics
    ///
    /// Panics unless `row` and `faulty` are one row wide.
    pub fn set(&mut self, i: usize, row: &[Option<Time>], faulty: &[bool]) {
        let span = i * self.width..(i + 1) * self.width;
        assert_eq!(row.len(), self.width, "row is one full layer");
        assert_eq!(faulty.len(), self.width, "faulty flags are one full layer");
        let slots = self.times[span.clone()].iter_mut().zip(&mut self.ok[span]);
        for ((time, ok), (t, &bad)) in slots.zip(row.iter().zip(faulty)) {
            *time = t.map_or(0.0, Time::as_f64);
            *ok = u64::from(t.is_some() && !bad).wrapping_neg();
        }
    }

    /// Row `i`.
    pub fn row(&self, i: usize) -> MaskedRow<'_> {
        let span = i * self.width..(i + 1) * self.width;
        MaskedRow {
            times: &self.times[span.clone()],
            ok: &self.ok[span],
        }
    }
}

/// `Some` of the largest `|Δ|` whose bits were folded into `worst`, if
/// any pair was valid. `Duration::from` keeps the debug NaN check that
/// `Time` subtraction applies, so a valid pair sharing an infinity still
/// trips it.
fn worst_of(worst: u64, any: u64) -> Option<Duration> {
    (any != 0).then(|| Duration::from(f64::from_bits(worst)))
}

/// Intra-layer local skew `L_ℓ` of one layer row: worst `|t_a − t_b|`
/// over base-graph edges `{a, b}` with both endpoints valid.
///
/// Returns `None` if no adjacent pair is valid.
pub fn worst_intra_layer(pairs: &SkewPairs, row: MaskedRow<'_>) -> Option<Duration> {
    let (times, ok) = (row.times, row.ok);
    let (mut worst, mut any) = (0u64, 0u64);
    for &[a, b] in &pairs.edges {
        let (a, b) = (a as usize, b as usize);
        let m = ok[a] & ok[b];
        worst = worst.max((times[a] - times[b]).abs().to_bits() & m);
        any |= m;
    }
    worst_of(worst, any)
}

/// Inter-layer local skew `L_{ℓ,ℓ+1}` for one pulse pair: worst
/// `|t^{k+1}_{v,ℓ} − t^k_{x,ℓ+1}|` over grid edges `((v,ℓ), (x,ℓ+1))`
/// with both endpoints valid.
///
/// `upper` is layer `ℓ`'s row of pulse `k+1`, `lower` layer `ℓ+1`'s row
/// of pulse `k` (consecutive pulse indices, because each layer lags one
/// period). Returns `None` when no grid edge is valid.
pub fn worst_inter_layer(
    pairs: &SkewPairs,
    upper: MaskedRow<'_>,
    lower: MaskedRow<'_>,
) -> Option<Duration> {
    let (mut worst, mut any) = (0u64, 0u64);
    for &[v, x] in &pairs.closed {
        let (v, x) = (v as usize, x as usize);
        let m = upper.ok[v] & lower.ok[x];
        worst = worst.max((upper.times[v] - lower.times[x]).abs().to_bits() & m);
        any |= m;
    }
    worst_of(worst, any)
}

/// Maps an `f64` to an unsigned integer in [`f64::total_cmp`]'s order:
/// negative values have all bits flipped, the others only the sign bit.
/// [`from_order_key`] inverts it.
#[inline]
fn order_key(t: f64) -> u64 {
    let bits = t.to_bits();
    bits ^ (((bits as i64 >> 63) as u64) | (1 << 63))
}

#[inline]
fn from_order_key(key: u64) -> f64 {
    f64::from_bits(key ^ (((!key as i64 >> 63) as u64) | (1 << 63)))
}

/// Global skew of one layer row: the spread `max − min` of its valid
/// times over *all* positions, adjacent or not (Ψ⁰ in the paper's
/// potential notation). `None` when no position is valid.
pub fn layer_spread(row: MaskedRow<'_>) -> Option<Duration> {
    let (mut min, mut max, mut any) = (u64::MAX, 0u64, 0u64);
    for (&t, &m) in row.times.iter().zip(row.ok) {
        let key = order_key(t);
        min = min.min(key | !m);
        max = max.max(key & m);
        any |= m;
    }
    let time = |key| Time::from(from_order_key(key));
    (any != 0).then(|| time(max) - time(min))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cycle_pairs() -> SkewPairs {
        SkewPairs::new(&BaseGraph::cycle(4))
    }

    /// Masked rows of the cycle's width from per-position times, none
    /// faulty.
    fn rows(times: &[&[Option<f64>]]) -> MaskedRows {
        let mut out = MaskedRows::new(4, times.len());
        for (i, row) in times.iter().enumerate() {
            let row: Vec<Option<Time>> = row.iter().map(|t| t.map(Time::from)).collect();
            out.set(i, &row, &[false; 4]);
        }
        out
    }

    #[test]
    fn intra_layer_worst_pair() {
        let pairs = cycle_pairs();
        // t = v; worst cycle edge is the wraparound (0, 3).
        let r = rows(&[&[Some(0.0), Some(1.0), Some(2.0), Some(3.0)]]);
        assert_eq!(
            worst_intra_layer(&pairs, r.row(0)),
            Some(Duration::from(3.0))
        );
    }

    #[test]
    fn missing_nodes_are_skipped() {
        let pairs = cycle_pairs();
        // Without node 3, the worst remaining edge is (1, 2) or (0, 1): 10.
        let r = rows(&[&[Some(0.0), Some(10.0), Some(20.0), None], &[None; 4]]);
        assert_eq!(
            worst_intra_layer(&pairs, r.row(0)),
            Some(Duration::from(10.0))
        );
        assert_eq!(worst_intra_layer(&pairs, r.row(1)), None);
    }

    #[test]
    fn faulty_nodes_are_masked_like_missing_ones() {
        let pairs = cycle_pairs();
        let mut r = MaskedRows::new(4, 1);
        let row = [0.0, 10.0, 20.0, 1e9].map(|t| Some(Time::from(t)));
        r.set(0, &row, &[false, false, false, true]);
        assert_eq!(
            worst_intra_layer(&pairs, r.row(0)),
            Some(Duration::from(10.0))
        );
        assert_eq!(layer_spread(r.row(0)), Some(Duration::from(20.0)));
    }

    #[test]
    fn inter_layer_compares_consecutive_pulses() {
        let pairs = cycle_pairs();
        // Upper (pulse k+1, layer 0): t = v + 100; lower (pulse k,
        // layer 1): t = v. Differences are 100 + (v − w); worst over grid
        // edges = 103 (wraparound neighbor pair).
        let r = rows(&[
            &[Some(100.0), Some(101.0), Some(102.0), Some(103.0)],
            &[Some(0.0), Some(1.0), Some(2.0), Some(3.0)],
        ]);
        assert_eq!(
            worst_inter_layer(&pairs, r.row(0), r.row(1)),
            Some(Duration::from(103.0))
        );
    }

    #[test]
    fn layer_spread_is_max_minus_min() {
        let r = rows(&[&[Some(1.5), Some(0.5), Some(-0.5), None], &[None; 4]]);
        assert_eq!(layer_spread(r.row(0)), Some(Duration::from(2.0)));
        assert_eq!(layer_spread(r.row(1)), None);
    }

    #[test]
    fn order_key_round_trips_in_total_order() {
        let values = [
            f64::NEG_INFINITY,
            -1e300,
            -1.0,
            -f64::MIN_POSITIVE,
            -0.0,
            0.0,
            f64::MIN_POSITIVE,
            1.0,
            1e300,
            f64::INFINITY,
        ];
        for w in values.windows(2) {
            assert!(order_key(w[0]) < order_key(w[1]), "{} < {}", w[0], w[1]);
        }
        for v in values {
            assert_eq!(from_order_key(order_key(v)).to_bits(), v.to_bits());
        }
    }
}
