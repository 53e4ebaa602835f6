//! Online low-rank sketching of the pulse-front matrix: an incremental
//! POD (proper orthogonal decomposition) observer with a certified
//! reconstruction-error bound.
//!
//! `--no-trace` mode answers summary questions in `O(nodes)` memory but
//! cannot answer *where* skew waves originate — that needs the
//! pulse-front matrix `A` (one row per pulse step `(k, ℓ)`, one column
//! per base-graph position `v`, entries the nominal emission times that
//! [`trix_sim::PulseTrace::time`] would record, `0.0` where the rule
//! misfired). [`PodSketch`] maintains a rank-`r` incremental SVD sketch
//! of `A` in `O(width × r)` memory while the engines stream: each
//! completed front row is Gram–Schmidt-projected against the current
//! orthonormal column basis `U`, the small `(m+b)×(m+b')` core matrix is
//! re-diagonalized by a hand-rolled one-sided Jacobi SVD, and the
//! smallest singular directions are truncated with their Frobenius mass
//! accumulated into a running certificate.
//!
//! # What is certified
//!
//! Write `D` for the accumulated Frobenius norms of all truncated parts
//! (one `‖dropped‖_F` term per update, summed by the triangle
//! inequality, following the incremental-POD error analysis line of
//! work). The invariant maintained is `A = Â + E` with
//! `Â = Ŵ·diag(σ)·Uᵀ` for some orthonormal `Ŵ`, and `‖E‖_F ≤ D`. Since
//! `Â(I − UUᵀ) = 0`, the **projection residual is bounded by the
//! certificate**:
//!
//! ```text
//! ‖A − A·U·Uᵀ‖_F = ‖E·(I − UUᵀ)‖_F ≤ ‖E‖_F ≤ D
//! ```
//!
//! [`PodSketch::error_bound`] reports `D` plus a deterministic roundoff
//! allowance (a small multiple of `ε · cols · rank · Σ‖row‖`), so the
//! bound survives floating point even at full rank where `D = 0`.
//!
//! One honesty caveat: the truncated-mass term `D` is exact (a
//! triangle-inequality sum in exact arithmetic), but the roundoff
//! allowance is an **empirically sized margin**, not a derived
//! worst-case backward-error bound for the Gram–Schmidt/Jacobi
//! pipeline. `measured ≤ certified` is therefore guaranteed-as-tested,
//! not proven for arbitrary inputs: it is *checked against measured
//! residuals* by the workspace test-suite and by the `exp_modes`
//! experiment oracle at `--no-trace` scale, and workloads far outside
//! that envelope (vastly larger widths/row counts, adversarial
//! conditioning) could in principle outrun the slack.
//!
//! # Determinism and merge
//!
//! Both dataflow engines flush emissions on the calling thread in serial
//! `(k, layer, v)` order, so a sketch observing a run is **byte-identical
//! across the serial and frontier engines for any `--sim-threads`
//! value** — the same determinism leg every other observer lives under.
//! Additionally, [`PodSketch::merge`] joins sketches of *adjacent column
//! ranges* (built with
//! [`PodSketch::for_columns`]): the parts' bases embed block-diagonally
//! (they stay orthonormal because the supports are disjoint), the merged
//! spectrum is the union of the parts' singular values truncated to
//! rank, and the certificate composes soundly as
//! `√(c₁² + c₂²) + √(Σ_dropped (σⱼ + c_part)²)` — see
//! [`PodSketch::merge`] for the derivation.

use std::collections::BTreeMap;
use std::ops::Range;
use trix_sim::Observer;
use trix_time::Time;
use trix_topology::{LayeredGraph, NodeId};

/// Relative threshold below which a Gram–Schmidt residual direction is
/// treated as linearly dependent (its true norm is folded into the
/// certificate instead of spawning a new basis vector).
const RHO_REL: f64 = 1e-13;

/// Relative off-diagonal threshold for the one-sided Jacobi sweep.
const JACOBI_REL: f64 = 1e-15;

/// Hard cap on Jacobi sweeps (converges in a handful on the
/// near-arrowhead cores this module produces).
const MAX_SWEEPS: usize = 64;

/// Margin multiplier of the deterministic roundoff allowance folded into
/// the certificate (see [`PodSketch::error_bound`]). Sized so the
/// allowance dominates the basis-orthonormality drift a *measurement*
/// pass observes even when nothing was truncated (the full-rank case,
/// where the certificate is pure slack) while staying ~1e-10 relative
/// to `‖A‖_F` on every workload in the suite. This is an empirically
/// tuned heuristic, not a derived worst-case rounding-error bound — see
/// the module docs for what that means for the certificate's scope.
const SLACK_MARGIN: f64 = 512.0;

fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    // Eight fixed-order accumulator lanes: a single serial accumulator
    // is add-latency-bound, which makes this the hot primitive of every
    // flush. The lane count and the combining order are constants, so
    // results stay bit-deterministic — just a different (fixed)
    // summation order than the naive loop.
    let mut acc = [0.0f64; 8];
    let split = a.len() & !7;
    let (ha, ta) = a.split_at(split);
    let (hb, tb) = b.split_at(split);
    for (ca, cb) in ha.chunks_exact(8).zip(hb.chunks_exact(8)) {
        for (l, (&x, &y)) in acc.iter_mut().zip(ca.iter().zip(cb)) {
            *l += x * y;
        }
    }
    let mut s = ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]));
    for (x, y) in ta.iter().zip(tb) {
        s += x * y;
    }
    s
}

/// One-sided Jacobi orthogonalization of the column-major `rows × cols`
/// matrix `a`, accumulating the right rotations into the column-major
/// `cols × cols` matrix `v` (initialized to the identity here).
///
/// On return the columns of `a` are mutually orthogonal to relative
/// tolerance [`JACOBI_REL`]; `a_in = a_out · vᵀ`, so `v`'s columns are
/// the right singular vectors and the column norms of `a_out` the
/// singular values. Sweep order and thresholds are fixed, so the
/// factorization is bit-deterministic in its input.
fn jacobi_orthogonalize(a: &mut [f64], v: &mut [f64], rows: usize, cols: usize) {
    debug_assert_eq!(a.len(), rows * cols);
    debug_assert_eq!(v.len(), cols * cols);
    v.fill(0.0);
    for j in 0..cols {
        v[j * cols + j] = 1.0;
    }
    for _ in 0..MAX_SWEEPS {
        let mut rotated = false;
        for p in 0..cols.saturating_sub(1) {
            for q in p + 1..cols {
                let (cp, rest) = a[p * rows..].split_at_mut(rows);
                let cq = &mut rest[(q - p - 1) * rows..(q - p) * rows];
                let alpha = dot(cp, cp);
                let beta = dot(cq, cq);
                let gamma = dot(cp, cq);
                if gamma == 0.0 || gamma.abs() <= JACOBI_REL * (alpha * beta).sqrt() {
                    continue;
                }
                let zeta = (beta - alpha) / (2.0 * gamma);
                let t = if zeta >= 0.0 {
                    1.0 / (zeta + (1.0 + zeta * zeta).sqrt())
                } else {
                    1.0 / (zeta - (1.0 + zeta * zeta).sqrt())
                };
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = c * t;
                for i in 0..rows {
                    let (x, y) = (cp[i], cq[i]);
                    cp[i] = c * x - s * y;
                    cq[i] = s * x + c * y;
                }
                let (vp, vrest) = v[p * cols..].split_at_mut(cols);
                let vq = &mut vrest[(q - p - 1) * cols..(q - p) * cols];
                for i in 0..cols {
                    let (x, y) = (vp[i], vq[i]);
                    vp[i] = c * x - s * y;
                    vq[i] = s * x + c * y;
                }
                rotated = true;
            }
        }
        if !rotated {
            break;
        }
    }
}

/// Out-of-order row assembly for the event-driven engine (see
/// [`PodSketch::for_des_grid`]): per-engine-node broadcast counters
/// recover the pulse index `k`, and rows buffer in a `(k, layer)`-keyed
/// map until the earliest row is complete.
#[derive(Clone, Debug)]
struct DesMap {
    /// Engine id of grid node `(0, 0)` (ids below are ignored, e.g. the
    /// clock source).
    offset: usize,
    width: usize,
    layer_count: usize,
    /// Broadcasts seen per engine node — the next broadcast's `k`.
    counts: Vec<u32>,
    /// Pending rows: `(k, layer) → (row, filled-in-range count)`.
    rows: BTreeMap<(u32, u32), (Vec<f64>, usize)>,
}

/// Streaming rank-`r` incremental POD sketch of the pulse-front matrix.
///
/// See the module-level docs in `sketch.rs` for the matrix definition, the certified
/// bound, and the determinism/merge contract. Rows can be fed three
/// ways, all equivalent:
///
/// * as a dataflow [`Observer`] (`on_pulse`, both engines);
/// * as an event-driven [`Observer`] (`on_broadcast`, via
///   [`PodSketch::for_des_grid`]);
/// * directly with [`PodSketch::push_row`].
///
/// A `(k, layer)` front with *no* emissions in the sketch's column range
/// contributes no row (the stream carries nothing to delimit it); rows
/// that do appear are zero-filled at misfired positions.
///
/// ```
/// use trix_obs::PodSketch;
/// use trix_topology::{BaseGraph, LayeredGraph};
///
/// let g = LayeredGraph::new(BaseGraph::cycle(4), 3);
/// let mut sketch = PodSketch::new(&g, 2);
/// for k in 0..5 {
///     let t = 1.0 + k as f64;
///     sketch.push_row(&[t, 2.0 * t, 3.0 * t, 4.0 * t]);
/// }
/// sketch.finish();
/// let snap = sketch.snapshot();
/// assert_eq!(snap.modes(), 1); // rank-1 data → one retained mode
/// assert!(snap.error_bound < 1e-6); // nothing (materially) truncated
/// ```
#[derive(Clone, Debug)]
pub struct PodSketch {
    max_rank: usize,
    col_start: usize,
    cols: usize,
    /// Rows buffered per incremental update (fixed at construction so
    /// update boundaries — and thus results — are reproducible).
    block: usize,
    /// Orthonormal column basis, mode-major: mode `j` is
    /// `basis[j·cols..(j+1)·cols]`.
    basis: Vec<f64>,
    /// Singular values, descending, one per retained mode.
    sv: Vec<f64>,
    /// Accumulated Frobenius norms of truncated parts.
    discarded: f64,
    /// `Σ ‖row‖²` over all ingested rows.
    energy: f64,
    /// `Σ ‖row‖` over all ingested rows (roundoff-allowance scale).
    norm_sum: f64,
    rows: u64,
    /// Certified bound, valid once finished (recomposed by `merge`).
    cert: f64,
    finished: bool,
    /// `(k, layer)` of the row being assembled from `on_pulse`.
    cur: Option<(usize, u32)>,
    row: Vec<f64>,
    des: Option<DesMap>,
    /// Row-major pending block (`pending_rows × cols`).
    pending: Vec<f64>,
    pending_norms: Vec<f64>,
    pending_rows: usize,
}

impl PodSketch {
    /// Whole-width sketch of `g`'s pulse fronts with at most `rank`
    /// retained modes.
    ///
    /// # Panics
    ///
    /// Panics if `rank` is zero.
    pub fn new(g: &LayeredGraph, rank: usize) -> Self {
        Self::for_columns(g, rank, 0..g.width())
    }

    /// Sketch restricted to the base-graph columns `range` — the
    /// column-range partial that [`PodSketch::merge`] rejoins. Emissions
    /// outside the range are ignored.
    ///
    /// # Panics
    ///
    /// Panics if `rank` is zero or the range is empty or out of bounds.
    pub fn for_columns(g: &LayeredGraph, rank: usize, range: Range<usize>) -> Self {
        assert!(rank > 0, "sketch rank must be positive");
        assert!(
            range.start < range.end && range.end <= g.width(),
            "column range out of bounds"
        );
        let cols = range.end - range.start;
        // Panel size trades the Jacobi core against flush frequency: each
        // flush factors an (r + b_p)-column core whose cost grows superlinearly
        // in the panel, so at high ranks half-rank panels are cheaper per row
        // even though they flush twice as often.  The floor of 8 keeps small
        // ranks on the seed schedule — shrinking it further multiplies the
        // per-flush `discarded` terms and visibly loosens the certificate.
        let block = (rank / 2).max(8);
        Self {
            max_rank: rank,
            col_start: range.start,
            cols,
            block,
            basis: Vec::new(),
            sv: Vec::new(),
            discarded: 0.0,
            energy: 0.0,
            norm_sum: 0.0,
            rows: 0,
            cert: 0.0,
            finished: false,
            cur: None,
            row: vec![0.0; cols],
            des: None,
            pending: Vec::with_capacity(block * cols),
            pending_norms: Vec::with_capacity(block),
            pending_rows: 0,
        }
    }

    /// Whole-width sketch consuming the **event-driven** engine's
    /// `on_broadcast` stream for a grid deployment wired like
    /// `trix_core::GridNetwork`: engine id `offset + ℓ·width + v` for
    /// grid node `(v, ℓ)` (the standard builder uses `offset = 1`,
    /// engine 0 being the clock source, whose broadcasts are ignored).
    ///
    /// Each node's `k`-th broadcast is its pulse-`k` entry; rows buffer
    /// out of order and are ingested in `(k, layer)` order as soon as
    /// the earliest pending front completes. In a converged execution
    /// only a few fronts are ever pending, so memory stays
    /// `O(width × r)`.
    ///
    /// # Truncated executions
    ///
    /// A run that stops mid-pulse (horizon reached, oracle violation,
    /// fault campaign silencing nodes) leaves trailing
    /// partially-assembled fronts in the reorder buffer. These are
    /// **never silently dropped**: [`PodSketch::finish`] flushes every
    /// pending front in `(k, layer)` order with the unheard nodes
    /// zero-filled — the same convention misfires get in the dataflow
    /// row stream — so [`PodSketch::rows`] counts them, their energy
    /// enters the certificate, and a truncated run's snapshot is
    /// bit-identical to a direct sketch of the explicitly zero-filled
    /// front matrix (pinned by
    /// `des_adapter_flushes_trailing_partial_fronts_on_finish`).
    ///
    /// # Panics
    ///
    /// Panics if `rank` is zero.
    pub fn for_des_grid(g: &LayeredGraph, offset: usize, rank: usize) -> Self {
        let mut s = Self::new(g, rank);
        s.des = Some(DesMap {
            offset,
            width: g.width(),
            layer_count: g.layer_count(),
            counts: vec![0; g.node_count()],
            rows: BTreeMap::new(),
        });
        s
    }

    /// Number of base-graph columns covered by this sketch.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// First base-graph column covered (see [`PodSketch::for_columns`]).
    pub fn col_start(&self) -> usize {
        self.col_start
    }

    /// Configured maximum number of retained modes.
    pub fn rank(&self) -> usize {
        self.max_rank
    }

    /// Front rows ingested so far (after [`PodSketch::merge`], a lower
    /// bound on the combined range's distinct fronts — see `merge`).
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// `Σ ‖row‖²` over all ingested rows — the squared Frobenius norm of
    /// the (implicit) pulse-front matrix.
    pub fn total_energy(&self) -> f64 {
        self.energy
    }

    /// Feeds one complete front row directly (length must equal
    /// [`PodSketch::cols`]). Useful for tests and for re-sketching
    /// matrices from other sources; equivalent to the observer paths.
    ///
    /// # Panics
    ///
    /// Panics if the sketch is finished, a streamed row is mid-assembly,
    /// or the length mismatches.
    pub fn push_row(&mut self, row: &[f64]) {
        assert!(!self.finished, "sketch is finished");
        assert!(
            self.cur.is_none(),
            "cannot push_row while a streamed row is mid-assembly"
        );
        assert_eq!(row.len(), self.cols, "row length mismatch");
        self.ingest_row(row);
    }

    fn ingest_row(&mut self, row: &[f64]) {
        let n2 = dot(row, row);
        self.energy += n2;
        let n = n2.sqrt();
        self.norm_sum += n;
        self.pending.extend_from_slice(row);
        self.pending_norms.push(n);
        self.pending_rows += 1;
        self.rows += 1;
        if self.pending_rows == self.block {
            self.flush_block();
        }
    }

    /// Completes the `on_pulse`-assembled row, if one is open.
    fn flush_row(&mut self) {
        if self.cur.take().is_none() {
            return;
        }
        let row = std::mem::take(&mut self.row);
        self.ingest_row(&row);
        self.row = row;
        self.row.fill(0.0);
    }

    /// The incremental update: project the pending block on the current
    /// basis, orthonormalize the residuals, re-diagonalize the small
    /// core by one-sided Jacobi, truncate to rank, and accumulate the
    /// truncated Frobenius mass into the certificate.
    fn flush_block(&mut self) {
        let b = self.pending_rows;
        if b == 0 {
            return;
        }
        let w = self.cols;
        let m = self.sv.len();

        // Coefficients of each pending row on the current basis, with
        // one re-orthogonalization pass (classical twice-is-enough);
        // pending rows become residuals in place. The mode loop is
        // outermost so each basis vector streams through the whole
        // pending panel while cache-hot (panel × basis blocked kernel).
        // Bit-identity with the row-outer order is structural: the
        // updates to row `i` are a pure function of that row's own
        // history (modes are read-only here), and row `i` still meets
        // the modes in the same `pass → j` sequence.
        let mut coeff = vec![0.0; b * m];
        for _pass in 0..2 {
            for j in 0..m {
                let u = &self.basis[j * w..(j + 1) * w];
                for i in 0..b {
                    let row = &mut self.pending[i * w..(i + 1) * w];
                    let c = dot(u, row);
                    coeff[i * m + j] += c;
                    for (r, &uv) in row.iter_mut().zip(u) {
                        *r -= c * uv;
                    }
                }
            }
        }

        // Modified Gram–Schmidt among the residual rows: rows whose
        // remainder is (relatively) negligible are dropped with their
        // true remainder norm charged to the certificate.
        let mut established: Vec<usize> = Vec::with_capacity(b);
        let mut lower = vec![0.0; b * b];
        let mut gs_drop2 = 0.0;
        for i in 0..b {
            for (epos, &e) in established.iter().enumerate() {
                for _pass in 0..2 {
                    let (head, tail) = self.pending.split_at_mut(i * w);
                    let qe = &head[e * w..(e + 1) * w];
                    let row = &mut tail[..w];
                    let l = dot(qe, row);
                    lower[i * b + epos] += l;
                    for (r, &qv) in row.iter_mut().zip(qe) {
                        *r -= l * qv;
                    }
                }
            }
            let row = &mut self.pending[i * w..(i + 1) * w];
            let rho = dot(row, row).sqrt();
            if rho > RHO_REL * self.pending_norms[i] && rho > 0.0 {
                for r in row.iter_mut() {
                    *r /= rho;
                }
                lower[i * b + established.len()] = rho;
                established.push(i);
            } else {
                gs_drop2 += rho * rho;
            }
        }
        let bp = established.len();

        // Core matrix K = [[diag(σ), 0], [P, L]] — (m+b) × (m+bp),
        // column-major — and its one-sided Jacobi factorization.
        let (kr, kc) = (m + b, m + bp);
        let mut kmat = vec![0.0; kr * kc];
        for j in 0..m {
            kmat[j * kr + j] = self.sv[j];
            for i in 0..b {
                kmat[j * kr + m + i] = coeff[i * m + j];
            }
        }
        for epos in 0..bp {
            for i in 0..b {
                kmat[(m + epos) * kr + m + i] = lower[i * b + epos];
            }
        }
        let mut vmat = vec![0.0; kc * kc];
        jacobi_orthogonalize(&mut kmat, &mut vmat, kr, kc);

        // Singular values = column norms, sorted descending
        // (deterministic index tiebreak); keep at most `max_rank`
        // strictly positive ones. `total_cmp` so a non-finite pulse time
        // (NaN propagates into the norms) degrades the sketch instead of
        // panicking the run — and stays deterministic either way.
        let mut order: Vec<usize> = (0..kc).collect();
        let norms: Vec<f64> = (0..kc)
            .map(|j| dot(&kmat[j * kr..(j + 1) * kr], &kmat[j * kr..(j + 1) * kr]).sqrt())
            .collect();
        order.sort_by(|&i, &j| norms[j].total_cmp(&norms[i]).then(i.cmp(&j)));
        let kept: Vec<usize> = order
            .iter()
            .copied()
            .take(self.max_rank)
            .filter(|&j| norms[j] > 0.0)
            .collect();
        // `order` is sorted descending with zeros at the tail, so the
        // dropped mass is exactly everything past the kept prefix.
        let mut dropped2 = gs_drop2;
        for &j in order.iter().skip(kept.len()) {
            dropped2 += norms[j] * norms[j];
        }
        self.discarded += dropped2.sqrt();

        // Rotate the basis: new mode j = Σ_i V[i, cj]·(old mode i | q̂).
        let mut new_basis = vec![0.0; kept.len() * w];
        for (out, &cj) in kept.iter().enumerate() {
            let dst_range = out * w..(out + 1) * w;
            for i in 0..m {
                let vij = vmat[cj * kc + i];
                if vij == 0.0 {
                    continue;
                }
                let u = &self.basis[i * w..(i + 1) * w];
                let dst = &mut new_basis[dst_range.clone()];
                for (d, &uv) in dst.iter_mut().zip(u) {
                    *d += vij * uv;
                }
            }
            for (epos, &e) in established.iter().enumerate() {
                let vij = vmat[cj * kc + m + epos];
                if vij == 0.0 {
                    continue;
                }
                let q = &self.pending[e * w..(e + 1) * w];
                let dst = &mut new_basis[dst_range.clone()];
                for (d, &qv) in dst.iter_mut().zip(q) {
                    *d += vij * qv;
                }
            }
        }
        self.basis = new_basis;
        self.sv = kept.iter().map(|&j| norms[j]).collect();
        self.pending.clear();
        self.pending_norms.clear();
        self.pending_rows = 0;
    }

    /// Deterministic roundoff allowance folded into the certificate: a
    /// generous multiple of `ε` times the per-row Gram–Schmidt work
    /// (`cols · (rank + block)` fused products) times `Σ ‖row‖`, so it
    /// scales with the data and dominates the true floating-point
    /// residual by orders of magnitude.
    fn slack(&self) -> f64 {
        SLACK_MARGIN
            * f64::EPSILON
            * ((self.cols * (self.max_rank + self.block + 2)) as f64)
            * self.norm_sum
    }

    /// Flushes any mid-assembly row, any pending out-of-order DES rows
    /// (in `(k, layer)` order, zero-filled where incomplete), and the
    /// pending block, then seals the certificate. Idempotent.
    pub fn finish(&mut self) {
        if self.finished {
            return;
        }
        if let Some(des) = self.des.as_mut() {
            let pending = std::mem::take(&mut des.rows);
            for (_, (row, _)) in pending {
                self.ingest_row(&row);
            }
        }
        self.flush_row();
        self.flush_block();
        self.finished = true;
        self.cert = self.discarded + self.slack();
    }

    /// The certified upper bound on `‖A − A·U·Uᵀ‖_F` (truncated mass
    /// plus the roundoff allowance; recomposed across [`PodSketch::merge`]).
    ///
    /// # Panics
    ///
    /// Panics unless [`PodSketch::finish`] ran.
    pub fn error_bound(&self) -> f64 {
        assert!(self.finished, "error_bound requires finish()");
        self.cert
    }

    /// Joins `other` — the sketch of the **adjacent** column range
    /// starting at `self.col_start() + self.cols()` — into `self`.
    ///
    /// Soundness: the parts' bases embed block-diagonally (disjoint
    /// supports keep the union orthonormal), so the union of the parts'
    /// factorizations is an exact factorization of `[Â₁ Â₂]`. Writing
    /// `c_i` for the parts' certificates and `D` for the modes dropped
    /// when truncating the union back to rank,
    ///
    /// ```text
    /// ‖A(I − UUᵀ)‖_F ≤ ‖A(I − P_full)‖_F + ‖A·Σ_D ûⱼûⱼᵀ‖_F
    ///               ≤ √(c₁² + c₂²) + √(Σ_D (σⱼ + c_part(j))²)
    /// ```
    ///
    /// using `‖A ûⱼ‖ ≤ ‖Âᵢ uⱼ‖ + ‖Eᵢ uⱼ‖ ≤ σⱼ + cᵢ`. The result is the
    /// new certificate; serial and chunked sketches therefore agree
    /// within the sum of their bounds (pinned by the `trix-obs`
    /// property tests).
    ///
    /// The merged row count is the **max** of the parts' counts, a
    /// *lower bound* on the distinct fronts of the combined range: a
    /// front that emitted nothing inside one partial's column range
    /// contributes no row there, and different fronts can be silent in
    /// different partials. The certificate does not depend on `rows`,
    /// so the bound above is unaffected.
    ///
    /// # Panics
    ///
    /// Panics unless both sketches are finished, ranks match, and the
    /// column ranges are adjacent.
    pub fn merge(&mut self, other: &PodSketch) {
        assert!(
            self.finished && other.finished,
            "merge requires finished sketches"
        );
        assert_eq!(self.max_rank, other.max_rank, "sketch ranks differ");
        assert_eq!(
            self.col_start + self.cols,
            other.col_start,
            "column ranges must be adjacent"
        );
        let (w1, w2) = (self.cols, other.cols);
        let w = w1 + w2;
        let mut cand: Vec<(f64, usize, usize)> = Vec::with_capacity(self.sv.len() + other.sv.len());
        cand.extend(self.sv.iter().enumerate().map(|(i, &s)| (s, 0, i)));
        cand.extend(other.sv.iter().enumerate().map(|(i, &s)| (s, 1, i)));
        cand.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));
        let keep = cand
            .iter()
            .take(self.max_rank)
            .filter(|&&(s, _, _)| s > 0.0)
            .count();
        let certs = [self.cert, other.cert];
        let mut drop2 = 0.0;
        for &(s, part, _) in &cand[keep..] {
            let t = s + certs[part];
            drop2 += t * t;
        }
        let mut basis = vec![0.0; keep * w];
        let mut sv = Vec::with_capacity(keep);
        for (out, &(s, part, idx)) in cand[..keep].iter().enumerate() {
            sv.push(s);
            let (src, off, pw) = if part == 0 {
                (&self.basis, 0, w1)
            } else {
                (&other.basis, w1, w2)
            };
            basis[out * w + off..out * w + off + pw]
                .copy_from_slice(&src[idx * pw..(idx + 1) * pw]);
        }
        self.basis = basis;
        self.sv = sv;
        self.cols = w;
        self.energy += other.energy;
        self.norm_sum += other.norm_sum;
        // Lower bound, not an exact union count — see the doc comment.
        self.rows = self.rows.max(other.rows);
        self.cert = self.cert.hypot(other.cert) + drop2.sqrt();
        self.discarded = self.cert;
    }

    /// Immutable snapshot of the finished sketch (basis, spectrum,
    /// certificate) — the artifact `BENCH_*.json` ships as schema v7.
    ///
    /// # Panics
    ///
    /// Panics unless [`PodSketch::finish`] ran.
    pub fn snapshot(&self) -> PodSnapshot {
        assert!(self.finished, "snapshot requires finish()");
        PodSnapshot {
            rank: self.max_rank,
            col_start: self.col_start,
            cols: self.cols,
            rows: self.rows,
            singular_values: self.sv.clone(),
            basis: self.basis.clone(),
            error_bound: self.cert,
            energy: self.energy,
        }
    }
}

impl Observer for PodSketch {
    #[inline]
    fn on_pulse(&mut self, k: usize, node: NodeId, t: Time) {
        let v = node.v as usize;
        if v < self.col_start || v >= self.col_start + self.cols {
            return;
        }
        let key = (k, node.layer);
        if self.cur != Some(key) {
            debug_assert!(
                self.cur.is_none_or(|c| c < key),
                "pulse emissions must arrive front-row-major"
            );
            self.flush_row();
            self.cur = Some(key);
        }
        self.row[v - self.col_start] = t.as_f64();
    }

    /// Row fast path: one key check and one dense fill per `(k, layer)`
    /// front instead of a dispatch + range check per element. Rows with
    /// no emission inside the sketch's column range contribute nothing
    /// (exactly as the per-element path, where such a front never opens
    /// a row), so the ingest sequence — and therefore every block
    /// boundary and the final certificate — is bit-identical to feeding
    /// the same stream through [`Observer::on_pulse`].
    fn on_pulse_row(&mut self, k: usize, layer: u32, row: &[Option<Time>]) {
        debug_assert!(
            row.len() >= self.col_start + self.cols,
            "row must cover the sketch's column range"
        );
        let span = &row[self.col_start..self.col_start + self.cols];
        if !span.iter().any(Option::is_some) {
            return;
        }
        debug_assert!(
            self.cur.is_none_or(|c| c < (k, layer)),
            "pulse emissions must arrive front-row-major"
        );
        // Complete any element-assembled predecessor, then ingest this
        // row immediately: with whole-row emission nothing can arrive
        // between "row complete" and "next row opens", so eager ingest
        // preserves the element path's ingest order.
        self.flush_row();
        for (slot, t) in self.row.iter_mut().zip(span) {
            *slot = t.map_or(0.0, Time::as_f64);
        }
        let buf = std::mem::take(&mut self.row);
        self.ingest_row(&buf);
        self.row = buf;
        self.row.fill(0.0);
    }

    fn on_broadcast(&mut self, node: usize, t: Time) {
        let Some(des) = self.des.as_mut() else {
            return;
        };
        if node < des.offset {
            return;
        }
        let idx = node - des.offset;
        if idx >= des.width * des.layer_count {
            return;
        }
        let k = des.counts[idx];
        des.counts[idx] += 1;
        let (layer, v) = ((idx / des.width) as u32, idx % des.width);
        if v < self.col_start || v >= self.col_start + self.cols {
            return;
        }
        let cols = self.cols;
        let entry = des
            .rows
            .entry((k, layer))
            .or_insert_with(|| (vec![0.0; cols], 0));
        entry.0[v - self.col_start] = t.as_f64();
        entry.1 += 1;
        let mut ready: Vec<Vec<f64>> = Vec::new();
        while let Some(front) = des.rows.first_entry() {
            if front.get().1 < cols {
                break;
            }
            ready.push(front.remove().0);
        }
        for row in ready {
            self.ingest_row(&row);
        }
    }
}

/// Immutable result of a finished [`PodSketch`]: the orthonormal spatial
/// basis, the singular spectrum, and the certified reconstruction-error
/// bound. This is the compressed trace artifact shipped in benchmark
/// records (schema v7) and consumed by `trix-analysis`'s mode analytics.
#[derive(Clone, Debug, PartialEq)]
pub struct PodSnapshot {
    /// Configured maximum number of retained modes.
    pub rank: usize,
    /// First base-graph column covered.
    pub col_start: usize,
    /// Number of base-graph columns covered.
    pub cols: usize,
    /// Front rows ingested. For a sketch assembled by
    /// [`PodSketch::merge`] this is the max of the parts' counts — a
    /// **lower bound** on the distinct fronts of the combined range,
    /// since a front silent in one partial's column range contributes no
    /// row there (the v7 JSON ships this value as-is).
    pub rows: u64,
    /// Singular values, descending.
    pub singular_values: Vec<f64>,
    /// Orthonormal basis, mode-major (`mode j = basis[j·cols..(j+1)·cols]`).
    pub basis: Vec<f64>,
    /// Certified upper bound on `‖A − A·U·Uᵀ‖_F`.
    pub error_bound: f64,
    /// `Σ ‖row‖²` — squared Frobenius norm of the sketched matrix.
    pub energy: f64,
}

impl PodSnapshot {
    /// Number of retained modes.
    pub fn modes(&self) -> usize {
        self.singular_values.len()
    }

    /// The `j`-th spatial mode (unit column vector over the covered
    /// columns).
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    pub fn mode(&self, j: usize) -> &[f64] {
        &self.basis[j * self.cols..(j + 1) * self.cols]
    }

    /// Energy captured by the retained spectrum, `Σ σⱼ²`.
    pub fn captured_energy(&self) -> f64 {
        self.singular_values.iter().map(|s| s * s).sum()
    }

    /// Projection coefficients `Uᵀ·row` of one front row.
    ///
    /// # Panics
    ///
    /// Panics if the row length mismatches [`PodSnapshot::cols`].
    pub fn coefficients(&self, row: &[f64]) -> Vec<f64> {
        assert_eq!(row.len(), self.cols, "row length mismatch");
        (0..self.modes()).map(|j| dot(self.mode(j), row)).collect()
    }

    /// Squared residual `‖row − U·Uᵀ·row‖²` of one front row — summed
    /// over all rows of the matrix this is the measured squared
    /// Frobenius reconstruction error that [`PodSnapshot::error_bound`]
    /// certifies (see the `exp_modes` oracle).
    ///
    /// # Panics
    ///
    /// Panics if the row length mismatches [`PodSnapshot::cols`].
    pub fn residual_sq(&self, row: &[f64]) -> f64 {
        let coeffs = self.coefficients(row);
        let mut resid: Vec<f64> = row.to_vec();
        for (j, &c) in coeffs.iter().enumerate() {
            for (r, &uv) in resid.iter_mut().zip(self.mode(j)) {
                *r -= c * uv;
            }
        }
        dot(&resid, &resid)
    }

    /// Serialized footprint of the compressed artifact in bytes
    /// (`8·(basis + spectrum)` plus fixed headers) — the numerator of
    /// the README's compression ratios.
    pub fn approx_bytes(&self) -> usize {
        8 * (self.basis.len() + self.singular_values.len()) + 64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trix_topology::BaseGraph;

    fn grid(width: usize, layers: usize) -> LayeredGraph {
        LayeredGraph::new(BaseGraph::cycle(width), layers)
    }

    /// Deterministic pseudo-random matrix entries (splitmix-style).
    fn synth(i: u64) -> f64 {
        let mut z = i.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z >> 11) as f64) / ((1u64 << 53) as f64)
    }

    fn frob_residual(snap: &PodSnapshot, rows: &[Vec<f64>]) -> f64 {
        rows.iter().map(|r| snap.residual_sq(r)).sum::<f64>().sqrt()
    }

    #[test]
    fn exact_on_low_rank_data() {
        let g = grid(6, 3);
        let mut sk = PodSketch::new(&g, 3);
        let rows: Vec<Vec<f64>> = (0..10)
            .map(|i| {
                let (a, b) = (1.0 + i as f64, (i % 3) as f64);
                (0..6).map(|v| a * (v as f64 + 1.0) + b).collect()
            })
            .collect();
        for r in &rows {
            sk.push_row(r);
        }
        sk.finish();
        let snap = sk.snapshot();
        assert!(snap.modes() <= 3);
        let measured = frob_residual(&snap, &rows);
        assert!(
            measured <= snap.error_bound,
            "{measured} > {}",
            snap.error_bound
        );
        assert!(snap.error_bound < 1e-6, "rank-2 data should not truncate");
    }

    #[test]
    fn certificate_bounds_measured_error_under_truncation() {
        let g = grid(7, 3);
        for rank in [1, 2, 4] {
            let mut sk = PodSketch::new(&g, rank);
            let rows: Vec<Vec<f64>> = (0..23)
                .map(|i| (0..7).map(|v| 10.0 * synth((i * 7 + v) as u64)).collect())
                .collect();
            for r in &rows {
                sk.push_row(r);
            }
            sk.finish();
            let snap = sk.snapshot();
            let measured = frob_residual(&snap, &rows);
            assert!(
                measured <= snap.error_bound,
                "rank {rank}: measured {measured} exceeds certificate {}",
                snap.error_bound
            );
            assert!(snap.error_bound > 0.0);
            // The bound is an over-estimate but not vacuous: it stays
            // below the total Frobenius mass of random data.
            assert!(snap.error_bound < snap.energy.sqrt());
        }
    }

    #[test]
    fn merged_column_ranges_stay_certified() {
        let g = grid(8, 3);
        let rows: Vec<Vec<f64>> = (0..17)
            .map(|i| (0..8).map(|v| 5.0 * synth((i * 11 + v) as u64)).collect())
            .collect();
        for rank in [2, 8] {
            let mut whole = PodSketch::new(&g, rank);
            let mut left = PodSketch::for_columns(&g, rank, 0..3);
            let mut right = PodSketch::for_columns(&g, rank, 3..8);
            for r in &rows {
                whole.push_row(r);
                left.push_row(&r[..3]);
                right.push_row(&r[3..]);
            }
            whole.finish();
            left.finish();
            right.finish();
            left.merge(&right);
            assert_eq!(left.cols(), 8);
            let merged = left.snapshot();
            let snap = whole.snapshot();
            assert!((merged.energy - snap.energy).abs() < 1e-9);
            let m_measured = frob_residual(&merged, &rows);
            let w_measured = frob_residual(&snap, &rows);
            assert!(m_measured <= merged.error_bound);
            assert!(w_measured <= snap.error_bound);
            // Projections of the two sketches agree within the sum of
            // the certificates (triangle inequality on A·P₁ − A·P₂).
            assert!((m_measured - w_measured).abs() <= merged.error_bound + snap.error_bound);
        }
    }

    #[test]
    fn observer_assembles_rows_in_pulse_order() {
        let g = grid(4, 2);
        let mut streamed = PodSketch::new(&g, 4);
        let mut direct = PodSketch::new(&g, 4);
        // Pulse 0, layer 0: all four; layer 1: v=2 misfires (skipped).
        for (k, layer, v, t) in [
            (0usize, 0u32, 0u32, 10.0),
            (0, 0, 1, 11.0),
            (0, 0, 2, 12.0),
            (0, 0, 3, 13.0),
            (0, 1, 0, 20.0),
            (0, 1, 1, 21.0),
            (0, 1, 3, 23.0),
            (1, 0, 0, 30.0),
            (1, 0, 1, 31.0),
            (1, 0, 2, 32.0),
            (1, 0, 3, 33.0),
        ] {
            streamed.on_pulse(k, NodeId::new(v, layer), Time::from(t));
        }
        streamed.finish();
        direct.push_row(&[10.0, 11.0, 12.0, 13.0]);
        direct.push_row(&[20.0, 21.0, 0.0, 23.0]); // misfire → 0.0 fill
        direct.push_row(&[30.0, 31.0, 32.0, 33.0]);
        direct.finish();
        assert_eq!(streamed.snapshot(), direct.snapshot());
        assert_eq!(streamed.rows(), 3);
    }

    #[test]
    fn des_adapter_reorders_broadcasts_into_front_rows() {
        let g = grid(3, 2);
        let mut des = PodSketch::for_des_grid(&g, 1, 3);
        // Engine ids: offset 1, node (v, ℓ) = 1 + ℓ·3 + v. Interleave
        // two fronts out of order; engine 0 (clock) is ignored.
        des.on_broadcast(0, Time::from(999.0));
        des.on_broadcast(1, Time::from(10.0)); // (0,0) k=0
        des.on_broadcast(2, Time::from(11.0)); // (1,0) k=0
        des.on_broadcast(4, Time::from(20.0)); // (0,1) k=0
        des.on_broadcast(3, Time::from(12.0)); // (2,0) k=0 → row (0,0) completes
        des.on_broadcast(5, Time::from(21.0)); // (1,1) k=0
        des.on_broadcast(1, Time::from(40.0)); // (0,0) k=1
        des.on_broadcast(6, Time::from(22.0)); // (2,1) k=0 → row (0,1) completes
        des.finish(); // row (1,0) flushes zero-filled
        let mut direct = PodSketch::new(&g, 3);
        direct.push_row(&[10.0, 11.0, 12.0]);
        direct.push_row(&[20.0, 21.0, 22.0]);
        direct.push_row(&[40.0, 0.0, 0.0]);
        direct.finish();
        assert_eq!(des.snapshot(), direct.snapshot());
    }

    /// The documented flush-on-finish contract for truncated runs: a
    /// stream that ends with several partially-assembled fronts (here a
    /// complete pulse 0 and a pulse 1 heard from only two nodes across
    /// two layers) flushes them zero-filled in `(k, layer)` order
    /// rather than dropping them — row count, energy, and the whole
    /// snapshot match a direct sketch of the explicit matrix.
    #[test]
    fn des_adapter_flushes_trailing_partial_fronts_on_finish() {
        let g = grid(3, 2);
        let mut des = PodSketch::for_des_grid(&g, 1, 2);
        // Complete pulse-0 fronts for both layers (ids 1..=6)...
        for (idx, t) in [10.0, 11.0, 12.0, 20.0, 21.0, 22.0].iter().enumerate() {
            des.on_broadcast(1 + idx, Time::from(*t));
        }
        // ...then a truncated pulse 1: only (v=1, ℓ=0) and (v=2, ℓ=1)
        // get their broadcasts out before the run stops.
        des.on_broadcast(2, Time::from(41.0));
        des.on_broadcast(6, Time::from(52.0));
        assert_eq!(
            des.rows(),
            2,
            "only the complete pulse-0 fronts ingested so far"
        );
        des.finish();
        assert_eq!(
            des.rows(),
            4,
            "both trailing partial fronts flushed, not dropped"
        );

        let mut direct = PodSketch::new(&g, 2);
        direct.push_row(&[10.0, 11.0, 12.0]);
        direct.push_row(&[20.0, 21.0, 22.0]);
        direct.push_row(&[0.0, 41.0, 0.0]); // (k=1, ℓ=0), zero-filled
        direct.push_row(&[0.0, 0.0, 52.0]); // (k=1, ℓ=1), zero-filled
        direct.finish();
        assert_eq!(des.total_energy(), direct.total_energy());
        assert_eq!(des.snapshot(), direct.snapshot());
    }

    #[test]
    fn identical_streams_are_bit_identical() {
        let g = grid(5, 4);
        let run = || {
            let mut sk = PodSketch::new(&g, 2);
            for i in 0..13u64 {
                let row: Vec<f64> = (0..5).map(|v| 3.0 * synth(i * 5 + v)).collect();
                sk.push_row(&row);
            }
            sk.finish();
            sk.snapshot()
        };
        let (a, b) = (run(), run());
        assert_eq!(
            a.basis.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            b.basis.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        );
        assert_eq!(
            a.singular_values
                .iter()
                .map(|x| x.to_bits())
                .collect::<Vec<_>>(),
            b.singular_values
                .iter()
                .map(|x| x.to_bits())
                .collect::<Vec<_>>()
        );
        assert_eq!(a.error_bound.to_bits(), b.error_bound.to_bits());
    }

    #[test]
    fn basis_stays_orthonormal() {
        let g = grid(9, 3);
        let mut sk = PodSketch::new(&g, 4);
        for i in 0..40u64 {
            let row: Vec<f64> = (0..9).map(|v| synth(i * 9 + v)).collect();
            sk.push_row(&row);
        }
        sk.finish();
        let snap = sk.snapshot();
        for a in 0..snap.modes() {
            for b in 0..snap.modes() {
                let d = dot(snap.mode(a), snap.mode(b));
                let want = if a == b { 1.0 } else { 0.0 };
                assert!((d - want).abs() < 1e-10, "U^T U [{a}][{b}] = {d}");
            }
        }
        // Spectrum is sorted descending.
        for pair in snap.singular_values.windows(2) {
            assert!(pair[0] >= pair[1]);
        }
    }

    #[test]
    fn finish_is_idempotent() {
        let g = grid(3, 2);
        let mut sk = PodSketch::new(&g, 2);
        sk.push_row(&[1.0, 2.0, 3.0]);
        sk.finish();
        let first = sk.snapshot();
        sk.finish();
        assert_eq!(first, sk.snapshot());
    }

    #[test]
    #[should_panic(expected = "snapshot requires finish()")]
    fn snapshot_requires_finish() {
        let g = grid(3, 2);
        PodSketch::new(&g, 2).snapshot();
    }

    #[test]
    #[should_panic(expected = "rank must be positive")]
    fn zero_rank_is_rejected() {
        let g = grid(3, 2);
        PodSketch::new(&g, 0);
    }
}
