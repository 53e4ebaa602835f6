//! Online low-rank sketching of the pulse-front matrix: an incremental
//! POD (proper orthogonal decomposition) observer with a certified
//! reconstruction-error bound.
//!
//! The streaming skew monitor answers summary questions in `O(nodes)`
//! memory but cannot answer *where* skew waves originate — that needs the
//! pulse-front matrix `A` (one row per pulse step `(k, ℓ)`, one column
//! per base-graph position `v`, entries the nominal emission times that
//! [`trix_sim::PulseTrace::time`] would record, `0.0` where the rule
//! misfired). [`PodSketch`] maintains a rank-`r` incremental SVD sketch
//! of `A` in `O(width × r)` memory while the engines stream: each
//! completed front row is Gram–Schmidt-projected against the current
//! orthonormal column basis `U`, the small `(m+b)×(m+b')` core matrix is
//! re-diagonalized by a hand-rolled SVD (a column-pivoted Householder QR,
//! then one-sided Jacobi on the square triangular factor, with no
//! rotation matrix accumulated), and the smallest singular directions
//! are truncated with their Frobenius mass accumulated into a running
//! certificate.
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
//! worst-case backward-error bound for the Gram–Schmidt/QR/Jacobi
//! pipeline. `measured ≤ certified` is therefore guaranteed-as-tested,
//! not proven for arbitrary inputs: it is *checked against measured
//! residuals* by the workspace test-suite and by the `exp_modes`
//! experiment oracle on streamed grids up to width 3200, and workloads
//! far outside that envelope (vastly larger widths/row counts,
//! adversarial conditioning) could in principle outrun the slack.
//!
//! # Determinism
//!
//! Both dataflow engines flush published rows on the calling thread in
//! serial `(k, layer)` order, so a sketch observing a run is
//! **byte-identical across the serial and frontier engines for any
//! `--sim-threads` value** — the same determinism leg every other
//! observer lives under. The sketch takes one row stream, the one the
//! incremental-POD error analysis above is stated for. The update itself
//! is a fixed-order fold (block boundaries, pass counts, the core SVD's
//! pivot and sweep order, the eight-lane dot), so equal row streams give
//! equal bits.

use trix_sim::Observer;
use trix_time::Time;
use trix_topology::LayeredGraph;

/// Relative threshold below which a Gram–Schmidt residual direction is
/// treated as linearly dependent (its true norm is folded into the
/// certificate instead of spawning a new basis vector).
const RHO_REL: f64 = 1e-13;

/// Relative off-diagonal threshold for the one-sided Jacobi sweep.
const JACOBI_REL: f64 = 1e-15;

/// Hard cap on Jacobi sweeps (converges in a handful on the pivoted
/// triangular factors of the near-arrowhead cores this module produces).
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

/// Singular values and right singular vectors of the column-major
/// `rows × cols` core `k` (`rows ≥ cols`), which it overwrites.
///
/// Three steps, none of which forms a rotation matrix:
///
/// 1. Householder QR with column pivoting, `K·Π = Q·R`, each step
///    pivoting on the trailing column of largest remaining norm (the
///    first on ties); `Q` is applied to the trailing columns and never
///    formed.
/// 2. One-sided Jacobi on the square `Rᵀ` (column `i` is row `i` of
///    `R`), in the cyclic `(p, q)` order, until a sweep rotates no pair
///    by [`JACOBI_REL`] (at most [`MAX_SWEEPS`]). The squared column
///    norms are recomputed at the start of each sweep and carried
///    across it by the rotation's own update (`α − tγ`, `β + tγ`), so a
///    pair costs one dot and one rotation. Pivoting grades `R`'s rows,
///    so `Rᵀ`'s columns start nearly orthogonal.
/// 3. `Rᵀ·J = Y` with orthogonal columns gives `R = J·Σ·Xᵀ` with
///    `σ_j = ‖y_j‖` and `x_j = y_j/σ_j`, so `K = (Q·J)·Σ·(Π·X)ᵀ`.
///
/// Returns `σ` (one per column of `K`, unsorted) and the column-major
/// `cols × cols` matrix `V = Π·X`, whose column `j` belongs to `σ_j`; a
/// column with `σ_j = 0` stays zero. Jacobi on `Kᵀ` directly would not
/// do: when `K` has more rows than columns, `Kᵀ`'s surplus columns never
/// become orthogonal and their normalized columns are no basis. Pivot
/// order, sweep order and thresholds are fixed, so the result is
/// bit-deterministic in its input.
fn core_svd(k: &mut [f64], rows: usize, cols: usize) -> (Vec<f64>, Vec<f64>) {
    debug_assert_eq!(k.len(), rows * cols);
    debug_assert!(rows >= cols);
    let mut perm: Vec<usize> = (0..cols).collect();
    for j in 0..cols {
        let trailing = |c: usize| {
            let col = &k[c * rows + j..(c + 1) * rows];
            dot(col, col)
        };
        let (mut piv, mut best) = (j, trailing(j));
        for c in j + 1..cols {
            let n2 = trailing(c);
            if n2 > best {
                (piv, best) = (c, n2);
            }
        }
        if best == 0.0 {
            // Every trailing column is zero: so are R's remaining rows.
            break;
        }
        if piv != j {
            let (left, right) = k.split_at_mut(piv * rows);
            left[j * rows..(j + 1) * rows].swap_with_slice(&mut right[..rows]);
            perm.swap(j, piv);
        }
        let (head, tail) = k.split_at_mut((j + 1) * rows);
        let x = &mut head[j * rows + j..];
        let norm = best.sqrt();
        let alpha = if x[0] >= 0.0 { -norm } else { norm };
        // H = I − v·vᵀ/(−α·v₀) with v = x − α·e₀ maps x to α·e₀.
        x[0] -= alpha;
        let scale = alpha * x[0];
        for c in 0..cols - j - 1 {
            let y = &mut tail[c * rows + j..(c + 1) * rows];
            let f = dot(x, y) / scale;
            for (yi, &vi) in y.iter_mut().zip(x.iter()) {
                *yi += f * vi;
            }
        }
        x[0] = alpha;
    }

    // Rᵀ, column-major: column i holds R[i][i..] (R's upper triangle).
    let mut y = vec![0.0; cols * cols];
    for i in 0..cols {
        for c in i..cols {
            y[i * cols + c] = k[c * rows + i];
        }
    }
    let mut norms2 = vec![0.0; cols];
    for _ in 0..MAX_SWEEPS {
        for (j, n2) in norms2.iter_mut().enumerate() {
            let col = &y[j * cols..(j + 1) * cols];
            *n2 = dot(col, col);
        }
        let mut rotated = false;
        for p in 0..cols.saturating_sub(1) {
            for q in p + 1..cols {
                let (cp, rest) = y[p * cols..].split_at_mut(cols);
                let cq = &mut rest[(q - p - 1) * cols..(q - p) * cols];
                let (alpha, beta) = (norms2[p], norms2[q]);
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
                for (x, z) in cp.iter_mut().zip(cq.iter_mut()) {
                    let (a, b) = (*x, *z);
                    *x = c * a - s * b;
                    *z = s * a + c * b;
                }
                norms2[p] = alpha - t * gamma;
                norms2[q] = beta + t * gamma;
                rotated = true;
            }
        }
        if !rotated {
            break;
        }
    }

    let mut sigma = vec![0.0; cols];
    let mut v = vec![0.0; cols * cols];
    for (j, s) in sigma.iter_mut().enumerate() {
        let col = &y[j * cols..(j + 1) * cols];
        *s = dot(col, col).sqrt();
        if *s > 0.0 {
            for (i, &yi) in col.iter().enumerate() {
                v[j * cols + perm[i]] = yi / *s;
            }
        }
    }
    (sigma, v)
}

/// Streaming rank-`r` incremental POD sketch of the pulse-front matrix.
///
/// See the module-level docs in `sketch.rs` for the matrix definition,
/// the certified bound, and the determinism contract. Rows can be fed
/// in two equivalent ways:
///
/// * as a dataflow [`Observer`], whole published rows through
///   [`Observer::on_pulse_row`] (both drivers emit that way; the
///   sketch's `on_pulse` is the trait's no-op);
/// * directly with [`PodSketch::push_row`].
///
/// A `(k, layer)` front with *no* emissions contributes no row; rows
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
    /// Certified bound, valid once finished.
    cert: f64,
    finished: bool,
    /// The row being ingested, misfires zero-filled.
    row: Vec<f64>,
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
        assert!(rank > 0, "PodSketch rank must be positive");
        let cols = g.width();
        // Panel size trades the core SVD against flush frequency: each
        // flush factors an (r + b_p)-column core whose cost grows superlinearly
        // in the panel, so at high ranks half-rank panels are cheaper per row
        // even though they flush twice as often.  The floor of 8 keeps small
        // ranks on the seed schedule — shrinking it further multiplies the
        // per-flush `discarded` terms and visibly loosens the certificate.
        let block = (rank / 2).max(8);
        Self {
            max_rank: rank,
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
            row: vec![0.0; cols],
            pending: Vec::with_capacity(block * cols),
            pending_norms: Vec::with_capacity(block),
            pending_rows: 0,
        }
    }

    /// Number of base-graph columns covered by this sketch.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Configured maximum number of retained modes.
    pub fn rank(&self) -> usize {
        self.max_rank
    }

    /// Front rows ingested so far.
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// Feeds one complete front row directly (length must equal
    /// [`PodSketch::cols`]). Useful for tests and for re-sketching
    /// matrices from other sources; equivalent to the observer path.
    ///
    /// # Panics
    ///
    /// Panics if the sketch is finished or the length mismatches.
    pub fn push_row(&mut self, row: &[f64]) {
        assert!(!self.finished, "sketch is finished");
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

    /// The incremental update: project the pending block on the current
    /// basis, orthonormalize the residuals, re-diagonalize the small
    /// core ([`core_svd`]), truncate to rank, and accumulate the
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
        // column-major — and its singular value decomposition.
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
        let (sigma, vmat) = core_svd(&mut kmat, kr, kc);

        // Singular values sorted descending (deterministic index
        // tiebreak); keep at most `max_rank` strictly positive ones.
        // `total_cmp` so a non-finite pulse time (NaN propagates into
        // the spectrum) degrades the sketch instead of panicking the run
        // — and stays deterministic either way.
        let mut order: Vec<usize> = (0..kc).collect();
        order.sort_by(|&i, &j| sigma[j].total_cmp(&sigma[i]).then(i.cmp(&j)));
        let kept: Vec<usize> = order
            .iter()
            .copied()
            .take(self.max_rank)
            .filter(|&j| sigma[j] > 0.0)
            .collect();
        // `order` is sorted descending with zeros at the tail, so the
        // dropped mass is exactly everything past the kept prefix.
        let mut dropped2 = gs_drop2;
        for &j in order.iter().skip(kept.len()) {
            dropped2 += sigma[j] * sigma[j];
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
        self.sv = kept.iter().map(|&j| sigma[j]).collect();
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

    /// Flushes the pending block, then seals the certificate.
    /// Idempotent.
    pub fn finish(&mut self) {
        if self.finished {
            return;
        }
        self.flush_block();
        self.finished = true;
        self.cert = self.discarded + self.slack();
    }

    /// The certified upper bound on `‖A − A·U·Uᵀ‖_F` (truncated mass
    /// plus the roundoff allowance).
    ///
    /// # Panics
    ///
    /// Panics unless [`PodSketch::finish`] ran.
    pub fn error_bound(&self) -> f64 {
        assert!(self.finished, "error_bound requires finish()");
        self.cert
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
            col_start: 0,
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
    /// One dense fill per `(k, layer)` front, misfires zero-filled.
    /// Rows with no emission contribute nothing, so the block boundaries,
    /// and with them every bit of the result, depend only on the fronts
    /// that carried a pulse.
    fn on_pulse_row(&mut self, _k: usize, _layer: u32, row: &[Option<Time>]) {
        let span = &row[..self.cols];
        if !span.iter().any(Option::is_some) {
            return;
        }
        for (slot, t) in self.row.iter_mut().zip(span) {
            *slot = t.map_or(0.0, Time::as_f64);
        }
        let buf = std::mem::take(&mut self.row);
        self.ingest_row(&buf);
        self.row = buf;
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
    /// First base-graph column covered: always 0, since a sketch covers
    /// every column (the field stays for readers of snapshots).
    pub col_start: usize,
    /// Number of base-graph columns covered.
    pub cols: usize,
    /// Front rows ingested.
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
    use proptest::prelude::*;
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

    /// The accumulating one-sided Jacobi that [`core_svd`] replaced, kept
    /// as its oracle: rotates the columns of the column-major
    /// `rows × cols` core `k` until they are orthogonal, accumulating the
    /// rotations into `V`; `σ` are the final column norms.
    fn reference_core_svd(k: &[f64], rows: usize, cols: usize) -> (Vec<f64>, Vec<f64>) {
        let mut a = k.to_vec();
        let mut v = vec![0.0; cols * cols];
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
        let sigma = (0..cols)
            .map(|j| dot(&a[j * rows..(j + 1) * rows], &a[j * rows..(j + 1) * rows]).sqrt())
            .collect();
        (sigma, v)
    }

    /// A core shaped like a flush's, `[[diag σ, 0], [P, L]]`
    /// (`(m+b) × (m+bp)`, column-major): `σ` descending and graded from
    /// 1e8 to 1e-3, `P` random with entries of every magnitude in that
    /// range, `L` random lower-triangular; `zero_rows` rows of `[P, L]`
    /// zeroed and, if `dup`, one column copied onto another.
    fn flush_core(
        seed: u64,
        (m, b, bp): (usize, usize, usize),
        zero_rows: usize,
        dup: bool,
    ) -> Vec<f64> {
        let (kr, kc) = (m + b, m + bp);
        let mut draw = {
            let mut i = seed.wrapping_mul(1 << 20);
            move || {
                i += 1;
                synth(i)
            }
        };
        let mut k = vec![0.0; kr * kc];
        for j in 0..m {
            let grade = if m > 1 {
                j as f64 / (m - 1) as f64
            } else {
                0.0
            };
            k[j * kr + j] = 1e8 * 1e-11f64.powf(grade);
            for i in 0..b {
                let magnitude = 10f64.powf(-3.0 + 11.0 * draw());
                k[j * kr + m + i] = (2.0 * draw() - 1.0) * magnitude;
            }
        }
        for e in 0..bp {
            for i in e..b {
                k[(m + e) * kr + m + i] = 2.0 * draw() - 1.0;
            }
        }
        for _ in 0..zero_rows.min(b) {
            let i = m + (draw() * b as f64) as usize;
            for j in 0..kc {
                k[j * kr + i] = 0.0;
            }
        }
        if dup && kc >= 2 {
            let from = (draw() * kc as f64) as usize;
            let to = (from + 1 + (draw() * (kc - 1) as f64) as usize) % kc;
            k.copy_within(from * kr..(from + 1) * kr, to * kr);
        }
        k
    }

    proptest! {
        /// `core_svd` on flush-shaped cores (`m = 0`, `bp < b`, zero rows,
        /// duplicated columns and the all-zero core among them): `V`'s
        /// columns with `σ_j > 0` are orthonormal, `‖K·v_j‖ = σ_j`,
        /// `Σσ² = ‖K‖_F²`, and the spectrum is the accumulating Jacobi's,
        /// each to roundoff.
        #[test]
        fn core_svd_is_an_svd_with_the_reference_spectrum(
            seed in any::<u64>(),
            m in 0usize..=16,
            b in 1usize..=8,
            short in 0usize..=3,
            zero_rows in 0usize..=2,
            dup in any::<bool>(),
            zero_core in 0u8..16,
        ) {
            let bp = b.saturating_sub(short);
            let (kr, kc) = (m + b, m + bp);
            let mut k = flush_core(seed, (m, b, bp), zero_rows, dup);
            if zero_core == 0 {
                k.fill(0.0);
            }
            let (sigma, v) = core_svd(&mut k.clone(), kr, kc);
            let (mut reference, _) = reference_core_svd(&k, kr, kc);
            prop_assert_eq!(sigma.len(), kc);
            let n = kc as f64;
            let energy = dot(&k, &k);
            let tol = 64.0 * n * f64::EPSILON * energy.sqrt();
            let col = |j: usize| &v[j * kc..(j + 1) * kc];
            for (j, &s) in sigma.iter().enumerate() {
                prop_assert!(s.is_finite() && s >= 0.0, "sigma[{}] = {}", j, s);
                if s == 0.0 {
                    prop_assert!(col(j).iter().all(|&x| x == 0.0), "column {} not zero", j);
                    continue;
                }
                for (i, &si) in sigma.iter().enumerate() {
                    if si > 0.0 {
                        let want = if i == j { 1.0 } else { 0.0 };
                        let d = dot(col(i), col(j));
                        prop_assert!((d - want).abs() <= 1e-13 * n, "VᵀV[{}][{}] = {}", i, j, d);
                    }
                }
                let kv: Vec<f64> = (0..kr)
                    .map(|r| (0..kc).map(|c| k[c * kr + r] * col(j)[c]).sum())
                    .collect();
                let kv_norm = dot(&kv, &kv).sqrt();
                prop_assert!((kv_norm - s).abs() <= tol, "‖K·v_{}‖ = {} against σ = {}", j, kv_norm, s);
            }
            let sum2: f64 = sigma.iter().map(|s| s * s).sum();
            prop_assert!(
                (sum2 - energy).abs() <= 64.0 * n * f64::EPSILON * energy,
                "Σσ² = {} against ‖K‖_F² = {}", sum2, energy
            );
            let mut sorted = sigma.clone();
            sorted.sort_by(|a, b| b.total_cmp(a));
            reference.sort_by(|a, b| b.total_cmp(a));
            let smax = sorted.first().copied().unwrap_or(0.0);
            for (i, (s, r)) in sorted.iter().zip(&reference).enumerate() {
                prop_assert!(
                    (s - r).abs() <= 64.0 * n * f64::EPSILON * smax,
                    "σ_{} = {} against the reference {}", i, s, r
                );
            }
        }
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
    fn observer_assembles_rows_in_pulse_order() {
        let g = grid(4, 2);
        let mut streamed = PodSketch::new(&g, 4);
        let mut direct = PodSketch::new(&g, 4);
        let t = |x: f64| Some(Time::from(x));
        // Pulse 0, layer 0: all four; layer 1: v=2 misfires; pulse 1,
        // layer 0: all four; pulse 1, layer 1: silent (no row).
        streamed.on_pulse_row(0, 0, &[t(10.0), t(11.0), t(12.0), t(13.0)]);
        streamed.on_pulse_row(0, 1, &[t(20.0), t(21.0), None, t(23.0)]);
        streamed.on_pulse_row(1, 0, &[t(30.0), t(31.0), t(32.0), t(33.0)]);
        streamed.on_pulse_row(1, 1, &[None; 4]);
        streamed.finish();
        direct.push_row(&[10.0, 11.0, 12.0, 13.0]);
        direct.push_row(&[20.0, 21.0, 0.0, 23.0]); // misfire → 0.0 fill
        direct.push_row(&[30.0, 31.0, 32.0, 33.0]);
        direct.finish();
        assert_eq!(streamed.snapshot(), direct.snapshot());
        assert_eq!(streamed.rows(), 3);
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
    fn non_finite_rows_give_a_non_finite_certificate() {
        let g = grid(6, 3);
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1e300] {
            let mut sk = PodSketch::new(&g, 4);
            for i in 0..20u64 {
                let mut row: Vec<f64> = (0..6).map(|v| 5.0 * synth(i * 6 + v)).collect();
                if i == 7 {
                    row[2] = bad;
                }
                sk.push_row(&row);
            }
            sk.finish();
            let bound = sk.error_bound();
            assert!(!bound.is_finite(), "entry {bad}: error bound {bound}");
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
