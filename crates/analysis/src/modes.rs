//! Mode analytics on top of [`trix_obs::PodSketch`] snapshots: dominant
//! skew/wavefront modes, their spatial origin, and a wave-velocity
//! estimate — the post-mortem questions the streaming skew monitor
//! alone cannot answer.
//!
//! The sketch's spatial basis answers *where* (each mode is a unit
//! vector over base-graph columns); recovering *how the modes move*
//! needs the per-row projection coefficients, which the sketch does not
//! retain. [`ModeProbe`] is a second-pass observer for exactly that: it
//! re-runs the identical deterministic workload against a finished
//! [`PodSnapshot`], accumulating in `O(width + modes · pulses)` memory
//!
//! * the **measured** Frobenius reconstruction residual
//!   `‖A − A·U·Uᵀ‖_F` (the quantity the sketch's certificate bounds —
//!   the `exp_modes` oracle asserts `measured ≤ certified` on every
//!   scenario), and
//! * per-(mode, pulse) energy centroids across layers, from which
//!   [`ModeReport`] fits each mode's **wave velocity** in layers per
//!   pulse by least squares.

use trix_obs::PodSnapshot;
use trix_sim::Observer;
use trix_time::Time;

/// Per-mode analytics extracted by [`ModeProbe::into_report`].
#[derive(Clone, Debug, PartialEq)]
pub struct ModeSummary {
    /// The mode's singular value.
    pub sigma: f64,
    /// `σ² / Σσ²` — fraction of the *captured* energy in this mode.
    pub energy_fraction: f64,
    /// Base-graph column where the mode's amplitude peaks.
    pub origin_col: usize,
    /// Amplitude-weighted center of mass of the mode over columns
    /// (`Σ v·u(v)² / Σ u(v)²`, in column units).
    pub origin_centroid: f64,
    /// Least-squares slope of the mode's layer-energy centroid across
    /// pulses, in layers per pulse; `None` if fewer than two pulses
    /// carried energy in this mode.
    pub velocity: Option<f64>,
}

/// Result of a [`ModeProbe`] second pass over a sketched workload.
#[derive(Clone, Debug, PartialEq)]
pub struct ModeReport {
    /// Per-mode analytics, in the snapshot's (descending-σ) order.
    pub modes: Vec<ModeSummary>,
    /// Measured Frobenius reconstruction residual `‖A − A·U·Uᵀ‖_F`.
    /// Sound sketches satisfy `measured_error ≤` the snapshot's
    /// `error_bound` — the `exp_modes` oracle.
    pub measured_error: f64,
    /// Front rows the probe consumed (should match the sketch's).
    pub rows: u64,
}

/// Second-pass observer measuring reconstruction error and mode motion
/// against a finished [`PodSnapshot`].
///
/// Feed it the *same* row stream that built the sketch (both dataflow
/// drivers stream deterministically, so re-running the workload
/// reproduces the stream bit-for-bit), then call
/// [`ModeProbe::into_report`]. It takes whole rows through
/// [`Observer::on_pulse_row`], as the sketch does: one row per
/// `(k, layer)` front with at least one emission, zero-filled at
/// misfires, each folded once, as it arrives.
#[derive(Clone, Debug)]
pub struct ModeProbe {
    snap: PodSnapshot,
    /// The current row, zero-filled at misfires.
    row: Vec<f64>,
    rows: u64,
    resid2: f64,
    /// Flattened per-(pulse, mode) accumulators, grown on demand.
    /// Pulse-major (`layer_mass[k·modes + j] = Σ_ℓ p²`,
    /// `layer_first_moment[...] = Σ_ℓ ℓ·p²`): the mode count is fixed by
    /// the snapshot, so growing the pulse count appends whole new pulse
    /// blocks and already-accumulated slots keep their meaning.
    pulses_seen: usize,
    layer_mass: Vec<f64>,
    layer_first_moment: Vec<f64>,
}

impl ModeProbe {
    /// Creates a probe measuring against `snap`.
    pub fn new(snap: PodSnapshot) -> Self {
        let cols = snap.cols;
        Self {
            snap,
            row: vec![0.0; cols],
            rows: 0,
            resid2: 0.0,
            pulses_seen: 0,
            layer_mass: Vec::new(),
            layer_first_moment: Vec::new(),
        }
    }

    /// Folds `self.row`, the row of front `(k, layer)`.
    fn fold_row(&mut self, k: usize, layer: u32) {
        self.rows += 1;
        let modes = self.snap.modes();
        if k >= self.pulses_seen {
            self.pulses_seen = k + 1;
            self.layer_mass.resize(self.pulses_seen * modes, 0.0);
            self.layer_first_moment
                .resize(self.pulses_seen * modes, 0.0);
        }
        let coeffs = self.snap.coefficients(&self.row);
        // Residual ‖row − U·p‖² computed explicitly (no orthonormality
        // shortcut, so the measurement is honest about roundoff).
        let mut resid: Vec<f64> = self.row.clone();
        for (j, &c) in coeffs.iter().enumerate() {
            for (r, &uv) in resid.iter_mut().zip(self.snap.mode(j)) {
                *r -= c * uv;
            }
        }
        self.resid2 += resid.iter().map(|x| x * x).sum::<f64>();
        for (j, &c) in coeffs.iter().enumerate() {
            let w = c * c;
            let slot = k * modes + j;
            self.layer_mass[slot] += w;
            self.layer_first_moment[slot] += layer as f64 * w;
        }
    }

    /// Computes the report.
    pub fn into_report(self) -> ModeReport {
        let modes = self.snap.modes();
        let captured = self.snap.captured_energy();
        let report_modes = (0..modes)
            .map(|j| {
                let sigma = self.snap.singular_values[j];
                let u = self.snap.mode(j);
                let mut best = 0usize;
                let mut centroid_num = 0.0;
                let mut centroid_den = 0.0;
                for (v, &x) in u.iter().enumerate() {
                    if x.abs() > u[best].abs() {
                        best = v;
                    }
                    centroid_num += v as f64 * x * x;
                    centroid_den += x * x;
                }
                // Centroid of ℓ̂_j(k) per pulse, then a least-squares
                // slope over the pulses that carried energy.
                let mut pts: Vec<(f64, f64)> = Vec::new();
                for k in 0..self.pulses_seen {
                    let slot = k * modes + j;
                    let mass = self.layer_mass[slot];
                    if mass > 0.0 {
                        pts.push((k as f64, self.layer_first_moment[slot] / mass));
                    }
                }
                let velocity = if pts.len() >= 2 {
                    let n = pts.len() as f64;
                    let (sx, sy): (f64, f64) = pts
                        .iter()
                        .fold((0.0, 0.0), |(a, b), &(x, y)| (a + x, b + y));
                    let (sxx, sxy): (f64, f64) = pts
                        .iter()
                        .fold((0.0, 0.0), |(a, b), &(x, y)| (a + x * x, b + x * y));
                    let denom = n * sxx - sx * sx;
                    (denom > 0.0).then(|| (n * sxy - sx * sy) / denom)
                } else {
                    None
                };
                ModeSummary {
                    sigma,
                    energy_fraction: if captured > 0.0 {
                        sigma * sigma / captured
                    } else {
                        0.0
                    },
                    origin_col: best,
                    origin_centroid: if centroid_den > 0.0 {
                        centroid_num / centroid_den
                    } else {
                        0.0
                    },
                    velocity,
                }
            })
            .collect();
        ModeReport {
            modes: report_modes,
            measured_error: self.resid2.sqrt(),
            rows: self.rows,
        }
    }
}

impl Observer for ModeProbe {
    fn on_pulse_row(&mut self, k: usize, layer: u32, row: &[Option<Time>]) {
        let row = &row[..self.row.len()];
        if row.iter().any(Option::is_some) {
            for (slot, t) in self.row.iter_mut().zip(row) {
                *slot = t.map_or(0.0, Time::as_f64);
            }
            self.fold_row(k, layer);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trix_obs::PodSketch;
    use trix_topology::{BaseGraph, LayeredGraph};

    fn grid(width: usize, layers: usize) -> LayeredGraph {
        LayeredGraph::new(BaseGraph::cycle(width), layers)
    }

    /// Feeds `pulses × layers` whole rows of `width` with times
    /// `t(k, layer, v)`.
    fn feed_rows(
        obs: &mut impl Observer,
        (width, layers, pulses): (usize, usize, usize),
        t: impl Fn(usize, usize, usize) -> f64,
    ) {
        for k in 0..pulses {
            for layer in 0..layers {
                let row: Vec<Option<Time>> = (0..width)
                    .map(|v| Some(Time::from(t(k, layer, v))))
                    .collect();
                obs.on_pulse_row(k, layer as u32, &row);
            }
        }
    }

    /// Streams a synthetic traveling wave through a sketch and a probe:
    /// pulse times carry a bump whose layer position advances one layer
    /// per pulse.
    fn feed(obs: &mut impl Observer, width: usize, layers: usize, pulses: usize) {
        feed_rows(obs, (width, layers, pulses), |k, layer, v| {
            // A rank-2-ish field: linear ramp plus a moving bump peaked
            // at column 2 whenever layer == k.
            let bump = if layer == k && v == 2 { 50.0 } else { 0.0 };
            100.0 * k as f64 + 10.0 * layer as f64 + v as f64 + bump
        });
    }

    #[test]
    fn measured_error_is_bounded_by_certificate() {
        let (w, l, p) = (6, 5, 4);
        let g = grid(w, l);
        for rank in [2, 8] {
            let mut sk = PodSketch::new(&g, rank);
            feed(&mut sk, w, l, p);
            sk.finish();
            let snap = sk.snapshot();
            let mut probe = ModeProbe::new(snap.clone());
            feed(&mut probe, w, l, p);
            let report = probe.into_report();
            assert_eq!(report.rows, sk.rows());
            assert!(
                report.measured_error <= snap.error_bound,
                "rank {rank}: measured {} exceeds certificate {}",
                report.measured_error,
                snap.error_bound
            );
        }
    }

    #[test]
    fn report_names_dominant_mode_and_energy_fractions() {
        let (w, l, p) = (6, 5, 4);
        let g = grid(w, l);
        let mut sk = PodSketch::new(&g, 4);
        feed(&mut sk, w, l, p);
        sk.finish();
        let snap = sk.snapshot();
        let mut probe = ModeProbe::new(snap.clone());
        feed(&mut probe, w, l, p);
        let report = probe.into_report();
        assert_eq!(report.modes.len(), snap.modes());
        let total: f64 = report.modes.iter().map(|m| m.energy_fraction).sum();
        assert!((total - 1.0).abs() < 1e-9);
        // Fractions are descending along the spectrum.
        for pair in report.modes.windows(2) {
            assert!(pair[0].energy_fraction >= pair[1].energy_fraction);
        }
        for m in &report.modes {
            assert!(m.origin_col < w);
            assert!(m.origin_centroid >= 0.0 && m.origin_centroid < w as f64);
        }
    }

    #[test]
    fn dominant_mode_velocity_tracks_the_bulk_ramp() {
        // Without a bump, rows are k-scaled ramps: the dominant mode's
        // layer centroid moves because the 100·k pulse offset shifts
        // weight — the fitted slope must at least exist and be finite.
        let (w, l, p) = (5, 6, 4);
        let g = grid(w, l);
        let mut sk = PodSketch::new(&g, 3);
        feed(&mut sk, w, l, p);
        sk.finish();
        let mut probe = ModeProbe::new(sk.snapshot());
        feed(&mut probe, w, l, p);
        let report = probe.into_report();
        let dominant = &report.modes[0];
        let v = dominant.velocity.expect("4 pulses of energy → a fit");
        assert!(v.is_finite());
    }

    /// Streams two column-disjoint waves: a bump at column 1 advancing
    /// one layer per pulse (starting at layer 1 so it never overlaps the
    /// other feature) and a stationary bump at column 4 pinned to
    /// layer 0. The pulse-front matrix is exactly rank 2 with orthogonal
    /// columns, so the modes are (up to sign) `e₁` and `e₄`.
    fn feed_two_waves(obs: &mut impl Observer, width: usize, layers: usize, pulses: usize) {
        feed_rows(obs, (width, layers, pulses), |k, layer, v| {
            if v == 1 && layer == k + 1 {
                50.0
            } else if v == 4 && layer == 0 {
                30.0
            } else {
                0.0
            }
        });
    }

    #[test]
    fn known_wave_velocities_are_recovered_exactly() {
        // Value (not just finiteness) assertions on a known synthetic
        // wave, with ≥2 modes and ≥2 pulses so any mis-striding of the
        // per-(pulse, mode) accumulators across `pulses_seen` growth
        // corrupts the fitted slopes and fails the test.
        let (w, l, p) = (6, 6, 4);
        let g = grid(w, l);
        let mut sk = PodSketch::new(&g, 4);
        feed_two_waves(&mut sk, w, l, p);
        sk.finish();
        let snap = sk.snapshot();
        let mut probe = ModeProbe::new(snap.clone());
        feed_two_waves(&mut probe, w, l, p);
        let report = probe.into_report();
        assert_eq!(report.modes.len(), 2, "rank-2 data → two retained modes");
        let moving = &report.modes[0];
        assert_eq!(moving.origin_col, 1);
        let v0 = moving.velocity.expect("moving bump carries 4 pulses");
        assert!((v0 - 1.0).abs() < 1e-9, "moving bump slope {v0} ≠ 1");
        let pinned = &report.modes[1];
        assert_eq!(pinned.origin_col, 4);
        let v1 = pinned.velocity.expect("pinned bump carries 4 pulses");
        assert!(v1.abs() < 1e-9, "stationary bump slope {v1} ≠ 0");
    }

    #[test]
    fn single_pulse_yields_no_velocity() {
        let (w, l) = (5, 4);
        let g = grid(w, l);
        let mut sk = PodSketch::new(&g, 2);
        feed(&mut sk, w, l, 1);
        sk.finish();
        let mut probe = ModeProbe::new(sk.snapshot());
        feed(&mut probe, w, l, 1);
        let report = probe.into_report();
        assert!(report.modes.iter().all(|m| m.velocity.is_none()));
    }
}
