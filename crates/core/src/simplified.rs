//! The simplified pulse-forwarding algorithm (paper Algorithm 1).
//!
//! Algorithm 1 assumes every predecessor message arrives: it waits for
//! `H_own`, `H_min`, `H_max`, computes the correction `C`, and broadcasts at
//! local time `H_own + Λ − d − C`. Lemma B.2 shows it is equivalent to the
//! complete Algorithm 3 whenever the executing node has no faulty
//! predecessor; the test suite checks this equivalence by running both on
//! identical inputs (see also the property tests in `tests/`).

use crate::{correction, CorrectionConfig, Params};
use trix_sim::PulseRule;
use trix_time::{AffineClock, Clock, LocalTime, Time};
use trix_topology::NodeId;

/// The simplified rule (Algorithm 1). Requires all predecessor pulses.
///
/// # Examples
///
/// ```
/// use trix_core::{Params, SimplifiedRule};
/// use trix_time::{Duration, LocalTime};
///
/// let p = Params::with_standard_lambda(Duration::from(2000.0), Duration::from(1.0), 1.0001);
/// let rule = SimplifiedRule::new(p);
/// let pulse = rule.pulse_local(
///     LocalTime::from(10.0),
///     &[LocalTime::from(10.0), LocalTime::from(10.0)],
/// );
/// assert_eq!(pulse, LocalTime::from(10.0) + (p.lambda() - p.d()));
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SimplifiedRule {
    params: Params,
    config: CorrectionConfig,
}

impl SimplifiedRule {
    /// Creates the rule with the published correction configuration.
    pub fn new(params: Params) -> Self {
        Self {
            params,
            config: CorrectionConfig::paper(),
        }
    }

    /// Creates the rule with a custom correction configuration.
    pub fn with_config(params: Params, config: CorrectionConfig) -> Self {
        Self { params, config }
    }

    /// The parameters in use.
    pub fn params(&self) -> &Params {
        &self.params
    }

    /// Computes the local broadcast time from complete local receptions.
    ///
    /// # Panics
    ///
    /// Panics if `neighbors` is empty.
    pub fn pulse_local(&self, h_own: LocalTime, neighbors: &[LocalTime]) -> LocalTime {
        assert!(!neighbors.is_empty(), "Algorithm 1 needs every neighbor");
        let h_min = neighbors.iter().copied().min().expect("nonempty");
        let h_max = neighbors.iter().copied().max().expect("nonempty");
        let c = correction(&self.params, h_own, h_min, Some(h_max), &self.config);
        h_own + (self.params.lambda() - self.params.d()) - c
    }
}

impl PulseRule for SimplifiedRule {
    fn pulse_time(
        &self,
        _node: NodeId,
        _k: usize,
        own: Option<Time>,
        neighbors: &[Option<Time>],
        clock: &AffineClock,
    ) -> Option<Time> {
        let own = clock.local_at(own?);
        let neighbors: Option<Vec<LocalTime>> = neighbors
            .iter()
            .map(|t| t.map(|t| clock.local_at(t)))
            .collect();
        let neighbors = neighbors?;
        if neighbors.is_empty() {
            return None;
        }
        Some(clock.real_at(self.pulse_local(own, &neighbors)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ExitKind, GradientTrixRule};
    use trix_sim::Rng;
    use trix_time::Duration;

    fn params() -> Params {
        Params::with_standard_lambda(Duration::from(2000.0), Duration::from(1.0), 1.0001)
    }

    #[test]
    fn synchronized_inputs_forward_after_lambda_minus_d() {
        let p = params();
        let rule = SimplifiedRule::new(p);
        let h = LocalTime::from(50.0);
        assert_eq!(rule.pulse_local(h, &[h, h]), h + (p.lambda() - p.d()));
    }

    /// Lemma B.2: Algorithm 1 and Algorithm 3 agree whenever all
    /// predecessor pulses arrive within the deadlines (no faulty
    /// predecessor, skews within the supported range).
    #[test]
    fn equivalent_to_full_algorithm_without_faults() {
        let p = params();
        let simplified = SimplifiedRule::new(p);
        let full = GradientTrixRule::new(p);
        let mut rng = Rng::seed_from(0xB0B);
        let spread = p.kappa().as_f64() * 20.0; // well within supported skew
        for case in 0..2000 {
            let base = rng.f64_in(0.0, 1e6);
            let own = LocalTime::from(base + rng.f64_in(-spread, spread));
            let n1 = LocalTime::from(base + rng.f64_in(-spread, spread));
            let n2 = LocalTime::from(base + rng.f64_in(-spread, spread));
            let n3 = LocalTime::from(base + rng.f64_in(-spread, spread));
            for neighbors in [vec![n1, n2], vec![n1, n2, n3]] {
                let a = simplified.pulse_local(own, &neighbors);
                let d = full.decide(
                    Some(own),
                    &neighbors.iter().map(|&h| Some(h)).collect::<Vec<_>>(),
                );
                // Exact up to float re-association: the late-own branch
                // computes the algebraically identical pulse time as
                // `H_max + 3κ/2 + Λ − d` instead of
                // `H_own + Λ − d − (H_own − H_max − 3κ/2)`.
                assert!(
                    (a - d.pulse_local).abs().as_f64() < 1e-9,
                    "case {case}: simplified and full disagree (own={own:?}, \
                     neighbors={neighbors:?}, exit={:?}): {a:?} vs {:?}",
                    d.exit,
                    d.pulse_local
                );
                if d.exit == ExitKind::Complete {
                    assert_eq!(a, d.pulse_local, "complete path must be bit-identical");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "needs every neighbor")]
    fn rejects_empty_neighbors() {
        let rule = SimplifiedRule::new(params());
        let _ = rule.pulse_local(LocalTime::from(0.0), &[]);
    }
}
