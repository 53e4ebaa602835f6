//! Property tests for the analysis metrics.

use proptest::prelude::*;
use trix_analysis::{global_skew, intra_layer_skew, psi};
use trix_core::Params;
use trix_sim::PulseTrace;
use trix_time::{Duration, Time};
use trix_topology::{BaseGraph, LayeredGraph};

fn params() -> Params {
    Params::with_standard_lambda(Duration::from(2000.0), Duration::from(1.0), 1.0001)
}

fn trace_from(offsets: &[f64]) -> (LayeredGraph, PulseTrace) {
    let g = LayeredGraph::new(BaseGraph::cycle(offsets.len().max(3)), 2);
    let mut trace = PulseTrace::new(&g, 1);
    for n in g.nodes() {
        let t = offsets.get(n.v as usize).copied().unwrap_or(0.0);
        trace.set_time(0, n, Some(Time::from(t)));
    }
    (g, trace)
}

proptest! {
    /// Local skew never exceeds global skew, and both are
    /// shift-invariant.
    #[test]
    fn local_le_global_and_shift_invariant(
        offsets in proptest::collection::vec(-100.0f64..100.0, 3..12),
        shift in -1e6f64..1e6,
    ) {
        let (g, trace) = trace_from(&offsets);
        let local = intra_layer_skew(&g, &trace, 0, 0).unwrap();
        let global = global_skew(&g, &trace, 0, 0).unwrap();
        prop_assert!(local <= global);

        let shifted: Vec<f64> = offsets.iter().map(|o| o + shift).collect();
        let (g2, trace2) = trace_from(&shifted);
        let local2 = intra_layer_skew(&g2, &trace2, 0, 0).unwrap();
        prop_assert!((local - local2).abs().as_f64() < 1e-6);
    }

    /// Ψ^s is non-increasing in s (larger distance discounts only
    /// subtract more).
    #[test]
    fn psi_monotone_in_s(
        offsets in proptest::collection::vec(-50.0f64..50.0, 4..10),
    ) {
        let (g, trace) = trace_from(&offsets);
        let p = params();
        let mut prev = psi(&g, &trace, &p, 0, 0, 0).unwrap();
        for s in 1..=5u32 {
            let cur = psi(&g, &trace, &p, 0, 0, s).unwrap();
            prop_assert!(cur <= prev + Duration::from(1e-9), "s={}", s);
            prev = cur;
        }
    }

    /// Ψ⁰ equals the global skew (distance discount vanishes at s = 0).
    #[test]
    fn psi_zero_is_global_skew(
        offsets in proptest::collection::vec(-50.0f64..50.0, 3..10),
    ) {
        let (g, trace) = trace_from(&offsets);
        let p = params();
        let psi0 = psi(&g, &trace, &p, 0, 0, 0).unwrap();
        let global = global_skew(&g, &trace, 0, 0).unwrap();
        prop_assert!((psi0 - global).abs().as_f64() < 1e-9);
    }
}
