//! Gradient TRIX: fault-tolerant gradient clock synchronization on
//! grid-like graphs.
//!
//! This crate implements the algorithms of Lenzen & Srinivas, *Clock
//! Synchronization with Gradient TRIX* (PODC 2025 / arXiv:2301.05073):
//! a pulse-forwarding scheme on a layered degree-3 DAG that simulates a
//! discretized gradient clock synchronization algorithm, achieving local
//! skew `O(κ log D)` while tolerating 1-local Byzantine faults and
//! self-stabilizing after transient faults.
//!
//! Contents:
//!
//! * [`Params`] — the timing parameters `d, u, ϑ, Λ` and the derived skew
//!   quantum `κ` (Equations (1)–(3));
//! * [`correction()`] / [`CorrectionConfig`] — the correction value `C_{v,ℓ}`
//!   with its discretized min–max and the jump-condition clamps;
//! * [`SimplifiedRule`] — Algorithm 1 (fault-free fast path);
//! * [`GradientTrixRule`] — Algorithm 3 (deadline handling for missing or
//!   late predecessor pulses), as a pure per-iteration decision usable with
//!   the dataflow executor;
//! * [`GradientTrixNode`] — Algorithms 3 + 4 as a live state machine for
//!   the event-driven engine (self-stabilization experiments);
//! * [`Layer0Line`], [`ClockSourceNode`], [`LineForwarderNode`] — layer-0
//!   pulse generation (Appendix A, Algorithm 2);
//! * [`GridNetwork`] — wiring a full deployment into the DES engine;
//! * [`check_gcs_conditions`] / [`check_pulse_interval`] — executable
//!   oracles for the slow/fast/jump conditions (Definitions 4.3–4.5) and
//!   the median-interval invariant (Corollary 4.29).
//!
//! # Quickstart
//!
//! ```
//! use trix_core::{GradientTrixRule, Layer0Line, Params};
//! use trix_sim::{run_dataflow, CorrectSends, Rng, StaticEnvironment};
//! use trix_time::Duration;
//! use trix_topology::{BaseGraph, LayeredGraph};
//!
//! // A 16-wide, 16-layer grid with VLSI-flavored parameters.
//! let params = Params::with_standard_lambda(
//!     Duration::from(2000.0), Duration::from(1.0), 1.0001);
//! let g = LayeredGraph::new(BaseGraph::line_with_replicated_ends(16), 16);
//! let mut rng = Rng::seed_from(1);
//! let env = StaticEnvironment::random(&g, params.d(), params.u(), params.theta(), &mut rng);
//! let layer0 = Layer0Line::random_for_line(&params, g.width(), &mut rng);
//! let rule = GradientTrixRule::new(params);
//! let trace = run_dataflow(&g, &env, &layer0, &rule, &CorrectSends, 5);
//! // Every node pulsed in every iteration.
//! assert!(g.nodes().all(|n| trace.time(4, n).is_some()));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod conditions;
mod correction;
mod network;
mod node;
mod params;
mod robust;
mod rule;
mod simplified;
mod source;

pub use conditions::{
    check_gcs_conditions, check_pulse_interval, reconstruct_correction, Condition, ConditionReport,
    ConditionViolation, IntervalViolation,
};
pub use correction::{correction, discrete_delta, CorrectionConfig, MissingNeighborPolicy};
pub use network::{GridIndex, GridNetwork, NodeWiring};
pub use node::{GradientTrixNode, GridNodeConfig};
pub use params::Params;
pub use robust::RobustRule;
pub use rule::{Decision, ExitKind, GradientTrixRule};
pub use simplified::SimplifiedRule;
pub use source::{ClockSourceNode, Layer0Line, LineForwarderNode};
