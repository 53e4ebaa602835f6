//! Deterministic simulation substrate for the Gradient TRIX reproduction.
//!
//! The paper evaluates its algorithm analytically on an abstract model
//! (§2): a layered DAG with per-edge static delays `δ_e ∈ [d−u, d]` and
//! per-node hardware clocks with rates in `[1, ϑ]`. This crate implements
//! that model twice:
//!
//! * [`run_dataflow`] — an exact, closed-form, layer-by-layer executor for
//!   steady-state pulse propagation (each iteration of each node depends
//!   only on the previous layer's same-iteration pulses, Lemma B.1);
//! * [`Des`] — a discrete-event engine for everything the dataflow model
//!   cannot express: arbitrary initial states (self-stabilization),
//!   spurious messages, babbling faults, intra-layer links (HEX).
//!
//! Shared infrastructure: a deterministic [`Rng`] (SplitMix64 +
//! Xoshiro256**), [`Environment`] implementations assigning delays and
//! clocks (including slowly-varying per-pulse variants for the
//! Corollary 1.5 experiments), and the streaming [`Observer`] hooks the
//! dataflow drivers feed on every published layer row —
//! [`run_dataflow_observed`] lets monitors in `trix-obs` compute
//! statistics online without materializing an `O(nodes × pulses)` trace.
//! The [`Des`] records every broadcast in one log, read through
//! [`Des::broadcasts`].
//!
//! # Examples
//!
//! ```
//! use trix_sim::{Rng, StaticEnvironment};
//! use trix_time::Duration;
//! use trix_topology::{BaseGraph, LayeredGraph};
//!
//! let g = LayeredGraph::new(BaseGraph::line_with_replicated_ends(8), 8);
//! let mut rng = Rng::seed_from(0xC0FFEE);
//! let env = StaticEnvironment::random(&g, Duration::from(10.0), Duration::from(1.0), 1.001, &mut rng);
//! assert_eq!(env.delays().len(), g.edge_count());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dataflow;
mod des;
mod env;
mod frontier;
pub mod metrics;
mod observer;
mod rng;

pub use dataflow::{
    run_dataflow, run_dataflow_observed, run_dataflow_parallel, CorrectSends, Layer0Source,
    OffsetLayer0, PulseRule, PulseTrace, SendModel,
};
pub use des::{Broadcast, Des, Link, Node, NodeApi};
pub use env::{Environment, SequenceEnvironment, StaticEnvironment};
pub use frontier::{detected_parallelism, DetectedParallelism, FALLBACK_WORKERS};
pub use observer::{NullObserver, Observer};
pub use rng::{splitmix64, Rng};
