//! Fault injection for the Gradient TRIX reproduction.
//!
//! Implements the paper's fault model (§2): an unknown subset of nodes is
//! faulty and behaves arbitrarily, constrained to 1-locality (no node has
//! two faulty in-neighbors), which holds with probability `1 − o(1)` when
//! nodes fail independently with probability `p ∈ o(n^{-1/2})`.
//!
//! * [`FaultBehavior`] — static faults (silent, delay-shift, two-faced)
//!   and time-varying ones (jitter, change-point) for the dataflow
//!   executor;
//! * [`FaultSchedule`] / [`FaultCampaign`] — the send model that plugs
//!   behaviors into [`trix_sim::run_dataflow`] and the sharded driver:
//!   static assignments ([`FaultCampaign::from_static`], one
//!   [`FaultSchedule::Always`] per node) and **time-varying fault
//!   campaigns** (crash–recover windows, flaky per-pulse gating, density
//!   ramps, and moving one-local fault waves) composed from the same
//!   behaviors;
//! * [`is_one_local`] / [`sample_iid`] / [`sample_one_local`] /
//!   [`clustered_column`] — placements for Theorems 1.2 and 1.3;
//! * [`ChurnSchedule`] / [`ChurnCampaign`] — **open-world churn**:
//!   SplitMix64-gated per-pulse join/leave/rejoin/flicker membership,
//!   driving the engines through the `SendModel::is_member` hook
//!   (absent nodes are masked per pulse, never ever-excluded);
//! * [`SilentDesNode`] / [`BabblingDesNode`] / [`RejoiningDesNode`] /
//!   [`crash_recover_network`] / [`arrival_network`] — event-driven
//!   fault machinery for the DES half of crash–recover campaigns and
//!   stale-state new arrivals;
//! * [`scrambled_convergence`] — the Theorem 1.6 self-stabilization
//!   measurement: a scrambled deployment has stabilized where it joins
//!   its clean twin bit for bit ([`trix_sim::converged_from`]).
//!
//! # Examples
//!
//! ```
//! use trix_faults::{is_one_local, sample_one_local};
//! use trix_sim::Rng;
//! use trix_topology::{BaseGraph, LayeredGraph};
//!
//! let g = LayeredGraph::new(BaseGraph::line_with_replicated_ends(16), 16);
//! let mut rng = Rng::seed_from(9);
//! let p = 0.5 / (g.node_count() as f64).sqrt();
//! let (faults, _dropped) = sample_one_local(&g, p, 1, &mut rng);
//! assert!(is_one_local(&g, &faults));
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod behavior;
mod campaign;
mod churn;
mod des_nodes;
mod placement;
mod table;

pub use behavior::FaultBehavior;
pub use campaign::{FaultCampaign, FaultSchedule};
pub use churn::{ChurnCampaign, ChurnSchedule};
pub use des_nodes::{
    arrival_network, crash_recover_network, scrambled_convergence, BabblingDesNode,
    RejoiningDesNode, SilentDesNode,
};
pub use placement::{clustered_column, is_one_local, sample_iid, sample_one_local};
