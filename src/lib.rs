//! # gradient-trix
//!
//! A reproduction of **"Clock Synchronization with Gradient TRIX"**
//! (Lenzen & Srinivas, PODC 2025 / arXiv:2301.05073): fault-tolerant
//! gradient clock synchronization on grid-like graphs with in-/out-degree
//! 3, achieving local skew `O(κ log D)` under 1-local Byzantine faults,
//! with self-stabilization — together with the complete simulation
//! substrate, baselines (naive TRIX, HEX), fault library, analysis
//! toolkit, and an experiment harness regenerating every table and figure
//! of the paper.
//!
//! This crate is a facade: it re-exports the workspace crates as modules
//! so downstream users (and the `examples/` and `tests/` directories of
//! this repository) can depend on a single crate.
//!
//! | Module | Contents |
//! |---|---|
//! | [`time`] | `Time`/`LocalTime`/`Duration` newtypes, hardware clock models |
//! | [`topology`] | base graphs (Fig 2), layered DAG (Fig 3), HEX grid, ancestor cones |
//! | [`sim`] | deterministic RNG, environments, dataflow executor, DES engine, observer hooks |
//! | [`obs`] | streaming observability: online skew monitors, bounded trace rings, POD trace sketches |
//! | [`core`] | the Gradient TRIX algorithm: `Params`, corrections, Algorithms 1–4, condition oracles |
//! | [`faults`] | Byzantine behaviors, placements, transient corruption |
//! | [`baselines`] | naive TRIX (LW20) and HEX (DFL+16) |
//! | [`analysis`] | skew metrics, potentials `Ψ^s`/`Ξ^s`, theory bounds, tables |
//!
//! # Quickstart
//!
//! ```
//! use gradient_trix::analysis::{max_intra_layer_skew, theory};
//! use gradient_trix::core::{GradientTrixRule, Layer0Line, Params};
//! use gradient_trix::sim::{run_dataflow, CorrectSends, Rng, StaticEnvironment};
//! use gradient_trix::time::Duration;
//! use gradient_trix::topology::{BaseGraph, LayeredGraph};
//!
//! // A 32×32 clock grid with VLSI-flavored timing (picoseconds).
//! let params = Params::with_standard_lambda(
//!     Duration::from(2000.0), Duration::from(1.0), 1.0001);
//! let grid = LayeredGraph::new(BaseGraph::line_with_replicated_ends(32), 32);
//!
//! let mut rng = Rng::seed_from(2025);
//! let env = StaticEnvironment::random(&grid, params.d(), params.u(), params.theta(), &mut rng);
//! let layer0 = Layer0Line::random_for_line(&params, grid.width(), &mut rng);
//!
//! let trace = run_dataflow(&grid, &env, &layer0, &GradientTrixRule::new(params), &CorrectSends, 4);
//! let skew = max_intra_layer_skew(&grid, &trace, 0..4);
//! assert!(skew <= theory::thm_1_1_bound(&params, grid.base().diameter()));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use trix_analysis as analysis;
pub use trix_baselines as baselines;
pub use trix_core as core;
pub use trix_faults as faults;
pub use trix_obs as obs;
pub use trix_sim as sim;
pub use trix_time as time;
pub use trix_topology as topology;
