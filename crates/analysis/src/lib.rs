//! Analysis toolkit for the Gradient TRIX reproduction: skew metrics,
//! potential functions, theoretical bound formulas, and result tables.
//!
//! * [`intra_layer_skew`] / [`inter_layer_skew`] / [`full_local_skew`] /
//!   [`global_skew`] — the paper's skew definitions (§2);
//! * [`psi`] / [`xi`] — the potential functions `Ψ^s`, `Ξ^s`
//!   (Definition 4.1) driving the analysis;
//! * [`theory`] — every theorem's bound as an executable formula for
//!   measured-vs-predicted comparisons;
//! * [`ModeProbe`] / [`ModeReport`] — mode analytics over a
//!   `trix_obs::PodSketch` snapshot: dominant skew modes, per-mode
//!   spatial origin, wave-velocity estimates, and the *measured*
//!   reconstruction error the sketch's certificate must dominate;
//! * [`Table`] — result rendering for the experiment harness.
//!
//! # Examples
//!
//! ```
//! use trix_analysis::{max_intra_layer_skew, theory};
//! use trix_core::{GradientTrixRule, Params};
//! use trix_sim::{run_dataflow, CorrectSends, OffsetLayer0, Rng, StaticEnvironment};
//! use trix_time::Duration;
//! use trix_topology::{BaseGraph, LayeredGraph};
//!
//! let p = Params::with_standard_lambda(Duration::from(2000.0), Duration::from(1.0), 1.0001);
//! let g = LayeredGraph::new(BaseGraph::line_with_replicated_ends(8), 8);
//! let mut rng = Rng::seed_from(4);
//! let env = StaticEnvironment::random(&g, p.d(), p.u(), p.theta(), &mut rng);
//! let layer0 = OffsetLayer0::synchronized(p.lambda().as_f64(), g.width());
//! let trace = run_dataflow(&g, &env, &layer0, &GradientTrixRule::new(p), &CorrectSends, 3);
//! let skew = max_intra_layer_skew(&g, &trace, 0..3);
//! assert!(skew <= theory::thm_1_1_bound(&p, g.base().diameter()));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod modes;
mod plot;
mod potential;
mod skew;
mod table;
pub mod theory;

pub use modes::{ModeProbe, ModeReport, ModeSummary};
pub use plot::ascii_chart;
pub use potential::{observation_4_2_holds, psi, xi};
pub use skew::{
    full_local_skew, global_skew, inter_layer_skew, intra_layer_skew, max_intra_layer_skew,
    skew_by_layer,
};
pub use table::{fmt_f64, Table};
