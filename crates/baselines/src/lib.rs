//! Baseline clock-distribution schemes the paper compares against
//! (Table 1, Figure 1).
//!
//! * [`NaiveTrixRule`] — the LW20 second-copy forwarding rule on the same
//!   grid as Gradient TRIX: optimal degree and 1-fault tolerance, but
//!   local skew `Θ(u·D)` under adversarial delays — the Figure 1 (left)
//!   split of [`split_delay_env`].
//! * [`run_hex_pulse`] — the DFL+16 HEX scheme: fires on the second of
//!   four in-pulses (two from the previous layer, two in-layer); a crashed
//!   previous-layer neighbor costs a full message delay `d` of skew. Each
//!   pulse runs on the discrete-event engine `trix_sim::Des`, so its
//!   events count in `trix_sim::metrics` like every other simulation's.
//! * [`run_lynch_welch`] — the WL88 algorithm on a complete graph
//!   (Table 1's first rows): `O(1)` skew, `f < n/3` Byzantine tolerance,
//!   but full connectivity — the trade-off Gradient TRIX escapes.
//!
//! All three are complete re-implementations (no artifacts exist),
//! specified from the descriptions in this paper's §1 and the cited works.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod hex;
mod lynch_welch;
mod naive_trix;

pub use hex::{run_hex_pulse, HexEnvironment, HexPulse};
pub use lynch_welch::{run_lynch_welch, LynchWelchConfig, LynchWelchRun};
pub use naive_trix::{split_delay_env, NaiveTrixRule};
