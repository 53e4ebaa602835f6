//! Time arithmetic and hardware-clock models for the Gradient TRIX
//! reproduction.
//!
//! The paper's model (§2 of Lenzen & Srinivas, *Clock Synchronization with
//! Gradient TRIX*) gives every node `(v, ℓ)` query access to a hardware clock
//! `H_{v,ℓ} : ℝ≥0 → ℝ≥0` satisfying
//!
//! ```text
//! ∀ t < t':   t' − t  ≤  H(t') − H(t)  ≤  ϑ · (t' − t)
//! ```
//!
//! for some drift bound `ϑ > 1`. Clocks are used *only* to measure elapsed
//! local time between events; no phase relation is assumed.
//!
//! This crate provides:
//!
//! * [`Time`] / [`Duration`] — `f64`-backed newtypes with a total order, so
//!   that real ("Newtonian") time and durations cannot be confused with local
//!   clock readings ([`LocalTime`]) at the type level.
//! * [`AffineClock`] — a clock with a constant rate in `[1, ϑ]`, the static
//!   model used throughout the paper's analysis. The Corollary 1.5
//!   experiments vary rates slowly by giving each pulse its own affine clock
//!   (`trix_sim::SequenceEnvironment`), not by a time-varying clock.
//! * [`Clock`] — the trait it implements: strictly monotone, invertible maps
//!   between real time and local time.
//!
//! # Examples
//!
//! ```
//! use trix_time::{AffineClock, Clock, Time};
//!
//! let clock = AffineClock::with_rate_and_offset(1.0005, 3.25);
//! let t = Time::from(10.0);
//! let h = clock.local_at(t);
//! assert!((clock.real_at(h) - t).abs().as_f64() < 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod clock;
mod duration;
mod instant;

pub use clock::{AffineClock, Clock};
pub use duration::Duration;
pub use instant::{LocalTime, Time};
