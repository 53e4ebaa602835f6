//! Streaming observability for the Gradient TRIX simulators.
//!
//! Every experiment used to materialize a full `PulseTrace` — one
//! timestamp per node per pulse, `O(nodes × pulses)` memory — and compute
//! skew statistics post-hoc in `trix-analysis`. That cap on memory is a
//! cap on scale: the sweep runner could only explore grids whose whole
//! trajectory fits in RAM. This crate inverts the dataflow (the same
//! trick incremental-POD methods use on PDE simulation trajectories):
//! the engines in `trix-sim` push each published layer row through the
//! [`Observer`] hook as it happens, and the observers here decide what
//! to retain:
//!
//! * [`StreamingSkew`] — incremental intra-layer, inter-layer, and global
//!   skew over the dataflow stream. Retains only the current pulse front
//!   (`O(nodes)`), folds per-pulse maxima into running
//!   max/sum/count/histogram aggregates, and is **bit-identical** to the
//!   post-hoc `trix_analysis::skew` results because both delegate to the
//!   shared definitions in [`defs`].
//! * [`PodSketch`] — a rank-`r` incremental SVD/POD sketch of the
//!   pulse-front matrix in `O(width × r)` memory, with a **certified**
//!   Frobenius reconstruction-error bound; its [`PodSnapshot`] (basis +
//!   spectrum + certificate) is the compressed trace artifact benchmark
//!   records ship as schema v7.
//! * [`FaultClassSkew`] — intra-layer skew partitioned by the
//!   faulty/healthy frontier, the attribution monitor for fault
//!   campaigns (`trix-faults`): how much skew lives next to the faults
//!   versus far from them.
//!
//! Both dataflow drivers — the serial one and the frontier scheduler
//! behind `trix_sim::run_dataflow_parallel` — emit one
//! [`Observer::on_pulse_row`] call per `(k, layer)` step, in the serial
//! `(k, layer)` order, on the calling thread, after announcing faulty
//! positions through [`Observer::on_faulty`]. No engine calls
//! [`Observer::on_pulse`]: it is reached only through the trait's
//! default `on_pulse_row`, which unpacks a row into per-element calls.
//! Every observer here stores or folds whole fronts, so each overrides
//! the row hook and leaves `on_pulse` at the trait's no-op. Statistics
//! of independent runs (per-seed, per-scenario) merge as snapshots,
//! [`SkewStats::merge`] and [`FaultClassStats::merge`]; one run's stream
//! is never split across monitors.
//!
//! Observers compose with the tuple observer from `trix-sim` (e.g.
//! `(StreamingSkew, PodSketch)`), and everything is deterministic: the
//! sweep runner's bit-reproducibility across `--threads` extends to all
//! streamed statistics. None of these monitors needs to be thread-safe,
//! since rows reach them in one fixed order regardless of
//! `--sim-threads`. The one deliberate exception is [`PipelinedSketch`],
//! which moves a [`PodSketch`]'s arithmetic off the critical path: the
//! calling thread still *observes* inline and in order, but only to copy
//! each row over a bounded channel to a dedicated worker that replays
//! the identical stream through the identical code — so the finished
//! sketch stays byte-identical to an inline one.
//!
//! # Examples
//!
//! Streaming skew with no trace:
//!
//! ```
//! use trix_obs::StreamingSkew;
//! use trix_sim::{run_dataflow_observed, CorrectSends, OffsetLayer0, StaticEnvironment};
//! use trix_time::Duration;
//! use trix_topology::{BaseGraph, LayeredGraph};
//!
//! // A rule that fires a fixed lag after its own predecessor.
//! struct FixedLag;
//! impl trix_sim::PulseRule for FixedLag {
//!     fn pulse_time(
//!         &self,
//!         _n: trix_topology::NodeId,
//!         _k: usize,
//!         own: Option<trix_time::Time>,
//!         _nb: &[Option<trix_time::Time>],
//!         _c: &trix_time::AffineClock,
//!     ) -> Option<trix_time::Time> {
//!         own.map(|t| t + Duration::from(1.0))
//!     }
//! }
//!
//! let g = LayeredGraph::new(BaseGraph::cycle(4), 3);
//! let env = StaticEnvironment::nominal(&g, Duration::from(10.0));
//! let layer0 = OffsetLayer0::new(20.0, vec![0.0, 1.0, 2.0, 3.0]);
//! let mut skew = StreamingSkew::new(&g);
//! run_dataflow_observed(&g, &env, &layer0, &FixedLag, &CorrectSends, 2, &mut skew);
//! skew.finish();
//! // The staggered layer-0 offsets propagate unchanged: worst adjacent
//! // gap is the wraparound pair (0, 3).
//! assert_eq!(skew.max_intra_layer_skew(), Duration::from(3.0));
//! assert_eq!(skew.pulses(), 2);
//! ```
//!
//! Observers compose as tuples — one driver pass feeds any number of
//! monitors, each seeing the identical row stream:
//!
//! ```
//! use trix_obs::{Observer, PodSketch, StreamingSkew};
//! use trix_time::Time;
//! use trix_topology::{BaseGraph, LayeredGraph};
//!
//! let g = LayeredGraph::new(BaseGraph::cycle(4), 2);
//! let mut skew = StreamingSkew::new(&g);
//! let mut sketch = PodSketch::new(&g, 2);
//! {
//!     // The tuple observer fans every row out to both members.
//!     let mut both = (&mut skew, &mut sketch);
//!     let row: Vec<Option<Time>> = (0..4).map(|v| Some(Time::from(v as f64))).collect();
//!     for layer in 0..2 {
//!         both.on_pulse_row(0, layer, &row);
//!     }
//! }
//! skew.finish();
//! sketch.finish();
//! assert_eq!(skew.pulses(), 1);
//! assert_eq!(sketch.snapshot().rows, 2);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod attributed;
pub mod defs;
mod pipeline;
mod sketch;
mod streaming;

pub use attributed::{FaultClassSkew, FaultClassStats};
pub use pipeline::PipelinedSketch;
pub use sketch::{PodSketch, PodSnapshot};
pub use streaming::{Histogram, RunningStat, SkewStats, StreamingSkew};

// Re-export the hook surface so observer implementors need only this
// crate; the trait itself lives in `trix-sim`, next to the engines that
// drive it.
pub use trix_sim::{NullObserver, Observer};

#[cfg(test)]
mod testing {
    use trix_sim::Observer;
    use trix_time::Time;
    use trix_topology::{LayeredGraph, NodeId};

    /// Feeds pulse `k` of `g` to `obs` as whole rows, layer by layer,
    /// with node `n` firing at `t(n)`.
    pub(crate) fn feed_pulse(
        obs: &mut impl Observer,
        g: &LayeredGraph,
        k: usize,
        t: impl Fn(NodeId) -> f64,
    ) {
        for layer in 0..g.layer_count() as u32 {
            let row: Vec<Option<Time>> = (0..g.width() as u32)
                .map(|v| Some(Time::from(t(NodeId::new(v, layer)))))
                .collect();
            obs.on_pulse_row(k, layer, &row);
        }
    }
}
