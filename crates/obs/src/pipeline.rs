//! Off-critical-path sketch pipelining: run a [`PodSketch`] on a
//! dedicated worker thread so its Gram–Schmidt/Jacobi arithmetic
//! overlaps the simulation instead of serializing behind it.
//!
//! The dataflow engines flush every emission on the calling thread, in
//! the serial `(k, layer, v)` order — that is the determinism leg every
//! observer lives under, and it makes the sketch update an Amdahl
//! bottleneck: at rank 16 the projection work is comparable to the
//! pulse-rule evaluation itself, and with `--sim-threads ≥ 2` it is the
//! serial fraction that caps scaling. [`PipelinedSketch`] keeps the
//! contract *and* removes the bottleneck: the calling thread only copies
//! each published row into a reusable buffer and hands it over a bounded
//! channel; the worker replays the identical row stream into the wrapped
//! sketch via the same [`Observer::on_pulse_row`] code path. Same
//! stream, same code, same order — the finished sketch is byte-identical
//! to observing inline (pinned by this module's tests), it just finishes
//! on another thread. `exp_modes` builds every sketch this way.
//!
//! The channel is bounded ([`PipelinedSketch::DEPTH`] rows) so memory
//! stays `O(width)` and a slow sketch back-pressures the simulation
//! instead of buffering the whole run; drained row buffers are recycled
//! through a return channel, so steady state allocates nothing.
//!
//! ```
//! use trix_obs::{PipelinedSketch, PodSketch};
//! use trix_time::Time;
//! use trix_topology::{BaseGraph, LayeredGraph};
//! use trix_sim::Observer;
//!
//! let g = LayeredGraph::new(BaseGraph::cycle(4), 2);
//! let mut piped = PipelinedSketch::spawn(PodSketch::new(&g, 2));
//! let row: Vec<Option<Time>> = (0..4).map(|v| Some(Time::from(v as f64))).collect();
//! piped.on_pulse_row(0, 0, &row);
//! piped.on_pulse_row(0, 1, &row);
//! let mut sketch = piped.join();
//! sketch.finish();
//! assert_eq!(sketch.rows(), 2);
//! ```

use crate::PodSketch;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::thread::JoinHandle;
use trix_sim::Observer;
use trix_time::Time;
use trix_topology::NodeId;

/// One row handed to the worker: `(k, layer, row)` exactly as the
/// engine emitted it.
type RowMsg = (usize, u32, Vec<Option<Time>>);

/// A [`PodSketch`] running on its own worker thread, fed whole rows over
/// a bounded channel (see the module docs for the determinism argument).
///
/// This observer consumes the dataflow drivers' **row** stream only: the
/// per-element [`Observer::on_pulse`] hook panics rather than silently
/// dropping data. Faulty-position announcements are no-ops, as on
/// [`PodSketch`] itself.
#[derive(Debug)]
pub struct PipelinedSketch {
    /// `Some` until [`PipelinedSketch::join`]; dropping it closes the
    /// channel and lets the worker drain out.
    tx: Option<SyncSender<RowMsg>>,
    /// Used row buffers coming back from the worker for reuse.
    recycle: Receiver<Vec<Option<Time>>>,
    handle: Option<JoinHandle<PodSketch>>,
}

impl PipelinedSketch {
    /// Bound on in-flight rows: small enough that memory stays
    /// `O(width)`, deep enough that the simulation never stalls on a
    /// sketch that keeps up on average (the block flush is amortized
    /// over `(rank / 2).max(8)` rows, so per-row cost is bursty).
    pub const DEPTH: usize = 8;

    /// Moves `sketch` onto a dedicated worker thread and returns the
    /// feeding handle. The sketch must not be finished; call
    /// [`PipelinedSketch::join`] to get it back and `finish()` it.
    ///
    /// # Panics
    ///
    /// Panics if the worker thread cannot be spawned.
    pub fn spawn(mut sketch: PodSketch) -> Self {
        let (tx, rx) = sync_channel::<RowMsg>(Self::DEPTH);
        let (recycle_tx, recycle) = sync_channel::<Vec<Option<Time>>>(Self::DEPTH + 1);
        let handle = std::thread::Builder::new()
            .name("sketch-worker".into())
            .spawn(move || {
                while let Ok((k, layer, row)) = rx.recv() {
                    // The exact inline code path, on the exact stream,
                    // in the exact order — bit-identity by construction.
                    sketch.on_pulse_row(k, layer, &row);
                    // Recycle the buffer; if the return lane is full
                    // (feeder allocated faster than it reuses), just
                    // drop it rather than block the sketch.
                    let _ = recycle_tx.try_send(row);
                }
                sketch
            })
            .expect("failed to spawn sketch worker thread");
        Self {
            tx: Some(tx),
            recycle,
            handle: Some(handle),
        }
    }

    /// Closes the feed, waits for the worker to drain the in-flight
    /// rows, and returns the sketch (unfinished — the caller runs
    /// `finish()`/`snapshot()` as with an inline sketch).
    ///
    /// # Panics
    ///
    /// Re-raises any panic that occurred on the worker thread.
    pub fn join(mut self) -> PodSketch {
        drop(self.tx.take());
        let handle = self.handle.take().expect("join() consumed twice");
        match handle.join() {
            Ok(sketch) => sketch,
            Err(payload) => std::panic::resume_unwind(payload),
        }
    }
}

impl Observer for PipelinedSketch {
    fn on_faulty(&mut self, _node: NodeId) {
        // PodSketch ignores faulty announcements (the front matrix keeps
        // nominal times for every position); so does its pipeline.
    }

    fn on_pulse(&mut self, _k: usize, _node: NodeId, _t: Time) {
        panic!("PipelinedSketch consumes whole rows; feed it via on_pulse_row");
    }

    fn on_pulse_row(&mut self, k: usize, layer: u32, row: &[Option<Time>]) {
        let mut buf = self.recycle.try_recv().unwrap_or_default();
        buf.clear();
        buf.extend_from_slice(row);
        let tx = self.tx.as_ref().expect("row after join()");
        // A send error means the worker exited early, i.e. panicked
        // mid-update; surface it now rather than at join().
        tx.send((k, layer, buf))
            .expect("sketch worker thread died; see its panic");
    }
}

impl Drop for PipelinedSketch {
    fn drop(&mut self) {
        // Abandoned without join(): close the feed and reap the worker
        // so no thread outlives the observer. A worker panic is
        // swallowed here (double panic aborts); join() reports it.
        drop(self.tx.take());
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trix_topology::{BaseGraph, LayeredGraph};

    fn grid(width: usize, layers: usize) -> LayeredGraph {
        LayeredGraph::new(BaseGraph::cycle(width), layers)
    }

    fn synth(i: u64) -> f64 {
        let mut z = i.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z >> 11) as f64) / ((1u64 << 53) as f64)
    }

    /// The pipelined sketch is byte-identical to the inline one on the
    /// same row stream — including misfires and fronts that skip the
    /// sketch entirely (all-`None` rows) — at a small rank and at the
    /// production rank 16, where the 32 fronts span four block flushes.
    #[test]
    fn pipelined_matches_inline_bit_for_bit() {
        let layers = 4;
        for (width, rank) in [(7u64, 4), (24, 16)] {
            let g = grid(width as usize, layers);
            let rows: Vec<Vec<Option<Time>>> = (0..40u64)
                .map(|i| {
                    (0..width)
                        .map(|v| {
                            // Every fifth front is silent; the others
                            // carry scattered misfires.
                            if i % 5 == 4 || (i + v) % 9 == 3 {
                                None
                            } else {
                                Some(Time::from(5.0 * synth(i * width + v)))
                            }
                        })
                        .collect()
                })
                .collect();
            let fronts = rows
                .iter()
                .filter(|r| r.iter().any(Option::is_some))
                .count();
            let mut inline = PodSketch::new(&g, rank);
            let mut piped = PipelinedSketch::spawn(PodSketch::new(&g, rank));
            for (i, row) in rows.iter().enumerate() {
                let (k, layer) = (i / layers, (i % layers) as u32);
                inline.on_pulse_row(k, layer, row);
                piped.on_pulse_row(k, layer, row);
            }
            inline.finish();
            let mut from_worker = piped.join();
            from_worker.finish();
            let (a, b) = (inline.snapshot(), from_worker.snapshot());
            assert_eq!(a.rows, fronts as u64, "silent fronts must skip the sketch");
            let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&a.basis), bits(&b.basis), "rank {rank}");
            assert_eq!(bits(&a.singular_values), bits(&b.singular_values));
            assert_eq!(a.error_bound.to_bits(), b.error_bound.to_bits());
            assert_eq!(a.rows, b.rows);
        }
    }

    /// Dropping without join() reaps the worker instead of leaking it.
    #[test]
    fn drop_without_join_is_clean() {
        let g = grid(4, 2);
        let mut piped = PipelinedSketch::spawn(PodSketch::new(&g, 2));
        let row: Vec<Option<Time>> = (0..4).map(|v| Some(Time::from(v as f64))).collect();
        piped.on_pulse_row(0, 0, &row);
        drop(piped);
    }

    #[test]
    #[should_panic(expected = "whole rows")]
    fn per_element_feed_is_rejected() {
        let g = grid(3, 2);
        let mut piped = PipelinedSketch::spawn(PodSketch::new(&g, 2));
        piped.on_pulse(0, trix_topology::NodeId::new(0, 0), Time::from(1.0));
    }
}
