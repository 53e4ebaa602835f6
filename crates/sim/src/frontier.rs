//! Barrier-free frontier scheduler for the parallel dataflow driver.
//!
//! The paper's Lemma B.1 dependency structure — iteration `k` of layer
//! `ℓ` depends only on iteration `k` of layer `ℓ − 1` — makes the
//! two-`Barrier`-per-layer protocol the previous engine used strictly
//! more synchronization than the math requires: a global barrier makes
//! every worker wait for the slowest chunk of *every* layer, twice.
//! This module replaces it with timely-style progress tracking (see
//! SNIPPETS.md §2–3): each worker owns a fixed contiguous column chunk
//! and tracks, per chunk, a frontier of *published steps*, where step
//! `s = k · layer_count + ℓ` totally orders the `(pulse, layer)` grid.
//! A worker may evaluate its chunk at step `s` as soon as the chunks
//! covering its in-edge boundary have published step `s − 1` — no global
//! barrier, stragglers only block their immediate downstream neighbors,
//! and independent chunks pipeline freely across layers *and* pulses.
//! Every layer boundary is a copy of the base graph, so a chunk's
//! boundary is read off the base graph's rows once per run
//! ([`trix_topology::boundary_preds`]): the columns
//! outside the chunk that are neighbors of a column inside it (an
//! `O(1)`-column set for the paper's bounded-degree base graphs, none
//! for a full-width chunk).
//!
//! # Publication protocol
//!
//! Each chunk owns a ring of [`SLOT_DEPTH`] versioned row slots guarded
//! by a `Mutex` + `Condvar` pair (std-only, no unsafe). Publishing step
//! `s` writes slot `s mod SLOT_DEPTH` and bumps the chunk's published
//! frontier; readers wait on the condvar until the frontier covers the
//! step they need, then copy out only the boundary columns they read.
//! Slot reuse is safe on two counts:
//!
//! * **compute readers** — the chunk dependency relation is symmetric
//!   (undirected base graph, plus every chunk depends on itself), so
//!   before chunk `b` can publish step `s + 2` and overwrite the
//!   step-`s` slot of a depth-2 ring, every reader `c` of `b`'s
//!   step-`s` row must itself have published step `s + 1` — i.e. it has
//!   long finished reading. Any `SLOT_DEPTH ≥ 2` is therefore safe;
//! * **the flusher** — the calling thread trails the workers, copying
//!   each fully-published row and emitting observer events in serial
//!   order. Writers explicitly wait until the flusher has consumed step
//!   `s − SLOT_DEPTH` before overwriting its slot, which simultaneously
//!   bounds how far workers can run ahead (at most `SLOT_DEPTH` steps)
//!   and keeps peak memory at `O(SLOT_DEPTH × width)`.
//!
//! # Determinism
//!
//! Chunk evaluation calls the same pure per-column inner loop as the
//! serial driver, on a view buffer that replays the serial previous row
//! exactly; all observer emissions and metrics bumps happen on the
//! calling thread in the serial driver's `(k, layer, v)` order. The
//! engine is therefore **bit-identical** to [`crate::run_dataflow_observed`]
//! for every thread count — the property tests in `tests/prop.rs` and
//! the campaign tests in `trix-faults` pin this.
//!
//! # Panic containment
//!
//! There are no barriers to poison and none to re-check: every blocking
//! wait loops over an abort flag. The first panic (in a worker's rule /
//! environment / send-model code, or in the observer on the calling
//! thread) stashes its payload, raises the flag, and wakes every
//! condvar; all threads unwind their waits cooperatively and the
//! payload is re-raised on the calling thread, exactly like the serial
//! driver.

use crate::dataflow::{eval_layer_chunk, Layer0Source, PulseRule, SendModel};
use crate::{Environment, Observer};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock};
use trix_time::Time;
use trix_topology::{boundary_preds, chunk_partition, BaseGraph, LayeredGraph, NodeId};

/// Worker count a `threads == 0` knob resolves to when
/// [`std::thread::available_parallelism`] fails (unsupported platform,
/// restricted container): the engines fall back to serial execution
/// rather than guessing a core count.
pub const FALLBACK_WORKERS: usize = 1;

/// Outcome of the process-wide CPU-count detection backing every
/// `threads == 0` ("auto") knob.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DetectedParallelism {
    /// The worker count an auto-sized thread knob resolves to.
    pub workers: usize,
    /// `true` when [`std::thread::available_parallelism`] errored and
    /// `workers` is the documented [`FALLBACK_WORKERS`] — surfaced so a
    /// mis-detected container shows up in reports instead of
    /// masquerading as a performance regression.
    pub detection_failed: bool,
}

/// Detects available parallelism **once per process** and caches the
/// result.
///
/// Every auto-sizing thread knob in the workspace (`run_dataflow_parallel`
/// with `threads == 0`, `trix_bench::suite::SweepRunner::new(0)`) resolves
/// through this cache, so detection cost — and, more importantly,
/// detection *failure* — is paid and reported exactly once rather than
/// silently per call.
pub fn detected_parallelism() -> DetectedParallelism {
    static DETECTED: OnceLock<DetectedParallelism> = OnceLock::new();
    *DETECTED.get_or_init(|| match std::thread::available_parallelism() {
        Ok(n) => DetectedParallelism {
            workers: n.get(),
            detection_failed: false,
        },
        Err(_) => DetectedParallelism {
            workers: FALLBACK_WORKERS,
            detection_failed: true,
        },
    })
}

/// Published-row slots ringed per chunk.
///
/// Two is provably sufficient for compute readers (see the module docs);
/// the extra slack lets workers run a few steps ahead of the flushing
/// calling thread, absorbing transient stragglers without growing peak
/// memory beyond `O(SLOT_DEPTH × width)`.
const SLOT_DEPTH: usize = 4;

/// No step published yet (steps are numbered from 0).
const UNPUBLISHED: i64 = -1;

/// One chunk's versioned publication ring.
struct ChunkRing {
    /// `rows[s mod SLOT_DEPTH]` holds the chunk's step-`s` row while
    /// `published >= s > published - SLOT_DEPTH`.
    rows: Vec<Vec<Option<Time>>>,
    /// The chunk's frontier: the latest published step.
    published: i64,
}

/// A chunk's ring plus the condvar its consumers wait on.
struct ChunkCell {
    ring: Mutex<ChunkRing>,
    ready: Condvar,
}

/// Shared progress state of one frontier run.
struct Progress {
    chunks: Vec<ChunkCell>,
    /// The latest step the calling thread has fully flushed to the
    /// observer; writers wait on this before reusing a ring slot.
    flushed: Mutex<i64>,
    flush_advanced: Condvar,
    /// Raised by the first panic; every wait loop checks it.
    aborted: AtomicBool,
}

/// Unwinds a blocking wait after [`Progress::abort`]; carries no data —
/// the panic payload travels through the driver's side channel.
struct Aborted;

/// Locks a mutex, shrugging off poisoning: a poisoned lock only means
/// some thread panicked, which the abort flag already handles.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

impl Progress {
    fn new(bounds: &[(usize, usize)]) -> Self {
        Self {
            chunks: bounds
                .iter()
                .map(|&(lo, hi)| ChunkCell {
                    ring: Mutex::new(ChunkRing {
                        rows: vec![vec![None; hi - lo]; SLOT_DEPTH],
                        published: UNPUBLISHED,
                    }),
                    ready: Condvar::new(),
                })
                .collect(),
            flushed: Mutex::new(UNPUBLISHED),
            flush_advanced: Condvar::new(),
            aborted: AtomicBool::new(false),
        }
    }

    /// Raises the abort flag and wakes every waiter. Acquiring each
    /// mutex before notifying guarantees no waiter can check the flag
    /// and park in between (no lost wakeups).
    fn abort(&self) {
        self.aborted.store(true, Ordering::Release);
        for cell in &self.chunks {
            let _guard = lock(&cell.ring);
            cell.ready.notify_all();
        }
        let _guard = lock(&self.flushed);
        self.flush_advanced.notify_all();
    }

    /// Waits until chunk `c` has published `step`, then copies the given
    /// absolute columns of that row into `view` (the dep chunk starts at
    /// column `dep_lo`).
    fn read_cols(
        &self,
        c: usize,
        dep_lo: usize,
        step: i64,
        cols: &[usize],
        view: &mut [Option<Time>],
    ) -> Result<(), Aborted> {
        let cell = &self.chunks[c];
        let mut ring = lock(&cell.ring);
        while ring.published < step {
            if self.aborted.load(Ordering::Acquire) {
                return Err(Aborted);
            }
            ring = cell.ready.wait(ring).unwrap_or_else(|p| p.into_inner());
        }
        let row = &ring.rows[step as usize % SLOT_DEPTH];
        for &col in cols {
            view[col] = row[col - dep_lo];
        }
        Ok(())
    }

    /// Waits until chunk `c` has published `step`, then copies the whole
    /// row into `dst` (flusher path).
    fn read_row(&self, c: usize, step: i64, dst: &mut [Option<Time>]) -> Result<(), Aborted> {
        let cell = &self.chunks[c];
        let mut ring = lock(&cell.ring);
        while ring.published < step {
            if self.aborted.load(Ordering::Acquire) {
                return Err(Aborted);
            }
            ring = cell.ready.wait(ring).unwrap_or_else(|p| p.into_inner());
        }
        dst.copy_from_slice(&ring.rows[step as usize % SLOT_DEPTH]);
        Ok(())
    }

    /// Publishes chunk `c`'s step-`step` row and advances its frontier.
    ///
    /// First waits for the flusher to clear the slot this write reuses
    /// (the step-`step − SLOT_DEPTH` row); compute readers need no such
    /// guard — see the module docs for the symmetry argument.
    fn publish(&self, c: usize, step: i64, row: &[Option<Time>]) -> Result<(), Aborted> {
        {
            let mut flushed = lock(&self.flushed);
            while *flushed + (SLOT_DEPTH as i64) < step {
                if self.aborted.load(Ordering::Acquire) {
                    return Err(Aborted);
                }
                flushed = self
                    .flush_advanced
                    .wait(flushed)
                    .unwrap_or_else(|p| p.into_inner());
            }
        }
        let cell = &self.chunks[c];
        let mut ring = lock(&cell.ring);
        ring.rows[step as usize % SLOT_DEPTH].copy_from_slice(row);
        ring.published = step;
        cell.ready.notify_all();
        Ok(())
    }

    /// Records that the calling thread has flushed `step`, releasing the
    /// corresponding ring slots for reuse.
    fn advance_flush(&self, step: i64) {
        let mut flushed = lock(&self.flushed);
        *flushed = step;
        self.flush_advanced.notify_all();
    }
}

/// A worker's precomputed schedule: its chunk bounds plus its in-edge
/// boundary grouped by owning chunk.
struct ChunkPlan {
    chunk: usize,
    lo: usize,
    hi: usize,
    /// `(dep chunk index, dep chunk lo, absolute boundary columns)`.
    deps: Vec<(usize, usize, Vec<usize>)>,
}

fn build_plans(base: &BaseGraph, bounds: &[(usize, usize)]) -> Vec<ChunkPlan> {
    // All chunks except possibly the last have the same (ceil) size, so
    // a column's owning chunk is an index division away.
    let size = bounds[0].1 - bounds[0].0;
    bounds
        .iter()
        .enumerate()
        .map(|(chunk, &(lo, hi))| {
            let mut deps: Vec<(usize, usize, Vec<usize>)> = Vec::new();
            for col in boundary_preds(base, lo, hi) {
                let owner = col / size;
                match deps.last_mut() {
                    Some((d, _, cols)) if *d == owner => cols.push(col),
                    _ => deps.push((owner, bounds[owner].0, vec![col])),
                }
            }
            ChunkPlan {
                chunk,
                lo,
                hi,
                deps,
            }
        })
        .collect()
}

/// Runs the frontier engine proper.
///
/// The caller ([`crate::run_dataflow_parallel`]) has already announced
/// faulty nodes, resolved the thread knob, and handled the degenerate
/// shapes (`workers <= 1`, a single layer, zero pulses) via the serial
/// driver, so this function assumes `workers >= 2`, `layer_count >= 2`
/// and `pulses >= 1`.
#[allow(clippy::too_many_arguments)] // the serial driver's signature + the worker knob
pub(crate) fn run_frontier(
    g: &LayeredGraph,
    env: &(impl Environment + Sync),
    layer0: &(impl Layer0Source + Sync),
    rule: &(impl PulseRule + Sync),
    sends: &(impl SendModel + Sync),
    pulses: usize,
    workers: usize,
    obs: &mut impl Observer,
) {
    // Every layer is a copy of the base graph, so one column partition
    // serves all of them, for any base graph a family generator produced.
    let width = g.width();
    let layer_count = g.layer_count();
    // The partition is canonical and never influences results (each
    // column is a pure function of the previous row), only load balance;
    // it may yield fewer chunks than requested workers (degenerate
    // widths), in which case we spawn exactly one worker per chunk.
    let bounds = chunk_partition(width, workers);
    let plans = build_plans(g.base(), &bounds);
    let progress = Progress::new(&bounds);
    let total_steps = (pulses * layer_count) as i64;
    let panic_payload: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);
    let report = |e: Box<dyn std::any::Any + Send>| {
        lock(&panic_payload).get_or_insert(e);
        progress.abort();
    };
    std::thread::scope(|scope| {
        for plan in &plans {
            let (progress, report) = (&progress, &report);
            scope.spawn(move || {
                // One `catch_unwind` around the whole worker: any panic
                // in rule/env/sends/layer0 code aborts the run and the
                // payload re-raises on the calling thread.
                let result =
                    std::panic::catch_unwind(AssertUnwindSafe(|| -> Result<(), Aborted> {
                        // Worker-local view of the previous row: own columns
                        // are refreshed after every publish, boundary columns
                        // copied from dep chunks per step. Only those indices
                        // are ever read, and they replay the serial `prev`
                        // row exactly.
                        let mut view: Vec<Option<Time>> = vec![None; width];
                        let mut out: Vec<Option<Time>> = vec![None; plan.hi - plan.lo];
                        let mut scratch: Vec<Option<Time>> =
                            Vec::with_capacity(g.base().max_degree());
                        for k in 0..pulses {
                            for layer in 0..layer_count {
                                let step = (k * layer_count + layer) as i64;
                                if layer == 0 {
                                    // Layer 0 is a pure source: no frontier
                                    // wait, each worker derives its own slice
                                    // (membership-gated like the serial leg).
                                    for (i, slot) in out.iter_mut().enumerate() {
                                        let v = plan.lo + i;
                                        *slot = sends
                                            .is_member(NodeId::new(v as u32, 0), k)
                                            .then(|| layer0.pulse_time(k, v));
                                    }
                                } else {
                                    for (dep, dep_lo, cols) in &plan.deps {
                                        progress.read_cols(
                                            *dep,
                                            *dep_lo,
                                            step - 1,
                                            cols,
                                            &mut view,
                                        )?;
                                    }
                                    eval_layer_chunk(
                                        g,
                                        env,
                                        rule,
                                        sends,
                                        k,
                                        layer,
                                        plan.lo,
                                        &view,
                                        &mut out,
                                        &mut scratch,
                                    );
                                }
                                progress.publish(plan.chunk, step, &out)?;
                                view[plan.lo..plan.hi].copy_from_slice(&out);
                            }
                        }
                        Ok(())
                    }));
                if let Err(e) = result {
                    report(e);
                }
            });
        }
        // The calling thread is the dedicated flusher: it trails the
        // workers' frontiers and alone talks to the observer and the
        // metrics counter, in the serial driver's `(k, layer, v)` order.
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| -> Result<(), Aborted> {
            let mut row: Vec<Option<Time>> = vec![None; width];
            for step in 0..total_steps {
                for (c, &(lo, hi)) in bounds.iter().enumerate() {
                    progress.read_row(c, step, &mut row[lo..hi])?;
                }
                let k = (step / layer_count as i64) as usize;
                let layer = (step % layer_count as i64) as usize;
                if layer > 0 {
                    crate::metrics::bump(width as u64);
                }
                obs.on_pulse_row(k, layer as u32, &row);
                progress.advance_flush(step);
            }
            Ok(())
        }));
        if let Err(e) = result {
            report(e);
        }
    });
    if let Some(payload) = panic_payload
        .into_inner()
        .unwrap_or_else(|p| p.into_inner())
    {
        std::panic::resume_unwind(payload);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detection_is_cached_and_consistent() {
        let a = detected_parallelism();
        let b = detected_parallelism();
        assert_eq!(a, b);
        assert!(a.workers >= 1);
        if a.detection_failed {
            assert_eq!(a.workers, FALLBACK_WORKERS);
        }
    }

    /// Each plan lists, grouped by owning chunk and in ascending order,
    /// exactly the columns a brute-force scan of the base graph's rows
    /// finds: outside the chunk and adjacent to a column inside it. A
    /// full-width chunk and the one chunk of a 1-wide graph depend on
    /// nothing and may free-run through every layer.
    #[test]
    fn plans_cover_every_external_pred() {
        for (base, chunks) in [
            (BaseGraph::line_with_replicated_ends(11), 4),
            (BaseGraph::cycle(6), 3),
            (BaseGraph::cycle(6), 1),
            (BaseGraph::from_edges(1, &[]), 8),
        ] {
            let bounds = chunk_partition(base.node_count(), chunks);
            let plans = build_plans(&base, &bounds);
            assert_eq!(plans.len(), bounds.len());
            for plan in &plans {
                let mut seen: Vec<usize> = Vec::new();
                for (dep, dep_lo, cols) in &plan.deps {
                    assert_ne!(*dep, plan.chunk, "own chunk never a dep");
                    let (lo, hi) = bounds[*dep];
                    assert_eq!(lo, *dep_lo);
                    assert!(cols.iter().all(|&c| c >= lo && c < hi), "owned by dep");
                    seen.extend(cols);
                }
                let inside = plan.lo..plan.hi;
                let expected: Vec<usize> = (0..base.node_count())
                    .filter(|c| !inside.contains(c))
                    .filter(|c| inside.clone().any(|w| base.neighbors(w).contains(c)))
                    .collect();
                assert_eq!(seen, expected);
            }
            if bounds.len() == 1 {
                assert!(plans[0].deps.is_empty(), "a full-width chunk free-runs");
            }
        }
    }
}
