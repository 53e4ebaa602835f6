//! Deterministic parallel scenario-sweep execution.
//!
//! The paper's evaluation is a large grid of *independent* scenarios
//! (grid sizes × seeds × fault patterns). This crate shards such sweeps
//! across OS threads while guaranteeing that the outcome is **bit-for-bit
//! identical** to a serial run:
//!
//! * work items are claimed by index from a shared queue, but every result
//!   is written back to its item's original slot, so output order never
//!   depends on thread scheduling;
//! * per-scenario randomness is derived from `(base seed, experiment name,
//!   scenario index)` via [`scenario_seeds`] — never from "which thread ran
//!   this" or "how many scenarios ran before it on this worker";
//! * each work item must be a pure function of its inputs (all scenario
//!   jobs in this workspace are — the simulation stack is deterministic).
//!
//! Under these rules `sweep(threads = N)` equals `sweep(threads = 1)` for
//! every `N`, which the repo pins with `tests/parallel_determinism.rs`.
//!
//! The crate also owns the machine-readable side of the experiment
//! harness: the versioned benchmark-record schema ([`BenchRecord`],
//! [`BenchReport`]) written as JSON by `gradient-trix-experiments --json`,
//! and the [`Fnv`] fingerprint hasher used to compare executions.
//!
//! # Examples
//!
//! ```
//! use trix_runner::SweepRunner;
//!
//! let runner = SweepRunner::new(4);
//! let squares = runner.run((0..100u64).collect(), |_idx, x| x * x);
//! assert_eq!(squares[7], 49);
//! // Bit-identical to the serial sweep:
//! assert_eq!(squares, SweepRunner::new(1).run((0..100).collect(), |_i, x| x * x));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod json;

pub use json::{
    json_escape, BenchRecord, BenchReport, ParallelismStamp, SketchSummary, SkewSummary,
    ValueStats, BENCH_SCHEMA_VERSION,
};

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use trix_sim::splitmix64;

/// A 64-bit FNV-1a hasher for execution fingerprints.
///
/// Used by the determinism tests and the benchmark records to reduce an
/// entire scenario result (every table cell, every pulse time) to one
/// comparable word. Not a cryptographic hash — a fingerprint for
/// regression comparison.
///
/// # Examples
///
/// ```
/// use trix_runner::Fnv;
///
/// let mut a = Fnv::new();
/// a.write_str("skew");
/// a.write_u64(42);
/// let mut b = Fnv::new();
/// b.write_str("skew");
/// b.write_u64(42);
/// assert_eq!(a.finish(), b.finish());
/// ```
#[derive(Clone, Copy, Debug)]
pub struct Fnv(u64);

impl Fnv {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x100_0000_01b3;

    /// Creates a hasher at the standard FNV-1a offset basis.
    pub fn new() -> Self {
        Self(Self::OFFSET)
    }

    /// Folds one byte into the fingerprint.
    #[inline]
    pub fn write_u8(&mut self, byte: u8) {
        self.0 ^= u64::from(byte);
        self.0 = self.0.wrapping_mul(Self::PRIME);
    }

    /// Folds a 64-bit word into the fingerprint, byte by byte.
    #[inline]
    pub fn write_u64(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.write_u8(byte);
        }
    }

    /// Folds a string into the fingerprint (length-prefixed, so
    /// `"ab","c"` and `"a","bc"` hash differently).
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        for byte in s.bytes() {
            self.write_u8(byte);
        }
    }

    /// The accumulated fingerprint.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv {
    fn default() -> Self {
        Self::new()
    }
}

/// Derives the seed for scenario `index` of `experiment` under `base`.
///
/// The derivation depends only on its arguments — never on thread count,
/// worker identity, or completion order — so sharded sweeps see exactly
/// the seeds a serial sweep would. Keying by experiment *name* (not a
/// global scenario index) keeps every experiment's seeds stable when
/// experiments are added, removed, or reordered in the suite.
pub fn derive_seed(base: u64, experiment: &str, index: u64) -> u64 {
    let mut h = Fnv::new();
    h.write_u64(base);
    h.write_str(experiment);
    h.write_u64(index);
    let mut state = h.finish();
    splitmix64(&mut state)
}

/// Derives `count` independent seeds for scenario `index` of `experiment`.
///
/// Successive seeds come from successive SplitMix64 outputs of the
/// [`derive_seed`] state, so seed lists of different lengths share a
/// prefix: shrinking a scale's seed count keeps the surviving runs
/// comparable.
pub fn scenario_seeds(base: u64, experiment: &str, index: u64, count: usize) -> Vec<u64> {
    let mut state = derive_seed(base, experiment, index);
    (0..count).map(|_| splitmix64(&mut state)).collect()
}

/// Splits detected CPU parallelism between the two thread knobs of the
/// experiment harness: the scenario-sweep level ([`SweepRunner`]) and the
/// intra-scenario dataflow level (`run_dataflow_parallel`'s `threads`).
///
/// `0` means "auto" on either knob. The total worker count of a sweep is
/// the *product* of the two levels, so resolving each `0` independently
/// to "all CPUs" — as the levels historically did per call — oversizes a
/// doubly-auto sweep to `cores²` workers. This resolver is the suite-level
/// fix: it reads [`trix_sim::detected_parallelism`] **once** and divides
/// it between the levels so the resolved product never exceeds the
/// detected parallelism (whenever the explicit knobs themselves don't):
///
/// * `(0, 0)` → `(P, 1)` — scenario-level parallelism wins, because a
///   suite has many independent scenarios and sweep-level sharding has
///   no synchronization cost at all;
/// * `(0, m)` → `(max(1, ⌊P/m⌋), m)` — the sweep gets the CPUs the
///   explicit sim knob leaves over;
/// * `(n, 0)` → `(n, max(1, ⌊P/n⌋))` — and vice versa;
/// * `(n, m)` → `(n, m)` — explicit choices are always respected.
///
/// # Examples
///
/// ```
/// use trix_runner::resolve_thread_split;
///
/// let p = trix_sim::detected_parallelism().workers;
/// assert_eq!(resolve_thread_split(0, 0), (p, 1));
/// assert_eq!(resolve_thread_split(3, 2), (3, 2));
/// ```
pub fn resolve_thread_split(threads: usize, sim_threads: usize) -> (usize, usize) {
    let p = trix_sim::detected_parallelism().workers;
    match (threads, sim_threads) {
        (0, 0) => (p, 1),
        (0, m) => ((p / m).max(1), m),
        (n, 0) => (n, (p / n).max(1)),
        explicit => explicit,
    }
}

/// Shards independent work items across OS threads, order-preserving.
#[derive(Clone, Copy, Debug)]
pub struct SweepRunner {
    threads: usize,
}

impl SweepRunner {
    /// Creates a runner using `threads` workers; `0` means "one per
    /// available CPU" (via the process-wide
    /// [`trix_sim::detected_parallelism`] cache — if CPU detection fails
    /// the runner falls back to [`trix_sim::FALLBACK_WORKERS`] and the
    /// failure is visible through that API rather than swallowed here).
    ///
    /// When combining with intra-scenario `sim_threads`, resolve both
    /// knobs through [`resolve_thread_split`] instead of passing `0`
    /// here: `new(0)` alone claims every CPU for the sweep level.
    pub fn new(threads: usize) -> Self {
        let threads = if threads == 0 {
            trix_sim::detected_parallelism().workers
        } else {
            threads
        };
        Self { threads }
    }

    /// The worker count this runner will use.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `f` over every item and returns the results **in item order**.
    ///
    /// `f` receives the item's index and the item. Items are claimed
    /// dynamically (an atomic cursor), so long scenarios don't serialize
    /// behind short ones; results land in their item's slot regardless of
    /// which worker produced them. With a deterministic `f`, the returned
    /// vector is identical for every thread count.
    ///
    /// # Panics
    ///
    /// Propagates the first worker panic after all workers stop.
    pub fn run<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        let n = items.len();
        if n == 0 {
            return Vec::new();
        }
        let workers = self.threads.min(n);
        if workers <= 1 {
            return items
                .into_iter()
                .enumerate()
                .map(|(i, item)| f(i, item))
                .collect();
        }
        let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|x| Mutex::new(Some(x))).collect();
        let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let cursor = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let item = slots[i]
                        .lock()
                        .expect("work slot poisoned")
                        .take()
                        .expect("work item claimed twice");
                    let out = f(i, item);
                    *results[i].lock().expect("result slot poisoned") = Some(out);
                });
            }
        });
        results
            .into_iter()
            .enumerate()
            .map(|(i, slot)| {
                slot.into_inner()
                    .expect("result slot poisoned")
                    .unwrap_or_else(|| panic!("missing result for item {i}"))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn results_are_order_preserving_for_any_thread_count() {
        let items: Vec<u64> = (0..57).collect();
        let serial = SweepRunner::new(1).run(items.clone(), |i, x| (i as u64) * 1000 + x);
        for threads in [2, 3, 4, 8, 16] {
            let parallel = SweepRunner::new(threads).run(items.clone(), |i, x| {
                // Perturb scheduling: odd items spin a little.
                if x % 2 == 1 {
                    std::hint::black_box((0..10_000).sum::<u64>());
                }
                (i as u64) * 1000 + x
            });
            assert_eq!(serial, parallel, "thread count {threads}");
        }
    }

    #[test]
    fn every_item_runs_exactly_once() {
        let calls = AtomicU64::new(0);
        let out = SweepRunner::new(4).run((0..100u64).collect(), |_i, x| {
            calls.fetch_add(1, Ordering::Relaxed);
            x
        });
        assert_eq!(out.len(), 100);
        assert_eq!(calls.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn zero_threads_means_available_parallelism() {
        assert!(SweepRunner::new(0).threads() >= 1);
        assert_eq!(SweepRunner::new(3).threads(), 3);
        // The runner resolves through the same process-wide cache every
        // other auto knob uses.
        assert_eq!(
            SweepRunner::new(0).threads(),
            trix_sim::detected_parallelism().workers
        );
    }

    /// Regression test for the `threads == 0` × `--sim-threads 0`
    /// oversubscription footgun: with each level auto-resolving
    /// independently a doubly-auto sweep spawned `cores²` workers. The
    /// suite-level resolver must keep the resolved product within the
    /// detected parallelism whenever the explicit knobs themselves do.
    #[test]
    fn resolved_thread_product_never_exceeds_available_parallelism() {
        let p = trix_sim::detected_parallelism().workers;
        // Both auto: the historic footgun shape.
        let (threads, sim) = resolve_thread_split(0, 0);
        assert!(threads * sim <= p, "({threads}, {sim}) oversubscribes {p}");
        // One knob auto, the other explicit but within budget.
        for explicit in 1..=p {
            let (threads, sim) = resolve_thread_split(0, explicit);
            assert_eq!(sim, explicit);
            assert!(threads * sim <= p, "({threads}, {sim}) oversubscribes {p}");
            let (threads, sim) = resolve_thread_split(explicit, 0);
            assert_eq!(threads, explicit);
            assert!(threads * sim <= p, "({threads}, {sim}) oversubscribes {p}");
        }
        // Auto never resolves to zero workers, even when the explicit
        // knob exceeds the whole budget.
        assert_eq!(resolve_thread_split(0, 16 * p), (1, 16 * p));
        assert_eq!(resolve_thread_split(16 * p, 0), (16 * p, 1));
        // Explicit pairs pass through untouched.
        assert_eq!(resolve_thread_split(3, 5), (3, 5));
    }

    #[test]
    fn empty_sweep_is_fine() {
        let out: Vec<u64> = SweepRunner::new(8).run(Vec::<u64>::new(), |_, x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn derived_seeds_are_stable_and_distinct() {
        let a = scenario_seeds(0, "thm11", 0, 4);
        let b = scenario_seeds(0, "thm11", 0, 4);
        assert_eq!(a, b);
        // Longer lists extend shorter ones (shared prefix).
        assert_eq!(scenario_seeds(0, "thm11", 0, 2), a[..2].to_vec());
        // Different index / experiment / base ⇒ different seeds.
        assert_ne!(scenario_seeds(0, "thm11", 1, 4), a);
        assert_ne!(scenario_seeds(0, "thm12", 0, 4), a);
        assert_ne!(scenario_seeds(1, "thm11", 0, 4), a);
        // No accidental collisions within a typical sweep.
        let mut all: Vec<u64> = (0..64).flat_map(|i| scenario_seeds(7, "x", i, 4)).collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 256);
    }

    #[test]
    fn fnv_matches_known_vector() {
        // FNV-1a of the empty input is the offset basis.
        assert_eq!(Fnv::new().finish(), 0xcbf2_9ce4_8422_2325);
        let mut h = Fnv::new();
        h.write_u8(b'a');
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
    }
}
