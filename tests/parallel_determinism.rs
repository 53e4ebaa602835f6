//! Parallel-vs-serial determinism of the scenario-sweep runner: sharding
//! the experiment suite across OS threads must be **bit-for-bit**
//! equivalent to the serial sweep — the same guarantee
//! `tests/determinism.rs` pins for single executions, lifted to whole
//! sweeps.

use trix_bench::{run_suite, Scale};
use trix_runner::{Fnv, SweepRunner};

/// One sweep's comparable outputs: an FNV fingerprint of every table
/// cell and every non-volatile record field (same harness as
/// `tests/determinism.rs`, via [`trix_runner::Fnv`]), and the canonical
/// JSON report, which additionally serializes the `skew`, `sketch` and
/// `churn` objects — exactly the bytes the harness writes to each
/// `BENCH_<experiment>.json` under `--canonical`.
fn sweep(scale: Scale, base_seed: u64, threads: usize, sim_threads: usize) -> (u64, String) {
    let outcome = run_suite(scale, base_seed, threads, sim_threads);
    let mut h = Fnv::new();
    for table in &outcome.tables {
        h.write_str(table.title());
        for row in table.rows() {
            for cell in row {
                h.write_str(cell);
            }
        }
    }
    for record in &outcome.report.records {
        h.write_str(&record.experiment);
        h.write_str(&record.scenario);
        for (k, v) in &record.params {
            h.write_str(k);
            h.write_str(v);
        }
        for &seed in &record.seeds {
            h.write_u64(seed);
        }
        h.write_u64(record.rows as u64);
        h.write_u64(record.events);
        h.write_u64(record.fingerprint);
        // Schema v4/v6: the campaign and topology descriptors are part
        // of what the scenario computed.
        h.write_str(record.campaign.as_deref().unwrap_or(""));
        h.write_str(record.topology.as_deref().unwrap_or(""));
    }
    (h.finish(), outcome.report.canonicalized().to_json())
}

/// Asserts two sweeps are identical in fingerprint and canonical bytes
/// (without dumping the multi-kilobyte JSON on failure).
fn assert_same_sweep(reference: &(u64, String), other: &(u64, String), what: &str) {
    assert_eq!(
        reference.0, other.0,
        "{what}: table/record fingerprint diverged"
    );
    assert!(
        reference.1 == other.1,
        "{what}: canonical JSON report diverged"
    );
}

#[test]
fn sharded_sweep_equals_serial_sweep() {
    let serial = sweep(Scale::Smoke, 0xDE7E_2517, 1, 1);
    let sharded = sweep(Scale::Smoke, 0xDE7E_2517, 4, 1);
    assert_same_sweep(&serial, &sharded, "4-thread sweep vs serial");
}

#[test]
fn sharded_sweep_is_stable_across_repeats_and_widths() {
    let reference = sweep(Scale::Smoke, 1, 2, 1);
    for threads in [2, 8] {
        let other = sweep(Scale::Smoke, 1, threads, 1);
        assert_same_sweep(&reference, &other, &format!("thread count {threads}"));
    }
}

#[test]
fn different_base_seeds_produce_different_sweeps() {
    assert_ne!(
        sweep(Scale::Smoke, 1, 2, 1).0,
        sweep(Scale::Smoke, 2, 2, 1).0,
        "base seed must reach the scenario seeds"
    );
}

#[test]
fn canonical_json_reports_are_byte_identical_across_thread_counts() {
    let serial = run_suite(Scale::Smoke, 7, 1, 1).report.canonicalized();
    let sharded = run_suite(Scale::Smoke, 7, 3, 1).report.canonicalized();
    assert_eq!(serial.to_json(), sharded.to_json());
}

/// The tentpole determinism gate, at workspace level: sharding each
/// scenario's dataflow layers across `--sim-threads` workers — alone and
/// combined with scenario-level sharding — must not change one bit of
/// any table cell or canonical record, for every experiment of the
/// suite at once: the five streaming experiments (`exp_scale`,
/// `exp_fault_sweep`, `exp_topology`, `exp_modes`, `exp_churn`) take
/// `sim_threads`, and the paper experiments must not notice it.
#[test]
fn sim_threads_sweep_equals_serial_sweep() {
    let reference = sweep(Scale::Smoke, 11, 1, 1);
    for (threads, sim_threads) in [(1, 2), (1, 4), (4, 2), (2, 0), (4, 4)] {
        let other = sweep(Scale::Smoke, 11, threads, sim_threads);
        assert_same_sweep(
            &reference,
            &other,
            &format!("threads {threads} × sim_threads {sim_threads}"),
        );
    }
}

#[test]
fn runner_preserves_order_under_uneven_load() {
    // Direct runner check with deliberately skewed per-item cost.
    let items: Vec<u64> = (0..40).collect();
    let work = |i: usize, x: u64| {
        if x.is_multiple_of(5) {
            std::hint::black_box((0..50_000u64).sum::<u64>());
        }
        (i, x * 3)
    };
    let serial = SweepRunner::new(1).run(items.clone(), work);
    let sharded = SweepRunner::new(6).run(items, work);
    assert_eq!(serial, sharded);
}
