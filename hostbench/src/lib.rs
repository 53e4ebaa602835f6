//! Host-time benchmark of the Gradient TRIX simulator.
//!
//! `src/main.rs` is the command; this library holds the pieces it and
//! the tests share: the counting allocator, the core-clock reading, the
//! span tracer with its timing observer wrapper, the workloads, and the
//! metric tables that `BENCHMARK.json` mirrors. See `NOTES.md`.

pub mod alloc;
pub mod clock;
pub mod trace;
pub mod workload;

/// End-to-end metrics of an untraced run: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("ns_per_eval", "ns"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics of a traced run: `(name, unit)`. A layer a
/// workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 21] = [
    ("topology.build_s", "s"),
    ("sim.env_s", "s"),
    ("core.layer0_s", "s"),
    ("faults.campaign_s", "s"),
    ("faults.gating_ns_per_eval", "ns"),
    ("core.decide_ns", "ns"),
    ("sim.engine_null_ns_per_eval", "ns"),
    ("sim.engine_self_s", "s"),
    ("sim.engine_allocs_per_eval", "count"),
    ("sim.engine_alloc_bytes_per_eval", "B"),
    ("sim.evals", "count"),
    ("sim.frontier_s", "s"),
    ("sim.frontier_speedup", "ratio"),
    ("obs.skew_s", "s"),
    ("obs.skew_ns_per_elem", "ns"),
    ("obs.sketch_ingest_s", "s"),
    ("obs.sketch_finish_s", "s"),
    ("obs.sketch_rows", "count"),
    ("analysis.probe_pass_s", "s"),
    ("analysis.probe_hook_s", "s"),
    ("trace.overhead", "ratio"),
];
