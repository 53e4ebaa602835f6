//! Streaming-vs-post-hoc equivalence across the experiment suite.
//!
//! The streaming experiments' contract: every statistic the streaming
//! skew observer records must be **bit-identical** to what the post-hoc
//! analyzer (`trix_analysis::skew` over a full `PulseTrace`) computes for
//! the same workload — for any `--threads` value. This test replays every
//! record of the smoke-scale suite that carries streaming statistics from
//! its *benchmark record alone* (params + derived seeds), re-runs it
//! through the classic trace-backed path, recomputes all skew statistics
//! batch-style, and compares `SkewStats` with `==` on the raw `f64`s —
//! no tolerance.

use gradient_trix::analysis::{global_skew, inter_layer_skew, intra_layer_skew};
use gradient_trix::core::GradientTrixRule;
use gradient_trix::obs::{PodSketch, SkewStats};
use gradient_trix::sim::{CorrectSends, PulseTrace, SendModel};
use gradient_trix::time::Time;
use gradient_trix::topology::{LayeredGraph, NodeId};
use trix_bench::common::{
    grid, merge_snapshots, run_gradient_trix, run_gradient_trix_graph, run_gradient_trix_streaming,
    standard_params, streaming_monitor,
};
use trix_bench::json::BenchRecord;
use trix_bench::{exp_churn, exp_fault_sweep, exp_modes, exp_topology, run_suite, Scale};

/// Batch recomputation of a [`SkewStats`] snapshot from a full trace,
/// folding in the same pulse order as the streaming monitor. `sends` is
/// `CorrectSends` for fault-free records and the reconstructed
/// [`trix_faults::FaultCampaign`] for `exp_fault_sweep` records.
fn post_hoc_stats(g: &LayeredGraph, pulses: usize, seed: u64, sends: &impl SendModel) -> SkewStats {
    let p = standard_params();
    let rule = GradientTrixRule::new(p);
    let (trace, _) = run_gradient_trix(g, &p, &rule, sends, pulses, seed);
    post_hoc_stats_from_trace(g, pulses, &trace)
}

/// [`post_hoc_stats`] for `exp_topology`, `exp_modes`, and torus-leg
/// `exp_churn` records: same batch recomputation, but the trace comes
/// from the graph-generic runner (BFS-forest layer 0) — the source the
/// family sweeps stream with. `sends` is `CorrectSends` for fault-free
/// sweeps and the reconstructed `ChurnCampaign` for `exp_churn`.
fn post_hoc_graph_stats(
    g: &LayeredGraph,
    pulses: usize,
    seed: u64,
    sends: &impl SendModel,
) -> SkewStats {
    let p = standard_params();
    let rule = GradientTrixRule::new(p);
    let (trace, _) = run_gradient_trix_graph(g, &p, &rule, sends, pulses, seed);
    post_hoc_stats_from_trace(g, pulses, &trace)
}

fn post_hoc_stats_from_trace(g: &LayeredGraph, pulses: usize, trace: &PulseTrace) -> SkewStats {
    let p = standard_params();
    // The suite's standard monitor shape (κ/2 bins): recompute the
    // histogram the same way the observer bins per-pulse maxima.
    let reference = streaming_monitor(g, &p);
    let bin_width = reference.intra().histogram().bin_width();
    let bin_count = reference.intra().histogram().bins().len();

    let mut max_intra = 0.0f64;
    let mut max_inter = 0.0f64;
    let mut max_global = 0.0f64;
    let mut sum_intra = 0.0f64;
    let mut count_intra = 0u64;
    let mut hist = vec![0u64; bin_count];
    for k in 0..pulses {
        let mut pulse_intra: Option<f64> = None;
        let mut pulse_global: Option<f64> = None;
        for layer in 0..g.layer_count() {
            if let Some(s) = intra_layer_skew(g, trace, k, layer) {
                let s = s.as_f64();
                pulse_intra = Some(pulse_intra.map_or(s, |w| w.max(s)));
            }
            if let Some(s) = global_skew(g, trace, k, layer) {
                let s = s.as_f64();
                pulse_global = Some(pulse_global.map_or(s, |w| w.max(s)));
            }
            if let Some(s) = inter_layer_skew(g, trace, k, layer) {
                max_inter = max_inter.max(s.as_f64());
            }
        }
        if let Some(s) = pulse_intra {
            max_intra = max_intra.max(s);
            sum_intra += s;
            count_intra += 1;
            hist[((s / bin_width) as usize).min(bin_count - 1)] += 1;
        }
        if let Some(s) = pulse_global {
            max_global = max_global.max(s);
        }
    }
    SkewStats {
        max_intra,
        max_inter,
        max_full: max_intra.max(max_inter),
        max_global,
        mean_intra: if count_intra == 0 {
            0.0
        } else {
            sum_intra / count_intra as f64
        },
        pulses: pulses as u64,
        hist_bin_width: bin_width,
        hist_intra: hist,
    }
}

fn param(record: &BenchRecord, key: &str) -> Option<usize> {
    record
        .params
        .iter()
        .find(|(k, _)| k == key)
        .and_then(|(_, v)| v.parse().ok())
}

#[test]
fn suite_streaming_stats_equal_post_hoc_for_any_thread_count() {
    let base_seed = 0x0b5e_2017;
    let serial = run_suite(Scale::Smoke, base_seed, 1, 1);
    // Shard both across scenarios (`--threads`) and inside each
    // scenario's dataflow (`--sim-threads`) — the replay below then pins
    // the parallel engine's emissions bit-identical to the post-hoc
    // trace analysis.
    let sharded = run_suite(Scale::Smoke, base_seed, 4, 2);
    // Sharding invariance first — including every streamed statistic.
    assert_eq!(
        serial.report.canonicalized().to_json(),
        sharded.report.canonicalized().to_json(),
        "sweep diverged across thread counts"
    );
    assert!(serial.violations.is_empty(), "{:?}", serial.violations);

    // Streaming statistics come from exactly the five streaming
    // experiments, in suite order.
    let streamed: Vec<(&BenchRecord, &SkewStats)> = serial
        .report
        .records
        .iter()
        .filter_map(|r| Some((r, r.skew.as_ref()?)))
        .collect();
    let mut experiments: Vec<&str> = streamed
        .iter()
        .map(|(r, _)| r.experiment.as_str())
        .collect();
    experiments.dedup();
    assert_eq!(
        experiments,
        [
            "exp_scale",
            "exp_fault_sweep",
            "exp_topology",
            "exp_modes",
            "exp_churn"
        ]
    );

    // Every such record replays bit-identically through the full-trace
    // path.
    for (record, recorded) in streamed {
        let pulses = param(record, "pulses").expect("pulses param");
        let snaps: Vec<SkewStats> = record
            .seeds
            .iter()
            .map(|&seed| {
                if record.experiment == "exp_modes" {
                    // POD-sketch scenarios (schema v7) stamp the
                    // workload axis in params: rebuild the identical
                    // deployment and adversary, then replay the skew leg
                    // through the trace-backed path. (The sketch leg is
                    // pinned by `sketch_certificate_holds_on_full_trace_grids`
                    // below.)
                    let point = exp_modes::point_from_params(&record.params)
                        .expect("sweep point from params");
                    let g = point.layered();
                    return match point.workload {
                        exp_modes::Workload::Grid => {
                            post_hoc_stats(&g, pulses, seed, &CorrectSends)
                        }
                        exp_modes::Workload::Wave => {
                            let campaign =
                                exp_fault_sweep::campaign_for(&g, &point.wave_point(), seed);
                            post_hoc_stats(&g, pulses, seed, &campaign)
                        }
                        exp_modes::Workload::Torus | exp_modes::Workload::Supernode => {
                            post_hoc_graph_stats(&g, pulses, seed, &CorrectSends)
                        }
                    };
                }
                if record.experiment == "exp_churn" {
                    // Churn scenarios (schema v8 stamps the membership
                    // descriptor): reconstruct the identical campaign
                    // from the record's params and replay through the
                    // trace-backed path — the line source on the grid
                    // leg, the BFS-forest source on the torus leg.
                    assert!(record.churn.is_some(), "churn records are stamped");
                    let point = exp_churn::point_from_params(&record.params).expect("sweep point");
                    let (g, topology) = exp_churn::deployment(&point);
                    assert_eq!(record.topology.is_some(), topology.is_some());
                    let campaign = exp_churn::campaign_for(&g, &point, seed);
                    return match point.topo {
                        exp_churn::TopoClass::Grid => post_hoc_stats(&g, pulses, seed, &campaign),
                        exp_churn::TopoClass::Torus => {
                            post_hoc_graph_stats(&g, pulses, seed, &campaign)
                        }
                    };
                }
                if record.experiment == "exp_topology" {
                    // Family scenarios (schema v6 stamps the versioned
                    // topology descriptor): rebuild the identical graph
                    // from the record's params and replay through the
                    // graph-generic trace-backed path.
                    assert!(record.topology.is_some(), "topology records are stamped");
                    let point = exp_topology::point_from_params(&record.params)
                        .expect("sweep point from params");
                    let g = exp_topology::layered(&point);
                    return post_hoc_graph_stats(&g, pulses, seed, &CorrectSends);
                }
                // exp_scale and exp_fault_sweep: square grids.
                let width = param(record, "width").expect("width param");
                let g = grid(width, width);
                if record.experiment == "exp_fault_sweep" {
                    // Campaign scenarios (schema v4 stamps the
                    // descriptor): reconstruct the identical adversary
                    // from the record's params and replay the faulty run
                    // through the trace-backed path.
                    assert!(record.campaign.is_some(), "campaign records are stamped");
                    let point = exp_fault_sweep::point_from_params(&record.params)
                        .expect("sweep point from params");
                    let campaign = exp_fault_sweep::campaign_for(&g, &point, seed);
                    post_hoc_stats(&g, pulses, seed, &campaign)
                } else {
                    post_hoc_stats(&g, pulses, seed, &CorrectSends)
                }
            })
            .collect();
        let expected = merge_snapshots(&snaps);
        assert_eq!(
            &expected, recorded,
            "{}/{}: streaming stats differ from post-hoc analysis",
            record.experiment, record.scenario
        );
    }
}

/// The POD sketch's error certificate holds against ground truth: on
/// small grids we can afford a full trace of, reconstruct the
/// pulse-front matrix row by row from the trace, measure the sketch's
/// Frobenius reconstruction error explicitly, and assert it never
/// exceeds the certified bound. At full rank (rank ≥ matrix rank)
/// nothing is ever truncated, so the certificate is pure roundoff slack
/// — the reconstruction is exact to machine precision.
#[test]
fn sketch_certificate_holds_on_full_trace_grids() {
    let p = standard_params();
    let rule = GradientTrixRule::new(p);
    for &(width, layers, pulses, rank) in &[
        (6usize, 5usize, 3usize, 2usize),
        (6, 5, 3, 4),
        (10, 8, 4, 3),
        // Full rank: rank ≥ columns, so the basis spans every row.
        (6, 5, 3, 8),
    ] {
        let g = grid(width, layers);
        let mut pair = (PulseTrace::new(&g, pulses), PodSketch::new(&g, rank));
        run_gradient_trix_streaming(&g, &p, &rule, &CorrectSends, pulses, 0xfeed, 1, &mut pair);
        let (trace, mut sketch) = pair;
        sketch.finish();
        let snap = sketch.snapshot();

        // Ground-truth pulse-front matrix, in the sketch's row order:
        // one row per (k, layer) front with ≥ 1 emission, misfires 0.0.
        let mut rows = 0usize;
        let mut resid2 = 0.0f64;
        for k in 0..pulses {
            for layer in 0..g.layer_count() as u32 {
                let times: Vec<Option<Time>> = (0..g.width() as u32)
                    .map(|v| trace.time(k, NodeId::new(v, layer)))
                    .collect();
                if times.iter().any(Option::is_some) {
                    let row: Vec<f64> = times
                        .into_iter()
                        .map(|t| t.map_or(0.0, Time::as_f64))
                        .collect();
                    resid2 += snap.residual_sq(&row);
                    rows += 1;
                }
            }
        }
        assert_eq!(
            rows as u64, snap.rows,
            "w={width} r={rank}: row count drifted"
        );
        let measured = resid2.sqrt();
        assert!(
            measured <= snap.error_bound,
            "w={width} r={rank}: measured {measured} exceeds certificate {}",
            snap.error_bound
        );
        if rank >= snap.cols {
            // Full rank: the certificate itself collapses to roundoff
            // slack, pinning the reconstruction exact in the measured
            // leg too.
            let scale = snap.energy.sqrt().max(1.0);
            assert!(
                snap.error_bound <= 1e-8 * scale,
                "w={width} r={rank}: full-rank certificate {} not within roundoff of ‖A‖ = {scale}",
                snap.error_bound
            );
        }
    }
}

/// The new schema round-trips through disk: the written
/// `BENCH_exp_scale.json` re-reads byte-identically and carries the v8
/// version tag, the parallelism stamp, the `sim_threads` execution
/// metadata, the streamed statistics, the compressed sketch, and the
/// churn descriptor.
#[test]
fn exp_scale_record_round_trips_schema_v8() {
    let outcome = run_suite(Scale::Smoke, 7, 2, 2);
    let report = outcome.report.filtered("exp_scale");
    assert!(!report.records.is_empty());
    let json = report.to_json();
    assert!(json.contains("\"schema_version\": 8"));
    // Schema v5: the report is stamped with the process's actual CPU
    // detection (the harness can't masquerade a failed detection as a
    // perf regression).
    let stamp = gradient_trix::sim::detected_parallelism();
    assert!(json.contains(&format!(
        "\"parallelism\": {{\"workers\": {}, \"detection_failed\": {}}}",
        stamp.workers, stamp.detection_failed
    )));
    assert!(json.contains("\"sim_threads\": 2"));
    assert!(json.contains("\"skew\": {\"max_intra\":"));
    // exp_scale runs no campaign; records truthfully carry null.
    assert!(json.contains("\"campaign\": null"));
    // The fault sweep's records are stamped with their descriptors.
    let sweep = outcome.report.filtered("exp_fault_sweep");
    assert!(!sweep.records.is_empty());
    assert!(sweep.records.iter().all(|r| r.campaign.is_some()));
    let sweep_json = sweep.to_json();
    assert!(sweep_json.contains("\"campaign\": \"iid c=1.00 silent w=12\""));
    assert!(sweep_json.contains("\"campaign\": \"wave "));
    // Schema v6: grid experiments truthfully carry a null topology; the
    // family sweep stamps its versioned descriptors.
    assert!(json.contains("\"topology\": null"));
    let topo = outcome.report.filtered("exp_topology");
    assert!(!topo.records.is_empty());
    assert!(topo.records.iter().all(|r| r.topology.is_some()));
    let topo_json = topo.to_json();
    for family in [
        "torus rows=3 cols=4 n=12 m=24 deg=4..4 D=3\"",
        "hypercube ",
        "supernode ",
    ] {
        assert!(
            topo_json.contains(&format!("\"topology\": \"v1 {family}")),
            "no {family} descriptor"
        );
    }
    // Schema v7: non-sketching experiments truthfully carry a null
    // sketch; every `exp_modes` record ships the compressed basis.
    assert!(json.contains("\"sketch\": null"));
    let modes = outcome.report.filtered("exp_modes");
    assert!(!modes.records.is_empty());
    assert!(modes.records.iter().all(|r| r.sketch.is_some()));
    assert!(modes.to_json().contains("\"sketch\": {\"rank\":"));
    // Schema v8: closed-world experiments truthfully carry a null churn
    // descriptor; every `exp_churn` record is stamped, and the torus leg
    // additionally carries its versioned topology descriptor.
    assert!(json.contains("\"churn\": null"));
    let churn = outcome.report.filtered("exp_churn");
    assert!(!churn.records.is_empty());
    assert!(churn.records.iter().all(|r| r.churn.is_some()));
    let churn_json = churn.to_json();
    assert!(churn_json.contains("\"churn\": \"resident r=0.00 grid w=12\""));
    assert!(churn_json.contains("\"churn\": \"flicker r=0.10 grid w=12\""));
    assert!(churn_json.contains("\"churn\": \"mix r=0.10 torus w=6\""));
    assert!(churn_json.contains("\"topology\": \"v1 torus"));
    let path = std::env::temp_dir().join("BENCH_exp_scale_roundtrip.json");
    std::fs::write(&path, &json).expect("write");
    let back = std::fs::read_to_string(&path).expect("read");
    std::fs::remove_file(&path).ok();
    assert_eq!(json, back, "BENCH_exp_scale.json did not round-trip");
    // Serializing the identical in-memory report reproduces the file.
    assert_eq!(report.to_json(), back);
}
