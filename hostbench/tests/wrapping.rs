//! The benchmark's instrumentation must not change what it measures:
//! observers behind the timing wrapper compute bit-identical results,
//! and `BENCHMARK.json` lists exactly the metrics and workloads the
//! binary prints.

use hostbench::trace::{Timed, Tracer};
use hostbench::workload::{
    Case, EmissionHash, Fingerprint, Inputs, Pass, Topology, Workload, FRONTIER_WORKERS,
};
use hostbench::{END_TO_END, PER_LAYER};
use trix_analysis::ModeProbe;
use trix_bench::common::{standard_params, streaming_monitor};
use trix_core::GradientTrixRule;
use trix_obs::PodSketch;

fn small_case(faults: bool) -> Case {
    Case {
        label: "test",
        topology: Topology::Grid(24),
        pulses: 3,
        frontier: false,
        faults,
        sketch: true,
    }
}

#[test]
fn wrapped_and_unwrapped_snapshots_are_bit_identical() {
    let p = standard_params();
    let rule = GradientTrixRule::new(p);
    for faults in [false, true] {
        for on in [false, true] {
            let case = small_case(faults);
            let g = case.topology.build();
            let inputs = Inputs::build(&case, &g, 7, &mut Tracer::new(false));
            let pass = Pass::of(&case, &g, &inputs);

            let (mut skew, mut sketch) = (streaming_monitor(&g, &p), PodSketch::new(&g, 4));
            pass.drive(&rule, &mut (&mut skew, &mut sketch));
            let mut wskew = Timed::new(streaming_monitor(&g, &p), on);
            let mut wsketch = Timed::new(PodSketch::new(&g, 4), on);
            pass.drive(&rule, &mut (&mut wskew, &mut wsketch));
            assert_eq!(
                wskew.stats.calls > 0,
                on,
                "a disabled wrapper times nothing"
            );
            assert_eq!(wsketch.stats.elems, wskew.stats.elems);
            let (mut wskew, mut wsketch) = (wskew.into_inner(), wsketch.into_inner());

            skew.finish();
            wskew.finish();
            sketch.finish();
            wsketch.finish();
            let (a, b) = (skew.snapshot(), wskew.snapshot());
            let (mut fa, mut fb) = (Fingerprint::default(), Fingerprint::default());
            fa.skew(&a);
            fb.skew(&b);
            assert_eq!((a, fa), (b, fb), "faults={faults} on={on}");

            // The probe consumes the element path through the wrapper's
            // row hook; its report folds in with the sketch's bits.
            let (sa, sb) = (sketch.snapshot(), wsketch.snapshot());
            let mut probe = ModeProbe::new(sa.clone());
            pass.drive(&rule, &mut probe);
            let mut wprobe = Timed::new(ModeProbe::new(sb.clone()), on);
            pass.drive(&rule, &mut wprobe);
            let (ra, rb) = (probe.into_report(), wprobe.into_inner().into_report());
            let (mut fa, mut fb) = (Fingerprint::default(), Fingerprint::default());
            fa.sketch(&sa, &ra);
            fb.sketch(&sb, &rb);
            assert_eq!((sa, ra, fa), (sb, rb, fb), "faults={faults} on={on}");
        }
    }
}

#[test]
fn wrapped_frontier_stream_matches_serial() {
    let rule = GradientTrixRule::new(standard_params());
    let case = small_case(true);
    let g = case.topology.build();
    let inputs = Inputs::build(&case, &g, 11, &mut Tracer::new(false));
    let serial = Pass::of(&case, &g, &inputs);
    let frontier = Pass {
        threads: FRONTIER_WORKERS,
        ..serial
    };
    let mut plain = EmissionHash::default();
    serial.drive(&rule, &mut plain);
    let mut wrapped = Timed::new(EmissionHash::default(), true);
    frontier.drive(&rule, &mut wrapped);
    assert_eq!(plain, wrapped.into_inner());
}

#[test]
fn benchmark_json_lists_the_printed_metrics_and_workloads() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    let listed = json.matches("\"unit\":").count();
    assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
    for w in Workload::ALL {
        assert!(json.contains(&format!("\"name\": \"{}\"", w.name())));
    }
}
