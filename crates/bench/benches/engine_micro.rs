//! Micro-benchmarks of the simulation substrate and the core decision
//! procedure: correction computation, full Algorithm 3 decision, dataflow
//! pulses/second, and DES events/second.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use std::hint::black_box;
use trix_core::{
    correction, CorrectionConfig, GradientTrixRule, GridNetwork, GridNodeConfig, Layer0Line, Params,
};
use trix_obs::{DesSkew, PodSketch, StreamingSkew};
use trix_sim::{
    run_dataflow, run_dataflow_observed, run_dataflow_parallel, CorrectSends, EventQueue,
    NullObserver, Rng, StaticEnvironment,
};
use trix_time::{Duration, LocalTime, Time};
use trix_topology::{BaseGraph, LayeredGraph};

fn params() -> Params {
    Params::with_standard_lambda(Duration::from(2000.0), Duration::from(1.0), 1.0001)
}

fn bench_correction(c: &mut Criterion) {
    let p = params();
    let cfg = CorrectionConfig::paper();
    c.bench_function("correction_fn", |b| {
        let mut x = 0.0f64;
        b.iter(|| {
            x += 0.1;
            let h = LocalTime::from(100.0 + x.sin());
            black_box(correction(
                &p,
                h,
                LocalTime::from(99.0),
                Some(LocalTime::from(101.5)),
                &cfg,
            ))
        })
    });
}

fn bench_decide(c: &mut Criterion) {
    let p = params();
    let rule = GradientTrixRule::new(p);
    c.bench_function("algorithm3_decide", |b| {
        b.iter(|| {
            black_box(rule.decide(
                Some(LocalTime::from(100.3)),
                &[
                    Some(LocalTime::from(99.9)),
                    Some(LocalTime::from(101.2)),
                    None,
                ],
            ))
        })
    });
}

fn bench_dataflow(c: &mut Criterion) {
    let p = params();
    let g = LayeredGraph::new(BaseGraph::line_with_replicated_ends(32), 32);
    let mut rng = Rng::seed_from(1);
    let env = StaticEnvironment::random(&g, p.d(), p.u(), p.theta(), &mut rng);
    let layer0 = Layer0Line::random_for_line(&p, g.width(), &mut rng);
    let rule = GradientTrixRule::new(p);
    let mut group = c.benchmark_group("dataflow");
    group.throughput(Throughput::Elements(g.node_count() as u64));
    group.bench_function("pulse_32x32", |b| {
        b.iter(|| black_box(run_dataflow(&g, &env, &layer0, &rule, &CorrectSends, 1)))
    });
    group.finish();
}

fn bench_des(c: &mut Criterion) {
    let p = params();
    let g = LayeredGraph::new(BaseGraph::line_with_replicated_ends(6), 6);
    let mut group = c.benchmark_group("des");
    group.bench_function("grid_6x6_10_pulses", |b| {
        b.iter_batched(
            || {
                let mut rng = Rng::seed_from(7);
                let env = StaticEnvironment::random(&g, p.d(), p.u(), p.theta(), &mut rng);
                let cfg = GridNodeConfig::standard(p, g.base().diameter());
                GridNetwork::build(&g, &p, &env, cfg, 10, &mut rng, |_, _| None)
            },
            |mut net| {
                net.run(Time::from(1e9));
                black_box(net.des.events_processed())
            },
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

/// Observer overhead on both engine hot loops (ISSUE: target < 5% for
/// the DES loop with `StreamingSkew`-class monitors).
///
/// * `des_unobserved` — the engine's plain `run` (the `NullObserver`
///   path: `run` *is* `run_observed` with a no-op observer, so this pins
///   that the hook compiles away);
/// * `des_noop_observer` — `run_observed` with an explicit
///   [`NullObserver`];
/// * `des_streaming_skew` — `run_observed` with the online
///   [`DesSkew`] nearest-fire monitor over every base and grid edge;
/// * `dataflow_full_trace` / `dataflow_streaming_skew` — the dataflow
///   executor materializing a `PulseTrace` vs streaming into
///   [`StreamingSkew`] (no trace).
///
/// Measured numbers are recorded in README.md §Streaming observability.
fn bench_observer_overhead(c: &mut Criterion) {
    let p = params();
    let g = LayeredGraph::new(BaseGraph::line_with_replicated_ends(6), 6);
    let build = || {
        let mut rng = Rng::seed_from(7);
        let env = StaticEnvironment::random(&g, p.d(), p.u(), p.theta(), &mut rng);
        let cfg = GridNodeConfig::standard(p, g.base().diameter());
        GridNetwork::build(&g, &p, &env, cfg, 10, &mut rng, |_, _| None)
    };
    let mut group = c.benchmark_group("observer_overhead");
    group.bench_function("des_unobserved", |b| {
        b.iter_batched(
            build,
            |mut net| {
                net.run(Time::from(1e9));
                black_box(net.des.events_processed())
            },
            BatchSize::SmallInput,
        )
    });
    group.bench_function("des_noop_observer", |b| {
        b.iter_batched(
            build,
            |mut net| {
                net.run_observed(Time::from(1e9), &mut NullObserver);
                black_box(net.des.events_processed())
            },
            BatchSize::SmallInput,
        )
    });
    group.bench_function("des_streaming_skew", |b| {
        b.iter_batched(
            build,
            |mut net| {
                let mut skew = DesSkew::for_grid(&g, 1, p.lambda());
                net.run_observed(Time::from(1e9), &mut skew);
                black_box((net.des.events_processed(), skew.intra().count()))
            },
            BatchSize::SmallInput,
        )
    });

    let gd = LayeredGraph::new(BaseGraph::line_with_replicated_ends(32), 32);
    let mut rng = Rng::seed_from(1);
    let env = StaticEnvironment::random(&gd, p.d(), p.u(), p.theta(), &mut rng);
    let layer0 = Layer0Line::random_for_line(&p, gd.width(), &mut rng);
    let rule = GradientTrixRule::new(p);
    group.bench_function("dataflow_full_trace", |b| {
        b.iter(|| black_box(run_dataflow(&gd, &env, &layer0, &rule, &CorrectSends, 2)))
    });
    group.bench_function("dataflow_trace_plus_posthoc", |b| {
        // The apples-to-apples baseline for the streaming monitor: the
        // trace *and* the batch skew analysis it exists to feed.
        b.iter(|| {
            let trace = run_dataflow(&gd, &env, &layer0, &rule, &CorrectSends, 2);
            black_box(trix_analysis::full_local_skew(&gd, &trace, 0..2))
        })
    });
    group.bench_function("dataflow_streaming_skew", |b| {
        b.iter(|| {
            let mut skew = StreamingSkew::new(&gd);
            run_dataflow_observed(&gd, &env, &layer0, &rule, &CorrectSends, 2, &mut skew);
            skew.finish();
            black_box(skew.full_local_skew())
        })
    });
    group.finish();
}

/// POD-sketch overhead on both engine hot loops (ISSUE: target < 10%
/// over the no-op observer at rank 16).
///
/// * `dataflow_noop` — `run_dataflow_observed` with [`NullObserver`]
///   (the baseline the sketch rides on), on the width-192 square grid
///   the `dataflow_parallel` group measures (wide enough that the
///   width-independent Jacobi flush amortizes the way it does on the
///   streaming experiments' grids);
/// * `dataflow_sketch_r{4,16}` — the same loop streaming into a
///   [`PodSketch`] at rank 4 / 16, `finish`ed so deferred flush work is
///   charged to the measurement;
/// * `ingest_w1280_r{4,16}` — the paper-scale-width proxy: driving the
///   full 1280×1280 dataflow is too heavy for a micro harness, so this
///   row isolates the sketch's own per-row cost — the quantity the
///   overhead targets actually bound — by pushing 32 synthetic
///   width-1280 rows through [`Observer::on_pulse_row`] and charging
///   `finish()` to the measurement.
///
/// Measured numbers are recorded in README.md §Trace compression.
fn bench_sketch_overhead(c: &mut Criterion) {
    let p = params();
    let mut group = c.benchmark_group("sketch_overhead");
    group.sample_size(10);

    let width = 192;
    let gd = LayeredGraph::new(BaseGraph::line_with_replicated_ends(width), width);
    let mut rng = Rng::seed_from(5);
    let env = StaticEnvironment::random(&gd, p.d(), p.u(), p.theta(), &mut rng);
    let layer0 = Layer0Line::random_for_line(&p, gd.width(), &mut rng);
    let rule = GradientTrixRule::new(p);
    let pulses = 2;
    group.bench_function("dataflow_noop", |b| {
        b.iter(|| {
            run_dataflow_observed(
                &gd,
                &env,
                &layer0,
                &rule,
                &CorrectSends,
                pulses,
                &mut NullObserver,
            );
            black_box(())
        })
    });
    for rank in [4usize, 16] {
        group.bench_function(&format!("dataflow_sketch_r{rank}"), |b| {
            b.iter(|| {
                let mut sketch = PodSketch::new(&gd, rank);
                run_dataflow_observed(
                    &gd,
                    &env,
                    &layer0,
                    &rule,
                    &CorrectSends,
                    pulses,
                    &mut sketch,
                );
                sketch.finish();
                black_box(sketch.snapshot().rows)
            })
        });
    }

    // Paper-scale width proxy (see the doc comment): synthetic rows at a
    // streaming experiment's width, fed straight through the row hook so
    // only the sketch kernels (row copy, blocked Gram–Schmidt, Jacobi
    // flush) are on the clock. Roughly one node in 17 is silent, matching
    // a sparse fault campaign. Placed last so its throughput annotation
    // doesn't bleed into the rows above.
    let gw = LayeredGraph::new(BaseGraph::line_with_replicated_ends(1280), 4);
    let wide = gw.width(); // 1282: the line plus its two replicated ends
    let wide_rows: Vec<Vec<Option<Time>>> = (0..32usize)
        .map(|r| {
            (0..wide)
                .map(|v| {
                    let x = (r * wide + v) as u64;
                    if x % 17 == 3 {
                        None
                    } else {
                        let h = (x ^ (x >> 7)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                        Some(Time::from(1000.0 + (h % 1024) as f64 / 4.0))
                    }
                })
                .collect()
        })
        .collect();
    group.throughput(Throughput::Elements((wide_rows.len() * wide) as u64));
    for rank in [4usize, 16] {
        group.bench_function(&format!("ingest_w1280_r{rank}"), |b| {
            b.iter(|| {
                let mut sketch = PodSketch::new(&gw, rank);
                for (i, row) in wide_rows.iter().enumerate() {
                    let (k, layer) = (i / gw.layer_count(), (i % gw.layer_count()) as u32);
                    trix_sim::Observer::on_pulse_row(&mut sketch, k, layer, row);
                }
                sketch.finish();
                black_box(sketch.snapshot().rows)
            })
        });
    }
    group.finish();
}

/// The intra-scenario parallel dataflow engine vs the serial streaming
/// driver, on an `exp_scale`-shaped workload (square grid, streaming
/// skew monitor, no trace): `serial` is `run_dataflow_observed` and
/// `frontier_N` is `run_dataflow_parallel` (the barrier-free frontier
/// scheduler) with `N` fixed-chunk workers. Outputs are bit-identical
/// by construction (pinned by `crates/sim/tests/prop.rs`); only wall
/// time may differ — README §Parallel execution engine records the
/// readings.
fn bench_dataflow_parallel(c: &mut Criterion) {
    let p = params();
    let width = 192;
    let g = LayeredGraph::new(BaseGraph::line_with_replicated_ends(width), width);
    let mut rng = Rng::seed_from(5);
    let env = StaticEnvironment::random(&g, p.d(), p.u(), p.theta(), &mut rng);
    let layer0 = Layer0Line::random_for_line(&p, g.width(), &mut rng);
    let rule = GradientTrixRule::new(p);
    let pulses = 2;
    let mut group = c.benchmark_group("dataflow_parallel");
    group.sample_size(10);
    group.throughput(Throughput::Elements((g.node_count() * pulses) as u64));
    group.bench_function("serial", |b| {
        b.iter(|| {
            let mut skew = StreamingSkew::new(&g);
            run_dataflow_observed(&g, &env, &layer0, &rule, &CorrectSends, pulses, &mut skew);
            skew.finish();
            black_box(skew.full_local_skew())
        })
    });
    for threads in [2, 4] {
        group.bench_function(&format!("frontier_{threads}"), |b| {
            b.iter(|| {
                let mut skew = StreamingSkew::new(&g);
                run_dataflow_parallel(
                    &g,
                    &env,
                    &layer0,
                    &rule,
                    &CorrectSends,
                    pulses,
                    threads,
                    &mut skew,
                );
                skew.finish();
                black_box(skew.full_local_skew())
            })
        });
    }
    group.finish();
}

/// The engine's payload shape: `u32` node indices — 32 bytes per queue
/// entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum PackedPayload {
    Deliver {
        to: u32,
        from: u32,
    },
    #[allow(dead_code)]
    Timer {
        node: u32,
        tag: u64,
    },
}

/// Event-loop hold model mirroring DES steady state on a degree-3 grid:
/// `HOLD_PENDING` events in flight; every second pop is a broadcast that
/// schedules one delivery per outgoing link. `engine_queue` is the
/// engine's loop: 32-byte packed entries in [`EventQueue`], popped by
/// value, links iterated in place.
const HOLD_PENDING: usize = 1 << 10;
const HOLD_OPS: usize = 1 << 14;
const HOLD_DEGREE: usize = 3;

fn hold_links() -> Vec<(usize, Duration)> {
    (0..HOLD_DEGREE)
        .map(|i| (i * 7, Duration::from(2000.0 - i as f64)))
        .collect()
}

fn bench_des_event_loop(c: &mut Criterion) {
    let mut group = c.benchmark_group("des_event_loop");
    group.throughput(Throughput::Elements(HOLD_OPS as u64));
    group.bench_function("engine_queue", |b| {
        let links = hold_links();
        b.iter(|| {
            let mut queue: EventQueue<PackedPayload> = EventQueue::new();
            for i in 0..HOLD_PENDING {
                queue.push(
                    Time::from(i as f64),
                    PackedPayload::Deliver {
                        to: i as u32,
                        from: i as u32,
                    },
                );
            }
            let mut acc = 0usize;
            for op in 0..HOLD_OPS {
                // The current engine loop: pop by value, links iterated
                // in place.
                let (t, payload) = queue.pop().expect("non-empty");
                if let PackedPayload::Deliver { to, .. } = payload {
                    acc ^= to as usize;
                }
                if op % 2 == 0 {
                    for &(to, delay) in &links {
                        queue.push(
                            t + delay,
                            PackedPayload::Deliver {
                                to: to as u32,
                                from: to as u32,
                            },
                        );
                    }
                }
            }
            black_box(acc)
        })
    });
    group.finish();
}

criterion_group!(
    name = micro;
    config = Criterion::default().sample_size(20);
    targets = bench_correction, bench_decide, bench_dataflow, bench_dataflow_parallel, bench_des,
        bench_des_event_loop, bench_observer_overhead, bench_sketch_overhead
);
criterion_main!(micro);
