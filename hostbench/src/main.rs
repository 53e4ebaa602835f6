//! Runs one named workload for a time budget and prints its metrics.
//!
//! ```text
//! hostbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The run repeats short rounds (the workload's cases on one seed
//! derived from `--seed`) until `--seconds` have passed. Untraced
//! (`--trace 0`), it prints the end-to-end metrics, each time the
//! fastest round's, in seconds at the nominal core clock (`clock.rs`).
//! Traced (`--trace 1`), it alternates untraced and traced rounds, then
//! runs the layer probes, and prints the per-layer metrics: wall times,
//! span times again the fastest over the traced rounds. Every seed's checks count as one
//! operation; the last stdout line is one JSON object, and any failed
//! check makes the exit code 1.

use hostbench::alloc::CountingAlloc;
use hostbench::clock;
use hostbench::trace::{SpanTotals, Tracer};
use hostbench::workload::{self, fastest, Round, SeedOutcome, Workload};
use hostbench::{END_TO_END, PER_LAYER};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Rounds of the reported kind (untraced, or traced in a traced run) a
/// run makes at least, whatever its budget.
const MIN_ROUNDS: usize = 20;

/// Rounds the sample vectors hold without reallocating: more than a
/// 120-second run of the shortest workload makes.
const MAX_ROUNDS: usize = 1 << 16;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10, false);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!(
                    "unknown workload `{value}` (one of {})",
                    names.join(", ")
                ))?)
            }
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s| (1..=120).contains(s))
                    .ok_or_else(bad)?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or(format!(
            "--workload is required (one of {})",
            names.join(", ")
        ))?,
        seed,
        seconds,
        trace,
    })
}

/// Counts operations and failures, and pins each (case, seed)'s
/// fingerprint to the first value it printed.
#[derive(Default)]
struct Book {
    attempted: u64,
    failed: u64,
    prints: BTreeMap<(&'static str, u64), u64>,
}

impl Book {
    fn add(&mut self, w: Workload, o: &SeedOutcome) {
        self.attempted += 1;
        let mut failures = o.failures.clone();
        match self.prints.get(&(o.case, o.seed)) {
            None => {
                println!(
                    "fingerprint workload={} case={} seed={} hash={:#018x}",
                    w.name(),
                    o.case,
                    o.seed,
                    o.fingerprint
                );
                self.prints.insert((o.case, o.seed), o.fingerprint);
            }
            Some(&first) if first != o.fingerprint => failures.push(format!(
                "fingerprint {:#018x} differs from the first round's {first:#018x}",
                o.fingerprint
            )),
            Some(_) => {}
        }
        if !failures.is_empty() {
            self.failed += 1;
            for f in failures {
                eprintln!("check failed: {} {} seed {}: {f}", w.name(), o.case, o.seed);
            }
        }
    }
}

/// The process's resident-memory high-water mark in MiB, from `VmHWM`
/// in `/proc/self/status`, or 0 where that is not available.
/// `getrusage`'s `ru_maxrss` is not used: it survives `exec`, so it
/// reports the launcher's peak (26 MiB under `cargo run`) whenever that
/// is the larger.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
            Some(kib / 1024.0)
        })
        .unwrap_or(0.0)
}

/// The `q` quantile of a non-empty sample, interpolating linearly
/// between order statistics.
fn quantile(xs: &[f64], q: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// A sample's size and quantiles, printed beside each reported value so
/// the host's two states show.
fn samples_line(xs: &[f64]) -> String {
    let shown: Vec<String> = [0.0, 0.01, 0.02, 0.05, 0.1, 0.25, 0.5, 0.9]
        .iter()
        .map(|&q| format!("p{}={:.6}", q * 100.0, quantile(xs, q)))
        .collect();
    format!("n={} {}", xs.len(), shown.join(" "))
}

fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_owned()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hostbench: {e}");
            eprintln!(
                "usage: hostbench --workload <name> --seed <n> --seconds <1..120> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let mut state = args.seed;
    let seeds = [trix_sim::splitmix64(&mut state)];
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut book = Book::default();
    // Sized once, so that growing them never reshapes the heap: the
    // resident-memory mark must not depend on how many rounds fit.
    let mut untraced: Vec<Round> = Vec::with_capacity(MAX_ROUNDS);
    let mut traced: Vec<(Round, BTreeMap<&'static str, f64>)> = Vec::with_capacity(MAX_ROUNDS);
    let mut spans: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
    loop {
        let trace_round = args.trace && untraced.len() > traced.len();
        let mut t = Tracer::new(trace_round);
        let (round, outcomes) = workload::run_round(w, &seeds, &mut t);
        for o in &outcomes {
            book.add(w, o);
        }
        if trace_round {
            for (name, s) in t.summary() {
                let acc = spans.entry(name).or_default();
                acc.calls += s.calls;
                acc.elems += s.elems;
                acc.secs += s.secs;
                acc.self_secs += s.self_secs;
            }
            let layers = workload::round_layers(&t, &round);
            traced.push((round, layers));
        } else {
            untraced.push(round);
        }
        let reported = if args.trace {
            traced.len()
        } else {
            untraced.len()
        };
        if reported >= MIN_ROUNDS && start.elapsed() >= budget {
            break;
        }
    }

    // (name, unit, reported value, the per-round samples behind it)
    let mut report: Vec<(&str, &str, f64, Vec<f64>)> = Vec::new();
    let run_s: Vec<f64> = untraced.iter().map(|r| r.run_s * r.clock_scale).collect();
    if args.trace {
        let (probes, outcomes) = workload::layer_probes(w, seeds[0]);
        for o in &outcomes {
            book.add(w, o);
        }
        let traced_run_s: Vec<f64> = traced
            .iter()
            .map(|(r, _)| r.run_s * r.clock_scale)
            .collect();
        for (name, unit) in PER_LAYER {
            let samples = if name == "trace.overhead" {
                vec![fastest(&traced_run_s) / fastest(&run_s)]
            } else if let Some(&v) = probes.get(name) {
                vec![v]
            } else {
                traced
                    .iter()
                    .map(|(_, m)| *m.get(name).expect("every round reports every span metric"))
                    .collect()
            };
            report.push((name, unit, fastest(&samples), samples));
        }
        eprintln!("spans over {} traced round(s):", traced.len());
        eprintln!(
            "  {:<24} {:>10} {:>12} {:>12} {:>12}",
            "span", "calls", "elems", "total_s", "self_s"
        );
        for (name, s) in &spans {
            eprintln!(
                "  {name:<24} {:>10} {:>12} {:>12.6} {:>12.6}",
                s.calls, s.elems, s.secs, s.self_secs
            );
        }
    } else {
        let samples = |f: fn(&Round) -> f64| untraced.iter().map(f).collect::<Vec<_>>();
        for (name, unit) in END_TO_END {
            let values = match name {
                "setup_s" => samples(|r| r.setup_s * r.clock_scale),
                "run_s" => run_s.clone(),
                "ns_per_eval" => samples(|r| r.run_s * r.clock_scale * 1e9 / r.evals as f64),
                "peak_rss_mib" => vec![peak_rss_mib()],
                _ => unreachable!("END_TO_END lists only the metrics above"),
            };
            report.push((name, unit, fastest(&values), values));
        }
    }

    println!(
        "workload={} seed={} rounds={} traced_rounds={} elapsed_s={:.3}",
        w.name(),
        args.seed,
        untraced.len(),
        traced.len(),
        start.elapsed().as_secs_f64()
    );
    // The clock each untraced round's times were scaled by; printed only.
    let clock_ghz: Vec<f64> = untraced
        .iter()
        .map(|r| r.clock_scale * clock::NOMINAL_HZ / 1e9)
        .collect();
    println!(
        "{:<34} {:>16} {:<6} {}",
        "(core clock of the rounds)",
        "",
        "GHz",
        samples_line(&clock_ghz)
    );
    let mut json = Vec::new();
    for (name, unit, value, samples) in &report {
        println!(
            "{name:<34} {value:>16.6} {unit:<6} {}",
            samples_line(samples)
        );
        json.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(*value)
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        book.failed == 0,
        book.attempted,
        book.failed,
        json.join(", ")
    );
    if book.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
