//! `gradient-trix-experiments` — regenerates every table and figure of
//! the paper's evaluation (the index is `trix_bench::all_scenarios`),
//! sharded across OS threads by the deterministic sweep runner.
//!
//! Usage:
//!
//! ```text
//! gradient-trix-experiments [--quick | --smoke] [--csv] [--out DIR]
//!                           [--threads N] [--sim-threads M] [--seed S]
//!                           [--json PATH] [--only EXPERIMENT] [--canonical]
//! ```
//!
//! * `--quick` runs reduced sizes (seconds instead of minutes); `--smoke`
//!   runs tiny sizes for the CI gate (a second or two).
//! * `--threads N` shards scenarios over `N` OS threads (`0` = auto;
//!   default `0`). Results are bit-identical for every `N`.
//! * `--sim-threads M` shards each streaming scenario's dataflow width
//!   over `M` frontier workers *inside* the scenario
//!   (`trix_sim::run_dataflow_parallel`; `0` = auto, default `1`).
//!   Like `--threads`, it never changes results — only wall time — and
//!   is recorded in every benchmark record (schema v3). The `0` knobs
//!   are resolved **jointly** through
//!   `trix_runner::resolve_thread_split`: detected CPUs are divided
//!   between the two levels, so `--threads 0 --sim-threads 0` runs one
//!   scenario worker per CPU with serial dataflow — never the historic
//!   CPU² oversubscription. If CPU detection fails, both auto knobs
//!   fall back to 1 worker and a warning names the fallback.
//! * `--seed S` sets the base seed all per-scenario seeds derive from.
//! * `--json PATH` writes the versioned benchmark report (one record per
//!   scenario: params, seeds, event counts, value stats, fingerprint,
//!   wall time) to `PATH`.
//! * `--only EXPERIMENT` restricts the sweep to one experiment's
//!   scenarios (e.g. `--only exp_modes`).
//! * `--canonical` zeroes the volatile wall-time fields in every written
//!   JSON report, making files byte-comparable across runs and thread
//!   counts.
//! * `--csv` emits CSV instead of markdown; `--out DIR` additionally
//!   writes one `.md` and one `.csv` file per table plus one
//!   `BENCH_<experiment>.json` per experiment into `DIR`.
//!
//! Exits non-zero if any scenario's condition oracle reports a violation
//! (naming the experiment), or `2` on CLI misuse.

use std::process::ExitCode;
use trix_bench::{all_scenarios, suite, Scale};

struct Args {
    scale: Scale,
    csv: bool,
    out_dir: Option<String>,
    threads: usize,
    sim_threads: usize,
    seed: u64,
    json: Option<String>,
    only: Option<String>,
    canonical: bool,
}

const USAGE: &str = "usage: gradient-trix-experiments [--quick | --smoke] [--csv] [--out DIR] \
                     [--threads N] [--sim-threads M] [--seed S] [--json PATH] \
                     [--only EXPERIMENT] [--canonical]";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        scale: Scale::Full,
        csv: false,
        out_dir: None,
        threads: 0,
        sim_threads: 1,
        seed: 0,
        json: None,
        only: None,
        canonical: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value_of = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        match arg.as_str() {
            "--quick" => parsed.scale = Scale::Quick,
            "--smoke" => parsed.scale = Scale::Smoke,
            "--csv" => parsed.csv = true,
            "--canonical" => parsed.canonical = true,
            "--only" => parsed.only = Some(value_of("--only")?),
            "--out" => parsed.out_dir = Some(value_of("--out")?),
            "--threads" => {
                let v = value_of("--threads")?;
                parsed.threads = v
                    .parse()
                    .map_err(|_| format!("invalid --threads value: {v}"))?;
            }
            "--sim-threads" => {
                let v = value_of("--sim-threads")?;
                parsed.sim_threads = v
                    .parse()
                    .map_err(|_| format!("invalid --sim-threads value: {v}"))?;
            }
            "--seed" => {
                let v = value_of("--seed")?;
                parsed.seed = parse_seed(&v).ok_or_else(|| format!("invalid --seed value: {v}"))?;
            }
            "--json" => parsed.json = Some(value_of("--json")?),
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok(parsed)
}

/// Parses a seed as decimal or `0x`-prefixed hex.
fn parse_seed(s: &str) -> Option<u64> {
    match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    // Resolve both auto thread knobs against the CPU count **once**, and
    // surface a detection failure instead of silently degrading to the
    // fallback (satisfying the schema-v5 parallelism stamp's contract).
    let detected = trix_sim::detected_parallelism();
    if detected.detection_failed {
        eprintln!(
            "warning: CPU detection failed; auto thread knobs fall back to {} worker(s) \
             (see trix_sim::FALLBACK_WORKERS; the benchmark JSON records this)",
            detected.workers
        );
    }
    let (threads, sim_threads) = trix_runner::resolve_thread_split(args.threads, args.sim_threads);

    let start = std::time::Instant::now();
    let mut scenarios = all_scenarios(args.scale, args.seed, sim_threads);
    if let Some(only) = &args.only {
        scenarios.retain(|s| s.experiment() == only);
        if scenarios.is_empty() {
            eprintln!("--only {only}: no such experiment");
            return ExitCode::from(2);
        }
    }
    println!(
        "# Gradient TRIX — experiment suite ({} scale, base seed {:#x})\n",
        args.scale.name(),
        args.seed
    );
    println!(
        "Parameters: d = 2000, u = 1, theta = 1.0001, lambda = 2d, kappa ≈ 2.43 \
         (abstract picoseconds).\n"
    );
    if let Some(dir) = &args.out_dir {
        std::fs::create_dir_all(dir).expect("create output directory");
    }
    let outcome = suite::run_scenarios(scenarios, args.scale, args.seed, threads);
    let report = if args.canonical {
        outcome.report.canonicalized()
    } else {
        outcome.report.clone()
    };

    for (i, table) in outcome.tables.iter().enumerate() {
        if args.csv {
            println!("{}", table.to_csv());
        } else {
            println!("{}", table.to_markdown());
        }
        if let Some(dir) = &args.out_dir {
            let stem = format!("{dir}/table_{i:02}");
            std::fs::write(format!("{stem}.md"), table.to_markdown()).expect("write markdown");
            std::fs::write(format!("{stem}.csv"), table.to_csv()).expect("write csv");
        }
    }

    if let Some(path) = &args.json {
        std::fs::write(path, report.to_json()).expect("write benchmark JSON");
        eprintln!("wrote {} scenario records to {path}", report.records.len());
    }
    if let Some(dir) = &args.out_dir {
        // One BENCH_<experiment>.json per experiment, for per-experiment
        // trajectory tracking.
        let mut experiments: Vec<&str> = report
            .records
            .iter()
            .map(|r| r.experiment.as_str())
            .collect();
        experiments.dedup();
        for experiment in experiments {
            let filtered = report.filtered(experiment);
            std::fs::write(format!("{dir}/BENCH_{experiment}.json"), filtered.to_json())
                .expect("write per-experiment benchmark JSON");
        }
    }
    eprintln!("total wall time: {:.1?}", start.elapsed());

    if !outcome.violations.is_empty() {
        for v in &outcome.violations {
            eprintln!(
                "VIOLATION in experiment `{}` (scenario {}): {}",
                v.experiment, v.scenario, v.message
            );
        }
        let mut failing: Vec<&str> = outcome
            .violations
            .iter()
            .map(|v| v.experiment.as_str())
            .collect();
        failing.dedup();
        eprintln!("failing experiments: {}", failing.join(", "));
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
