//! `trix` — scenario runner for the Gradient TRIX reproduction.
//!
//! ```text
//! trix run        --width 32 --layers 32 --pulses 4 --seed 1 [--faults 3]
//!                 [--behavior silent|late|early|jitter|two-faced]
//!                 [--adversarial] [--chart]
//! trix stabilize  --width 6 --seed 1 [--spurious 40] [--dead 1]
//! trix compare    --width 32
//! ```
//!
//! Everything is deterministic in `--seed`.

use gradient_trix::analysis::{
    ascii_chart, full_local_skew, global_skew, max_intra_layer_skew, skew_by_layer, theory,
};
use gradient_trix::baselines::{split_delay_env, NaiveTrixRule};
use gradient_trix::core::{
    check_pulse_interval, GradientTrixRule, GridNodeConfig, Layer0Line, Params,
};
use gradient_trix::faults::{sample_one_local, scrambled_network, FaultBehavior, FaultCampaign};
use gradient_trix::sim::{run_dataflow, CorrectSends, OffsetLayer0, Rng, StaticEnvironment};
use gradient_trix::time::{Duration, Time};
use gradient_trix::topology::{BaseGraph, LayeredGraph, NodeId};
use std::{fmt::Display, str::FromStr};

/// Whether a flag takes a value (`--width 8`) or stands alone (`--chart`).
#[derive(Clone, Copy)]
enum Flag {
    Value,
    Switch,
}

const RUN_FLAGS: &[(&str, Flag)] = &[
    ("width", Flag::Value),
    ("layers", Flag::Value),
    ("pulses", Flag::Value),
    ("seed", Flag::Value),
    ("faults", Flag::Value),
    ("p-fail", Flag::Value),
    ("behavior", Flag::Value),
    ("adversarial", Flag::Switch),
    ("chart", Flag::Switch),
];
const STABILIZE_FLAGS: &[(&str, Flag)] = &[
    ("width", Flag::Value),
    ("seed", Flag::Value),
    ("spurious", Flag::Value),
    ("dead", Flag::Value),
];
const COMPARE_FLAGS: &[(&str, Flag)] = &[("width", Flag::Value)];

/// Prints `message` and exits with the usage-error code 2.
fn usage_error(message: &str) -> ! {
    eprintln!("{message}");
    std::process::exit(2);
}

struct Args {
    flags: Vec<(String, Option<String>)>,
}

impl Args {
    /// Parses `raw` against the command's `known` flags: an unknown
    /// flag, a stray argument or a value flag without its value is an
    /// error.
    fn parse(raw: &[String], known: &[(&str, Flag)]) -> Result<Self, String> {
        let mut flags = Vec::new();
        let mut raw = raw.iter().peekable();
        while let Some(arg) = raw.next() {
            let Some(key) = arg.strip_prefix("--") else {
                return Err(format!("unexpected argument '{arg}'"));
            };
            let Some(&(_, kind)) = known.iter().find(|(name, _)| *name == key) else {
                let names: Vec<String> =
                    known.iter().map(|(name, _)| format!("--{name}")).collect();
                return Err(format!("unknown flag '{arg}' ({})", names.join(" ")));
            };
            let value = match kind {
                Flag::Switch => None,
                Flag::Value => Some(
                    raw.next_if(|v| !v.starts_with("--"))
                        .ok_or_else(|| format!("flag '{arg}' needs a value"))?
                        .clone(),
                ),
            };
            flags.push((key.to_owned(), value));
        }
        Ok(Self { flags })
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(k, _)| k == key)
            .and_then(|(_, v)| v.as_deref())
    }

    /// The flag's value parsed as a `T`, or `default` if the flag is
    /// absent; an unparsable value is a usage error.
    fn num<T: FromStr>(&self, key: &str, default: T) -> T {
        match self.get(key) {
            None => default,
            Some(v) => v
                .parse()
                .unwrap_or_else(|_| usage_error(&format!("invalid value '{v}' for --{key}"))),
        }
    }

    /// [`Args::num`], where a value below `min` is a usage error too.
    fn num_at_least<T: FromStr + PartialOrd + Display>(&self, key: &str, default: T, min: T) -> T {
        let value = self.num(key, default);
        if value < min {
            usage_error(&format!("--{key} must be at least {min}"));
        }
        value
    }

    fn has(&self, key: &str) -> bool {
        self.flags.iter().any(|(k, _)| k == key)
    }
}

fn params() -> Params {
    Params::with_standard_lambda(Duration::from(2000.0), Duration::from(1.0), 1.0001)
}

fn behavior_for(name: &str, kappa: Duration, seed: u64) -> FaultBehavior {
    match name {
        "silent" => FaultBehavior::Silent,
        "late" => FaultBehavior::Shift(kappa * 15.0),
        "early" => FaultBehavior::Shift(kappa * -15.0),
        "jitter" => FaultBehavior::Jitter {
            amplitude: kappa * 6.0,
            seed,
        },
        "two-faced" => FaultBehavior::TwoFaced {
            toward_lower: kappa * -8.0,
            toward_higher: kappa * 8.0,
        },
        other => usage_error(&format!(
            "unknown behavior '{other}' (silent|late|early|jitter|two-faced)"
        )),
    }
}

fn cmd_run(args: &Args) {
    let p = params();
    let width = args.num_at_least("width", 32usize, 2);
    let layers = args.num_at_least("layers", width, 1);
    let pulses = args.num_at_least("pulses", 4usize, 1);
    let seed = args.num("seed", 1u64);
    let fault_count = args.num("faults", 0usize);
    let p_fail = args.has("p-fail").then(|| args.num("p-fail", 0.0f64));
    if p_fail.is_some_and(|prob| !(0.0..=1.0).contains(&prob)) {
        usage_error("--p-fail must lie in [0, 1]");
    }
    if p_fail.is_none() && fault_count > 0 && layers < 2 {
        usage_error("--faults needs --layers of at least 2 (layer 0 is fault-free)");
    }
    let g = LayeredGraph::new(BaseGraph::line_with_replicated_ends(width), layers);

    let mut rng = Rng::seed_from(seed);
    let env = if args.has("adversarial") {
        split_delay_env(&g, p.d(), p.u())
    } else {
        StaticEnvironment::random(&g, p.d(), p.u(), p.theta(), &mut rng)
    };
    let layer0 = Layer0Line::random_for_line(&p, g.width(), &mut rng);

    // Faults: either an explicit count (spread across the grid) or a
    // probability via --p-fail.
    let model = if let Some(prob) = p_fail {
        let (positions, _) = sample_one_local(&g, prob, 1, &mut rng);
        let mut sorted: Vec<NodeId> = positions.into_iter().collect();
        sorted.sort();
        FaultCampaign::from_static(sorted.into_iter().enumerate().map(|(i, n)| {
            let name = ["silent", "late", "early", "jitter"][i % 4];
            (n, behavior_for(name, p.kappa(), seed))
        }))
    } else {
        let behavior = args.get("behavior").unwrap_or("silent");
        FaultCampaign::from_static((0..fault_count).map(|i| {
            let v = (3 + 5 * i) % g.width();
            let layer = 1 + (2 * i) % (layers - 1);
            (g.node(v, layer), behavior_for(behavior, p.kappa(), seed))
        }))
    };
    println!(
        "grid {width}×{layers} ({} nodes, D = {}), {} faults, seed {seed}",
        g.node_count(),
        g.base().diameter(),
        model.fault_count()
    );

    let rule = GradientTrixRule::new(p);
    let trace = run_dataflow(&g, &env, &layer0, &rule, &model, pulses);

    let local = max_intra_layer_skew(&g, &trace, 0..pulses);
    let full = full_local_skew(&g, &trace, 0..pulses);
    let bound = theory::thm_1_1_bound(&p, g.base().diameter());
    println!("local skew (intra-layer): {:.3}", local.as_f64());
    println!("full local skew:          {:.3}", full.as_f64());
    if let Some(gs) = global_skew(&g, &trace, pulses - 1, layers - 1) {
        println!("global skew (last layer): {:.3}", gs.as_f64());
    }
    println!(
        "Thm 1.1 bound:            {:.3}  (measured/bound = {:.3})",
        bound.as_f64(),
        local.as_f64() / bound.as_f64()
    );
    let violations = check_pulse_interval(&g, &trace, &p, 0..pulses, 2.0);
    println!("Cor 4.29 violations @2κ:  {}", violations.len());

    if args.has("chart") {
        let gt_series = skew_by_layer(&g, &trace, pulses - 1);
        let naive = run_dataflow(
            &g,
            &env,
            &OffsetLayer0::synchronized(p.lambda().as_f64(), g.width()),
            &NaiveTrixRule::new(),
            &CorrectSends,
            1,
        );
        let naive_series = skew_by_layer(&g, &naive, 0);
        println!(
            "\n{}",
            ascii_chart(
                "local skew by layer",
                &[("gradient-trix", &gt_series), ("naive-trix", &naive_series)],
                12,
                64,
            )
        );
    }
}

fn cmd_stabilize(args: &Args) {
    let p = params();
    let width = args.num_at_least("width", 6usize, 2);
    let seed = args.num("seed", 1u64);
    let spurious = args.num("spurious", 40usize);
    let dead_count = args.num("dead", 0usize);
    let g = LayeredGraph::new(BaseGraph::line_with_replicated_ends(width), width);

    let mut rng = Rng::seed_from(seed);
    let env = StaticEnvironment::random(&g, p.d(), p.u(), p.theta(), &mut rng);
    let cfg = GridNodeConfig::standard(p, g.base().diameter());
    let permanent: std::collections::HashSet<NodeId> = (0..dead_count)
        .map(|i| g.node((2 + 4 * i) % g.width(), 1 + i % (width - 1)))
        .collect();
    let source_pulses = (3 * width) as u64;
    let mut net = scrambled_network(
        &g,
        &p,
        &env,
        cfg,
        source_pulses,
        spurious,
        &permanent,
        &mut rng,
    );
    net.run(Time::from(
        (source_pulses as f64 + width as f64 + 4.0) * p.lambda().as_f64(),
    ));
    println!(
        "scrambled {}-node grid with {} spurious messages and {} dead nodes",
        g.node_count(),
        spurious,
        permanent.len()
    );
    let by_node = net.broadcasts_by_node();
    let lambda = p.lambda().as_f64();
    for layer in 1..g.layer_count() {
        let mut worst = 0usize;
        for v in 0..g.width() {
            let node = g.node(v, layer);
            if permanent.contains(&node) {
                continue;
            }
            let times = &by_node[net.index.engine_id(node)];
            let gaps: Vec<f64> = times.windows(2).map(|w| (w[1] - w[0]).as_f64()).collect();
            let end = gaps.len().saturating_sub(3);
            let mut first = end;
            for i in (0..end).rev() {
                if (gaps[i] - lambda).abs() <= p.kappa().as_f64() {
                    first = i;
                } else {
                    break;
                }
            }
            worst = worst.max(first);
        }
        println!("layer {layer:>2}: stabilized by pulse {worst}");
    }
    println!(
        "budget (Θ(√n) = layers + D): {}",
        g.layer_count() + g.base().diameter() as usize
    );
}

fn cmd_compare(args: &Args) {
    let width = args.num_at_least("width", 32usize, 2);
    let table = trix_bench_table(width);
    println!("{table}");
}

/// Re-derives the comparison locally to avoid a dependency on trix-bench.
fn trix_bench_table(width: usize) -> String {
    let p = params();
    let g = LayeredGraph::new(BaseGraph::line_with_replicated_ends(width), width);
    let env = split_delay_env(&g, p.d(), p.u());
    let layer0 = OffsetLayer0::synchronized(p.lambda().as_f64(), g.width());
    let naive = run_dataflow(&g, &env, &layer0, &NaiveTrixRule::new(), &CorrectSends, 1);
    let gt = run_dataflow(
        &g,
        &env,
        &layer0,
        &GradientTrixRule::new(p),
        &CorrectSends,
        1,
    );
    let ns = skew_by_layer(&g, &naive, 0);
    let gs = skew_by_layer(&g, &gt, 0);
    ascii_chart(
        &format!("adversarial delays, width {width}: naive vs gradient TRIX"),
        &[("naive-trix", &ns), ("gradient-trix", &gs)],
        14,
        64,
    )
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = raw.first().map(String::as_str) else {
        usage_error("usage: trix <run|stabilize|compare> [flags]  (see source header)");
    };
    let (run, known): (fn(&Args), _) = match cmd {
        "run" => (cmd_run, RUN_FLAGS),
        "stabilize" => (cmd_stabilize, STABILIZE_FLAGS),
        "compare" => (cmd_compare, COMPARE_FLAGS),
        other => usage_error(&format!(
            "unknown command '{other}' (run|stabilize|compare)"
        )),
    };
    match Args::parse(&raw[1..], known) {
        Ok(args) => run(&args),
        Err(message) => usage_error(&format!("trix {cmd}: {message}")),
    }
}
