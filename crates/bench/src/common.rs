//! Shared setup for all experiments.

use trix_core::{GradientTrixRule, Layer0Line, Params};
use trix_obs::{SkewStats, StreamingSkew};
use trix_sim::{
    run_dataflow, run_dataflow_parallel, Observer, PulseTrace, Rng, SendModel, StaticEnvironment,
};
use trix_time::Duration;
use trix_topology::{BaseGraph, LayeredGraph};

/// Canonical VLSI-flavored parameters used across experiments (units:
/// picoseconds): `d = 2000`, `u = 1`, `ϑ = 1.0001`, `Λ = 2d`.
///
/// These mirror the paper's regime `d ≫ u + (ϑ−1)d`: `κ ≈ 2.4 ps` while
/// `d = 2 ns`, so `Λ − d` has ample headroom for the skew bounds at every
/// diameter used here (checked by [`Params::supports_skew`]).
pub fn standard_params() -> Params {
    Params::with_standard_lambda(Duration::from(2000.0), Duration::from(1.0), 1.0001)
}

/// The paper's square deployment: base graph = line with replicated ends
/// of length `width`, `width` layers.
pub fn square_grid(width: usize) -> LayeredGraph {
    LayeredGraph::new(BaseGraph::line_with_replicated_ends(width), width)
}

/// A grid with independently chosen width and depth.
pub fn grid(width: usize, layers: usize) -> LayeredGraph {
    LayeredGraph::new(BaseGraph::line_with_replicated_ends(width), layers)
}

/// The random in-model environment (drawn from `fork(1)` of `seed`) and
/// the Appendix-A layer-0 line (from `fork(2)`) that the grid drivers run.
pub fn line_inputs(
    g: &LayeredGraph,
    params: &Params,
    seed: u64,
) -> (StaticEnvironment, Layer0Line) {
    let root = Rng::seed_from(seed);
    let env =
        StaticEnvironment::random(g, params.d(), params.u(), params.theta(), &mut root.fork(1));
    let layer0 = Layer0Line::random_for_line(params, g.width(), &mut root.fork(2));
    (env, layer0)
}

/// [`line_inputs`] with layer 0 from the BFS-forest source
/// ([`Layer0Line::random_for_graph`]), as the graph-family drivers run.
pub fn graph_inputs(
    g: &LayeredGraph,
    params: &Params,
    seed: u64,
) -> (StaticEnvironment, Layer0Line) {
    let root = Rng::seed_from(seed);
    let env =
        StaticEnvironment::random(g, params.d(), params.u(), params.theta(), &mut root.fork(1));
    let layer0 = Layer0Line::random_for_graph(params, g.base(), &mut root.fork(2));
    (env, layer0)
}

/// Runs Gradient TRIX on `g` with a random in-model environment and the
/// Appendix-A layer-0 line, under the given send model.
///
/// Returns the trace together with the environment (so condition oracles
/// can replay decisions).
pub fn run_gradient_trix(
    g: &LayeredGraph,
    params: &Params,
    rule: &GradientTrixRule,
    sends: &impl SendModel,
    pulses: usize,
    seed: u64,
) -> (PulseTrace, StaticEnvironment) {
    let (env, layer0) = line_inputs(g, params, seed);
    let trace = run_dataflow(g, &env, &layer0, rule, sends, pulses);
    (trace, env)
}

/// Runs the same workload as [`run_gradient_trix`] — identical seed
/// derivation, environment, and layer-0 line — but **streams** every
/// pulse emission to `obs` instead of materializing a trace: peak memory
/// is `O(width)` driver state plus whatever the observer retains
/// (`O(nodes)` for `trix_obs::StreamingSkew`).
///
/// `sim_threads` shards each layer's width across that many dataflow
/// workers (`trix_sim::run_dataflow_parallel`, which runs the serial
/// engine at `1`; `0` = one worker per CPU). The emission stream — and
/// therefore every statistic any observer computes — is bit-identical
/// for every value.
#[allow(clippy::too_many_arguments)] // mirrors the engine signature + the thread knob
pub fn run_gradient_trix_streaming(
    g: &LayeredGraph,
    params: &Params,
    rule: &GradientTrixRule,
    sends: &(impl SendModel + Sync),
    pulses: usize,
    seed: u64,
    sim_threads: usize,
    obs: &mut impl Observer,
) {
    let (env, layer0) = line_inputs(g, params, seed);
    run_dataflow_parallel(g, &env, &layer0, rule, sends, pulses, sim_threads, obs);
}

/// Runs Gradient TRIX on an **arbitrary connected base graph**: identical
/// seed derivation to [`run_gradient_trix`] (env from `fork(1)`, layer 0
/// from `fork(2)`), but layer 0 comes from the BFS-forest source
/// ([`Layer0Line::random_for_graph`]) instead of the Appendix-A line —
/// the line's hop chain `v−1 → v` is only meaningful on
/// `line_with_replicated_ends`. The two sources draw differently even on
/// line graphs (the forest roots at node 0), so the grid experiments
/// keep [`run_gradient_trix`] and their pinned fingerprints; this is the
/// entry point for the topology-family sweep (`exp_topology`).
pub fn run_gradient_trix_graph(
    g: &LayeredGraph,
    params: &Params,
    rule: &GradientTrixRule,
    sends: &impl SendModel,
    pulses: usize,
    seed: u64,
) -> (PulseTrace, StaticEnvironment) {
    let (env, layer0) = graph_inputs(g, params, seed);
    let trace = run_dataflow(g, &env, &layer0, rule, sends, pulses);
    (trace, env)
}

/// Streaming counterpart of [`run_gradient_trix_graph`]: the
/// graph-generic workload of [`run_gradient_trix_streaming`] — same seed
/// derivation, BFS-forest layer 0, `O(width)` driver state — with
/// `sim_threads` sharding exactly as there (the emission stream is
/// bit-identical for every value).
#[allow(clippy::too_many_arguments)] // mirrors the engine signature + the thread knob
pub fn run_gradient_trix_streaming_graph(
    g: &LayeredGraph,
    params: &Params,
    rule: &GradientTrixRule,
    sends: &(impl SendModel + Sync),
    pulses: usize,
    seed: u64,
    sim_threads: usize,
    obs: &mut impl Observer,
) {
    let (env, layer0) = graph_inputs(g, params, seed);
    run_dataflow_parallel(g, &env, &layer0, rule, sends, pulses, sim_threads, obs);
}

/// Folds per-seed streaming snapshots into the one [`SkewStats`] a
/// benchmark record carries, delegating the partial-merge semantics to
/// [`SkewStats::merge`] in `trix-obs` (maxima fold with `max`, pulse
/// counts and histograms add, the mean is sample-count-weighted; the
/// histogram mass *is* the intra sample count, pinned by the `trix-obs`
/// property tests). `tests/streaming_equivalence.rs` replays records
/// through this same fold, so the merge used by the sweep and the merge
/// used to verify it cannot drift.
pub fn merge_snapshots(snaps: &[SkewStats]) -> SkewStats {
    let Some((first, rest)) = snaps.split_first() else {
        return SkewStats {
            max_intra: 0.0,
            max_inter: 0.0,
            max_full: 0.0,
            max_global: 0.0,
            mean_intra: 0.0,
            pulses: 0,
            hist_bin_width: 0.0,
            hist_intra: Vec::new(),
        };
    };
    let mut merged = first.clone();
    for s in rest {
        merged.merge(s);
    }
    merged
}

/// The standard streaming monitor shape of the streaming experiments:
/// histogram bins of `κ/2` (so the paper's `O(κ log D)` regime spans the
/// first handful of bins).
pub fn streaming_monitor(g: &LayeredGraph, p: &Params) -> StreamingSkew {
    StreamingSkew::with_histogram(
        g,
        p.kappa().as_f64() / 2.0,
        StreamingSkew::DEFAULT_HIST_BINS,
    )
}

/// Runs Gradient TRIX under an explicit environment (adversarial setups).
pub fn run_gradient_trix_with_env(
    g: &LayeredGraph,
    params: &Params,
    rule: &GradientTrixRule,
    env: &StaticEnvironment,
    sends: &impl SendModel,
    pulses: usize,
    seed: u64,
) -> PulseTrace {
    let mut layer0_rng = Rng::seed_from(seed).fork(2);
    let layer0 = Layer0Line::random_for_line(params, g.width(), &mut layer0_rng);
    run_dataflow(g, env, &layer0, rule, sends, pulses)
}

#[cfg(test)]
mod tests {
    use super::*;
    use trix_sim::{CorrectSends, Environment};

    #[test]
    fn standard_params_support_large_diameters() {
        let p = standard_params();
        assert!(p.supports_skew(p.fault_free_local_skew_bound(1 << 12)));
    }

    #[test]
    fn run_is_deterministic() {
        let p = standard_params();
        let g = square_grid(8);
        let rule = GradientTrixRule::new(p);
        let (a, _) = run_gradient_trix(&g, &p, &rule, &CorrectSends, 3, 42);
        let (b, _) = run_gradient_trix(&g, &p, &rule, &CorrectSends, 3, 42);
        for n in g.nodes() {
            assert_eq!(a.time(2, n), b.time(2, n));
        }
    }

    /// The Figure 1 (left) environment the `fig1`, `thm11` and `table1`
    /// experiments run, at the standard parameters.
    #[test]
    fn split_env_sets_delays() {
        let p = standard_params();
        let g = grid(6, 4);
        let env = trix_baselines::split_delay_env(&g, p.d(), p.u());
        let n_fast = g.node(1, 2);
        let n_slow = g.node(6, 2);
        let (_, e_fast) = g.predecessors(n_fast).next().unwrap();
        let (_, e_slow) = g.predecessors(n_slow).next().unwrap();
        assert_eq!(env.delay(0, e_fast), p.d() - p.u());
        assert_eq!(env.delay(0, e_slow), p.d());
    }
}
