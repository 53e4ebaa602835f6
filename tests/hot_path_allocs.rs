//! Allocation guard for the serial hot path.
//!
//! A `run_dataflow_observed` pass with `GradientTrixRule` and the
//! streaming skew monitor allocates only per run: the two rows and the
//! neighbor scratch buffer. Nothing is allocated per rule evaluation or
//! per pulse, so a pass of 8 pulses makes exactly as many heap
//! allocations as a pass of 4. That holds on a grid, a torus and a
//! supernode overlay whose hubs have in-degree 18, and for sends gated
//! by a fault campaign or a churn campaign.
//!
//! The test binary installs a counting global allocator that forwards to
//! the system allocator and counts only the allocations of the thread
//! that switched counting on. The file holds a single test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use gradient_trix::core::{GradientTrixRule, Layer0Line};
use gradient_trix::faults::{ChurnCampaign, ChurnSchedule};
use gradient_trix::sim::{run_dataflow_observed, CorrectSends, Rng, SendModel, StaticEnvironment};
use gradient_trix::topology::{families, LayeredGraph};
use trix_bench::common::{grid, standard_params, streaming_monitor};
use trix_bench::exp_fault_sweep::{self, BehaviorClass, PatternClass, SweepPoint};
use trix_bench::exp_topology::layers_for;

thread_local! {
    /// Allocations of this thread while counting, `None` while not.
    static ALLOCS: Cell<Option<u64>> = const { Cell::new(None) };
}

fn count() {
    // `try_with`: the allocator also runs while thread-locals are torn
    // down.
    let _ = ALLOCS.try_with(|n| n.set(n.get().map(|n| n + 1)));
}

/// System allocator wrapper that counts this thread's allocations.
struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; counting touches only a
// const-initialized thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `alloc_zeroed`'s contract for `layout`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator (hence `System`) with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from this allocator (hence `System`) with
        // `layout`, and the caller upholds `realloc`'s size contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Heap allocations one serial pass of `pulses` pulses makes on `g`
/// with sends gated by `sends`, with the inputs built beforehand and the
/// monitor finished afterwards.
fn pass_allocations(g: &LayeredGraph, sends: &impl SendModel, pulses: usize) -> u64 {
    let p = standard_params();
    let root = Rng::seed_from(7);
    let env = StaticEnvironment::random(g, p.d(), p.u(), p.theta(), &mut root.fork(1));
    let layer0 = Layer0Line::random_for_graph(&p, g.base(), &mut root.fork(2));
    let rule = GradientTrixRule::new(p);
    let mut skew = streaming_monitor(g, &p);
    ALLOCS.with(|n| n.set(Some(0)));
    run_dataflow_observed(g, &env, &layer0, &rule, sends, pulses, &mut skew);
    skew.finish();
    let allocs = ALLOCS.with(|n| n.replace(None)).expect("counting was on");
    assert_eq!(skew.snapshot().pulses, pulses as u64);
    allocs
}

fn assert_per_run(name: &str, g: &LayeredGraph, sends: &impl SendModel) {
    let (four, eight) = (pass_allocations(g, sends, 4), pass_allocations(g, sends, 8));
    assert_eq!(
        four, eight,
        "{name}: 4 pulses allocate {four} times, 8 pulses {eight} times"
    );
}

/// `family` layered deep enough for its diameter, as `exp_topology` runs it.
fn layered(family: families::Family) -> LayeredGraph {
    let g = family.into_graph();
    let layers = layers_for(g.diameter());
    LayeredGraph::new(g, layers)
}

#[test]
fn serial_pass_allocates_per_run_not_per_pulse() {
    // The supernode hubs have in-degree 18, more than any fixed-size
    // buffer of arrivals a rule might keep on the stack.
    for (name, g) in [
        ("width-32 grid", grid(32, 32)),
        ("6x6 torus", layered(families::torus(6, 6))),
        (
            "4x8 supernode overlay",
            layered(families::supernode_overlay(4, 8)),
        ),
    ] {
        assert_per_run(name, &g, &CorrectSends);
    }

    // Campaign gating: the iid/flaky campaign of the fault sweep, at the
    // n^-1/2 boundary density and at 8x that.
    let g = grid(32, 32);
    for density_centi in [100, 800] {
        let point = SweepPoint {
            width: g.width(),
            pulses: 8,
            density_centi,
            behavior: BehaviorClass::Flaky,
            pattern: PatternClass::Iid,
        };
        let campaign = exp_fault_sweep::campaign_for(&g, &point, 3);
        assert!(campaign.fault_count() > 0, "density {density_centi}");
        assert_per_run("iid/flaky campaign", &g, &campaign);
    }

    // Membership gating: i.i.d. flicker plus per-node overrides.
    let mut churn = ChurnCampaign::flicker(0.05, 11);
    for (i, layer) in (1..g.layer_count()).step_by(3).enumerate() {
        let node = g.node((7 * i) % g.width(), layer);
        churn.insert(
            node,
            ChurnSchedule::Rejoin {
                leave: 1,
                rejoin: 3,
            },
        );
    }
    assert!(churn.override_count() > 0);
    assert_per_run("churn campaign with overrides", &g, &churn);
}
