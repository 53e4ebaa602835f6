//! Allocation guard for the serial hot path.
//!
//! A `run_dataflow_observed` pass with `GradientTrixRule` and the
//! streaming skew monitor allocates only per run: the in-edge table, the
//! two rows and the neighbor scratch buffer. Nothing is allocated per
//! rule evaluation or per pulse, so a pass of 8 pulses makes exactly as
//! many heap allocations as a pass of 4.
//!
//! The test binary installs a counting global allocator that forwards to
//! the system allocator and counts only the allocations of the thread
//! that switched counting on. The file holds a single test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use gradient_trix::core::{GradientTrixRule, Layer0Line};
use gradient_trix::sim::{run_dataflow_observed, CorrectSends, Rng, StaticEnvironment};
use gradient_trix::topology::{families, LayeredGraph};
use trix_bench::common::{grid, standard_params, streaming_monitor};
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

/// Heap allocations one serial pass of `pulses` pulses makes on `g`,
/// with the inputs built beforehand and the monitor finished afterwards.
fn pass_allocations(g: &LayeredGraph, pulses: usize) -> u64 {
    let p = standard_params();
    let root = Rng::seed_from(7);
    let env = StaticEnvironment::random(g, p.d(), p.u(), p.theta(), &mut root.fork(1));
    let layer0 = Layer0Line::random_for_graph(&p, g.base(), &mut root.fork(2));
    let rule = GradientTrixRule::new(p);
    let mut skew = streaming_monitor(g, &p);
    ALLOCS.with(|n| n.set(Some(0)));
    run_dataflow_observed(g, &env, &layer0, &rule, &CorrectSends, pulses, &mut skew);
    skew.finish();
    let allocs = ALLOCS.with(|n| n.replace(None)).expect("counting was on");
    assert_eq!(skew.pulses(), pulses as u64);
    allocs
}

#[test]
fn serial_pass_allocates_per_run_not_per_pulse() {
    let torus = families::torus(6, 6).into_graph();
    let layers = layers_for(torus.diameter());
    let torus = LayeredGraph::new(torus, layers);
    for (name, g) in [("width-32 grid", grid(32, 32)), ("6x6 torus", torus)] {
        let (four, eight) = (pass_allocations(&g, 4), pass_allocations(&g, 8));
        assert_eq!(
            four, eight,
            "{name}: 4 pulses allocate {four} times, 8 pulses {eight} times"
        );
    }
}
