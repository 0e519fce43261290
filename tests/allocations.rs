//! Allocation guards for the two benchmarked node generators.
//!
//! The paper builds every search on lazy node generators over
//! allocation-free bitsets (§4.1).  A counting global allocator checks that
//! this holds where it matters: a Sequential search runs inline on the
//! calling thread, so the allocations the calling thread makes during one
//! search are the search's own — per-search set-up only for Irregular
//! (independent of the tree's size), and a fixed handful per node for
//! MaxClique (the node's two bitsets, the colouring's order and colour
//! vectors, the generator's copies of the parent's sets).
//!
//! The counter is per thread, so the test harness running other tests on
//! other threads does not disturb it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use yewpar::{Coordination, Skeleton};
use yewpar_apps::irregular::Irregular;
use yewpar_apps::maxclique::MaxClique;
use yewpar_instances::graph;

/// The system allocator, counting each thread's allocations.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the thread-local may already be gone during thread exit.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, so the
// caller's guarantees are the ones `System` needs and its results are
// returned as they are; counting only bumps a thread-local `Cell`, which
// neither allocates nor registers a destructor.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations the calling thread makes while running `f`.
fn allocations_during<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

#[test]
fn sequential_irregular_allocates_only_its_set_up() {
    let count = |depth| {
        let p = Irregular::new(depth, 1);
        let skeleton = Skeleton::new(Coordination::Sequential);
        let (allocations, out) = allocations_during(|| skeleton.enumerate(&p));
        assert!(out.status.is_complete());
        (allocations, out.metrics.nodes())
    };
    let (small, small_nodes) = count(12);
    let (large, large_nodes) = count(14);
    assert!(
        large_nodes > 4 * small_nodes,
        "{small_nodes} vs {large_nodes}"
    );
    assert_eq!(
        small, large,
        "a {large_nodes}-node tree allocated {large} times, a {small_nodes}-node one {small}: \
         the generator allocates per node"
    );
    assert!(small <= 16, "{small} allocations of set-up for one search");
}

#[test]
fn sequential_maxclique_allocates_a_few_times_per_node() {
    let p = MaxClique::new(graph::gnp(80, 0.7, 5));
    let skeleton = Skeleton::new(Coordination::Sequential);
    let (allocations, out) = allocations_during(|| skeleton.maximise(&p));
    assert!(out.status.is_complete());
    let nodes = out.metrics.nodes();
    let per_node = allocations as f64 / nodes as f64;
    assert!(
        per_node <= 6.0,
        "{allocations} allocations over {nodes} nodes ({per_node:.2} per node): \
         the colouring allocates per colour class"
    );
}
