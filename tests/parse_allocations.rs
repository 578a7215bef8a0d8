//! Allocation guard for the `.dfg` front end: a graph's names live in
//! one arena and its lookups in one table, so parsing and dropping a
//! graph makes a number of allocations that grows with the number of
//! buffers that double, not with the number of names.
//!
//! A counting `#[global_allocator]` compares the 30k-op scaling draw
//! with the 1k-op one. Counts are of calls, not bytes, so the guard does
//! not depend on machine speed or on the allocator's size classes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use moveframe_hls::benchmarks::generate::{generate, scaling_workload};
use moveframe_hls::dfg::parse_dfg;

/// The system allocator, counting the allocations (fresh or resized) of
/// the threads that ask it to.
struct Counting;

thread_local! {
    /// `Some(n)` while this thread counts: the allocations so far.
    static COUNT: Cell<Option<u64>> = const { Cell::new(None) };
}

fn tally() {
    COUNT.with(|c| c.set(c.get().map(|n| n + 1)));
}

// SAFETY: every call forwards to `System` unchanged; counting only
// touches a `const`-initialised thread-local without a destructor,
// which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally();
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        tally();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally();
        // SAFETY: the caller upholds `realloc`'s contract for `ptr`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `dealloc`'s contract for `ptr`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The allocations this thread makes to parse `text` and drop the graph.
fn allocations(text: &str) -> u64 {
    COUNT.with(|c| c.set(Some(0)));
    drop(parse_dfg(text).expect("scaling draws parse"));
    COUNT.with(|c| c.replace(None)).expect("counting was on")
}

/// Vector doublings between 1k and 30k names: a handful per buffer.
const GROWTH_ALLOWANCE: u64 = 32;

#[test]
fn allocations_do_not_grow_with_the_names() {
    let small = generate(&scaling_workload(1_000)).to_text().unwrap();
    let large = generate(&scaling_workload(30_000)).to_text().unwrap();
    let (a_small, a_large) = (allocations(&small), allocations(&large));
    assert!(
        a_large <= a_small + GROWTH_ALLOWANCE,
        "1k ops: {a_small} allocations, 30k ops: {a_large}"
    );
    // The same text twice costs the same: nothing is cached across calls.
    assert_eq!(allocations(&small), a_small);
}
