//! Allocation budget of a warm configure.
//!
//! A counting global allocator tallies the heap allocations the test's
//! own thread makes while it speculates every (template, client) pair
//! of a warm eight-device space, each a composition-cache hit followed
//! by a greedy placement and its pricing. The mean per configure is
//! pinned, so a change that puts allocations back on the configure path
//! fails here instead of showing up only as lost throughput.
//!
//! The count is per thread, so tests running on other threads do not
//! disturb it. Debug builds re-compose every cache hit to cross-check
//! it, which allocates on purpose, so the budget is asserted in release
//! builds only: `cargo test --release -p ubiqos-runtime --test alloc_budget`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use ubiqos_graph::DeviceId;
use ubiqos_model::QosVector;
use ubiqos_runtime::faults::{app_template, build_space};

/// The system allocator, counting each allocation on the calling thread.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call forwards unchanged to the system allocator; the
// counter is a const-initialized thread-local `Cell`, which neither
// allocates nor registers a destructor.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

fn count() {
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// The pinned budget: mean heap allocations (reallocations included)
/// per cache-hit `speculate_configure` on the warm space below, as
/// measured. The composition is shared from the cache and the greedy
/// places in its reused workspace; what remains is the placement's
/// returned cut and the two buffers its pricing fills.
const BUDGET_PER_CONFIGURE: f64 = 3.0;

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "debug builds re-compose every cache hit to cross-check it"
)]
fn a_warm_configure_stays_within_its_allocation_budget() {
    let server = build_space(8);
    let qos = QosVector::new();
    let requests: Vec<_> = (0..2)
        .flat_map(|t| (0..8).map(move |d| (app_template(t).1, DeviceId::from_index(d))))
        .collect();
    let configure_all = || {
        requests
            .iter()
            .filter(|(graph, client)| {
                server
                    .speculate_configure(graph, &qos, *client, None)
                    .is_ok()
            })
            .count()
    };
    // Two passes fill the composition cache and grow the placement
    // workspace to these instances' size.
    for _ in 0..2 {
        assert_eq!(configure_all(), requests.len(), "every request places");
    }
    const ROUNDS: u64 = 8;
    let before = allocations();
    for _ in 0..ROUNDS {
        configure_all();
    }
    let per_configure = (allocations() - before) as f64 / (ROUNDS * requests.len() as u64) as f64;
    println!("allocations per warm configure: {per_configure:.2}");
    assert!(
        per_configure <= BUDGET_PER_CONFIGURE,
        "a warm configure made {per_configure:.2} allocations, over its budget of {BUDGET_PER_CONFIGURE}"
    );
}
