//! A counting global-allocator shim for allocation tests.
//!
//! Include it in a test crate with
//! `#[path = "<relative path>/counting_alloc.rs"] mod counting_alloc;`: it
//! installs itself as that crate's global allocator, so each test crate gets
//! one copy of the shim and no second one can be written.
//!
//! The gate and the count are *thread-local*, not process-wide: the libtest
//! harness thread concurrently blocks in its result-channel `recv()`, and
//! whether that park path allocates depends on scheduling. A global gate
//! intermittently charged those harness allocations to the work under test
//! (a rare-flake "allocated 2 times" failure); a thread-local gate counts
//! only the thread running the gated `work`, which is what these tests are
//! actually asserting about, and a thread-local count keeps the tests of one
//! file from counting each other's allocations. The `const` initializers
//! keep the TLS accesses themselves allocation-free, so they are safe inside
//! the allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Forwards to the system allocator, counting every allocation (alloc,
/// alloc_zeroed, realloc) made while this thread's gate is open.
struct CountingAllocator;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count_if_open() {
    if COUNTING.with(Cell::get) {
        ALLOCATIONS.with(|count| count.set(count.get() + 1));
    }
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_if_open();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_if_open();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_if_open();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Runs `work` with this thread's counting gate open and returns how many
/// heap allocations it performed.
pub fn count_allocations(work: impl FnOnce()) -> usize {
    ALLOCATIONS.with(|count| count.set(0));
    COUNTING.with(|gate| gate.set(true));
    work();
    COUNTING.with(|gate| gate.set(false));
    ALLOCATIONS.with(Cell::get)
}
