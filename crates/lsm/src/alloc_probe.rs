//! Test-only allocation probe: counts the current thread's heap
//! allocations so tests can hold the read path to "one frame buffer plus
//! one offset table" instead of estimating it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Probe;

thread_local! {
    /// `(allocations, largest request in bytes)` since the last reset.
    static ALLOCS: Cell<(usize, usize)> = const { Cell::new((0, 0)) };
}

// SAFETY: every call forwards unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the bookkeeping touches only a `const`-
// initialised, destructor-free thread-local `Cell`, which neither
// allocates nor unwinds.
unsafe impl GlobalAlloc for Probe {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|a| {
            let (count, largest) = a.get();
            a.set((count + 1, largest.max(layout.size())));
        });
        // SAFETY: `layout` is the caller's, passed through untouched.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static PROBE: Probe = Probe;

/// Runs `f`; returns its result, the number of allocations this thread
/// made meanwhile, and the largest of them in bytes.
pub(crate) fn measure<T>(f: impl FnOnce() -> T) -> (T, usize, usize) {
    ALLOCS.with(|a| a.set((0, 0)));
    let out = f();
    let (count, largest) = ALLOCS.with(Cell::get);
    (out, count, largest)
}
