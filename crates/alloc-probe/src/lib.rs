//! Test-only allocation probe. Linking this crate installs a counting
//! `#[global_allocator]` that forwards to `System` and keeps, per thread,
//! the number of allocations, the largest request, the bytes requested,
//! and the live heap bytes (allocated minus freed). Tests use it to hold a path to an exact
//! allocation count, and to check that a structure's reported memory is
//! the heap it really holds. Take it only as a dev-dependency.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Probe;

thread_local! {
    /// `(allocations, largest request in bytes)` since the last reset.
    static ALLOCS: Cell<(usize, usize)> = const { Cell::new((0, 0)) };
    /// Bytes this thread allocated, freed or not, since it started.
    static REQUESTED: Cell<usize> = const { Cell::new(0) };
    /// Bytes this thread allocated minus bytes it freed, since it started.
    static LIVE: Cell<isize> = const { Cell::new(0) };
}

// SAFETY: every call forwards unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the bookkeeping touches only `const`-
// initialised, destructor-free thread-local `Cell`s, which neither
// allocate nor unwind. `alloc_zeroed` and `realloc` keep their default
// bodies, which go through `alloc` / `dealloc` and so are counted too.
unsafe impl GlobalAlloc for Probe {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let size = layout.size();
        let _ = ALLOCS.try_with(|a| {
            let (count, largest) = a.get();
            a.set((count + 1, largest.max(size)));
        });
        let _ = REQUESTED.try_with(|r| r.set(r.get() + size));
        let _ = LIVE.try_with(|l| l.set(l.get() + size as isize));
        // SAFETY: `layout` is the caller's, passed through untouched.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        let _ = LIVE.try_with(|l| l.set(l.get() - layout.size() as isize));
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static PROBE: Probe = Probe;

/// Runs `f`; returns its result, the number of allocations this thread
/// made meanwhile, and the largest of them in bytes.
pub fn measure<T>(f: impl FnOnce() -> T) -> (T, usize, usize) {
    ALLOCS.with(|a| a.set((0, 0)));
    let out = f();
    let (count, largest) = ALLOCS.with(Cell::get);
    (out, count, largest)
}

/// Runs `f`; returns its result and the bytes this thread allocated
/// meanwhile, whether freed again or not (a regrown buffer counts its new
/// size once more) — the bytes `f` wrote into fresh memory.
pub fn requested<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = REQUESTED.with(Cell::get);
    let out = f();
    (out, REQUESTED.with(Cell::get) - before)
}

/// Runs `f`; returns its result and the heap bytes this thread holds
/// afterwards that it did not hold before — what the result keeps alive,
/// once `f`'s temporaries are freed.
pub fn retained<T>(f: impl FnOnce() -> T) -> (T, isize) {
    let before = LIVE.with(Cell::get);
    let out = f();
    (out, LIVE.with(Cell::get) - before)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_allocations_and_live_bytes() {
        let (v, count, largest) = measure(|| vec![0u8; 1000]);
        assert_eq!((count, largest), (1, 1000));
        let ((), bytes) = requested(|| drop((vec![0u8; 300], vec![0u16; 50])));
        assert_eq!(bytes, 400, "freed bytes count too");
        let (mut w, held) = retained(|| {
            let scratch = vec![1u64; 64];
            drop(scratch);
            Vec::<u32>::with_capacity(10)
        });
        assert_eq!(held, 40);
        let (_, grown) = retained(|| w.reserve_exact(90));
        assert_eq!(grown, 320, "realloc moves live bytes by the difference");
        let (_, freed) = retained(move || drop((v, w)));
        assert_eq!(freed, -1360);
    }
}
