//! A counting global allocator: `System`, counting per thread the
//! allocations made and the heap bytes left live. Per thread, so tests
//! running in parallel do not mix their counts.
//!
//! Included by path from each crate root that installs it
//! (`tests/alloc_budget.rs`, the `fig14_storage` harness); each root
//! allows `unsafe_code` itself, for the `GlobalAlloc` impl below.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations (`alloc`, `alloc_zeroed`, `realloc`) made on this thread.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread allocated, minus the bytes it freed.
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
}

/// Count an allocation of `grown` bytes that released `freed` bytes.
fn count_one(grown: usize, freed: usize) {
    // `try_with`: an allocation during thread teardown goes uncounted
    // instead of panicking inside the allocator.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    count_freed(freed);
    let _ = LIVE_BYTES.try_with(|n| n.set(n.get() + grown as i64));
}

fn count_freed(bytes: usize) {
    let _ = LIVE_BYTES.try_with(|n| n.set(n.get() - bytes as i64));
}

/// `System`, counting each allocation on the calling thread.
struct Counting;

// SAFETY: every method passes its arguments unchanged to `System`, which
// keeps the `GlobalAlloc` contract; counting touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size(), 0);
        // SAFETY: the caller's contract, passed on.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size(), 0);
        // SAFETY: the caller's contract, passed on.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one(new_size, layout.size());
        // SAFETY: the caller's contract, passed on.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count_freed(layout.size());
        // SAFETY: the caller's contract, passed on.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// `f`'s result and the allocations it made on this thread.
pub fn allocations<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// `f`'s result, the allocations it made on this thread, and the heap
/// bytes they left live once `f` returned.
pub fn heap<R>(f: impl FnOnce() -> R) -> (R, u64, i64) {
    let before = LIVE_BYTES.with(Cell::get);
    let (out, allocated) = allocations(f);
    (out, allocated, LIVE_BYTES.with(Cell::get) - before)
}
