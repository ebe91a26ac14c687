//! Allocation budgets: exact allocation counts for paths that are fast
//! because they do not copy. A copy put back fails `cargo test` here,
//! where timed runs on a noisy host would need tens of pairs to show it.
//! The counting global allocator below counts per thread, so tests
//! running in parallel do not mix their counts.

#![allow(
    unsafe_code,
    reason = "a #[global_allocator] implements the unsafe GlobalAlloc trait; \
              this one only counts and forwards to System"
)]

use deepflow::prelude::*;
use deepflow::types::ResourceInventory;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations (`alloc`, `alloc_zeroed`, `realloc`) made on this thread.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: an allocation during thread teardown goes uncounted
    // instead of panicking inside the allocator.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

/// `System`, counting each allocation on the calling thread.
struct Counting;

// SAFETY: every method passes its arguments unchanged to `System`, which
// keeps the `GlobalAlloc` contract; counting touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's contract, passed on.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's contract, passed on.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: the caller's contract, passed on.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract, passed on.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// `f`'s result and the allocations it made on this thread.
fn allocations<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// A `Server::trace` cache hit hands back the cached `Arc<Trace>` and
/// copies nothing. Its one allocation is the `Vec<&SpanStore>` of shard
/// borrows that `Server::trace` collects before the cache lookup (one
/// element: `Server::new` holds one shard).
#[test]
fn a_trace_cache_hit_allocates_only_the_shard_list() {
    let mut server = Server::new(&ResourceInventory::default());
    let mut client = Span::synthetic(TapSide::ClientProcess, 1_000, 1_500);
    let mut callee = Span::synthetic(TapSide::ServerProcess, 1_010, 1_490);
    client.tcp_seq_req = Some(7);
    callee.tcp_seq_req = Some(7);
    let ids = server.ingest_batch(vec![client, callee]);
    let cold = server.trace(ids[0]);
    assert_eq!(cold.spans.len(), 2, "the pair joins on its TCP sequence");

    let (_, allocated) = allocations(|| server.trace(ids[0]));
    assert_eq!(server.stats().cache_hits, 1, "the second query hits");
    assert_eq!(allocated, 1, "a cache hit allocates the shard list only");
}
