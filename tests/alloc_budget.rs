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
use deepflow::storage::{BufferPool, BufferPoolConfig, SpanStore};
use deepflow::types::ResourceInventory;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

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
/// allocates nothing: the shards reach the cache lookup as the store's
/// own slice, not a collected list of borrows.
#[test]
fn a_trace_cache_hit_allocates_nothing() {
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
    assert_eq!(allocated, 0, "a cache hit allocates nothing");
}

/// A span list over hot rows lends the stored spans: one query allocates
/// its result vectors, whose count grows as they double, never a copy
/// per row. Pinned at two sizes, after a warm-up query has sorted the
/// time index.
#[test]
fn a_span_list_over_hot_rows_copies_no_row() {
    for (rows, budget) in [(100u64, 8), (1_000, 12)] {
        let mut server = Server::new(&ResourceInventory::default());
        let spans =
            (0..rows).map(|i| Span::synthetic(TapSide::ClientProcess, 1_000 + i, 2_000 + i));
        server.ingest_batch(spans.collect());
        let all = SpanQuery {
            limit: usize::MAX,
            ..SpanQuery::default()
        };
        assert_eq!(server.span_list(&all).len(), rows as usize);

        let (listed, allocated) = allocations(|| server.span_list(&all).len());
        assert_eq!(listed, rows as usize);
        assert_eq!(allocated, budget, "{rows} rows");
    }
}

/// A cold row read from a resident segment copies that one row out of
/// the segment the pool lends: the boxed span and its endpoint string,
/// never the page. Pinned after a warm-up read has paged the segment in.
#[test]
fn a_cold_row_read_from_a_resident_segment_copies_one_row() {
    let dir = std::env::temp_dir().join(format!("df-alloc-budget-{}", std::process::id()));
    let mut store = SpanStore::new();
    let spans = (0..10u64).map(|i| Span::synthetic(TapSide::ClientProcess, 1_000 + i, 2_000 + i));
    store.insert_batch(spans.collect());
    let pool = Arc::new(BufferPool::new(BufferPoolConfig::with_frames(1)));
    let spilled = store.spill_before(TimeNs(u64::MAX), &pool, &dir, 0);
    let read = |row| store.span_at(row).expect("row exists").req_time;
    let warm = spilled.map(|_| read(3));
    let (hit, allocated) = allocations(|| read(3));
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(warm.expect("spill succeeds"), TimeNs(1_003));
    assert_eq!((hit, store.cold_rows()), (TimeNs(1_003), 10));
    let stats = pool.stats();
    assert_eq!((stats.misses, stats.hits), (1, 1), "the second read hits");
    assert_eq!(allocated, 2, "a resident cold row costs one span copy");
}
