//! Allocation budgets: exact allocation counts for paths that are fast
//! because they do not copy, and the live heap bytes a stored span costs.
//! A copy put back fails `cargo test` here, where timed runs on a noisy
//! host would need tens of pairs to show it. The counting global
//! allocator below counts per thread, so tests running in parallel do not
//! mix their counts. Each budget prints one `ledger:` line (shown with
//! `--nocapture`; `ci.sh` prints them in every log).

#![allow(
    unsafe_code,
    reason = "a #[global_allocator] implements the unsafe GlobalAlloc trait; \
              this one only counts and forwards to System"
)]

use deepflow::mesh::apps;
use deepflow::prelude::*;
use deepflow::storage::{BufferPool, BufferPoolConfig, SpanStore};
use deepflow::types::ResourceInventory;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fmt::Display;
use std::sync::Arc;

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
fn allocations<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// `f`'s result, the allocations it made on this thread, and the heap
/// bytes they left live once `f` returned.
fn heap<R>(f: impl FnOnce() -> R) -> (R, u64, i64) {
    let before = LIVE_BYTES.with(Cell::get);
    let (out, allocated) = allocations(f);
    (out, allocated, LIVE_BYTES.with(Cell::get) - before)
}

/// Print one counted row of the cost ledger.
fn ledger(row: &str, value: impl Display) {
    println!("ledger: {row} = {value}");
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
    ledger("trace_cache.hit_allocations", allocated);
    assert_eq!(server.stats().cache_hits, 1, "the second query hits");
    assert_eq!(allocated, 0, "a cache hit allocates nothing");
}

/// A cold `Server::trace` shares each member's stored row and copies
/// none: its allocations grow with the member count only as its vectors
/// double. Pinned at two sizes of one exchange, every member on one TCP
/// sequence.
#[test]
fn a_cold_trace_copies_no_member() {
    for (members, budget) in [(32u64, 39), (128, 47)] {
        let mut server = Server::new(&ResourceInventory::default());
        let spans = (0..members).map(|i| {
            let mut span = Span::synthetic(TapSide::ClientProcess, 1_000 + i, 2_000 + i);
            span.tcp_seq_req = Some(7);
            span
        });
        let ids = server.ingest_batch(spans.collect());

        let (trace, allocated) = allocations(|| server.trace(ids[0]));
        ledger(
            &format!("trace.cold_allocations_{members}_members"),
            allocated,
        );
        assert_eq!(trace.len(), members as usize, "one exchange");
        assert_eq!(server.stats().cache_misses, 1, "the query is cold");
        assert_eq!(allocated, budget, "{members} members");
    }
}

/// A span list over hot rows lends the stored spans: one query allocates
/// its result vectors, whose count grows as they double, never a copy
/// per row. Pinned at two sizes, after a warm-up query (ingest left the
/// time index sorted, so the warm-up only checks the count).
#[test]
fn a_span_list_over_hot_rows_copies_no_row() {
    for (rows, budget) in [(100u64, 7), (1_000, 10)] {
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
        ledger(&format!("span_list.allocations_{rows}_rows"), allocated);
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
    ledger("cold_row_read.allocations", allocated);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(warm.expect("spill succeeds"), TimeNs(1_003));
    assert_eq!((hit, store.cold_rows()), (TimeNs(1_003), 10));
    let stats = pool.stats();
    assert_eq!((stats.misses, stats.hits), (1, 1), "the second read hits");
    assert_eq!(allocated, 2, "a resident cold row costs one span copy");
}

/// `Server::ingest_wire` over the seeded Bookinfo run's DFW1 batches (100
/// RPS for 2 s, polled every 100 ms: the 7 200-span stream
/// `tests/zero_code_tracing.rs` pins byte for byte), into a fresh server:
/// the allocations it makes and the heap bytes it keeps, per span stored.
/// Each span is decoded into the `Arc` its shard keeps, and the process
/// and interface names of a batch are shared, so a span costs its row, its
/// endpoint string and, rarely, its custom tags.
#[test]
fn wire_ingest_of_the_seeded_bookinfo_run() {
    let mut make_tracer = || apps::no_tracer();
    let (mut world, _handles) = apps::bookinfo(100.0, DurationNs::from_secs(2), &mut make_tracer);
    let mut df = Deployment::install(&mut world).expect("programs verify");
    let mut batches = Vec::new();
    for step in 1..=30 {
        let now = TimeNs::from_millis(step * 100);
        world.run_until(now);
        for (node, agent) in df.agents.iter_mut() {
            let kernel = world.kernels.get_mut(node).expect("agent node");
            batches.extend(agent.poll_wire(kernel, &mut world.fabric, now));
        }
    }
    let mut server = Server::new(&world.fabric.topology.resource_inventory());

    let (spans, allocated, live) = heap(|| {
        (batches.iter())
            .map(|batch| server.ingest_wire(batch).expect("own batch").len())
            .sum::<usize>()
    });
    assert_eq!(spans, 7_200, "the seeded stream");
    let per_span = |n: f64| format!("{:.3}", n / spans as f64);
    ledger(
        "ingest_wire.allocations_per_span",
        per_span(allocated as f64),
    );
    ledger("ingest_wire.live_bytes_per_span", per_span(live as f64));
    assert_eq!((allocated, live), (INGEST_ALLOCATIONS, INGEST_LIVE_BYTES));
}

/// [`wire_ingest_of_the_seeded_bookinfo_run`]'s exact counts.
const INGEST_ALLOCATIONS: u64 = 15_922;
const INGEST_LIVE_BYTES: i64 = 5_105_760;
