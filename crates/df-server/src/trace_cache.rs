//! Incremental assembled-trace cache, memoized by start span.
//!
//! Trace queries in the paper's deployment are read-heavy and repetitive —
//! an engineer drilling into an incident re-requests the same trace as the
//! dashboard refreshes — while the corpus mutates append-mostly. Caching
//! the output of Algorithm 1 is therefore profitable *if* staleness can be
//! detected cheaply. This module provides that detection via the sharded
//! store's time-bucketed routing table:
//!
//! * When a trace is cached, the cache records the trace's **time
//!   envelope** — every routing-table bucket from one bucket before its
//!   earliest request to one bucket after its latest response — together
//!   with each bucket's current *generation*
//!   ([`ShardedSpanStore::bucket_gen`]).
//! * Every mutation (insert, tombstone, re-aggregation completing a span)
//!   bumps the generation of the bucket the span's request time falls in.
//! * A lookup re-reads the generations of the recorded buckets; if any
//!   moved, the entry is dropped ([`CacheOutcome::Invalidated`]) and the
//!   caller re-assembles.
//!
//! ## Staleness contract
//!
//! Invalidation is **bucket-granular and time-local**, not exact: any
//! mutation inside a cached trace's time envelope invalidates it, whether
//! or not the mutated span would actually have joined the trace
//! (over-invalidation — always safe, costs a re-assembly). Conversely a
//! *new* span can only extend a cached trace if some association key links
//! it to a member; association in Algorithm 1 happens between spans of one
//! request's execution, which are clustered in time (the paper's traces
//! span milliseconds, buckets default to one second). The ±1-bucket margin
//! covers members sitting at a bucket edge linking to a neighbour just
//! outside. A hypothetical span *far outside* the envelope sharing a key
//! (e.g. a TCP sequence number reused seconds later) would **not**
//! invalidate — by design: Algorithm 1's own heuristics treat such distant
//! matches as coincidence, and serving the cached trace matches the intent
//! of trace assembly. Traces whose envelope exceeds
//! [`TraceCache::max_deps`] buckets are never cached rather than tracked
//! imprecisely.
//!
//! Cached traces are handed out as [`Arc<Trace>`], so a warm hit is a
//! pointer clone — the bench's warm-vs-cold comparison
//! (`alg1_trace_cache`) shows the resulting speedup.

use crate::server::ServerStats;
use crate::sharded::ShardedSpanStore;
use df_check::sync::{Arc, Mutex};
use df_types::trace::Trace;
use df_types::{SpanId, TimeNs};
use std::collections::HashMap;
use std::collections::VecDeque;

/// Where bucket generations come from. The cache validates entries against
/// *some* view of the routing table's time-bucket generations — the
/// in-process [`ShardedSpanStore`] or the concurrent store's locked
/// generation table ([`crate::concurrent::ConcurrentShardedStore`]) — so
/// its lookup/store methods are generic over this trait rather than tied
/// to one store type.
pub trait BucketGens {
    /// Current generation of a routing-table time bucket (0 if untouched).
    fn bucket_gen(&self, bucket: u64) -> u64;
    /// The routing-table bucket containing `t`.
    fn bucket_of(&self, t: TimeNs) -> u64;
}

impl BucketGens for ShardedSpanStore {
    fn bucket_gen(&self, bucket: u64) -> u64 {
        ShardedSpanStore::bucket_gen(self, bucket)
    }
    fn bucket_of(&self, t: TimeNs) -> u64 {
        ShardedSpanStore::bucket_of(self, t)
    }
}

/// Result of a cache lookup, so the caller can account hits, misses and
/// invalidations separately (the server's stats distinguish them).
#[derive(Debug, Clone)]
pub enum CacheOutcome {
    /// Entry present and every recorded bucket generation still current.
    Hit(Arc<Trace>),
    /// Entry present and stale, but within the staleness window the caller
    /// passed to [`TraceCache::lookup_bounded`]: every recorded bucket
    /// generation drifted by at most the window. The entry is *kept* (it
    /// may be served again while the window allows, and a later strict
    /// lookup will invalidate it).
    Stale(Arc<Trace>),
    /// Entry present but a bucket in the trace's envelope mutated since it
    /// was cached; the entry has been dropped.
    Invalidated,
    /// No entry for this start span.
    Miss,
}

#[derive(Debug)]
struct CacheEntry {
    trace: Arc<Trace>,
    /// `(bucket, generation at cache time)` for every bucket in the
    /// trace's time envelope.
    deps: Vec<(u64, u64)>,
}

/// Assembled-trace cache keyed by start span id. See the module docs for
/// the invalidation contract.
#[derive(Debug)]
pub struct TraceCache {
    entries: HashMap<SpanId, CacheEntry>,
    /// FIFO of cached keys for capacity eviction.
    order: VecDeque<SpanId>,
    /// Capacity in entries; the oldest entry is evicted beyond it.
    pub max_entries: usize,
    /// Widest time envelope (in routing-table buckets) worth tracking;
    /// traces wider than this are served but not cached.
    pub max_deps: usize,
}

impl Default for TraceCache {
    fn default() -> Self {
        TraceCache {
            entries: HashMap::new(),
            order: VecDeque::new(),
            max_entries: 1024,
            max_deps: 64,
        }
    }
}

impl TraceCache {
    /// Empty cache with default capacity (1024 entries, 64-bucket envelopes).
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Look up the trace starting at `start`, validating its recorded
    /// bucket generations against the store's current ones, with a
    /// bounded-staleness window: if the entry's recorded generations have
    /// each drifted by at most `staleness_window`, the entry is served as
    /// [`CacheOutcome::Stale`] instead of being invalidated — the concurrent server's answer to
    /// ingest pressure (serve a slightly-old trace now rather than
    /// re-assemble synchronously behind a deep ingest queue). Drift beyond
    /// the window still invalidates. A window of 0 is the strict mode.
    pub fn lookup_bounded(
        &mut self,
        start: SpanId,
        store: &impl BucketGens,
        staleness_window: u64,
    ) -> CacheOutcome {
        let Some(entry) = self.entries.get(&start) else {
            return CacheOutcome::Miss;
        };
        // `wrapping_sub`, not `saturating_sub`: if a bucket's counter ever
        // wraps past a recorded generation, saturating would clamp the
        // drift to 0 and serve the entry as perfectly fresh forever.
        // Wrapping turns any mismatch into a huge drift, which correctly
        // falls through to invalidation.
        let drift = entry
            .deps
            .iter()
            .map(|&(bucket, gen)| store.bucket_gen(bucket).wrapping_sub(gen))
            .max()
            .unwrap_or(0);
        if drift == 0 {
            return CacheOutcome::Hit(Arc::clone(&entry.trace));
        }
        if drift <= staleness_window {
            return CacheOutcome::Stale(Arc::clone(&entry.trace));
        }
        self.entries.remove(&start);
        CacheOutcome::Invalidated
    }

    /// Cache a freshly assembled trace and return it as an [`Arc`]. Empty
    /// traces and traces with an over-wide time envelope are returned
    /// un-cached (the former are cheap to recompute and usually transient
    /// — the start span may simply not be stored yet; the latter would
    /// need unbounded dependency tracking).
    pub fn store(&mut self, start: SpanId, trace: Trace, store: &impl BucketGens) -> Arc<Trace> {
        let trace = Arc::new(trace);
        let Some(deps) = self.envelope(&trace, store) else {
            return trace;
        };
        if self.entries.len() >= self.max_entries {
            // FIFO capacity eviction; skip keys already invalidated away.
            while let Some(old) = self.order.pop_front() {
                if self.entries.remove(&old).is_some() {
                    break;
                }
            }
        }
        self.order.push_back(start);
        self.entries.insert(
            start,
            CacheEntry {
                trace: Arc::clone(&trace),
                deps,
            },
        );
        trace
    }

    /// The dependency list for `trace`: every routing-table bucket in its
    /// time envelope (±1 bucket), with current generations. `None` if the
    /// trace should not be cached.
    fn envelope(&self, trace: &Trace, store: &impl BucketGens) -> Option<Vec<(u64, u64)>> {
        if trace.is_empty() {
            return None;
        }
        let lo = trace
            .spans
            .iter()
            .map(|s| store.bucket_of(s.span.req_time))
            .min()?
            .saturating_sub(1);
        let hi = trace
            .spans
            .iter()
            .map(|s| store.bucket_of(s.span.resp_time))
            .max()?
            .saturating_add(1);
        let width = hi.checked_sub(lo)?.checked_add(1)?;
        if width as usize > self.max_deps {
            return None;
        }
        Some((lo..=hi).map(|b| (b, store.bucket_gen(b))).collect())
    }
}

/// One trace query through `cache`: look `start` up (tolerating a drift
/// of `window` generations; 0 is strict), on anything but a servable
/// entry run `assemble_and_store`, and count the query. All counters of
/// one query move under one `stats` acquisition, so every snapshot keeps
/// `trace_queries == hits + stale hits + misses + invalidations`.
///
/// `assemble_and_store` must return the assembled trace *via*
/// [`TraceCache::store`] on this same cache, taken while whatever pins the
/// corpus it assembled from is still held — storing is the caller's so
/// that the recorded generations match the assembled rows. The cache lock
/// is not held while it runs.
pub(crate) fn query_through(
    cache: &Mutex<TraceCache>,
    stats: &Mutex<ServerStats>,
    gens: &impl BucketGens,
    start: SpanId,
    window: u64,
    assemble_and_store: impl FnOnce() -> Arc<Trace>,
) -> Arc<Trace> {
    let outcome = cache
        .lock()
        .expect("cache lock poisoned")
        .lookup_bounded(start, gens, window);
    let (trace, counter): (_, fn(&mut ServerStats) -> &mut u64) = match outcome {
        CacheOutcome::Hit(t) => (t, |st| &mut st.cache_hits),
        CacheOutcome::Stale(t) => (t, |st| &mut st.cache_stale_hits),
        CacheOutcome::Invalidated => (assemble_and_store(), |st| &mut st.cache_invalidations),
        CacheOutcome::Miss => (assemble_and_store(), |st| &mut st.cache_misses),
    };
    let mut st = stats.lock().expect("stats lock poisoned");
    st.trace_queries += 1;
    *counter(&mut st) += 1;
    trace
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assemble::AssembleConfig;
    use crate::sharded::assemble_trace_sharded;
    use df_storage::ShardPolicy;
    use df_types::span::TapSide;
    use df_types::Span;

    fn linked_pair(seq: u32, base_ns: u64) -> Vec<Span> {
        let mut a = Span::synthetic(TapSide::ClientProcess, base_ns, base_ns + 500);
        a.tcp_seq_req = Some(seq);
        let mut b = Span::synthetic(TapSide::ServerProcess, base_ns + 10, base_ns + 490);
        b.tcp_seq_req = Some(seq);
        vec![a, b]
    }

    fn assemble_via_cache(
        cache: &mut TraceCache,
        store: &ShardedSpanStore,
        start: SpanId,
    ) -> (Arc<Trace>, &'static str) {
        match cache.lookup_bounded(start, store, 0) {
            CacheOutcome::Hit(t) => (t, "hit"),
            outcome => {
                let t = assemble_trace_sharded(store, start, &AssembleConfig::default());
                let label = match outcome {
                    CacheOutcome::Invalidated => "invalidated",
                    _ => "miss",
                };
                (cache.store(start, t, store), label)
            }
        }
    }

    #[test]
    fn repeat_query_hits_until_envelope_mutates() {
        let mut store = ShardedSpanStore::new(ShardPolicy::with_shards(4));
        let ids = store.insert_batch(linked_pair(7, 1_000));
        let mut cache = TraceCache::new();

        let (t1, o1) = assemble_via_cache(&mut cache, &store, ids[0]);
        assert_eq!(o1, "miss");
        assert_eq!(t1.len(), 2);
        let (t2, o2) = assemble_via_cache(&mut cache, &store, ids[0]);
        assert_eq!(o2, "hit");
        assert!(Arc::ptr_eq(&t1, &t2), "warm hit is the same allocation");

        // A span landing in the trace's envelope invalidates, and the
        // re-assembled trace includes it.
        let mut c = Span::synthetic(TapSide::ServerPodNic, 1_005, 1_495);
        c.tcp_seq_req = Some(7);
        store.insert_batch(vec![c]);
        let (t3, o3) = assemble_via_cache(&mut cache, &store, ids[0]);
        assert_eq!(o3, "invalidated");
        assert_eq!(t3.len(), 3);
        let (_, o4) = assemble_via_cache(&mut cache, &store, ids[0]);
        assert_eq!(o4, "hit");
    }

    #[test]
    fn mutation_outside_envelope_keeps_entry_warm() {
        let mut store = ShardedSpanStore::new(ShardPolicy::with_shards(4));
        let ids = store.insert_batch(linked_pair(7, 1_000));
        let mut cache = TraceCache::new();
        assemble_via_cache(&mut cache, &store, ids[0]);
        // ~10 s away — outside the ±1 s envelope of a trace at t≈1 µs.
        store.insert_batch(linked_pair(999, 10_000_000_000));
        let (_, outcome) = assemble_via_cache(&mut cache, &store, ids[0]);
        assert_eq!(outcome, "hit", "distant mutation must not invalidate");
    }

    #[test]
    fn tombstone_in_envelope_invalidates() {
        let mut store = ShardedSpanStore::new(ShardPolicy::with_shards(4));
        let ids = store.insert_batch(linked_pair(7, 1_000));
        let mut cache = TraceCache::new();
        let (t1, _) = assemble_via_cache(&mut cache, &store, ids[0]);
        assert_eq!(t1.len(), 2);
        store.tombstone(ids[1]);
        let (t2, outcome) = assemble_via_cache(&mut cache, &store, ids[0]);
        assert_eq!(outcome, "invalidated");
        assert_eq!(t2.len(), 1, "tombstoned member gone after re-assembly");
    }

    #[test]
    fn bounded_staleness_serves_within_window_and_invalidates_beyond() {
        let mut store = ShardedSpanStore::new(ShardPolicy::with_shards(4));
        let ids = store.insert_batch(linked_pair(7, 1_000));
        let mut cache = TraceCache::new();
        let (t1, _) = assemble_via_cache(&mut cache, &store, ids[0]);
        assert_eq!(t1.len(), 2);

        // One mutation in the envelope: drift 1.
        let mut c = Span::synthetic(TapSide::ServerPodNic, 1_005, 1_495);
        c.tcp_seq_req = Some(7);
        store.insert_batch(vec![c]);
        match cache.lookup_bounded(ids[0], &store, 2) {
            CacheOutcome::Stale(t) => {
                assert!(Arc::ptr_eq(&t, &t1), "stale serve is the cached allocation");
                assert_eq!(t.len(), 2, "stale trace misses the new span, by contract");
            }
            other => panic!("drift 1 ≤ window 2 must serve stale, got {other:?}"),
        }
        // The entry survives a stale serve — a second bounded lookup hits it
        // again, a strict lookup invalidates it.
        assert!(matches!(
            cache.lookup_bounded(ids[0], &store, 2),
            CacheOutcome::Stale(_)
        ));
        assert!(matches!(
            cache.lookup_bounded(ids[0], &store, 0),
            CacheOutcome::Invalidated
        ));

        // Re-cache, then push drift beyond the window: invalidated even in
        // bounded mode.
        let (_, o) = assemble_via_cache(&mut cache, &store, ids[0]);
        assert_eq!(o, "miss");
        for seq in 0..5u32 {
            let mut s = Span::synthetic(TapSide::ClientProcess, 1_050 + u64::from(seq), 1_400);
            s.tcp_seq_req = Some(1_000 + seq);
            store.insert_batch(vec![s]);
        }
        assert!(matches!(
            cache.lookup_bounded(ids[0], &store, 2),
            CacheOutcome::Invalidated
        ));
    }

    #[test]
    fn empty_and_oversized_traces_are_not_cached() {
        let mut store = ShardedSpanStore::new(ShardPolicy::single());
        let mut cache = TraceCache::new();
        cache.store(SpanId(99), Trace::default(), &store);
        assert!(cache.is_empty(), "empty trace not cached");

        // Two linked spans ~10 minutes apart: envelope ≫ max_deps buckets.
        let mut a = Span::synthetic(TapSide::ClientProcess, 0, 600_000_000_000);
        a.tcp_seq_req = Some(5);
        let mut b = Span::synthetic(TapSide::ServerProcess, 10, 600_000_000_000);
        b.tcp_seq_req = Some(5);
        let ids = store.insert_batch(vec![a, b]);
        let t = assemble_trace_sharded(&store, ids[0], &AssembleConfig::default());
        assert_eq!(t.len(), 2);
        cache.store(ids[0], t, &store);
        assert!(cache.is_empty(), "over-wide envelope not cached");
    }

    /// A controllable generation source: every bucket reports one settable
    /// generation, for exercising counter edges (wrap-around) the real
    /// stores cannot reach in a test's lifetime.
    struct FakeGens {
        gen: std::cell::Cell<u64>,
    }

    impl BucketGens for FakeGens {
        fn bucket_gen(&self, _bucket: u64) -> u64 {
            self.gen.get()
        }
        fn bucket_of(&self, _t: TimeNs) -> u64 {
            0
        }
    }

    /// Build a real 2-span trace to feed the cache in the FakeGens tests.
    fn sample_trace() -> (SpanId, Trace) {
        let mut store = ShardedSpanStore::new(ShardPolicy::single());
        let ids = store.insert_batch(linked_pair(7, 1_000));
        let t = assemble_trace_sharded(&store, ids[0], &AssembleConfig::default());
        (ids[0], t)
    }

    #[test]
    fn wrapped_generation_counter_is_never_served_fresh() {
        // Entry cached when every dependency bucket reported u64::MAX.
        let (start, trace) = sample_trace();
        let gens = FakeGens {
            gen: std::cell::Cell::new(u64::MAX),
        };
        let mut cache = TraceCache::new();
        cache.store(start, trace, &gens);
        assert!(matches!(
            cache.lookup_bounded(start, &gens, 0),
            CacheOutcome::Hit(_)
        ));

        // The counter wraps: MAX → 0 → 1. With `saturating_sub` the drift
        // would clamp to 0 and the entry would be served as fresh forever;
        // wrapping arithmetic sees the true drift of 2.
        gens.gen.set(1);
        match cache.lookup_bounded(start, &gens, 10) {
            CacheOutcome::Stale(_) => {} // drift 2 ≤ window 10, and NOT a fresh hit
            other => panic!("wrapped counter must not serve fresh, got {other:?}"),
        }
        assert!(matches!(
            cache.lookup_bounded(start, &gens, 1),
            CacheOutcome::Invalidated
        ));
    }

    #[test]
    fn capacity_eviction_is_fifo() {
        let mut store = ShardedSpanStore::new(ShardPolicy::with_shards(4));
        let mut cache = TraceCache {
            max_entries: 2,
            ..TraceCache::new()
        };
        let mut firsts = Vec::new();
        for i in 0..3u32 {
            let ids = store.insert_batch(linked_pair(i + 1, u64::from(i) * 1_000));
            firsts.push(ids[0]);
        }
        for &s in &firsts {
            assemble_via_cache(&mut cache, &store, s);
        }
        assert_eq!(cache.len(), 2);
        assert!(
            matches!(
                cache.lookup_bounded(firsts[0], &store, 0),
                CacheOutcome::Miss
            ),
            "oldest entry evicted"
        );
        assert!(matches!(
            cache.lookup_bounded(firsts[2], &store, 0),
            CacheOutcome::Hit(_)
        ));
    }
}
