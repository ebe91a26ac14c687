//! Incremental assembled-trace cache, memoized by start span.
//!
//! Trace queries in the paper's deployment are read-heavy and repetitive —
//! an engineer drilling into an incident re-requests the same trace as the
//! dashboard refreshes — while the corpus mutates append-mostly. Caching
//! the output of Algorithm 1 is therefore profitable *if* staleness can be
//! detected cheaply. A cached entry records two things for that:
//!
//! * the trace's **time envelope** — every routing-table bucket from one
//!   bucket before its earliest request to one bucket after its latest
//!   response — with each bucket's *generation*
//!   ([`ShardedSpanStore::bucket_gen`]) as it stood; every mutation
//!   (insert, tombstone, re-aggregation completing a span) bumps the
//!   generation of the bucket the span's request time falls in;
//! * the [`JoinFacts`] of the search that built it, when Phase 1 reached
//!   its fixed point: the keys it expanded, the posting entries under
//!   them and the shards' non-append edit count.
//!
//! ## Staleness contract
//!
//! A lookup checks in two stages. **Generations first**: if every
//! recorded bucket generation is current, nothing was written anywhere in
//! the envelope and the entry is served ([`CacheOutcome::Hit`]) with no
//! key work. **Keys second**, only when a generation moved (past the
//! caller's staleness window): the recorded facts are compared with the
//! shards. While the edit count stands still posting lists can only have
//! grown, so an equal posting total means no list under any key the trace
//! joined on changed — no span Phase 1 could reach has arrived and no
//! member was altered. The entry is re-stamped with the current
//! generations in place and served ([`CacheOutcome::Revalidated`]);
//! otherwise it is dropped ([`CacheOutcome::Invalidated`]) and the caller
//! re-assembles. An entry without facts (Phase 1 stopped at `iterations`
//! or `max_spans`) is dropped as soon as a generation moves.
//!
//! So the cache is **exact for anything that moves a generation in the
//! envelope**: such a write invalidates if and only if it touched what
//! the trace joined on (or any span was tombstoned, completed or evicted
//! since — the edit count is one number per shard, and erring that way
//! only costs a re-assembly). It stays **time-local** for the rest: a
//! span *far outside* the envelope sharing a key (e.g. a TCP sequence
//! number reused seconds later) moves no recorded generation, so the
//! first stage serves the entry and never looks. That is by design:
//! association in Algorithm 1 happens between spans of one request's
//! execution, which are clustered in time (the paper's traces span
//! milliseconds, buckets default to one second, and the ±1-bucket margin
//! covers members at a bucket edge), and its own heuristics treat such
//! distant matches as coincidence. Traces whose envelope exceeds
//! [`TraceCache::max_deps`] buckets are never cached rather than tracked
//! imprecisely.
//!
//! Cached traces are handed out as [`Arc<Trace>`], so a warm hit is a
//! pointer clone.

use crate::assemble::JoinFacts;
use crate::server::ServerStats;
use crate::sharded::ShardedSpanStore;
use df_check::sync::{Arc, Mutex};
use df_types::trace::Trace;
use df_types::{SpanId, TimeNs};
use std::collections::HashMap;
use std::collections::VecDeque;

/// What the cache validates entries against: *some* view of the routing
/// table's time-bucket generations and, where the view pins them, of the
/// shards — the in-process [`ShardedSpanStore`] or the concurrent store's
/// locked generation table ([`crate::concurrent::ConcurrentShardedStore`])
/// — so its lookup/store methods are not tied to one store type.
pub trait BucketGens {
    /// Current generation of a routing-table time bucket (0 if untouched).
    fn bucket_gen(&self, bucket: u64) -> u64;
    /// The routing-table bucket containing `t`.
    fn bucket_of(&self, t: TimeNs) -> u64;
    /// Whether the shards still stand as `facts` recorded them
    /// ([`JoinFacts::hold`]). `None` from a view that does not pin the
    /// shards and so cannot look: the lookup then reports the moved
    /// generations as [`CacheOutcome::Invalidated`] but keeps the entry,
    /// for the caller to look again through a view that does.
    fn facts_hold(&self, _facts: &JoinFacts) -> Option<bool> {
        None
    }
}

impl BucketGens for ShardedSpanStore {
    fn bucket_gen(&self, bucket: u64) -> u64 {
        ShardedSpanStore::bucket_gen(self, bucket)
    }
    fn bucket_of(&self, t: TimeNs) -> u64 {
        ShardedSpanStore::bucket_of(self, t)
    }
    fn facts_hold(&self, facts: &JoinFacts) -> Option<bool> {
        Some(facts.hold(self.shards()))
    }
}

/// Result of a cache lookup, so the caller can account hits, misses and
/// invalidations separately (the server's stats distinguish them).
#[derive(Debug, Clone)]
pub enum CacheOutcome {
    /// Entry present and every recorded bucket generation still current.
    Hit(Arc<Trace>),
    /// Entry present, a bucket in its envelope mutated, and the keys the
    /// trace joined on say the mutation did not touch it: the entry now
    /// carries the current generations.
    Revalidated(Arc<Trace>),
    /// Entry present and stale, but within the staleness window the caller
    /// passed to [`TraceCache::lookup_bounded`]: every recorded bucket
    /// generation drifted by at most the window. The entry is *kept* (it
    /// may be served again while the window allows, and a later strict
    /// lookup will check it).
    Stale(Arc<Trace>),
    /// Entry present but a bucket in the trace's envelope mutated since it
    /// was cached and nothing vouches for the trace; the entry has been
    /// dropped (or kept for a pinned second look, see
    /// [`BucketGens::facts_hold`]).
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
    /// What the trace joined on, if its search reached a fixed point.
    facts: Option<JoinFacts>,
}

/// Assembled-trace cache keyed by start span id. See the module docs for
/// the invalidation contract.
#[derive(Debug)]
pub struct TraceCache {
    entries: HashMap<SpanId, CacheEntry>,
    /// The cached keys, each once, oldest store first: capacity eviction
    /// is FIFO.
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
    /// [`CacheOutcome::Stale`] instead of being checked — the concurrent
    /// server's answer to ingest pressure (serve a slightly-old trace now
    /// rather than re-assemble synchronously behind a deep ingest queue).
    /// Drift beyond the window goes to the key check (module docs). A
    /// window of 0 is the strict mode.
    pub fn lookup_bounded(
        &mut self,
        start: SpanId,
        store: &impl BucketGens,
        staleness_window: u64,
    ) -> CacheOutcome {
        let Some(entry) = self.entries.get_mut(&start) else {
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
        // Generations moved past the window: what the trace joined on
        // decides. Without facts nothing vouches for it.
        let held = entry
            .facts
            .as_ref()
            .map_or(Some(false), |f| store.facts_hold(f));
        match held {
            Some(true) => {
                for (bucket, gen) in &mut entry.deps {
                    *gen = store.bucket_gen(*bucket);
                }
                return CacheOutcome::Revalidated(Arc::clone(&entry.trace));
            }
            None => return CacheOutcome::Invalidated, // kept for a pinned look
            Some(false) => {}
        }
        self.entries.remove(&start);
        self.order.retain(|&cached| cached != start);
        CacheOutcome::Invalidated
    }

    /// Cache a freshly assembled trace, with the `facts` of its search
    /// (`None`: the entry falls with the first generation that moves), and
    /// return it as an [`Arc`]. Empty traces and traces with an over-wide
    /// time envelope are returned un-cached (the former are cheap to
    /// recompute and usually transient — the start span may simply not be
    /// stored yet; the latter would need unbounded dependency tracking).
    pub fn store(
        &mut self,
        start: SpanId,
        trace: Trace,
        facts: Option<JoinFacts>,
        store: &impl BucketGens,
    ) -> Arc<Trace> {
        let trace = Arc::new(trace);
        let Some(deps) = self.envelope(&trace, store) else {
            return trace;
        };
        let entry = CacheEntry {
            trace: Arc::clone(&trace),
            deps,
            facts,
        };
        // A start already cached (two readers missed it together) keeps
        // its place in the FIFO.
        if !self.entries.contains_key(&start) {
            if self.entries.len() >= self.max_entries {
                if let Some(oldest) = self.order.pop_front() {
                    self.entries.remove(&oldest);
                }
            }
            self.order.push_back(start);
        }
        self.entries.insert(start, entry);
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
/// entry run `resolve`, and count the query. All counters of one query
/// move under one `stats` acquisition, so every snapshot keeps
/// `trace_queries == hits + stale hits + misses + invalidations`.
///
/// `resolve` pins the corpus and, while the pin is held, returns either
/// the entry after all and `true` — `gens` could not see the shards
/// ([`BucketGens::facts_hold`]) and a second lookup through a view that
/// can was [`CacheOutcome::Revalidated`] — or a freshly assembled trace
/// *via* [`TraceCache::store`] on this same cache, and `false`. Storing
/// is the caller's so that the recorded generations and facts match the
/// assembled rows. The cache lock is not held while it runs.
pub(crate) fn query_through(
    cache: &Mutex<TraceCache>,
    stats: &Mutex<ServerStats>,
    gens: &impl BucketGens,
    start: SpanId,
    window: u64,
    resolve: impl FnOnce() -> (Arc<Trace>, bool),
) -> Arc<Trace> {
    let outcome = cache
        .lock()
        .expect("cache lock poisoned")
        .lookup_bounded(start, gens, window);
    let mut revalidated = matches!(outcome, CacheOutcome::Revalidated(_));
    let (trace, counter): (_, fn(&mut ServerStats) -> &mut u64) = match outcome {
        CacheOutcome::Hit(t) | CacheOutcome::Revalidated(t) => (t, |st| &mut st.cache_hits),
        CacheOutcome::Stale(t) => (t, |st| &mut st.cache_stale_hits),
        CacheOutcome::Miss => (resolve().0, |st| &mut st.cache_misses),
        CacheOutcome::Invalidated => {
            let (t, kept) = resolve();
            revalidated = kept;
            if kept {
                (t, |st| &mut st.cache_hits)
            } else {
                (t, |st| &mut st.cache_invalidations)
            }
        }
    };
    let mut st = stats.lock().expect("stats lock poisoned");
    st.trace_queries += 1;
    *counter(&mut st) += 1;
    st.cache_revalidations += u64::from(revalidated);
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
                (cache.store(start, t, None, store), label)
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
        cache.store(SpanId(99), Trace::default(), None, &store);
        assert!(cache.is_empty(), "empty trace not cached");

        // Two linked spans ~10 minutes apart: envelope ≫ max_deps buckets.
        let mut a = Span::synthetic(TapSide::ClientProcess, 0, 600_000_000_000);
        a.tcp_seq_req = Some(5);
        let mut b = Span::synthetic(TapSide::ServerProcess, 10, 600_000_000_000);
        b.tcp_seq_req = Some(5);
        let ids = store.insert_batch(vec![a, b]);
        let t = assemble_trace_sharded(&store, ids[0], &AssembleConfig::default());
        assert_eq!(t.len(), 2);
        cache.store(ids[0], t, None, &store);
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
        cache.store(start, trace, None, &gens);
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

    #[test]
    fn invalidate_and_restore_cycles_keep_one_fifo_slot_per_start() {
        let (_, trace) = sample_trace();
        let gens = FakeGens {
            gen: std::cell::Cell::new(0),
        };
        let mut cache = TraceCache {
            max_entries: 8,
            ..TraceCache::new()
        };
        let cycle = |cache: &mut TraceCache, n: u64| {
            gens.gen.set(n); // every cached entry's generations moved
            let gone = cache.lookup_bounded(SpanId(n % 8), &gens, 0);
            assert!(matches!(
                gone,
                CacheOutcome::Miss | CacheOutcome::Invalidated
            ));
            cache.store(SpanId(n % 8), trace.clone(), None, &gens);
        };
        (0..10_000).for_each(|n| cycle(&mut cache, n));
        assert!(cache.order.len() <= 8, "FIFO leaked: {}", cache.order.len());
        // Start 0 is the oldest; invalidated and re-stored it is the
        // newest, so filling the cache evicts start 1 instead.
        cycle(&mut cache, 10_000);
        cache.store(SpanId(8), trace.clone(), None, &gens);
        let hit =
            |c: &mut TraceCache, id| matches!(c.lookup_bounded(id, &gens, 0), CacheOutcome::Hit(_));
        assert!(hit(&mut cache, SpanId(0)) && hit(&mut cache, SpanId(8)));
        assert!(!hit(&mut cache, SpanId(1)));
    }
}
