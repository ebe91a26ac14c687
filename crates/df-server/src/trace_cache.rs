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
//! A query checks in two stages. **Generations first**
//! ([`TraceCache::lookup`], no shard needed): if every recorded bucket
//! generation is current, nothing was written anywhere in the envelope
//! and the entry is served ([`CacheOutcome::Hit`]) with no key work.
//! **Keys second** ([`TraceCache::revalidate`], every shard pinned), only
//! when a generation moved: the recorded facts are compared with the
//! shards. While the edit count stands still posting lists can only have
//! grown, so an equal posting total means no list under any key the trace
//! joined on changed — no span Phase 1 could reach has arrived and no
//! member was altered. The entry is re-stamped with the current
//! generations in place and served ([`CacheOutcome::Revalidated`]);
//! otherwise it is dropped ([`CacheOutcome::Invalidated`]) and Algorithm 1
//! runs again. An entry without facts (Phase 1 stopped at `iterations`
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

use crate::assemble::{AssembleConfig, JoinFacts};
use crate::router::Loc;
use crate::server::ServerStats;
use crate::sharded::{assemble_local, ShardedSpanStore};
use df_check::sync::{Arc, Mutex};
use df_storage::SpanStore;
use df_types::trace::Trace;
use df_types::{SpanId, TimeNs};
use std::collections::{HashMap, VecDeque};

/// What the cache validates generations against: *some* view of the
/// routing table's time buckets — the in-process [`ShardedSpanStore`] or
/// the concurrent store's locked generation table
/// ([`crate::concurrent::ConcurrentShardedStore`]) — so its methods are
/// not tied to one store type.
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

/// How one trace query was answered. The four are disjoint and
/// [`ServerStats`] counts each apart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Entry present and every recorded bucket generation still current.
    Hit,
    /// Entry present, a bucket in its envelope mutated, and the keys the
    /// trace joined on say the mutation did not touch it: the entry was
    /// re-stamped with the current generations and served.
    Revalidated,
    /// Entry present, a bucket in its envelope mutated and nothing
    /// vouched for the trace: the entry was dropped and Algorithm 1 ran.
    Invalidated,
    /// No entry for this start span: Algorithm 1 ran.
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

impl CacheEntry {
    /// Stage one. Equality, not order: a counter that wrapped past the
    /// recorded value still reads as moved.
    fn current(&self, gens: &impl BucketGens) -> bool {
        (self.deps.iter()).all(|&(bucket, gen)| gens.bucket_gen(bucket) == gen)
    }
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

    /// Stage one of the check (module docs), generations only: the trace
    /// starting at `start` if it is cached and every bucket generation it
    /// recorded is current. `None` says nothing about why — no entry, or
    /// one whose generations moved and which [`Self::revalidate`] judges.
    pub fn lookup(&self, start: SpanId, gens: &impl BucketGens) -> Option<Arc<Trace>> {
        let entry = self.entries.get(&start)?;
        entry.current(gens).then(|| Arc::clone(&entry.trace))
    }

    /// Both stages, for a caller that pins `shards` — the whole corpus —
    /// so that no row or generation moves meanwhile. `Ok`: the entry and
    /// how it was served, [`CacheOutcome::Hit`] or, after the key check
    /// re-stamped it, [`CacheOutcome::Revalidated`]. `Err`: why Algorithm
    /// 1 must run, [`CacheOutcome::Miss`] or — the entry is dropped —
    /// [`CacheOutcome::Invalidated`].
    pub fn revalidate(
        &mut self,
        start: SpanId,
        gens: &impl BucketGens,
        shards: &[&SpanStore],
    ) -> Result<(Arc<Trace>, CacheOutcome), CacheOutcome> {
        let Some(entry) = self.entries.get_mut(&start) else {
            return Err(CacheOutcome::Miss);
        };
        let outcome = if entry.current(gens) {
            CacheOutcome::Hit
        } else if (entry.facts.as_ref()).is_some_and(|f| f.hold(shards.iter().copied())) {
            for (bucket, gen) in &mut entry.deps {
                *gen = gens.bucket_gen(*bucket);
            }
            CacheOutcome::Revalidated
        } else {
            // Without facts nothing vouches for it.
            self.entries.remove(&start);
            self.order.retain(|&cached| cached != start);
            return Err(CacheOutcome::Invalidated);
        };
        Ok((Arc::clone(&entry.trace), outcome))
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

/// One trace query through `cache`: serve `start` from stage one where it
/// can (the cache lock and `gens` only — no shard is touched), otherwise
/// run `pinned`, and count the outcome either had. All counters of one
/// query move under one `stats` acquisition, so every snapshot keeps
/// `trace_queries == hits + misses + invalidations`.
///
/// `pinned` pins every shard — a borrow, or all the read guards — and
/// calls [`resolve_pinned`] while it does. The cache lock is not held
/// while it runs.
pub(crate) fn query_through(
    cache: &Mutex<TraceCache>,
    stats: &Mutex<ServerStats>,
    gens: &impl BucketGens,
    start: SpanId,
    pinned: impl FnOnce() -> (Arc<Trace>, CacheOutcome),
) -> Arc<Trace> {
    let hit = cache
        .lock()
        .expect("cache lock poisoned")
        .lookup(start, gens);
    let (trace, outcome) = hit.map_or_else(pinned, |t| (t, CacheOutcome::Hit));
    let mut st = stats.lock().expect("stats lock poisoned");
    st.trace_queries += 1;
    match outcome {
        CacheOutcome::Hit => st.cache_hits += 1,
        CacheOutcome::Revalidated => {
            st.cache_hits += 1;
            st.cache_revalidations += 1;
        }
        CacheOutcome::Invalidated => st.cache_invalidations += 1,
        CacheOutcome::Miss => st.cache_misses += 1,
    }
    trace
}

/// The rest of a trace query, with every shard of the corpus pinned in
/// `shards` ([`Loc::shard`] order) so that no row is applied and no
/// generation bumped until it returns: look again — another reader may
/// have re-stamped or stored the entry since stage one — and on
/// [`CacheOutcome::Miss`] or [`CacheOutcome::Invalidated`] run Algorithm 1
/// from `loc` and cache what it built. Assembling, storing and
/// re-stamping under the one pin is what makes the recorded generations
/// and facts match the rows they vouch for (no permanently stale entry).
/// The cache lock is not held across the assembly.
pub(crate) fn resolve_pinned(
    cache: &Mutex<TraceCache>,
    gens: &impl BucketGens,
    shards: &[&SpanStore],
    loc: Option<Loc>,
    start: SpanId,
    cfg: &AssembleConfig,
) -> (Arc<Trace>, CacheOutcome) {
    let again = cache
        .lock()
        .expect("cache lock poisoned")
        .revalidate(start, gens, shards);
    let outcome = match again {
        Ok(served) => return served,
        Err(outcome) => outcome,
    };
    // The start span may still sit in its shard's queue: the empty trace
    // is not cached, so a later query assembles for real.
    let (trace, facts) = assemble_local(shards, loc, start, cfg);
    let mut cache = cache.lock().expect("cache lock poisoned");
    (cache.store(start, trace, facts, gens), outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sharded::assemble_trace_sharded;
    use df_storage::ShardPolicy;
    use df_types::span::TapSide;
    use df_types::Span;
    use CacheOutcome::{Hit, Invalidated, Miss};

    fn linked_pair(seq: u32, base_ns: u64) -> Vec<Span> {
        let mut a = Span::synthetic(TapSide::ClientProcess, base_ns, base_ns + 500);
        a.tcp_seq_req = Some(seq);
        let mut b = Span::synthetic(TapSide::ServerProcess, base_ns + 10, base_ns + 490);
        b.tcp_seq_req = Some(seq);
        vec![a, b]
    }

    fn on_seq(seq: u32) -> Span {
        let mut s = Span::synthetic(TapSide::ServerPodNic, 1_005, 1_495);
        s.tcp_seq_req = Some(seq);
        s
    }

    /// One query at the cache level, as `query_through` runs it.
    fn query(
        cache: &Mutex<TraceCache>,
        store: &ShardedSpanStore,
        start: SpanId,
    ) -> (Arc<Trace>, CacheOutcome) {
        if let Some(t) = cache.lock().unwrap().lookup(start, store) {
            return (t, Hit);
        }
        let (loc, cfg) = (store.loc(start), AssembleConfig::default());
        resolve_pinned(cache, store, &store.shards(), loc, start, &cfg)
    }

    #[test]
    fn repeat_query_hits_until_envelope_mutates() {
        let mut store = ShardedSpanStore::new(ShardPolicy::with_shards(4));
        let ids = store.insert_batch(linked_pair(7, 1_000));
        let cache = Mutex::new(TraceCache::new());

        let (t1, o1) = query(&cache, &store, ids[0]);
        assert_eq!(o1, Miss);
        assert_eq!(t1.len(), 2);
        let (t2, o2) = query(&cache, &store, ids[0]);
        assert_eq!(o2, Hit);
        assert!(Arc::ptr_eq(&t1, &t2), "warm hit is the same allocation");

        // A span landing in the trace's envelope and sharing a key
        // invalidates, and the re-assembled trace includes it.
        store.insert_batch(vec![on_seq(7)]);
        let (t3, o3) = query(&cache, &store, ids[0]);
        assert_eq!(o3, Invalidated);
        assert_eq!(t3.len(), 3);
        assert_eq!(query(&cache, &store, ids[0]).1, Hit);
    }

    /// The race `query_through` used to miscount: reader A finds nothing
    /// to serve at stage one, and before it pins the shards reader B runs
    /// start to finish. A then finds the entry current: it ran no key
    /// check and no assembly, so it is a hit, whatever B's outcome was.
    #[test]
    fn a_reader_that_loses_the_race_is_counted_as_the_hit_it_was() {
        let mut store = ShardedSpanStore::new(ShardPolicy::with_shards(4));
        let start = store.insert_batch(linked_pair(7, 1_000))[0];
        let cache = Mutex::new(TraceCache::new());
        let stats = Mutex::new(ServerStats::default());
        // (misses, hits, revalidations, invalidations) after one race.
        let race = |store: &ShardedSpanStore| {
            let (loc, shards, cfg) = (store.loc(start), store.shards(), AssembleConfig::default());
            let pinned = || resolve_pinned(&cache, store, &shards, loc, start, &cfg);
            query_through(&cache, &stats, store, start, || {
                let b = query_through(&cache, &stats, store, start, pinned);
                let a = pinned();
                assert!(a.1 == Hit && Arc::ptr_eq(&a.0, &b), "{:?}", a.1);
                a
            });
            stats.lock().unwrap().cache_counters()
        };
        assert_eq!(race(&store), (1, 1, 0, 0), "one assembly, one hit");
        store.insert_batch(vec![on_seq(8)]); // in the envelope, shares no key
        assert_eq!(race(&store), (1, 3, 1, 0), "one key check, one hit");
        store.insert_batch(vec![on_seq(7)]);
        assert_eq!(race(&store), (1, 4, 1, 1), "one re-assembly, one hit");
    }

    #[test]
    fn mutation_outside_envelope_keeps_entry_warm() {
        let mut store = ShardedSpanStore::new(ShardPolicy::with_shards(4));
        let ids = store.insert_batch(linked_pair(7, 1_000));
        let cache = Mutex::new(TraceCache::new());
        query(&cache, &store, ids[0]);
        // ~10 s away — outside the ±1 s envelope of a trace at t≈1 µs.
        store.insert_batch(linked_pair(999, 10_000_000_000));
        let (_, outcome) = query(&cache, &store, ids[0]);
        assert_eq!(outcome, Hit, "distant mutation must not invalidate");
    }

    #[test]
    fn tombstone_in_envelope_invalidates() {
        let mut store = ShardedSpanStore::new(ShardPolicy::with_shards(4));
        let ids = store.insert_batch(linked_pair(7, 1_000));
        let cache = Mutex::new(TraceCache::new());
        let (t1, _) = query(&cache, &store, ids[0]);
        assert_eq!(t1.len(), 2);
        store.tombstone(ids[1]);
        let (t2, outcome) = query(&cache, &store, ids[0]);
        assert_eq!(outcome, Invalidated);
        assert_eq!(t2.len(), 1, "tombstoned member gone after re-assembly");
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
        assert!(cache.lookup(start, &gens).is_some());

        // The counter wraps: MAX → 0 → 1. An ordered comparison (`<=`, or
        // a saturating difference) would read 1 as not past MAX and serve
        // the entry as fresh forever; "moved" is `!=`.
        gens.gen.set(1);
        assert!(cache.lookup(start, &gens).is_none());
        assert_eq!(
            cache.revalidate(start, &gens, &[]).unwrap_err(),
            Invalidated
        );
        assert!(cache.is_empty());
    }

    #[test]
    fn capacity_eviction_is_fifo() {
        let mut store = ShardedSpanStore::new(ShardPolicy::with_shards(4));
        let cache = Mutex::new(TraceCache {
            max_entries: 2,
            ..TraceCache::new()
        });
        let mut firsts = Vec::new();
        for i in 0..3u32 {
            let ids = store.insert_batch(linked_pair(i + 1, u64::from(i) * 1_000));
            firsts.push(ids[0]);
        }
        for &s in &firsts {
            query(&cache, &store, s);
        }
        let cache = cache.lock().unwrap();
        assert_eq!(cache.len(), 2);
        assert!(
            cache.lookup(firsts[0], &store).is_none(),
            "oldest entry evicted"
        );
        assert!(cache.lookup(firsts[2], &store).is_some());
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
            let gone = cache.revalidate(SpanId(n % 8), &gens, &[]).unwrap_err();
            assert_eq!(gone, if n < 8 { Miss } else { Invalidated });
            cache.store(SpanId(n % 8), trace.clone(), None, &gens);
        };
        (0..10_000).for_each(|n| cycle(&mut cache, n));
        assert!(cache.order.len() <= 8, "FIFO leaked: {}", cache.order.len());
        // Start 0 is the oldest; invalidated and re-stored it is the
        // newest, so filling the cache evicts start 1 instead.
        cycle(&mut cache, 10_000);
        cache.store(SpanId(8), trace.clone(), None, &gens);
        let hit = |c: &TraceCache, id| c.lookup(id, &gens).is_some();
        assert!(hit(&cache, SpanId(0)) && hit(&cache, SpanId(8)));
        assert!(!hit(&cache, SpanId(1)));
    }
}
