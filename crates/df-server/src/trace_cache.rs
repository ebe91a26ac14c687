//! Incremental assembled-trace cache, memoized by start span.
//!
//! Trace queries in the paper's deployment are read-heavy and repetitive —
//! an engineer drilling into an incident re-requests the same trace as the
//! dashboard refreshes — while the corpus mutates append-mostly. Caching
//! the output of Algorithm 1 is therefore profitable *if* staleness can be
//! detected cheaply. A cached entry records two things for that:
//!
//! * the **corpus version** it was assembled or last revalidated at: the
//!   sum over shards of [`SpanStore::len`] and [`SpanStore::edits`]
//!   ([`ShardedSpanStore::version`](crate::ShardedSpanStore::version)).
//!   Both counts only grow, and every write that can change an assembly —
//!   an insert, a first tombstone, a merged completion, an eviction that
//!   drained rows — moves one of them; spill and page-in move neither;
//! * the [`JoinFacts`] of the search that built it, when Phase 1 reached
//!   its fixed point: the keys it expanded, the posting entries under them
//!   and the shards' edit count.
//!
//! ## Exactness contract
//!
//! Every trace query is answered by one function, `trace_cache::query`,
//! against the corpus version read with every shard pinned (a borrow of
//! the store, or all of the concurrent store's read guards), never under
//! the cache lock:
//!
//! * version equal: nothing was written since, the entry is served
//!   ([`CacheOutcome::Hit`]);
//! * else the facts hold: while the edit count stands still posting lists
//!   can only have grown, so an equal posting total means no list under
//!   any key the trace joined on changed — no span Phase 1 could reach has
//!   arrived and no member was altered. The entry is re-stamped with the
//!   version the facts were checked at and served
//!   ([`CacheOutcome::Revalidated`]);
//! * else the entry is replaced ([`CacheOutcome::Invalidated`]) — an
//!   entry without facts (Phase 1 stopped at `iterations` or `max_spans`)
//!   falls with the first write — or there was none
//!   ([`CacheOutcome::Miss`]), and Algorithm 1 runs, the caller's `finish`
//!   step completes the fresh trace, and it is cached at the version read
//!   under the pin it ran in.
//!
//! So the cache is **exact**: after any write, a served trace equals a
//! fresh Algorithm 1 run over the same corpus. It errs only one way — the
//! edit count is one number per shard, so a tombstone, completion or
//! eviction anywhere drops an entry it could not have touched, which costs
//! a re-assembly, never a wrong answer.
//!
//! `finish` is what the caller does to every answer, done once per
//! assembly instead of once per query: the server hands each member the
//! dictionary's shared phase-3 labels for its IP there (its dictionary is
//! fixed at construction, so labels joined at store time are the labels a
//! later join would produce), and the concurrent store passes a no-op.
//! A cached trace shares its members with the store's rows, so it costs
//! reference counts, not copies; a row it shares that is later completed
//! is copied first, and the completion's edit drops the entry. Cached
//! traces are handed out as [`Arc<Trace>`] and both callers return that
//! `Arc` as is, so a warm hit is a lookup and a pointer clone, end to end.

use crate::assemble::{AssembleConfig, JoinFacts};
use crate::router::Loc;
use crate::sharded::{assemble_local, corpus_version};
use df_storage::SpanStore;
use df_types::trace::Trace;
use df_types::{IntMap, SpanId};
use std::borrow::Borrow;
use std::collections::VecDeque;
use std::ops::Deref;
use std::sync::{Arc, Mutex};

/// How one trace query was answered. The four are disjoint and
/// [`ServerStats`](crate::ServerStats) counts each apart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Entry present and stamped with the current corpus version.
    Hit,
    /// Entry present, the corpus written since, and the keys the trace
    /// joined on say no write touched it: the entry was re-stamped with
    /// the current version and served.
    Revalidated,
    /// Entry present, the corpus written since, and nothing vouched for
    /// the trace: Algorithm 1 ran, and its trace replaced the entry.
    Invalidated,
    /// No entry for this start span: Algorithm 1 ran.
    Miss,
}

#[derive(Debug)]
struct CacheEntry {
    trace: Arc<Trace>,
    /// The corpus version the trace was assembled or last revalidated at.
    version: u64,
    /// What the trace joined on, if its search reached a fixed point.
    facts: Option<JoinFacts>,
}

/// Assembled-trace cache keyed by start span id. See the module docs for
/// the exactness contract.
#[derive(Debug)]
pub struct TraceCache {
    entries: IntMap<SpanId, CacheEntry>,
    /// The cached keys, each once, oldest store first: capacity eviction
    /// is FIFO.
    order: VecDeque<SpanId>,
    /// Capacity in entries; the oldest entry is evicted beyond it.
    pub max_entries: usize,
}

impl Default for TraceCache {
    fn default() -> Self {
        TraceCache {
            entries: IntMap::default(),
            order: VecDeque::new(),
            max_entries: 1024,
        }
    }
}

impl TraceCache {
    /// Empty cache with default capacity (1024 entries).
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

    /// The entry for `start`, if it is stamped at `version` (a
    /// [`CacheOutcome::Hit`]). Otherwise why not: `Err(None)`, no entry;
    /// `Err(Some((trace, facts)))`, an entry stamped at another version,
    /// with the facts, if it has any, that can still vouch for its trace.
    /// They are lent, not copied: until [`TraceCache::restamp`] hands them
    /// back, a reader racing for the same start finds no facts and
    /// re-assembles.
    pub(crate) fn lookup(
        &mut self,
        start: SpanId,
        version: u64,
    ) -> Result<Arc<Trace>, Option<Stale>> {
        match self.entries.get_mut(&start) {
            Some(entry) if entry.version == version => Ok(Arc::clone(&entry.trace)),
            Some(entry) => Err(Some((Arc::clone(&entry.trace), entry.facts.take()))),
            None => Err(None),
        }
    }

    /// Stamp `start`'s entry with `version` and give it back its `facts`,
    /// if it still holds `trace`, the trace those facts held for at that
    /// version; an entry stored since is left as it is.
    fn restamp(&mut self, start: SpanId, trace: &Arc<Trace>, version: u64, facts: JoinFacts) {
        if let Some(entry) = self.entries.get_mut(&start) {
            if Arc::ptr_eq(&entry.trace, trace) {
                (entry.version, entry.facts) = (version, Some(facts));
            }
        }
    }

    /// Cache a trace freshly assembled at corpus `version`, with the
    /// `facts` of its search (`None`: the entry falls with the first
    /// write), in place of any entry for `start`, and return it as an
    /// [`Arc`]. An empty trace is returned un-cached: it is cheap to
    /// recompute and usually transient — the start span may simply not be
    /// stored yet.
    pub(crate) fn store(
        &mut self,
        start: SpanId,
        trace: Trace,
        version: u64,
        facts: Option<JoinFacts>,
    ) -> Arc<Trace> {
        let trace = Arc::new(trace);
        // A replaced entry gives up its place in the FIFO.
        if self.entries.remove(&start).is_some() {
            self.order.retain(|&cached| cached != start);
        }
        if trace.is_empty() {
            return trace;
        }
        if self.entries.len() >= self.max_entries {
            if let Some(oldest) = self.order.pop_front() {
                self.entries.remove(&oldest);
            }
        }
        self.order.push_back(start);
        let entry = CacheEntry {
            trace: Arc::clone(&trace),
            version,
            facts,
        };
        self.entries.insert(start, entry);
        trace
    }
}

/// A cached trace stamped at another version, and the facts of its search.
pub(crate) type Stale = (Arc<Trace>, Option<JoinFacts>);

/// One trace query. `pin` pins every shard of the corpus, in
/// [`Loc::shard`] order, for as long as what it returns lives: a borrow of
/// the in-process store, or the concurrent store's read guards taken as
/// one. The pin and the cache lock are taken one after the other, never
/// one under the other:
///
/// 1. pinned, read the corpus version;
/// 2. locked, serve the entry for `start` if it is stamped at that version
///    ([`TraceCache::lookup`]), or borrow the stale entry's facts;
/// 3. pinned again, read the version, then check the stale entry's facts
///    or, failing them, run Algorithm 1 from `loc` (and then `finish`);
/// 4. locked, re-stamp the entry or store the fresh trace at step 3's
///    version.
///
/// Step 3 reads the version and the rows it checks or assembles under one
/// pin, so the version an entry records matches the rows it vouches for
/// (the module docs' exactness). A hit needs no second pin: its stamp
/// equals a version read under a pin, so the corpus stood then as it did
/// when the entry was stamped. A store that lands over a newer entry only
/// costs the next query a check. Returns the trace and the outcome the
/// caller counts.
pub(crate) fn query<P, S>(
    cache: &Mutex<TraceCache>,
    pin: impl Fn() -> P,
    loc: Option<Loc>,
    start: SpanId,
    cfg: &AssembleConfig,
    finish: impl FnOnce(&mut Trace),
) -> (Arc<Trace>, CacheOutcome)
where
    P: Deref<Target = [S]>,
    S: Borrow<SpanStore>,
{
    let version = corpus_version(&pin());
    let looked = df_check::lock(cache)
        .expect("cache lock poisoned")
        .lookup(start, version);
    let (stale, outcome) = match looked {
        Ok(trace) => return (trace, CacheOutcome::Hit),
        Err(None) => (None, CacheOutcome::Miss),
        Err(Some(stale)) => (Some(stale), CacheOutcome::Invalidated),
    };
    let pinned = pin();
    let version = corpus_version(&pinned);
    if let Some((trace, Some(facts))) = stale {
        if facts.hold(&pinned) {
            drop(pinned);
            (df_check::lock(cache).expect("cache lock poisoned"))
                .restamp(start, &trace, version, facts);
            return (trace, CacheOutcome::Revalidated);
        }
    }
    let (mut trace, facts) = assemble_local(&pinned, loc, start, cfg);
    drop(pinned);
    finish(&mut trace);
    let mut cache = df_check::lock(cache).expect("cache lock poisoned");
    (cache.store(start, trace, version, facts), outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sharded::{assemble_trace_sharded, ShardedSpanStore};
    use df_storage::{ShardPolicy, TierConfig};
    use df_types::span::TapSide;
    use df_types::{Span, TimeNs};
    use CacheOutcome::{Hit, Invalidated, Miss, Revalidated};

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

    /// One query over the in-process store, as `Server::trace` runs it.
    fn ask(
        cache: &Mutex<TraceCache>,
        store: &ShardedSpanStore,
        start: SpanId,
    ) -> (Arc<Trace>, CacheOutcome) {
        let cfg = AssembleConfig::default();
        query(
            cache,
            || store.shards(),
            store.loc(start),
            start,
            &cfg,
            |_| {},
        )
    }

    #[test]
    fn repeat_query_hits_until_a_joined_key_moves() {
        let mut store = ShardedSpanStore::new(ShardPolicy::with_shards(4));
        let ids = store.insert_batch(linked_pair(7, 1_000));
        let cache = Mutex::new(TraceCache::new());

        let (t1, o1) = ask(&cache, &store, ids[0]);
        assert_eq!(o1, Miss);
        assert_eq!(t1.len(), 2);
        let (t2, o2) = ask(&cache, &store, ids[0]);
        assert_eq!(o2, Hit);
        assert!(Arc::ptr_eq(&t1, &t2), "warm hit is the same allocation");

        // A span sharing a key invalidates, and the re-assembled trace
        // includes it.
        store.insert_batch(vec![on_seq(7)]);
        let (t3, o3) = ask(&cache, &store, ids[0]);
        assert_eq!(o3, Invalidated);
        assert_eq!(t3.len(), 3);
        assert_eq!(ask(&cache, &store, ids[0]).1, Hit);
    }

    #[test]
    fn a_write_off_the_traces_keys_is_revalidated() {
        let mut store = ShardedSpanStore::new(ShardPolicy::with_shards(4));
        let ids = store.insert_batch(linked_pair(7, 1_000));
        let cache = Mutex::new(TraceCache::new());
        let (cold, _) = ask(&cache, &store, ids[0]);
        store.insert_batch(linked_pair(999, 10_000_000_000)); // shares no key
        let (kept, outcome) = ask(&cache, &store, ids[0]);
        assert_eq!(outcome, Revalidated);
        assert!(Arc::ptr_eq(&cold, &kept), "the entry was kept");
        assert_eq!(ask(&cache, &store, ids[0]).1, Hit, "and re-stamped");
    }

    #[test]
    fn tombstoning_a_member_invalidates() {
        let mut store = ShardedSpanStore::new(ShardPolicy::with_shards(4));
        let ids = store.insert_batch(linked_pair(7, 1_000));
        let cache = Mutex::new(TraceCache::new());
        let (t1, _) = ask(&cache, &store, ids[0]);
        assert_eq!(t1.len(), 2);
        store.tombstone(ids[1]);
        let (t2, outcome) = ask(&cache, &store, ids[0]);
        assert_eq!(outcome, Invalidated);
        assert_eq!(t2.len(), 1, "tombstoned member gone after re-assembly");
    }

    /// Spill is content-neutral: the corpus version stands still, so a
    /// trace cached before a spill of its own buckets is served as is
    /// after it, and equals a fresh assembly that pages its rows back in.
    #[test]
    fn cached_trace_survives_a_spill_of_its_own_buckets() {
        let dir = df_storage::persist::test_dir("trace-cache-spill");
        let mut store = ShardedSpanStore::new(ShardPolicy::with_shards(2));
        let mut spans = linked_pair(7, 1_000);
        spans.push(on_seq(7));
        let ids = store.insert_batch(spans);
        let pool = store.enable_tiering(TierConfig::new(dir.path()));
        let cache = Mutex::new(TraceCache::new());
        let (cached, outcome) = ask(&cache, &store, ids[0]);
        assert_eq!((cached.len(), outcome), (3, Miss));

        let spilled = store.spill_before(TimeNs(u64::MAX)).expect("spill");
        assert_eq!(spilled.spans, ids.len(), "the trace's buckets spilled");
        assert_eq!(store.tier_occupancy(), (0, ids.len()));
        let (served, outcome) = ask(&cache, &store, ids[0]);
        assert_eq!(outcome, Hit, "a Hit, not Revalidated");
        assert!(Arc::ptr_eq(&cached, &served));

        let cold = assemble_trace_sharded(&store, ids[0], &AssembleConfig::default());
        let edges =
            |t: &Trace| -> Vec<_> { t.spans.iter().map(|s| (s.span.span_id, s.parent)).collect() };
        assert_eq!(edges(&served), edges(&cold));
        assert!(
            pool.stats().misses > 0,
            "the cold assembly paged in through the pool"
        );
    }

    #[test]
    fn empty_traces_are_not_cached() {
        let mut cache = TraceCache::new();
        cache.store(SpanId(99), Trace::default(), 0, None);
        assert!(cache.is_empty());
    }

    /// Build a real 2-span trace to feed the cache directly.
    fn sample_trace() -> Trace {
        let mut store = ShardedSpanStore::new(ShardPolicy::single());
        let ids = store.insert_batch(linked_pair(7, 1_000));
        assemble_trace_sharded(&store, ids[0], &AssembleConfig::default())
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
            ask(&cache, &store, s);
        }
        assert_eq!(df_check::lock(&cache).unwrap().len(), 2);
        assert_eq!(ask(&cache, &store, firsts[2]).1, Hit);
        assert_eq!(ask(&cache, &store, firsts[0]).1, Miss, "oldest evicted");
    }

    #[test]
    fn invalidate_and_restore_cycles_keep_one_fifo_slot_per_start() {
        let trace = sample_trace();
        let mut cache = TraceCache {
            max_entries: 8,
            ..TraceCache::new()
        };
        // Version `n`: every cached entry is behind it, and none has facts.
        let cycle = |cache: &mut TraceCache, n: u64| {
            let stale = cache.lookup(SpanId(n % 8), n).expect_err("never a hit");
            assert_eq!(stale.is_some(), n >= 8, "cached from the second lap");
            cache.store(SpanId(n % 8), trace.clone(), n, None);
        };
        (0..10_000).for_each(|n| cycle(&mut cache, n));
        assert!(cache.order.len() <= 8, "FIFO leaked: {}", cache.order.len());
        // Start 0 is the oldest; invalidated and re-stored it is the
        // newest, so filling the cache evicts start 1 instead.
        cycle(&mut cache, 10_000);
        cache.store(SpanId(8), trace.clone(), 10_000, None);
        let hit = |c: &mut TraceCache, id| c.lookup(id, 10_000).is_ok();
        assert!(hit(&mut cache, SpanId(0)) && hit(&mut cache, SpanId(8)));
        assert!(!hit(&mut cache, SpanId(1)));
    }
}
