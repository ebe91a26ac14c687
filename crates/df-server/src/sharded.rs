//! [`ShardedSpanStore`] — the span corpus partitioned across shards, with
//! cross-shard trace assembly.
//!
//! The corpus is split into [`ShardPolicy::shards`] shards, each a plain
//! [`SpanStore`]. Ids, rows and the id → `(shard, row)` table come from
//! the one [`Router`]. The shards are also the corpus's clock:
//! [`ShardedSpanStore::version`] sums their row and edit counts, and the
//! trace cache ([`crate::trace_cache`]) validates against it.
//! [`assemble_trace_sharded`] is Algorithm 1's one driver
//! ([`assemble_with`]) over the in-process prober: each index key is
//! expanded at most once globally, an expansion probes every shard's
//! [`SpanStore::find`] index, and Phases 2 and 3 run on the merged member set — so
//! the differential oracle
//! [`assemble_trace_reference`](crate::assemble::assemble_trace_reference)
//! holds against the sharded path at any shard count (the property tests
//! assert it for 1, 4 and 16 shards).
//!
//! ## Tombstones
//!
//! Tombstoning routes to the owning shard's
//! [`SpanStore::tombstone_row`], and once a shard accumulates
//! [`ShardPolicy::evict_threshold`] pending tombstones its association
//! indexes are compacted ([`SpanStore::evict_tombstoned`]) so probes stop
//! paying for rows every reader filters. The server also compacts
//! unconditionally after each re-aggregation pass.

use crate::assemble::{assemble_with, AssembleConfig, JoinFacts, LocalShards};
use crate::router::{Loc, Router};
use df_storage::{
    BufferPool, ShardPolicy, SpanQuery, SpanRef, SpanStore, SpillStats, StoreStats, Tier,
    TierConfig,
};
use df_types::trace::Trace;
use df_types::{Span, SpanId, TimeNs};
use std::borrow::Borrow;
use std::io;
use std::sync::Arc;

/// A span corpus partitioned across [`SpanStore`] shards.
///
/// # Examples
///
/// ```
/// use df_server::sharded::{assemble_trace_sharded, ShardedSpanStore};
/// use df_server::AssembleConfig;
/// use df_storage::ShardPolicy;
/// use df_types::span::TapSide;
/// use df_types::Span;
///
/// let mut store = ShardedSpanStore::new(ShardPolicy::with_shards(4));
/// // Two capture points of one exchange: same TCP sequence number.
/// let mut client = Span::synthetic(TapSide::ClientProcess, 100, 900);
/// client.tcp_seq_req = Some(7);
/// let mut server = Span::synthetic(TapSide::ServerProcess, 200, 800);
/// server.tcp_seq_req = Some(7);
/// let ids = store.insert_batch(vec![client, server]);
///
/// let trace = assemble_trace_sharded(&store, ids[0], &AssembleConfig::default());
/// assert_eq!(trace.len(), 2);
/// assert!(trace.is_well_formed());
/// ```
#[derive(Debug)]
pub struct ShardedSpanStore {
    router: Router,
    shards: Vec<SpanStore>,
    /// Hot/cold tiering, if enabled (see [`ShardedSpanStore::enable_tiering`]).
    tier: Option<Tier>,
}

impl ShardedSpanStore {
    /// Empty store under `policy` (shard count clamped by [`Router::new`]).
    pub fn new(policy: ShardPolicy) -> Self {
        let router = Router::new(policy);
        ShardedSpanStore {
            shards: (0..router.policy().shards)
                .map(|_| SpanStore::new())
                .collect(),
            router,
            tier: None,
        }
    }

    /// Enable hot/cold tiering: one [`Tier`] — one [`BufferPool`], one
    /// frame budget — shared by every shard. Idempotent per store: a
    /// second call keeps the tier (and the catalog of segments already
    /// spilled through it) and ignores the later config. Returns the pool
    /// so callers can inspect [`BufferPool::stats`].
    pub fn enable_tiering(&mut self, cfg: TierConfig) -> Arc<BufferPool> {
        Arc::clone(self.tier.get_or_insert_with(|| Tier::new(cfg)).pool())
    }

    /// Spill every completed span older than `watermark` to the cold
    /// tier, one segment per (shard, time bucket). Spill is
    /// content-neutral — the [`Self::version`] stands still, because
    /// probes, queries and assembly see the identical corpus afterwards
    /// (cached traces stay hits; the tiering tests pin this down).
    ///
    /// Errors if tiering was never enabled or a segment write fails (in
    /// which case no row of the failing shard flips cold).
    pub fn spill_before(&mut self, watermark: TimeNs) -> io::Result<SpillStats> {
        let tier = self.tier.as_ref().ok_or_else(Tier::not_enabled)?;
        let mut total = SpillStats::default();
        for (si, shard) in self.shards.iter_mut().enumerate() {
            total.merge(tier.spill(shard, watermark, si as u16)?);
        }
        Ok(total)
    }

    /// Spill by the configured horizon ([`Tier::watermark`]): everything
    /// older than the newest [`TierConfig::hot_buckets`] time buckets,
    /// counted back from the newest request stored, goes cold. No-op on an
    /// empty corpus or when the corpus spans fewer buckets than the
    /// horizon.
    pub fn spill_auto(&mut self) -> io::Result<SpillStats> {
        let tier = self.tier.as_ref().ok_or_else(Tier::not_enabled)?;
        let newest = (self.shards.iter())
            .filter_map(SpanStore::newest_req_time)
            .max();
        match newest.and_then(|t| tier.watermark(t)) {
            Some(watermark) => self.spill_before(watermark),
            None => Ok(SpillStats::default()),
        }
    }

    /// Rows currently resident (hot) vs spilled (cold), across shards.
    pub fn tier_occupancy(&self) -> (usize, usize) {
        (self.shards.iter()).fold((0, 0), |(h, c), s| (h + s.hot_rows(), c + s.cold_rows()))
    }

    /// Spans per shard, in shard order (the server's shard-size stats).
    pub fn shard_sizes(&self) -> Vec<usize> {
        self.shards.iter().map(SpanStore::len).collect()
    }

    /// Per-shard store statistics.
    pub fn shard_stats(&self) -> Vec<StoreStats> {
        self.shards.iter().map(SpanStore::stats).collect()
    }

    /// Total spans stored (across all shards).
    pub fn len(&self) -> usize {
        self.router.len()
    }

    /// Whether the store holds no spans.
    pub fn is_empty(&self) -> bool {
        self.router.is_empty()
    }

    /// Insert one span: assign the next global id and route it to its
    /// shard. Returns the id. The span moves into its `Arc` once: the
    /// `Arc` is the row the shard keeps.
    ///
    /// This path never panics on routing-table pressure: a full preferred
    /// shard is *clamped* to the least-loaded one instead (see
    /// [`ShardedSpanStore::routing_clamped`]).
    pub fn insert(&mut self, span: Span) -> SpanId {
        self.insert_row(Arc::new(span))
    }

    /// [`Self::insert`] of a span already in the `Arc` the shard will
    /// keep, as [`df_types::WireBatch::decode_rows`] hands it out: the
    /// router stamps the id in place, and the `Arc` moves into the shard,
    /// whose time index settles as [`SpanStore::insert`] does.
    fn insert_row(&mut self, mut span: Arc<Span>) -> SpanId {
        let loc = self.router.assign(&mut span);
        let id = span.span_id;
        let row = self.shards[loc.shard as usize].insert_routed(span);
        debug_assert_eq!(row, loc.row, "router and shard agree on the row");
        id
    }

    /// How many spans were routed away from their preferred shard because
    /// it had reached [`ShardPolicy::max_shard_rows`]. A nonzero value
    /// means flow locality is degraded (cross-shard probes do the work) but
    /// no span was refused or lost.
    pub fn routing_clamped(&self) -> u64 {
        self.router.clamped()
    }

    /// Insert a batch (what an agent ships per flush): each span is routed
    /// independently; ids are assigned in batch order.
    pub fn insert_batch(&mut self, spans: Vec<Span>) -> Vec<SpanId> {
        self.insert_all(spans.into_iter().map(Arc::new))
    }

    /// [`Self::insert_batch`] of spans already in their rows' `Arc`s.
    pub(crate) fn insert_rows(&mut self, rows: Vec<Arc<Span>>) -> Vec<SpanId> {
        self.insert_all(rows.into_iter())
    }

    /// Route every row, then settle each shard's time index.
    fn insert_all(&mut self, rows: impl ExactSizeIterator<Item = Arc<Span>>) -> Vec<SpanId> {
        self.router.reserve(rows.len());
        let ids = rows.map(|r| self.insert_row(r)).collect();
        self.shards.iter_mut().for_each(SpanStore::settle);
        ids
    }

    /// Fetch by global id (tier-aware: a cold span pages in and is
    /// returned owned; hot spans stay borrowed).
    pub fn get(&self, id: SpanId) -> Option<SpanRef<'_>> {
        let loc = self.router.loc(id)?;
        self.shards[loc.shard as usize].span_at(loc.row)
    }

    /// Whether a span is tombstoned (consumed by re-aggregation).
    pub fn is_tombstoned(&self, id: SpanId) -> bool {
        self.router
            .loc(id)
            .is_some_and(|l| self.shards[l.shard as usize].is_tombstoned_row(l.row))
    }

    /// Hide a span from queries, compacting the owning shard's indexes
    /// once its pending-eviction count crosses
    /// [`ShardPolicy::evict_threshold`].
    pub fn tombstone(&mut self, id: SpanId) {
        if let Some(loc) = self.router.loc(id) {
            let shard = &mut self.shards[loc.shard as usize];
            tombstone_row(shard, self.router.policy(), loc.row);
        }
    }

    /// Merge a late response into an Incomplete span (server-side
    /// re-aggregation, §3.3.1), routed to the owning shard. Whether it
    /// merged.
    pub fn complete_span(&mut self, id: SpanId, resp: &Span) -> bool {
        (self.router.loc(id))
            .is_some_and(|loc| self.shards[loc.shard as usize].complete_span_row(loc.row, resp))
    }

    /// Compact tombstoned rows out of every shard's indexes (see
    /// [`SpanStore::evict_tombstoned`]). Returns total entries removed.
    pub fn evict_tombstoned(&mut self) -> usize {
        self.shards
            .iter_mut()
            .map(SpanStore::evict_tombstoned)
            .sum()
    }

    /// Tombstoned rows across all shards still awaiting compaction.
    pub fn pending_evictions(&self) -> usize {
        self.shards.iter().map(SpanStore::pending_evictions).sum()
    }

    /// Span-list query: each shard answers locally, results are merged by
    /// `(req_time, span_id)` — the same order a single store yields for
    /// the same corpus — and re-capped at `limit`. One shard's answer is
    /// already in that order and under that cap, and is returned as built.
    pub fn query(&self, q: &SpanQuery) -> Vec<SpanRef<'_>> {
        if let [shard] = &self.shards[..] {
            return shard.query(q);
        }
        let mut merged = Vec::new();
        for shard in &self.shards {
            merged.extend(shard.query(q));
        }
        merged.sort_by_key(|s| (s.req_time, s.span_id));
        merged.truncate(q.limit);
        merged
    }

    /// Iterate all spans in global-id order (diagnostics, re-aggregation).
    /// Tier-aware: cold spans page in as the iterator reaches them.
    pub fn iter(&self) -> impl Iterator<Item = SpanRef<'_>> + '_ {
        self.router.locs().map(move |loc| {
            self.shards[loc.shard as usize]
                .span_at(loc.row)
                .expect("routed row exists")
        })
    }

    /// The corpus version the trace cache validates against: the sum over
    /// shards of [`SpanStore::len`] and [`SpanStore::edits`] (see
    /// [`crate::trace_cache`] for what moves it and what does not).
    pub fn version(&self) -> u64 {
        corpus_version(&self.shards)
    }

    /// The shards, in [`Loc::shard`] order: the `&self` borrow pins them.
    pub(crate) fn shards(&self) -> &[SpanStore] {
        &self.shards
    }

    /// Where `id` was routed, if it was.
    pub(crate) fn loc(&self, id: SpanId) -> Option<Loc> {
        self.router.loc(id)
    }
}

/// [`ShardedSpanStore::version`] of any owner's shards: the shards
/// themselves, or borrows of them (the concurrent store's read guards).
pub(crate) fn corpus_version(shards: &[impl Borrow<SpanStore>]) -> u64 {
    (shards.iter().map(Borrow::borrow))
        .map(|s| s.len() as u64 + s.edits())
        .sum()
}

/// The tombstone rule of every shard owner: hide `row` and compact the
/// shard's indexes once its pending evictions reach
/// [`ShardPolicy::evict_threshold`].
pub(crate) fn tombstone_row(shard: &mut SpanStore, policy: &ShardPolicy, row: u32) {
    shard.tombstone_row(row);
    if shard.pending_evictions() >= policy.evict_threshold {
        shard.evict_tombstoned();
    }
}

/// Algorithm 1 from `start` over in-process shards; the empty trace when
/// there is nothing to assemble from: `start` was never routed (no `loc`),
/// its row still sits in an ingest queue, or it is tombstoned. With the
/// trace come the [`JoinFacts`] of its search, when that reached a fixed
/// point.
pub(crate) fn assemble_local(
    shards: &[impl Borrow<SpanStore>],
    loc: Option<Loc>,
    start: SpanId,
    cfg: &AssembleConfig,
) -> (Trace, Option<JoinFacts>) {
    let Some(loc) = loc else {
        return Default::default();
    };
    let home = shards[loc.shard as usize].borrow();
    if home.len() as u32 <= loc.row || home.is_tombstoned_row(loc.row) {
        return Default::default();
    }
    let mut probe = LocalShards {
        shards,
        postings: 0,
    };
    let (trace, _, keys) = assemble_with(&mut probe, loc, start, cfg);
    let facts = keys.map(|keys| JoinFacts {
        keys,
        postings: probe.postings,
        edits: shards.iter().map(|s| s.borrow().edits()).sum(),
    });
    (trace, facts)
}

/// Algorithm 1 over a sharded corpus: [`assemble_with`] over the
/// in-process prober, so an expansion probes a key against **every**
/// shard's association index and visited-row memoization is per
/// `(shard, row)`. The assembled trace is identical at any shard count
/// (property-tested against the reference oracle for 1, 4 and 16 shards).
pub fn assemble_trace_sharded(
    store: &ShardedSpanStore,
    start: SpanId,
    cfg: &AssembleConfig,
) -> Trace {
    assemble_local(store.shards(), store.loc(start), start, cfg).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assemble::assemble_trace_reference;
    use df_types::ids::SysTraceId;
    use df_types::net::FiveTuple;
    use df_types::span::TapSide;
    use std::net::Ipv4Addr;

    /// A small corpus of three linked exchanges over distinct flows (so
    /// routing actually spreads them) plus one unrelated span.
    fn corpus() -> Vec<Span> {
        let mut spans = Vec::new();
        for hop in 0..3u64 {
            let tuple = FiveTuple::tcp(
                Ipv4Addr::new(10, 0, hop as u8, 1),
                40_000,
                Ipv4Addr::new(10, 0, hop as u8 + 1, 1),
                80,
            );
            let mut server = Span::synthetic(TapSide::ServerProcess, hop * 100, hop * 100 + 500);
            server.five_tuple = tuple;
            server.tcp_seq_req = Some(100 + hop as u32);
            server.systrace_id_req = Some(SysTraceId(hop + 1));
            spans.push(server);
            let mut client =
                Span::synthetic(TapSide::ClientProcess, hop * 100 + 10, hop * 100 + 490);
            client.five_tuple = tuple.reversed();
            client.tcp_seq_req = Some(101 + hop as u32); // next exchange
            client.systrace_id_req = Some(SysTraceId(hop + 1));
            spans.push(client);
        }
        let mut noise = Span::synthetic(TapSide::ServerProcess, 10_000, 10_500);
        noise.tcp_seq_req = Some(999);
        spans.push(noise);
        spans
    }

    fn edges(t: &Trace) -> Vec<(SpanId, Option<SpanId>)> {
        let mut e: Vec<_> = t.spans.iter().map(|s| (s.span.span_id, s.parent)).collect();
        e.sort_unstable();
        e
    }

    #[test]
    fn ids_are_global_and_sequential_regardless_of_shards() {
        for shards in [1, 4, 16] {
            let mut st = ShardedSpanStore::new(ShardPolicy::with_shards(shards));
            let ids = st.insert_batch(corpus());
            assert_eq!(
                ids,
                (1..=7).map(SpanId).collect::<Vec<_>>(),
                "{shards} shards"
            );
            for &id in &ids {
                let span = st
                    .get(id)
                    .unwrap_or_else(|| panic!("{shards}-shard store lost routed span {id:?}"));
                assert_eq!(span.span_id, id);
            }
            assert_eq!(st.len(), 7);
            assert_eq!(st.shard_sizes().iter().sum::<usize>(), 7);
        }
    }

    #[test]
    fn sharded_assembly_matches_single_store_reference() {
        // The reference oracle runs on a classic single store; the sharded
        // path must produce identical traces at every shard count.
        let mut single = SpanStore::new();
        for s in corpus() {
            single.insert(s);
        }
        for shards in [1, 2, 4, 16] {
            let mut st = ShardedSpanStore::new(ShardPolicy::with_shards(shards));
            st.insert_batch(corpus());
            for start in 1..=7u64 {
                let sharded =
                    assemble_trace_sharded(&st, SpanId(start), &AssembleConfig::default());
                let oracle =
                    assemble_trace_reference(&single, SpanId(start), &AssembleConfig::default());
                assert_eq!(
                    edges(&sharded),
                    edges(&oracle),
                    "{shards} shards, start {start}"
                );
            }
        }
    }

    #[test]
    fn tombstones_route_and_hide_across_shards() {
        let mut st = ShardedSpanStore::new(ShardPolicy::with_shards(4));
        let ids = st.insert_batch(corpus());
        let victim = ids[2];
        st.tombstone(victim);
        assert!(st.is_tombstoned(victim));
        let t = assemble_trace_sharded(&st, ids[0], &AssembleConfig::default());
        assert!(t.spans.iter().all(|s| s.span.span_id != victim));
        // A tombstoned start yields an empty trace.
        assert!(assemble_trace_sharded(&st, victim, &AssembleConfig::default()).is_empty());
        // Eviction keeps the assembled trace identical.
        let before = assemble_trace_sharded(&st, ids[0], &AssembleConfig::default());
        assert!(st.evict_tombstoned() > 0);
        let after = assemble_trace_sharded(&st, ids[0], &AssembleConfig::default());
        assert_eq!(edges(&before), edges(&after));
    }

    #[test]
    fn query_merges_shards_in_time_order_and_caps() {
        let mut st = ShardedSpanStore::new(ShardPolicy::with_shards(4));
        st.insert_batch(corpus());
        let q = SpanQuery::window(TimeNs(0), TimeNs(1_000));
        let got = st.query(&q);
        let times: Vec<u64> = got.iter().map(|s| s.req_time.as_nanos()).collect();
        let mut sorted = times.clone();
        sorted.sort_unstable();
        assert_eq!(times, sorted, "merged in time order");
        assert_eq!(got.len(), 6, "noise span at 10µs excluded by window");
        let capped = st.query(&SpanQuery {
            limit: 2,
            ..SpanQuery::window(TimeNs(0), TimeNs(1_000))
        });
        assert_eq!(capped.len(), 2);
        assert_eq!(capped[0].req_time, TimeNs(0));
    }

    #[test]
    fn full_preferred_shard_clamps_to_least_loaded_without_panicking() {
        let mut policy = ShardPolicy::with_shards(2);
        policy.max_shard_rows = 2;
        let mut st = ShardedSpanStore::new(policy);
        // Six spans on one flow: all prefer the same shard; the cap is 2.
        for i in 0..6u32 {
            let mut s = Span::synthetic(TapSide::ServerProcess, u64::from(i) * 100, 1_000);
            s.tcp_seq_req = Some(100 + i);
            let id = st.insert(s);
            assert_eq!(id, SpanId(u64::from(i) + 1), "ids stay sequential");
        }
        assert_eq!(st.len(), 6, "no span refused or lost");
        assert!(
            st.routing_clamped() >= 2,
            "overflowing the preferred shard is counted: {}",
            st.routing_clamped()
        );
        let sizes = st.shard_sizes();
        assert!(
            sizes.iter().all(|&s| s >= 2),
            "clamp rebalances to the least-loaded shard: {sizes:?}"
        );
        // Every span remains reachable through the routing table.
        for id in 1..=6u64 {
            let span = st
                .get(SpanId(id))
                .unwrap_or_else(|| panic!("clamped span {id} lost from routing table"));
            assert_eq!(span.span_id, SpanId(id));
        }
    }

    /// Spill and page-in leave it standing:
    /// `tiered_differential::spill_and_page_in_leave_the_corpus_version_standing`.
    #[test]
    fn version_moves_on_insert_and_tombstone() {
        let mut st = ShardedSpanStore::new(ShardPolicy::with_shards(4));
        assert_eq!(st.version(), 0);
        let ids = st.insert_batch(corpus());
        let v1 = st.version();
        assert!(v1 > 0, "inserts move it");
        st.tombstone(ids[0]);
        let v2 = st.version();
        assert!(v2 > v1, "a tombstone moves it");
        st.tombstone(ids[0]);
        assert_eq!(st.version(), v2, "a repeated tombstone is no edit");
    }

    #[test]
    fn threshold_crossing_triggers_shard_compaction() {
        let mut policy = ShardPolicy::with_shards(1);
        policy.evict_threshold = 3;
        let mut st = ShardedSpanStore::new(policy);
        let mut ids = Vec::new();
        for i in 0..4u32 {
            let mut s = Span::synthetic(TapSide::ServerProcess, u64::from(i) * 100, 1_000);
            s.tcp_seq_req = Some(i);
            ids.push(st.insert(s));
        }
        st.tombstone(ids[0]);
        st.tombstone(ids[1]);
        assert_eq!(st.pending_evictions(), 2, "below threshold: deferred");
        st.tombstone(ids[2]);
        assert_eq!(st.pending_evictions(), 0, "threshold crossed: compacted");
    }
}
