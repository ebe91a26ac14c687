//! The server facade: ingest spans, answer queries.
//!
//! The server stores spans in a [`ShardedSpanStore`] (routing per
//! [`df_storage::ShardPolicy`]) and serves trace queries through the
//! incremental [`TraceCache`] — see [`crate::sharded`] and
//! [`crate::trace_cache`] for the corpus layout and the cache's staleness
//! contract.
//!
//! ## Stats coherence
//!
//! All counters live in one [`ServerStats`] struct behind a single mutex,
//! and every operation updates *all* of its counters under **one** lock
//! acquisition. [`Server::stats`] therefore returns a coherent snapshot:
//! derived invariants (e.g. `trace_queries == cache_hits + cache_misses +
//! cache_invalidations`) hold in every snapshot, never just eventually
//! (independent atomic cells would let a reader observe the trace-query
//! counter incremented but not yet the cache counter).

use crate::assemble::AssembleConfig;
use crate::dictionary::TagDictionary;
use crate::sharded::ShardedSpanStore;
use crate::trace_cache::{self, CacheOutcome, TraceCache};
use df_check::Held;
use df_storage::{ShardPolicy, SpanQuery, SpanRef};
use df_types::tags::ResourceInventory;
use df_types::trace::Trace;
use df_types::wire::{WireBatch, WireDecodeError};
use df_types::{IntMap, Span, SpanId, TimeNs};
use std::ops::Deref;
use std::sync::{Arc, Mutex, MutexGuard};

/// Re-aggregation matching key: the capture point + flow + protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct ReaggKey {
    agent: df_types::AgentId,
    tap_side: df_types::TapSide,
    flow: df_types::FlowId,
    protocol: df_types::L7Protocol,
}

/// Server counters. [`Server::stats`] returns a coherent point-in-time
/// snapshot (see the module docs): in every snapshot
/// `trace_queries == cache_hits + cache_misses + cache_invalidations`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Spans ingested.
    pub ingested: u64,
    /// Spans whose tags were phase-2 enriched.
    pub enriched: u64,
    /// Trace queries served.
    pub trace_queries: u64,
    /// Span-list queries served.
    pub list_queries: u64,
    /// Sessions reunited by server-side re-aggregation.
    pub re_aggregated: u64,
    /// Trace queries answered from the cache (valid entry).
    pub cache_hits: u64,
    /// The `cache_hits` that needed the key check: the corpus had been
    /// written since the entry was stamped, and what the trace joined on
    /// showed no write touched it (see [`crate::trace_cache`]). A subset
    /// of `cache_hits`, so the sum above does not count it.
    pub cache_revalidations: u64,
    /// Trace queries with no cached entry (assembled fresh).
    pub cache_misses: u64,
    /// Trace queries whose cached entry had gone stale — a write the key
    /// check could not rule out — and was re-assembled. Disjoint from
    /// `cache_misses`.
    pub cache_invalidations: u64,
}

impl ServerStats {
    /// Count one trace query answered with `outcome`.
    pub(crate) fn count(&mut self, outcome: CacheOutcome) {
        self.trace_queries += 1;
        match outcome {
            CacheOutcome::Hit => self.cache_hits += 1,
            CacheOutcome::Revalidated => {
                self.cache_hits += 1;
                self.cache_revalidations += 1;
            }
            CacheOutcome::Invalidated => self.cache_invalidations += 1,
            CacheOutcome::Miss => self.cache_misses += 1,
        }
    }

    /// (misses, hits, revalidations, invalidations) of a snapshot whose
    /// sum holds: revalidations are hits, not a fifth class.
    #[cfg(test)]
    pub(crate) fn cache_counters(self) -> (u64, u64, u64, u64) {
        let (hit, miss, inval) = (self.cache_hits, self.cache_misses, self.cache_invalidations);
        assert_eq!(
            self.trace_queries,
            hit + miss + inval,
            "snapshot invariant (module docs)"
        );
        (miss, hit, self.cache_revalidations, inval)
    }
}

/// The DeepFlow Server.
pub struct Server {
    store: ShardedSpanStore,
    dict: TagDictionary,
    assemble_cfg: AssembleConfig,
    /// Single-lock stats: each operation updates all its counters under
    /// one acquisition, keeping snapshots coherent (module docs).
    stats: Mutex<ServerStats>,
    /// Assembled-trace cache; behind a lock so read-path queries go
    /// through `&self`.
    cache: Mutex<TraceCache>,
}

impl Server {
    /// Server over a resource inventory (Fig. 8 ①–③ already collected),
    /// holding one shard. The server probes its shards one after another
    /// on the calling thread, so a second shard only multiplies the finds
    /// per association key and the answers a span list merges; the
    /// owners that shard are those with a thread or a node per shard.
    pub fn new(inventory: &ResourceInventory) -> Self {
        Self::with_policy(inventory, ShardPolicy::single())
    }

    /// Server with an explicit sharding policy (shard count,
    /// tombstone-eviction threshold, per-shard row cap): the multi-shard
    /// seam the differential tests drive.
    pub fn with_policy(inventory: &ResourceInventory, policy: ShardPolicy) -> Self {
        Server {
            store: ShardedSpanStore::new(policy),
            dict: TagDictionary::build(inventory),
            assemble_cfg: AssembleConfig::default(),
            stats: Mutex::new(ServerStats::default()),
            cache: Mutex::new(TraceCache::new()),
        }
    }

    /// Override assembly tunables (the Alg. 1 iteration-cap ablation).
    /// Cached traces were built under the old config, so the cache is
    /// emptied.
    pub fn set_assemble_config(&mut self, cfg: AssembleConfig) {
        self.assemble_cfg = cfg;
        *self.cache.get_mut().expect("cache lock poisoned") = TraceCache::new();
    }

    /// The tag dictionary (display lookups).
    pub fn dictionary(&self) -> &TagDictionary {
        &self.dict
    }

    /// A coherent snapshot of the counters (module docs).
    pub fn stats(&self) -> ServerStats {
        *self.counters()
    }

    /// The counters, under their lock.
    fn counters(&self) -> Held<MutexGuard<'_, ServerStats>> {
        df_check::lock(&self.stats).expect("stats lock poisoned")
    }

    /// Spans stored.
    pub fn span_count(&self) -> usize {
        self.store.len()
    }

    /// Spans per shard (operator-facing balance check).
    pub fn shard_sizes(&self) -> Vec<usize> {
        self.store.shard_sizes()
    }

    /// Direct store access (benches, diagnostics).
    pub fn store(&self) -> &ShardedSpanStore {
        &self.store
    }

    /// Mutable store access, for the cold tier
    /// ([`ShardedSpanStore::enable_tiering`], `spill_before`): a spill
    /// leaves the store's version, and so every cached trace, as it was.
    pub fn store_mut(&mut self) -> &mut ShardedSpanStore {
        &mut self.store
    }

    /// Ingest one span: a batch of one.
    pub fn ingest(&mut self, span: Span) -> SpanId {
        self.ingest_batch(vec![span])[0]
    }

    /// Ingest a batch (what an agent ships per flush): enrich every span
    /// (smart-encoding phase 2, Fig. 8 ⑦), then insert through the store's
    /// batched path, which routes each span to its shard and settles each
    /// shard's time index once, at the end.
    pub fn ingest_batch(&mut self, spans: Vec<Span>) -> Vec<SpanId> {
        let mut enriched = 0u64;
        let rows = (spans.into_iter())
            .map(|mut span| {
                enriched += u64::from(enrich(&self.dict, &mut span));
                Arc::new(span)
            })
            .collect();
        self.insert_rows(rows, enriched)
    }

    /// Ingest a DFW1-encoded span batch as shipped on the wire (see
    /// [`df_types::wire`]): each span is enriched as it leaves the
    /// decoder and moves into the `Arc` its shard keeps
    /// ([`WireBatch::decode_rows`]), then takes the store's batched
    /// insert. The whole frame decodes before anything is stored: a
    /// malformed batch is rejected with the store and stats untouched.
    pub fn ingest_wire(&mut self, batch: &[u8]) -> Result<Vec<SpanId>, WireDecodeError> {
        let mut enriched = 0u64;
        let rows = WireBatch::parse(batch)?
            .decode_rows(|span| enriched += u64::from(enrich(&self.dict, span)))?;
        Ok(self.insert_rows(rows, enriched))
    }

    /// Count a batch of `enriched` prepared rows, then store them.
    fn insert_rows(&mut self, rows: Vec<Arc<Span>>, enriched: u64) -> Vec<SpanId> {
        {
            let mut st = self.counters();
            st.ingested += rows.len() as u64;
            st.enriched += enriched;
        }
        self.store.insert_rows(rows)
    }

    /// Span-list query (Fig. 15's "span list"): the stored rows, lent, each
    /// with its phase-3 labels (Fig. 8 ⑧) beside it ([`Listed::label`]).
    pub fn span_list(&self, query: &SpanQuery) -> Vec<Listed<'_>> {
        self.counters().list_queries += 1;
        let labels =
            |s: &Span| (s.tags.resource.ip).map_or(&[][..], |ip| self.dict.labels_for_ip(ip));
        (self.store.query(query).into_iter())
            .map(|span| Listed {
                labels: labels(&span),
                span,
            })
            .collect()
    }

    /// Trace query: Algorithm 1 from a user-chosen span (Fig. 15's
    /// "trace"), answered through the incremental trace cache. Returns the
    /// cache's shared trace. Each member shares its stored row and, set
    /// once when the trace was built, the dictionary's phase-3 labels for
    /// its IP ([`AssembledSpan::label`](df_types::AssembledSpan::label));
    /// the span store itself holds no labels.
    pub fn trace(&self, start: SpanId) -> Arc<Trace> {
        let label = |trace: &mut Trace| {
            for s in &mut trace.spans {
                s.labels = (s.span.tags.resource.ip).and_then(|ip| self.dict.shared_labels(ip));
            }
        };
        let pin = || self.store.shards();
        let loc = self.store.loc(start);
        let (trace, outcome) =
            trace_cache::query(&self.cache, pin, loc, start, &self.assemble_cfg, label);
        self.counters().count(outcome);
        trace
    }

    /// Convenience: the slowest span in a window — the typical "start
    /// point" a troubleshooting user picks ("users can select spans that
    /// they are interested in, such as time-consuming invocations").
    pub fn slowest_span(&self, from: TimeNs, to: TimeNs) -> Option<SpanId> {
        let q = SpanQuery::window(from, to);
        self.counters().list_queries += 1;
        self.store
            .query(&q)
            .into_iter()
            .max_by_key(|s| s.duration())
            .map(|s| s.span_id)
    }

    /// Server-side re-aggregation (§3.3.1): pair Incomplete spans (requests
    /// whose responses missed the agent's time window) with the
    /// ResponseOnly fragments agents shipped later. Matching mirrors the
    /// agent's own technique — same capture point, same flow, FIFO order —
    /// and consumed fragments are tombstoned. The pass finishes by
    /// compacting tombstoned rows out of every shard's indexes
    /// ([`ShardedSpanStore::evict_tombstoned`]). Returns how many sessions
    /// were reunited.
    pub fn re_aggregate(&mut self) -> usize {
        use df_types::span::SpanStatus;
        // Collect candidates (ids only; the store stays borrowable).
        let mut incomplete: IntMap<ReaggKey, Vec<(TimeNs, SpanId)>> = IntMap::default();
        let mut fragments: IntMap<ReaggKey, Vec<(TimeNs, SpanId)>> = IntMap::default();
        for span in self.store.iter() {
            if self.store.is_tombstoned(span.span_id) {
                continue;
            }
            let key = ReaggKey {
                agent: span.agent,
                tap_side: span.capture.tap_side,
                flow: span.flow_id,
                protocol: span.l7_protocol,
            };
            match span.status {
                SpanStatus::Incomplete => incomplete
                    .entry(key)
                    .or_default()
                    .push((span.req_time, span.span_id)),
                SpanStatus::ResponseOnly => fragments
                    .entry(key)
                    .or_default()
                    .push((span.resp_time, span.span_id)),
                _ => {}
            }
        }
        let mut merged = 0usize;
        for (key, mut reqs) in incomplete {
            let Some(mut resps) = fragments.remove(&key) else {
                continue;
            };
            reqs.sort_unstable();
            resps.sort_unstable();
            let mut ri = 0usize;
            for (req_ts, req_id) in reqs {
                // FIFO: the earliest fragment at or after the request.
                while ri < resps.len() && resps[ri].0 < req_ts {
                    ri += 1;
                }
                if ri >= resps.len() {
                    break;
                }
                let (_, frag_id) = resps[ri];
                ri += 1;
                let frag = self
                    .store
                    .get(frag_id)
                    .expect("fragment exists")
                    .into_owned();
                if self.store.complete_span(req_id, &frag) {
                    self.store.tombstone(frag_id);
                    merged += 1;
                }
            }
        }
        // Re-aggregation tombstones in bulk: compact immediately rather
        // than waiting for the per-shard threshold.
        self.store.evict_tombstoned();
        self.counters().re_aggregated += merged as u64;
        merged
    }

    /// Convenience: error spans in a window.
    pub fn error_spans(&self, from: TimeNs, to: TimeNs) -> Vec<Listed<'_>> {
        let q = SpanQuery {
            errors_only: true,
            ..SpanQuery::window(from, to)
        };
        self.span_list(&q)
    }
}

/// Smart-encoding phase 2 (Fig. 8 ⑦) on one span: whether the dictionary
/// knew its IP.
fn enrich(dict: &TagDictionary, span: &mut Span) -> bool {
    dict.enrich(&mut span.tags.resource);
    span.tags.resource.is_enriched()
}

/// One [`Server::span_list`] row: the stored span as the store lends it,
/// and the dictionary's labels for its IP, joined by [`Listed::label`]
/// instead of copied in.
#[derive(Debug)]
pub struct Listed<'a> {
    /// The stored span.
    pub span: SpanRef<'a>,
    /// The dictionary's labels for the span's IP (empty without one).
    pub labels: &'a [(String, String)],
}

impl Listed<'_> {
    /// The label under `key`: the span's own value wins, and the
    /// dictionary fills in a key the span lacks — the rule
    /// [`Server::trace`]'s members read theirs by
    /// ([`TagSet::label_joined`](df_types::TagSet::label_joined)).
    pub fn label(&self, key: &str) -> Option<&str> {
        self.span.tags.label_joined(self.labels, key)
    }
}

impl Deref for Listed<'_> {
    type Target = Span;

    fn deref(&self) -> &Span {
        &self.span
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use df_types::net::FiveTuple;
    use df_types::span::{SpanKind, SpanStatus, TapSide};
    use df_types::tags::{NodeResource, PodResource};
    use std::net::Ipv4Addr;

    fn inventory() -> ResourceInventory {
        ResourceInventory {
            pods: vec![PodResource {
                name: "web-0".into(),
                ip: u32::from(Ipv4Addr::new(10, 1, 0, 1)),
                node: "node-1".into(),
                namespace: "default".into(),
                workload: "web".into(),
                service: "web-svc".into(),
                labels: vec![("version".into(), "v3".into())],
            }],
            nodes: vec![NodeResource {
                name: "node-1".into(),
                ip: u32::from(Ipv4Addr::new(192, 168, 0, 1)),
                region: "r1".into(),
                az: "az1".into(),
                vpc: "vpc1".into(),
                subnet: "s1".into(),
                cluster: "c1".into(),
            }],
        }
    }

    /// A server of the default single shard and one of four: the cache
    /// and stats rules must not depend on how the corpus is split.
    fn servers() -> [Server; 2] {
        [1, 4].map(|shards| Server::with_policy(&inventory(), ShardPolicy::with_shards(shards)))
    }

    fn span(req_ns: u64, duration: u64) -> Span {
        let ip = Ipv4Addr::new(10, 1, 0, 1);
        let mut s = Span::synthetic(TapSide::ClientProcess, req_ns, req_ns + duration);
        s.five_tuple = FiveTuple::tcp(ip, 40000, Ipv4Addr::new(10, 1, 1, 1), 80);
        s.tcp_seq_req = Some(1);
        s.tcp_seq_resp = Some(2);
        s.tags.resource.vpc_id = Some(1);
        s.tags.resource.ip = Some(u32::from(ip));
        s
    }

    #[test]
    fn ingest_enriches_phase2_tags() {
        let mut srv = Server::new(&inventory());
        let id = srv.ingest(span(100, 50));
        let stored = srv.store().get(id).unwrap();
        assert!(stored.tags.resource.is_enriched());
        assert_eq!(
            srv.dictionary()
                .pod_name(stored.tags.resource.pod_id.unwrap()),
            Some("web-0")
        );
        assert_eq!(srv.stats().enriched, 1);
        // Labels are NOT materialised at ingest (phase 3 is query-time).
        assert!(stored.tags.custom.is_empty());
    }

    #[test]
    fn span_list_joins_labels_at_query_time() {
        let mut srv = Server::new(&inventory());
        srv.ingest(span(100, 50));
        let got = srv.span_list(&SpanQuery::window(TimeNs(0), TimeNs(1000)));
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].label("version"), Some("v3"));
        assert!(
            got[0].tags.custom.is_empty(),
            "the stored row is lent as is"
        );
    }

    #[test]
    fn slowest_span_and_errors() {
        let mut srv = Server::new(&inventory());
        srv.ingest(span(100, 50));
        let slow = srv.ingest(span(200, 5000));
        let mut err = span(300, 10);
        err.status = SpanStatus::ServerError;
        srv.ingest(err);
        assert_eq!(srv.slowest_span(TimeNs(0), TimeNs(10_000)), Some(slow));
        let errors = srv.error_spans(TimeNs(0), TimeNs(10_000));
        assert_eq!(errors.len(), 1);
        assert_eq!(errors[0].status, SpanStatus::ServerError);
    }

    #[test]
    fn trace_query_assembles_and_labels() {
        let mut srv = Server::new(&inventory());
        let a = srv.ingest(span(100, 500)); // seq 1
        let mut child = span(150, 100);
        child.capture.tap_side = TapSide::ClientNodeNic;
        child.kind = SpanKind::Net;
        srv.ingest(child); // same seq → same exchange
        for _ in 0..3 {
            let trace = srv.trace(a);
            assert_eq!(trace.len(), 2);
            assert!(trace.is_well_formed());
            for s in &trace.spans {
                assert_eq!(s.label("version"), Some("v3"), "joined beside the span");
                assert!(s.span.tags.custom.is_empty(), "shared as stored");
            }
        }
        assert_eq!(srv.stats().cache_counters(), (1, 2, 0, 0));
    }

    #[test]
    fn ingest_batch_counts() {
        let mut srv = Server::new(&inventory());
        let ids = srv.ingest_batch(vec![span(1, 1), span(2, 1), span(3, 1)]);
        assert_eq!(ids.len(), 3);
        assert_eq!(srv.span_count(), 3);
        assert_eq!(srv.stats().ingested, 3);
        assert_eq!(srv.shard_sizes().iter().sum::<usize>(), 3);
    }

    #[test]
    fn trace_cache_counters_track_hit_miss_invalidation() {
        for mut srv in servers() {
            let a = srv.ingest(span(100, 500));
            srv.ingest(span(150, 100));
            let cold = srv.trace(a);
            let warm = srv.trace(a);
            assert!(Arc::ptr_eq(&cold, &warm), "a hit is the stored allocation");
            let mut late = span(200, 100);
            late.capture.tap_side = TapSide::ServerProcess;
            srv.ingest(late); // shares the trace's TCP sequence
            let refreshed = srv.trace(a);
            assert_eq!(refreshed.len(), 3);
            assert!(!Arc::ptr_eq(&cold, &refreshed), "re-assembled anew");
            assert_eq!(srv.stats().cache_counters(), (1, 1, 0, 1));
        }
    }

    #[test]
    fn trace_cache_counters_tell_revalidation_from_invalidation() {
        for mut srv in servers() {
            let a = srv.ingest(span(100, 500));
            srv.ingest(span(150, 100));
            let cold = srv.trace(a);
            let mut unrelated = span(200, 100);
            (unrelated.tcp_seq_req, unrelated.tcp_seq_resp) = (Some(77), Some(78));
            srv.ingest(unrelated); // shares no key
            assert!(Arc::ptr_eq(&srv.trace(a), &cold), "the entry was kept");
            assert_eq!(srv.stats().cache_counters(), (1, 1, 1, 0));
            srv.ingest(span(250, 100)); // shares the trace's TCP sequence
            let longer = srv.trace(a);
            assert_eq!(longer.len(), 3, "a longer trace");
            assert!(!Arc::ptr_eq(&longer, &cold), "re-assembled anew");
            assert_eq!(srv.stats().cache_counters(), (1, 1, 1, 1));
        }
    }

    #[test]
    fn stats_snapshot_is_coherent_mid_workload() {
        for mut srv in servers() {
            let a = srv.ingest(span(100, 500));
            for _ in 0..7 {
                srv.trace(a);
                srv.stats().cache_counters(); // checks the sum
            }
        }
    }

    /// A cached trace shares the stored rows, so a completion must copy a
    /// shared row instead of writing into the trace: the held trace keeps
    /// its `Incomplete` snapshot, and the next query re-assembles from
    /// the completed row.
    #[test]
    fn completing_a_shared_row_leaves_the_cached_trace_as_it_was() {
        for mut srv in servers() {
            let mut req = span(100, 0);
            req.status = SpanStatus::Incomplete;
            req.tcp_seq_resp = None;
            let req_id = srv.ingest(req);
            let mut frag = span(100, 900);
            frag.status = SpanStatus::ResponseOnly;
            frag.resp_time = TimeNs(1_000);
            srv.ingest(frag);
            let row = |srv: &Server| {
                let loc = srv.store().loc(req_id).expect("routed");
                let shard = &srv.store().shards()[loc.shard as usize];
                shard.shared_at(loc.row).expect("row exists")
            };
            let member = |t: &Trace| {
                let s = t.spans.iter().find(|s| s.span.span_id == req_id);
                Arc::clone(&s.expect("the request is a member").span)
            };

            let cached = srv.trace(req_id);
            assert!(Arc::ptr_eq(&row(&srv), &member(&cached)), "shared");
            assert_eq!(srv.re_aggregate(), 1);
            assert_eq!(member(&cached).status, SpanStatus::Incomplete);
            assert!(!Arc::ptr_eq(&row(&srv), &member(&cached)), "copied");

            let fresh = srv.trace(req_id);
            assert_eq!(srv.stats().cache_counters(), (1, 0, 0, 1));
            assert_eq!(member(&fresh).status, SpanStatus::Ok);
            assert_eq!(member(&fresh).resp_time, TimeNs(1_000));
            assert!(Arc::ptr_eq(&row(&srv), &member(&fresh)));
        }
    }

    #[test]
    fn re_aggregation_reunites_and_compacts() {
        for mut srv in servers() {
            let mut req = span(100, 0);
            req.status = SpanStatus::Incomplete;
            req.tcp_seq_resp = None;
            let req_id = srv.ingest(req);
            let mut frag = span(100, 900);
            frag.status = SpanStatus::ResponseOnly;
            frag.resp_time = TimeNs(1_000);
            let frag_id = srv.ingest(frag);

            assert_eq!(srv.re_aggregate(), 1);
            assert_eq!(srv.stats().re_aggregated, 1);
            let merged = srv.store().get(req_id).unwrap();
            assert_eq!(merged.status, SpanStatus::Ok);
            assert!(srv.store().is_tombstoned(frag_id));
            assert_eq!(
                srv.store().pending_evictions(),
                0,
                "re-aggregation pass compacts eagerly"
            );
        }
    }
}
