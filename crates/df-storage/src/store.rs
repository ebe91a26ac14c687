//! The span store the server runs Algorithm 1 against.
//!
//! Row-oriented storage of [`Span`]s plus one posting index (value → rows,
//! short lists inline, integer keys under a seeded hasher) per
//! implicit-context attribute (systrace ids, pseudo-thread ids,
//! X-Request-IDs, TCP sequences, third-party trace ids) and a time index
//! for span-list queries. Algorithm 1's `search_database(filter)` (line 12)
//! resolves to one index probe per attribute value — which is what makes
//! the iterative search terminate in interactive time (Fig. 15).
//!
//! Probes return borrowed row slices (`&[u32]`) so the assembly hot loop
//! never allocates per probe. The time index lives behind a mutex and is
//! sorted lazily, so `query` works through a shared reference: read paths
//! (span list, trace assembly) never need `&mut SpanStore`, and batch
//! ingest ([`SpanStore::insert_batch`]) defers the sort cost to the next
//! query instead of paying it per span.
//!
//! # Hot/cold tiering
//!
//! A row is either **hot** (the [`Span`] lives in memory, behind an
//! `Arc`) or **cold** (the span was spilled to a disk segment by
//! [`SpanStore::spill_before`] and only a [`ColdRef`] — segment id,
//! in-segment offset, span id, request time — remains resident).
//! Everything that needs the full span goes through
//! [`SpanStore::span_at`], which returns a [`SpanRef`]: borrowed for hot
//! rows (the zero-copy fast path), owned for cold rows (a page-in through
//! the shared [`BufferPool`]). [`SpanStore::shared_at`] hands out a hot
//! row's `Arc` itself, for a reader that keeps the row past the borrow,
//! as an assembled trace does. The association and time indexes keep
//! cold rows, so [`SpanStore::find`] probes and time-window scans are
//! tier-blind; only *materialising* a cold row costs a pool fetch. Spill
//! never reorders, renumbers, or drops rows — it is extensionally
//! invisible to assembly, which the tiered differential proptests pin
//! down.

use crate::bufferpool::{BufferPool, SegmentId};
use crate::persist;
use crate::posting::PostingIndex;
use crate::shard::bucket_of;
use df_types::span::SpanStatus;
use df_types::{AssocKey, Span, SpanId, TimeNs};
use std::borrow::Borrow;
use std::collections::BTreeMap;
use std::io;
use std::ops::Deref;
use std::path::Path;
use std::sync::{Arc, Mutex};

/// A span-list query (the Fig. 15 "span list" request).
#[derive(Debug, Clone, Default)]
pub struct SpanQuery {
    /// Inclusive start of the time window.
    pub from: Option<TimeNs>,
    /// Exclusive end of the time window.
    pub to: Option<TimeNs>,
    /// Only error spans.
    pub errors_only: bool,
    /// Only spans of this endpoint.
    pub endpoint: Option<String>,
    /// Only spans observed by this pod (smart-encoded pod id).
    pub pod_id: Option<u32>,
    /// Result cap.
    pub limit: usize,
}

impl SpanQuery {
    /// Query a `[from, to)` window.
    pub fn window(from: TimeNs, to: TimeNs) -> Self {
        SpanQuery {
            from: Some(from),
            to: Some(to),
            limit: usize::MAX,
            ..Default::default()
        }
    }

    fn matches(&self, span: &Span) -> bool {
        if let Some(f) = self.from {
            if span.req_time < f {
                return false;
            }
        }
        if let Some(t) = self.to {
            if span.req_time >= t {
                return false;
            }
        }
        if self.errors_only && !span.status.is_error() {
            return false;
        }
        if let Some(ep) = &self.endpoint {
            if &span.endpoint != ep {
                return false;
            }
        }
        if let Some(pod) = self.pod_id {
            if span.tags.resource.pod_id != Some(pod) {
                return false;
            }
        }
        true
    }
}

/// A stored span as the store lends it: borrowed from a hot row (or from
/// whatever the caller already holds), or owned after a cold page-in. Two
/// words, so a span list moves pointers, not 576-byte `Span`s.
#[derive(Debug)]
pub enum SpanRef<'a> {
    /// A span that lives elsewhere for `'a`.
    Borrowed(&'a Span),
    /// A span paged in from the cold tier.
    Owned(Box<Span>),
}

impl SpanRef<'_> {
    /// The span by value: a clone of a borrowed span, an owned one unboxed.
    pub fn into_owned(self) -> Span {
        match self {
            SpanRef::Borrowed(s) => s.clone(),
            SpanRef::Owned(s) => *s,
        }
    }
}

impl Deref for SpanRef<'_> {
    type Target = Span;

    fn deref(&self) -> &Span {
        match self {
            SpanRef::Borrowed(s) => s,
            SpanRef::Owned(s) => s,
        }
    }
}

impl Borrow<Span> for SpanRef<'_> {
    fn borrow(&self) -> &Span {
        self
    }
}

/// Store statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Spans stored.
    pub spans: usize,
    /// Total index entries.
    pub index_entries: usize,
}

/// `(req_time_ns, row)` pairs, appended on ingest and sorted lazily at the
/// next query. Lives behind a mutex so queries can sort through `&self`.
#[derive(Debug)]
struct TimeIndex {
    entries: Vec<(u64, u32)>,
    sorted: bool,
}

impl Default for TimeIndex {
    fn default() -> Self {
        TimeIndex {
            entries: Vec::new(),
            sorted: true,
        }
    }
}

/// Resident stub of a spilled span: enough to route probes (id, request
/// time) without touching disk, plus the address of the full span in the
/// cold tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ColdRef {
    /// Segment holding the span.
    pub segment: SegmentId,
    /// Offset of the span within the segment's span section.
    pub offset: u32,
    /// The span's id (kept resident so tombstone checks never page in).
    pub span_id: SpanId,
    /// The span's request time (kept resident for bucket accounting).
    pub req_time: TimeNs,
}

/// One row slot: the span, shared with every trace that holds it, or a
/// cold stub.
#[derive(Debug, Clone)]
enum RowSlot {
    Hot(Arc<Span>),
    Cold(ColdRef),
}

/// What one [`SpanStore::spill_before`] call moved to the cold tier.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpillStats {
    /// Segments written.
    pub segments: usize,
    /// Spans flipped cold.
    pub spans: usize,
    /// Encoded segment bytes written.
    pub bytes: u64,
}

impl SpillStats {
    /// Fold another spill's counts into this one.
    pub fn merge(&mut self, other: SpillStats) {
        self.segments += other.segments;
        self.spans += other.spans;
        self.bytes += other.bytes;
    }
}

/// What one [`SpanStore::recover_cold_segments`] call rebuilt from disk.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoverStats {
    /// Segment files re-registered.
    pub segments: usize,
    /// Candidate files that did not decode (bad header, torn body) —
    /// counted, never panicked over.
    pub rejected_segments: usize,
    /// Rows rebuilt as cold slots (the contiguous prefix from row 0).
    pub rows: usize,
    /// Spilled rows beyond the first row gap, unusable until the gap is
    /// backfilled — left out of the store (anti-entropy re-pulls them).
    pub orphan_rows: usize,
}

impl RecoverStats {
    /// Fold another recovery's counts into this one.
    pub fn merge(&mut self, other: RecoverStats) {
        self.segments += other.segments;
        self.rejected_segments += other.rejected_segments;
        self.rows += other.rows;
        self.orphan_rows += other.orphan_rows;
    }
}

/// The span store.
///
/// Ids come in two regimes. A store used standalone assigns its own ids
/// ([`SpanStore::insert`]): id = row + 1, so [`SpanStore::id_at`] and
/// [`SpanStore::get`] translate for free. A store embedded as one shard of
/// a sharded corpus receives spans whose (globally unique) ids were
/// assigned by the owner ([`SpanStore::insert_routed`]); the owner keeps
/// the id → (shard, row) map and talks to the shard in row terms
/// ([`SpanStore::span_at`], [`SpanStore::tombstone_row`],
/// [`SpanStore::complete_span_row`]). The two regimes must not be mixed in
/// one store.
#[derive(Debug, Default)]
pub struct SpanStore {
    /// Row slots: hot spans sit behind an `Arc`, so a cold slot costs only
    /// the [`ColdRef`] stub, not a full `Span` footprint, and a trace
    /// shares a row instead of copying it.
    rows: Vec<RowSlot>,
    /// Pool that pages cold rows back in; set by the first spill or by
    /// recovery (a sharded owner hands every shard the same pool).
    cold_reader: Option<Arc<BufferPool>>,
    /// How many rows are currently cold.
    cold_count: usize,
    by_systrace: PostingIndex<u64>,
    by_pseudo_thread: PostingIndex<u64>,
    by_x_request: PostingIndex<u128>,
    by_tcp_seq: PostingIndex<u32>,
    by_otel_trace: PostingIndex<u128>,
    /// `(key, row)` entries across the five association indexes.
    index_entries: usize,
    time_index: Mutex<TimeIndex>,
    /// Spans consumed by server-side re-aggregation; hidden from queries.
    tombstones: std::collections::HashSet<SpanId>,
    /// Tombstoned rows whose index entries have not been compacted away
    /// yet (drained by [`SpanStore::evict_tombstoned`]).
    pending_evict: Vec<u32>,
    /// See [`SpanStore::edits`].
    edits: u64,
    /// See [`SpanStore::newest_req_time`].
    newest_req: Option<TimeNs>,
}

impl SpanStore {
    /// Empty store.
    pub fn new() -> Self {
        SpanStore::default()
    }

    /// The span id stored at a given row.
    pub fn id_at(row: u32) -> SpanId {
        SpanId(u64::from(row) + 1)
    }

    /// Fetch any row by index, paging it in from the cold tier if needed:
    /// borrowed (zero-copy) for hot rows, owned for cold ones.
    ///
    /// Panics if the row is cold and no cold reader is attached, or if
    /// the cold segment is unreadable — a spilled row must be
    /// recoverable; fabricating an absence would corrupt assembly.
    pub fn span_at(&self, row: u32) -> Option<SpanRef<'_>> {
        match self.rows.get(row as usize)? {
            RowSlot::Hot(s) => Some(SpanRef::Borrowed(s)),
            RowSlot::Cold(c) => Some(SpanRef::Owned(Box::new(self.page_in(c)))),
        }
    }

    /// The span at `row`, shared: a hot row costs a reference count, a
    /// cold row the one copy [`SpanStore::span_at`] pages in. Panics as
    /// [`SpanStore::span_at`] does.
    pub fn shared_at(&self, row: u32) -> Option<Arc<Span>> {
        match self.rows.get(row as usize)? {
            RowSlot::Hot(s) => Some(Arc::clone(s)),
            RowSlot::Cold(c) => Some(Arc::new(self.page_in(c))),
        }
    }

    /// A copy of the cold row `c`, read through the attached pool.
    fn page_in(&self, c: &ColdRef) -> Span {
        let pool = self.cold_reader.as_ref();
        let pool = pool.expect("cold rows require an attached cold reader");
        pool.read_span(c.segment, c.offset)
    }

    /// The span id stored at `row`, whatever its tier. Cold rows keep the
    /// id resident, so this never pages in — it is the probe-path filter
    /// (tombstones, dedup) that must stay cheap.
    pub fn stored_id(&self, row: u32) -> Option<SpanId> {
        match self.rows.get(row as usize)? {
            RowSlot::Hot(s) => Some(s.span_id),
            RowSlot::Cold(c) => Some(c.span_id),
        }
    }

    /// The newest request time this store has indexed, over hot, cold
    /// and tombstoned rows alike (eviction does not lower it); `None`
    /// while the store is empty. Never pages in.
    pub fn newest_req_time(&self) -> Option<TimeNs> {
        self.newest_req
    }

    /// Number of rows currently hot (span resident inline).
    pub fn hot_rows(&self) -> usize {
        self.rows.len() - self.cold_count
    }

    /// Number of rows spilled to the cold tier.
    pub fn cold_rows(&self) -> usize {
        self.cold_count
    }

    /// Merge a late response's attributes into an incomplete span —
    /// server-side re-aggregation (§3.3.1). Updates the association
    /// indexes for the newly known response-side attributes, skipping
    /// values the request side already indexed (same dedup `insert`
    /// applies, so a span never appears twice in one index bucket).
    pub fn complete_span(&mut self, id: SpanId, resp: &Span) -> bool {
        let Some(row) = id.raw().checked_sub(1) else {
            return false;
        };
        let row = row as u32;
        if self.stored_id(row) != Some(id) {
            return false;
        }
        self.complete_span_row(row, resp)
    }

    /// Row-addressed [`SpanStore::complete_span`] for stores whose ids were
    /// assigned externally (see the type-level docs on id regimes).
    pub fn complete_span_row(&mut self, row: u32, resp: &Span) -> bool {
        // Cold rows are never completable: spill skips Incomplete spans
        // precisely so a late response can always find its request hot.
        let Some(RowSlot::Hot(span)) = self.rows.get_mut(row as usize) else {
            return false;
        };
        if span.status != SpanStatus::Incomplete {
            return false;
        }
        // A row a cached trace still shares is copied here, once; that
        // trace's entry falls with the edit counted below.
        let span = Arc::make_mut(span);
        let mut indexed = Vec::new();
        span.for_each_assoc_key(|key| indexed.push(key));
        span.resp_time = resp.resp_time;
        span.status = SpanStatus::of_response(span.l7_protocol, resp.status_code);
        span.status_code = resp.status_code;
        span.resp_bytes = resp.resp_bytes;
        span.systrace_id_resp = resp.systrace_id_resp;
        span.x_request_id_resp = resp.x_request_id_resp;
        span.tcp_seq_resp = resp.tcp_seq_resp;
        // Index the keys the response brought.
        let mut brought = Vec::new();
        span.for_each_assoc_key(|key| {
            if !indexed.contains(&key) {
                brought.push(key);
            }
        });
        for key in brought {
            self.index(key, row);
        }
        self.edits += 1;
        true
    }

    /// Hide a span from queries (its content was merged elsewhere). The
    /// row is remembered for the next [`SpanStore::evict_tombstoned`]
    /// compaction.
    pub fn tombstone(&mut self, id: SpanId) {
        if let Some(row) = id.raw().checked_sub(1) {
            let row = row as u32;
            if self.stored_id(row) == Some(id) {
                self.tombstone_row(row);
                return;
            }
        }
        // Unknown id: hide it anyway (idempotent), nothing to evict.
        if self.tombstones.insert(id) {
            self.edits += 1;
        }
    }

    /// Row-addressed [`SpanStore::tombstone`] for stores whose ids were
    /// assigned externally (see the type-level docs on id regimes).
    pub fn tombstone_row(&mut self, row: u32) {
        let Some(id) = self.stored_id(row) else {
            return;
        };
        if self.tombstones.insert(id) {
            self.pending_evict.push(row);
            self.edits += 1;
        }
    }

    /// Whether a span is tombstoned.
    pub fn is_tombstoned(&self, id: SpanId) -> bool {
        self.tombstones.contains(&id)
    }

    /// Tombstoned rows whose index entries are still awaiting compaction.
    pub fn pending_evictions(&self) -> usize {
        self.pending_evict.len()
    }

    /// How many non-append edits this store has taken: a first tombstone
    /// of a span, a completion that merged, an eviction that drained rows.
    /// Inserts, spill and page-in never count. While this stands still the
    /// posting lists under [`SpanStore::find`] can only have grown and no
    /// stored span changed — what lets the trace cache tell, from list
    /// lengths alone, that nothing a cached trace joined on has moved.
    pub fn edits(&self) -> u64 {
        self.edits
    }

    /// Compact tombstoned rows out of the association and time indexes, so
    /// [`SpanStore::find`] probes stop returning (and paying for) rows that every
    /// read path would filter anyway. Invoked by the server after
    /// re-aggregation and by the sharded store when a shard crosses its
    /// [`crate::ShardPolicy::evict_threshold`]. Semantically a no-op:
    /// assembly and queries filter tombstones at probe time either way —
    /// the property tests assert eviction never changes an assembled
    /// trace. Returns the number of index entries removed.
    pub fn evict_tombstoned(&mut self) -> usize {
        if self.pending_evict.is_empty() {
            return 0;
        }
        let rows = std::mem::take(&mut self.pending_evict);
        self.edits += 1;
        let mut removed = 0usize;
        let mut keys = Vec::new();
        for &row in &rows {
            // A cold row pages in here, on the compacting thread — in the
            // concurrent store, the ingest worker whose tombstone reached
            // the threshold.
            let span = self.span_at(row).expect("pending-evict row exists");
            span.for_each_assoc_key(|key| keys.push(key));
            drop(span);
            for key in keys.drain(..) {
                removed += self.unindex(key, row);
            }
        }
        let dead: std::collections::HashSet<u32> = rows.into_iter().collect();
        let idx = self.time_index.get_mut().expect("time index lock poisoned");
        idx.entries.retain(|&(_, row)| !dead.contains(&row));
        removed
    }

    /// Insert a span, assigning its id. Returns the id.
    pub fn insert(&mut self, mut span: Span) -> SpanId {
        let id = Self::id_at(self.rows.len() as u32);
        span.span_id = id;
        self.index_and_push(Arc::new(span));
        id
    }

    /// Insert a span that already carries an externally assigned id (one
    /// shard of a sharded corpus — the owner maps that id to the returned
    /// row). The span is indexed exactly like [`SpanStore::insert`]; only
    /// id assignment is skipped. The `Arc` is the row: the owner allocates
    /// it once, as the span leaves its decoded batch, and it is never
    /// copied again.
    pub fn insert_routed(&mut self, span: Arc<Span>) -> u32 {
        let row = self.rows.len() as u32;
        self.index_and_push(span);
        row
    }

    /// Bulk [`SpanStore::insert_routed`]: append a whole routed batch (what
    /// one per-shard ingest worker drains from its queue per message),
    /// reserving row and time-index capacity once. Returns the row of the
    /// first appended span; rows are contiguous from there, which is the
    /// contract the sharded routing table relies on.
    pub fn insert_routed_batch(&mut self, spans: Vec<Span>) -> u32 {
        let first = self.rows.len() as u32;
        self.reserve(spans.len());
        for span in spans {
            self.index_and_push(Arc::new(span));
        }
        first
    }

    /// Insert a batch (what an agent ships per flush). Index maintenance is
    /// append-only here; the time index is re-sorted lazily by the next
    /// query, so ingest cost doesn't scale with query-side ordering.
    pub fn insert_batch(&mut self, spans: Vec<Span>) -> Vec<SpanId> {
        self.reserve(spans.len());
        spans.into_iter().map(|span| self.insert(span)).collect()
    }

    /// Make room for `n` more rows and time-index entries.
    fn reserve(&mut self, n: usize) {
        self.rows.reserve(n);
        let idx = self.time_index.get_mut().expect("time index lock poisoned");
        idx.entries.reserve(n);
    }

    /// Index every association attribute of `span` and append it, keeping
    /// whatever `span_id` it carries.
    fn index_and_push(&mut self, span: Arc<Span>) {
        let row = self.rows.len() as u32;
        span.for_each_assoc_key(|key| self.index(key, row));
        self.push_time_entry(span.req_time.as_nanos(), row);
        self.rows.push(RowSlot::Hot(span));
    }

    /// Append `row` under `key` in the index of the key's kind.
    fn index(&mut self, key: AssocKey, row: u32) {
        self.index_entries += 1;
        match key {
            AssocKey::Systrace(v) => self.by_systrace.push(v, row),
            AssocKey::PseudoThread(v) => self.by_pseudo_thread.push(v, row),
            AssocKey::XRequest(v) => self.by_x_request.push(v, row),
            AssocKey::TcpSeq(v) => self.by_tcp_seq.push(v, row),
            AssocKey::OtelTrace(v) => self.by_otel_trace.push(v, row),
        }
    }

    /// Take `row` out from under `key`; returns how many entries went.
    fn unindex(&mut self, key: AssocKey, row: u32) -> usize {
        let removed = match key {
            AssocKey::Systrace(v) => self.by_systrace.remove_row(v, row),
            AssocKey::PseudoThread(v) => self.by_pseudo_thread.remove_row(v, row),
            AssocKey::XRequest(v) => self.by_x_request.remove_row(v, row),
            AssocKey::TcpSeq(v) => self.by_tcp_seq.remove_row(v, row),
            AssocKey::OtelTrace(v) => self.by_otel_trace.remove_row(v, row),
        };
        self.index_entries -= removed;
        removed
    }

    /// The index probe — Algorithm 1's `search_database` primitive: the
    /// rows sharing `key`, in insertion order, borrowed straight from the
    /// index (no per-probe allocation). Map a row to its span with
    /// [`SpanStore::span_at`] / [`SpanStore::id_at`].
    pub fn find(&self, key: AssocKey) -> &[u32] {
        match key {
            AssocKey::Systrace(v) => self.by_systrace.get(&v),
            AssocKey::PseudoThread(v) => self.by_pseudo_thread.get(&v),
            AssocKey::XRequest(v) => self.by_x_request.get(&v),
            AssocKey::TcpSeq(v) => self.by_tcp_seq.get(&v),
            AssocKey::OtelTrace(v) => self.by_otel_trace.get(&v),
        }
    }

    /// Append a time-index entry, tracking sortedness and the newest
    /// request time.
    fn push_time_entry(&mut self, ts: u64, row: u32) {
        self.newest_req = self.newest_req.max(Some(TimeNs(ts)));
        let idx = self.time_index.get_mut().expect("time index lock poisoned");
        if let Some((last, _)) = idx.entries.last() {
            if *last > ts {
                idx.sorted = false;
            }
        }
        idx.entries.push((ts, row));
    }

    /// Fetch by id (tier-aware: cold spans page in).
    pub fn get(&self, id: SpanId) -> Option<SpanRef<'_>> {
        let row = id.raw().checked_sub(1)?;
        self.span_at(u32::try_from(row).ok()?)
    }

    /// Number of spans.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Span-list query (time window + filters). Sorts the time index
    /// lazily under its lock, so concurrent readers share one sort.
    /// Tier-aware: the time index covers cold rows, which page in as
    /// they are materialised (tombstones are filtered by resident id
    /// first, so hidden cold rows cost nothing).
    ///
    /// Lock order: a cold row pages in through the buffer pool's lock
    /// while the time-index lock is held (`time_index -> inner` in
    /// `docs/LOCK_ORDER.txt`). That order cannot invert, because the pool
    /// never calls back into a store.
    pub fn query(&self, q: &SpanQuery) -> Vec<SpanRef<'_>> {
        let mut idx = self.time_index.lock().expect("time index lock poisoned");
        if !idx.sorted {
            idx.entries.sort_unstable();
            idx.sorted = true;
        }
        let start = match q.from {
            Some(f) => idx.entries.partition_point(|(ts, _)| *ts < f.as_nanos()),
            None => 0,
        };
        let mut out = Vec::new();
        for &(ts, row) in &idx.entries[start..] {
            if out.len() >= q.limit {
                break;
            }
            if let Some(t) = q.to {
                if ts >= t.as_nanos() {
                    break;
                }
            }
            let id = self.stored_id(row).expect("time-indexed row exists");
            if self.tombstones.contains(&id) {
                continue;
            }
            let span = self.span_at(row).expect("time-indexed row exists");
            if q.matches(&span) {
                out.push(span);
            }
        }
        out
    }

    /// Statistics.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            spans: self.rows.len(),
            index_entries: self.index_entries,
        }
    }

    /// Iterate all spans (diagnostics / persistence). Tier-aware: cold
    /// rows page in as the iterator reaches them.
    pub fn iter(&self) -> impl Iterator<Item = SpanRef<'_>> {
        (0..self.rows.len() as u32).map(|row| self.span_at(row).expect("row in range"))
    }

    /// Spill every hot, completed span with `req_time < watermark` to
    /// disk, one segment per one-second time bucket, flipping the rows
    /// cold.
    ///
    /// Ordering is the load-bearing part: every segment is written before
    /// any row flips Hot → Cold, so a cold slot can always page its bytes
    /// back in. The first failed write returns with no row flipped —
    /// segment files already written are orphans, and harmless. The
    /// writes run on the calling thread, and no reader sees a row
    /// mid-spill: this takes `&mut self`, and the sharded and concurrent
    /// stores call it through a write guard.
    ///
    /// Spill is content-neutral: indexes and row numbering are untouched,
    /// so probes, queries, and assembly see the same corpus (the tiered
    /// differential proptests pin this down). Incomplete spans stay hot
    /// so late responses can still merge ([`SpanStore::complete_span_row`]
    /// does not reach into the cold tier); tombstoned spans may spill —
    /// they are filtered by resident id either way.
    ///
    /// `shard` only namespaces the segment file names so shards sharing
    /// `dir` never collide.
    pub fn spill_before(
        &mut self,
        watermark: TimeNs,
        pool: &Arc<BufferPool>,
        dir: &Path,
        shard: u16,
    ) -> io::Result<SpillStats> {
        self.cold_reader.get_or_insert_with(|| Arc::clone(pool));
        // Group spillable hot rows by time bucket (BTreeMap: segments
        // come out in bucket order, deterministically).
        let mut buckets: BTreeMap<u64, Vec<u32>> = BTreeMap::new();
        for (row, slot) in self.rows.iter().enumerate() {
            let RowSlot::Hot(span) = slot else {
                continue;
            };
            if span.req_time >= watermark || span.status == SpanStatus::Incomplete {
                continue;
            }
            buckets
                .entry(bucket_of(span.req_time))
                .or_default()
                .push(row as u32);
        }

        // Step 1: encode and write each bucket's segment, one at a time.
        // Nothing has flipped yet, so a failure leaves the store fully hot.
        let mut written = Vec::with_capacity(buckets.len());
        let mut stats = SpillStats::default();
        for (bucket, rows) in buckets {
            let spans = rows.iter().map(|&row| match &self.rows[row as usize] {
                RowSlot::Hot(s) => &**s,
                RowSlot::Cold(_) => unreachable!("grouped rows are hot"),
            });
            let bytes = persist::encode_span_segment(spans, &rows);
            let segment = pool.alloc_segment();
            let path = dir.join(format!(
                "shard{shard:04}-b{bucket:012}-seg{segment:08}.dfspan"
            ));
            pool.scheduler().write(&path, &bytes)?;
            stats.bytes += bytes.len() as u64;
            written.push((segment, path, rows));
        }

        // Step 2: every segment is on disk — register them and flip the
        // rows cold. Only now can a reader observe a Cold slot.
        for (segment, path, rows) in written {
            pool.register(segment, path);
            for (offset, &row) in rows.iter().enumerate() {
                let slot = &mut self.rows[row as usize];
                let RowSlot::Hot(span) = slot else {
                    unreachable!("spilled rows are hot until the flip");
                };
                let cold = ColdRef {
                    segment,
                    offset: offset as u32,
                    span_id: span.span_id,
                    req_time: span.req_time,
                };
                *slot = RowSlot::Cold(cold);
                self.cold_count += 1;
                stats.spans += 1;
            }
            stats.segments += 1;
        }
        Ok(stats)
    }

    /// Crash recovery: rebuild this (empty) store from the DFSPANS1
    /// segments a previous incarnation spilled for `shard` under `dir`.
    ///
    /// Every candidate file the catalog scan names is read and decoded
    /// through the pool's one loader; a file that does not decode (torn,
    /// truncated, padded, foreign version, garbage) is counted in
    /// [`RecoverStats::rejected_segments`] and skipped — recovery never
    /// panics on bad input. Each valid segment is re-registered under a
    /// fresh [`SegmentId`], and its rows rebuilt as cold slots at their
    /// original row numbers. Only the contiguous prefix from row 0 is
    /// adopted (rows beyond a gap — possible if a middle bucket's
    /// segment was lost — are counted as orphans and left for
    /// anti-entropy to re-pull, keeping the row-contiguity contract the
    /// reorder buffer relies on). Association and time indexes are
    /// rebuilt from the decoded spans with the same logic as hot ingest,
    /// so probe results are identical to a store that never crashed.
    pub fn recover_cold_segments(
        &mut self,
        pool: &Arc<BufferPool>,
        dir: &Path,
        shard: u16,
    ) -> io::Result<RecoverStats> {
        assert!(
            self.is_empty(),
            "recovery rebuilds a fresh store; refusing to splice into live rows"
        );
        let mut stats = RecoverStats::default();
        // Original row → (segment, offset, span). BTreeMap so the
        // contiguous-prefix walk below is ordered.
        let mut recovered: BTreeMap<u32, (SegmentId, u32, Span)> = BTreeMap::new();
        for path in persist::scan_span_segments(dir, shard)? {
            let Ok(seg) = pool.load(&path) else {
                stats.rejected_segments += 1;
                continue;
            };
            let segment = pool.alloc_segment();
            pool.register(segment, path);
            stats.segments += 1;
            for (offset, (row, span)) in seg.rows.iter().copied().zip(seg.spans).enumerate() {
                recovered
                    .entry(row)
                    .or_insert((segment, offset as u32, span));
            }
        }
        // Adopt the contiguous prefix from row 0.
        let mut next = 0u32;
        for &row in recovered.keys() {
            if row == next {
                next += 1;
            } else {
                break;
            }
        }
        stats.orphan_rows = recovered.len() - next as usize;
        stats.rows = next as usize;
        for row in 0..next {
            let (segment, offset, span) = recovered.remove(&row).expect("row in prefix");
            let cold = ColdRef {
                segment,
                offset,
                span_id: span.span_id,
                req_time: span.req_time,
            };
            span.for_each_assoc_key(|key| self.index(key, row));
            self.push_time_entry(span.req_time.as_nanos(), row);
            self.rows.push(RowSlot::Cold(cold));
            self.cold_count += 1;
        }
        self.cold_reader = Some(Arc::clone(pool));
        Ok(stats)
    }
}

// Interior-mutability audit (the concurrent sharded store shares shards
// across threads): the only interior mutability in `SpanStore` is the
// lazily-sorted time index behind its `Mutex` — every other field is
// mutated through `&mut self` only. `SpanStore` is therefore `Send + Sync`
// by composition, and the concurrent store may hand `&SpanStore` to scoped
// probe threads while a worker thread owns the `&mut` side behind an
// `RwLock`. The assertion makes that load-bearing property a compile error
// to lose (e.g. by adding a `Cell` or `Rc` field).
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<SpanStore>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use df_types::ids::*;
    use df_types::span::TapSide;
    use df_types::AssocKind;

    fn span(req_ns: u64) -> Span {
        Span::synthetic(TapSide::ClientProcess, req_ns, req_ns + 1000)
    }

    #[test]
    fn insert_assigns_sequential_ids_and_get_works() {
        let mut st = SpanStore::new();
        let a = st.insert(span(100));
        let b = st.insert(span(200));
        assert_eq!(a, SpanId(1));
        assert_eq!(b, SpanId(2));
        assert_eq!(st.get(a).unwrap().req_time, TimeNs(100));
        assert!(st.get(SpanId(99)).is_none());
        assert!(st.get(SpanId(0)).is_none());
    }

    #[test]
    fn edits_count_tombstones_completions_and_evictions_only() {
        let mut st = SpanStore::new();
        let mut request = span(100);
        request.status = SpanStatus::Incomplete;
        let (a, b) = (st.insert(request), st.insert(span(200)));
        assert!(!st.complete_span(b, &span(300)), "b is not Incomplete");
        assert_eq!(st.evict_tombstoned(), 0);
        assert_eq!(
            st.edits(),
            0,
            "inserts, a refused completion, an idle eviction"
        );
        assert!(st.complete_span(a, &span(300)));
        assert_eq!(st.edits(), 1);
        st.tombstone(b);
        st.tombstone(b);
        assert_eq!(st.edits(), 2, "a repeated tombstone is not an edit");
        st.tombstone(SpanId(99));
        assert_eq!(st.edits(), 3, "an unknown id is hidden all the same");
        st.evict_tombstoned();
        assert_eq!(st.edits(), 4, "the eviction drained b's row");
        let dir = persist::test_dir("edits");
        let pool = Arc::new(BufferPool::new(crate::BufferPoolConfig::with_frames(2)));
        st.spill_before(TimeNs(u64::MAX), &pool, dir.path(), 0)
            .expect("spill succeeds");
        assert!(
            st.cold_rows() > 0 && st.get(a).is_some(),
            "spilled and paged in"
        );
        assert_eq!(st.edits(), 4, "spill and page-in are content-neutral");
    }

    /// The running max agrees with a walk over every row — hot, cold,
    /// tombstoned and evicted, recovered — and eviction never lowers it.
    #[test]
    fn newest_req_time_is_the_max_over_every_row() {
        let walk = |st: &SpanStore| st.iter().map(|s| s.req_time).max();
        let mut st = SpanStore::new();
        assert_eq!((st.newest_req_time(), walk(&st)), (None, None));
        let ids = st.insert_batch([300u64, 900, 100, 500].map(span).to_vec());
        assert_eq!(st.newest_req_time(), Some(TimeNs(900)));
        let dir = persist::test_dir("newest");
        let pool = Arc::new(BufferPool::new(crate::BufferPoolConfig::with_frames(1)));
        st.spill_before(TimeNs(1_000), &pool, dir.path(), 0)
            .expect("spill succeeds");
        st.tombstone(ids[1]);
        st.evict_tombstoned();
        st.insert(span(200));
        assert_eq!(st.cold_rows(), 4);
        assert_eq!(st.newest_req_time(), Some(TimeNs(900)));
        assert_eq!(st.newest_req_time(), walk(&st));
        let mut revived = SpanStore::new();
        revived
            .recover_cold_segments(&pool, dir.path(), 0)
            .expect("recovery succeeds");
        assert_eq!(revived.newest_req_time(), Some(TimeNs(900)));
        assert_eq!(revived.newest_req_time(), walk(&revived));
    }

    #[test]
    fn insert_batch_matches_sequential_inserts() {
        let mut a = SpanStore::new();
        let mut b = SpanStore::new();
        let spans: Vec<Span> = [500u64, 100, 300].iter().map(|&t| span(t)).collect();
        let batch_ids = a.insert_batch(spans.clone());
        let one_ids: Vec<SpanId> = spans.into_iter().map(|s| b.insert(s)).collect();
        assert_eq!(batch_ids, one_ids);
        assert_eq!(a.len(), b.len());
        let q = SpanQuery::window(TimeNs(0), TimeNs(1000));
        let ta: Vec<u64> = a.query(&q).iter().map(|s| s.req_time.as_nanos()).collect();
        let tb: Vec<u64> = b.query(&q).iter().map(|s| s.req_time.as_nanos()).collect();
        assert_eq!(ta, tb);
        assert_eq!(ta, vec![100, 300, 500]);
    }

    #[test]
    fn time_window_query() {
        let mut st = SpanStore::new();
        for t in [100u64, 200, 300, 400, 500] {
            st.insert(span(t));
        }
        let got = st.query(&SpanQuery::window(TimeNs(200), TimeNs(401)));
        assert_eq!(got.len(), 3);
        assert!(got.iter().all(|s| s.req_time >= TimeNs(200)));
    }

    #[test]
    fn out_of_order_insert_still_queries_correctly() {
        let mut st = SpanStore::new();
        for t in [500u64, 100, 300, 200, 400] {
            st.insert(span(t));
        }
        // Query through a shared reference: lazy sort happens internally.
        let st = &st;
        let got = st.query(&SpanQuery::window(TimeNs(150), TimeNs(450)));
        let times: Vec<u64> = got.iter().map(|s| s.req_time.as_nanos()).collect();
        assert_eq!(times, vec![200, 300, 400]);
    }

    #[test]
    fn filters_compose() {
        let mut st = SpanStore::new();
        let mut err = span(100);
        err.status = SpanStatus::ServerError;
        err.endpoint = "GET /broken".to_string();
        st.insert(err);
        st.insert(span(110));
        let q = SpanQuery {
            errors_only: true,
            limit: usize::MAX,
            ..Default::default()
        };
        let got = st.query(&q);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].endpoint, "GET /broken");
    }

    #[test]
    fn limit_caps_results() {
        let mut st = SpanStore::new();
        for t in 0..100u64 {
            st.insert(span(t));
        }
        let q = SpanQuery {
            limit: 7,
            ..Default::default()
        };
        assert_eq!(st.query(&q).len(), 7);
        let none = SpanQuery { limit: 0, ..q };
        assert!(st.query(&none).is_empty(), "a zero cap returns nothing");
    }

    #[test]
    fn association_indexes_resolve() {
        let mut st = SpanStore::new();
        let mut a = span(100);
        a.systrace_id_req = Some(SysTraceId(7));
        a.tcp_seq_req = Some(4242);
        let mut b = span(120);
        b.systrace_id_resp = Some(SysTraceId(7));
        b.x_request_id_req = Some(XRequestId(99));
        let mut c = span(140);
        c.otel_trace_id = Some(OtelTraceId(1234));
        c.tcp_seq_resp = Some(4242);
        let ia = st.insert(a);
        let ib = st.insert(b);
        let ic = st.insert(c);

        let ids =
            |rows: &[u32]| -> Vec<SpanId> { rows.iter().map(|&r| SpanStore::id_at(r)).collect() };
        assert_eq!(ids(st.find(AssocKey::Systrace(7))), vec![ia, ib]);
        assert_eq!(ids(st.find(AssocKey::TcpSeq(4242))), vec![ia, ic]);
        assert_eq!(ids(st.find(AssocKey::XRequest(99))), vec![ib]);
        assert_eq!(ids(st.find(AssocKey::OtelTrace(1234))), vec![ic]);
        assert!(st.find(AssocKey::Systrace(999)).is_empty());
        // The running entry count equals the walked sum over every key.
        let walked = st.find(AssocKey::Systrace(7)).len()
            + st.find(AssocKey::TcpSeq(4242)).len()
            + st.find(AssocKey::XRequest(99)).len()
            + st.find(AssocKey::OtelTrace(1234)).len();
        assert_eq!((st.stats().index_entries, walked), (6, 6));
    }

    #[test]
    fn same_value_req_and_resp_not_double_indexed() {
        let mut st = SpanStore::new();
        let mut a = span(100);
        a.tcp_seq_req = Some(5);
        a.tcp_seq_resp = Some(5);
        let id = st.insert(a);
        assert_eq!(st.find(AssocKey::TcpSeq(5)), &[0]);

        // The re-aggregation path gets the same dedup: completing an
        // Incomplete span with a response that repeats the request-side
        // values must not index the row a second time.
        let mut req_half = span(200);
        req_half.status = SpanStatus::Incomplete;
        req_half.tcp_seq_req = Some(9);
        req_half.systrace_id_req = Some(SysTraceId(31));
        let inc = st.insert(req_half);
        let mut resp_half = span(250);
        resp_half.status = SpanStatus::ResponseOnly;
        resp_half.tcp_seq_resp = Some(9);
        resp_half.systrace_id_resp = Some(SysTraceId(31));
        resp_half.x_request_id_resp = Some(XRequestId(77));
        assert!(st.complete_span(inc, &resp_half));
        let inc_row = (inc.raw() - 1) as u32;
        assert_eq!(
            st.find(AssocKey::TcpSeq(9)),
            &[inc_row],
            "resp seq == req seq"
        );
        assert_eq!(
            st.find(AssocKey::Systrace(31)),
            &[inc_row],
            "resp systrace == req systrace"
        );
        // A genuinely new response-side value still gets indexed once.
        assert_eq!(st.find(AssocKey::XRequest(77)), &[inc_row]);
        let _ = id;
    }

    #[test]
    fn evicted_rows_disappear_from_find_by_probes() {
        let mut st = SpanStore::new();
        let mut a = span(100);
        a.systrace_id_req = Some(SysTraceId(7));
        a.tcp_seq_req = Some(42);
        a.x_request_id_req = Some(XRequestId(9));
        a.otel_trace_id = Some(OtelTraceId(3));
        a.pseudo_thread_id = Some(PseudoThreadId(5));
        let ia = st.insert(a);
        let mut b = span(200);
        b.systrace_id_req = Some(SysTraceId(7));
        let ib = st.insert(b);

        st.tombstone(ia);
        assert_eq!(st.pending_evictions(), 1);
        // Before eviction the probes still return the tombstoned row
        // (filtered by the callers).
        assert_eq!(st.find(AssocKey::Systrace(7)).len(), 2);
        let removed = st.evict_tombstoned();
        assert_eq!(removed, 5, "one entry per indexed attribute");
        assert_eq!(st.pending_evictions(), 0);
        // The shared bucket kept the live row; exclusive buckets vanished.
        let ib_row = (ib.raw() - 1) as u32;
        assert_eq!(st.find(AssocKey::Systrace(7)), &[ib_row]);
        assert!(st.find(AssocKey::TcpSeq(42)).is_empty());
        assert!(st.find(AssocKey::XRequest(9)).is_empty());
        assert!(st.find(AssocKey::OtelTrace(3)).is_empty());
        assert!(st.find(AssocKey::PseudoThread(5)).is_empty());
        // The span itself is still retrievable (tombstone ≠ delete), still
        // tombstoned, and gone from time-window queries.
        assert!(st.get(ia).is_some());
        assert!(st.is_tombstoned(ia));
        let q = SpanQuery::window(TimeNs(0), TimeNs(1000));
        assert_eq!(st.query(&q).len(), 1);
        // Eviction is idempotent.
        assert_eq!(st.evict_tombstoned(), 0);
    }

    #[test]
    fn eviction_dedups_req_resp_shared_values() {
        // A span indexed once for seq 5 (req == resp) must release exactly
        // that one entry.
        let mut st = SpanStore::new();
        let mut a = span(100);
        a.tcp_seq_req = Some(5);
        a.tcp_seq_resp = Some(5);
        let id = st.insert(a);
        st.tombstone(id);
        // req and resp both point at the same bucket entry; the second
        // sweep finds the bucket already gone.
        assert_eq!(st.evict_tombstoned(), 1);
        assert!(st.find(AssocKey::TcpSeq(5)).is_empty());
    }

    #[test]
    fn insert_routed_batch_matches_per_span_routed_inserts() {
        let mut one = SpanStore::new();
        let mut bulk = SpanStore::new();
        let spans: Vec<Span> = [500u64, 100, 300]
            .iter()
            .enumerate()
            .map(|(i, &t)| {
                let mut s = span(t);
                s.span_id = SpanId(i as u64 + 10);
                s.tcp_seq_req = Some(77);
                s
            })
            .collect();
        let rows: Vec<u32> = spans
            .iter()
            .cloned()
            .map(|s| one.insert_routed(Arc::new(s)))
            .collect();
        let first = bulk.insert_routed_batch(spans);
        assert_eq!(first, 0);
        assert_eq!(rows, vec![0, 1, 2], "rows are contiguous");
        assert_eq!(one.len(), bulk.len());
        assert_eq!(
            one.find(AssocKey::TcpSeq(77)),
            bulk.find(AssocKey::TcpSeq(77))
        );
        let q = SpanQuery::window(TimeNs(0), TimeNs(1000));
        let ta: Vec<u64> = one
            .query(&q)
            .iter()
            .map(|s| s.req_time.as_nanos())
            .collect();
        let tb: Vec<u64> = bulk
            .query(&q)
            .iter()
            .map(|s| s.req_time.as_nanos())
            .collect();
        assert_eq!(ta, tb);
    }

    #[test]
    fn pod_filter_uses_smart_encoded_tag() {
        let mut st = SpanStore::new();
        let mut a = span(100);
        a.tags.resource.pod_id = Some(42);
        st.insert(a);
        st.insert(span(100));
        let q = SpanQuery {
            pod_id: Some(42),
            limit: usize::MAX,
            ..Default::default()
        };
        assert_eq!(st.query(&q).len(), 1);
    }

    /// A span whose only association key is of `kind`: `req` on the request
    /// side, `resp` on the response side. The single-valued kinds have one
    /// field, which takes whichever is given.
    fn carrying(kind: AssocKind, req: Option<u32>, resp: Option<u32>) -> Span {
        let mut s = span(100);
        match kind {
            AssocKind::Systrace => {
                s.systrace_id_req = req.map(|v| SysTraceId(v.into()));
                s.systrace_id_resp = resp.map(|v| SysTraceId(v.into()));
            }
            AssocKind::PseudoThread => {
                s.pseudo_thread_id = req.or(resp).map(|v| PseudoThreadId(v.into()));
            }
            AssocKind::XRequest => {
                s.x_request_id_req = req.map(|v| XRequestId(v.into()));
                s.x_request_id_resp = resp.map(|v| XRequestId(v.into()));
            }
            AssocKind::TcpSeq => (s.tcp_seq_req, s.tcp_seq_resp) = (req, resp),
            AssocKind::OtelTrace => s.otel_trace_id = req.or(resp).map(|v| OtelTraceId(v.into())),
        }
        s
    }

    #[test]
    fn every_key_kind_is_indexed_found_and_evicted_once() {
        for kind in AssocKey::KINDS {
            let key = |v: u32| kind.key(v.into()).expect("a u32 fits every kind");
            let mut st = SpanStore::new();
            // Request side only, response side only, one value on both:
            // each row is found once under its value.
            let sides = [(Some(1), None), (None, Some(2)), (Some(3), Some(3))];
            for (row, (req, resp)) in sides.into_iter().enumerate() {
                st.insert(carrying(kind, req, resp));
                let value = req.or(resp).expect("one side is set");
                assert_eq!(st.find(key(value)), &[row as u32], "{kind:?}");
            }
            assert_eq!(st.stats().index_entries, 3, "{kind:?}");

            // A late response indexes its value once — not at all when the
            // request side already brought it. (A kind without a response
            // side has nothing for a late response to bring.)
            let mut indexed = 3;
            let mut sides = 0;
            carrying(kind, Some(8), Some(9)).for_each_assoc_key(|_| sides += 1);
            if sides == 2 {
                for (row, late) in [(3, 4), (4, 5)] {
                    let mut request = carrying(kind, Some(4), None);
                    request.status = SpanStatus::Incomplete;
                    let id = st.insert(request);
                    assert!(st.complete_span(id, &carrying(kind, None, Some(late))));
                    assert_eq!(st.find(key(late)).iter().filter(|&&r| r == row).count(), 1);
                }
                assert_eq!(st.find(key(4)), &[3, 4], "{kind:?}");
                assert_eq!(st.find(key(5)), &[4], "{kind:?}");
                indexed += 3;
            }
            assert_eq!(st.stats().index_entries, indexed, "{kind:?}");

            // Eviction takes out exactly what was indexed.
            for row in 0..st.len() as u32 {
                st.tombstone(SpanStore::id_at(row));
            }
            assert_eq!(st.evict_tombstoned(), indexed, "{kind:?}");
            assert_eq!(st.stats().index_entries, 0, "{kind:?}");
            assert!((1..=5).all(|v| st.find(key(v)).is_empty()), "{kind:?}");
        }
    }
}
