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
//! never allocates per probe. The writers keep the time index sorted (a
//! batch merges its run in once, at its end), so `query` borrows it
//! through a shared reference: read paths (span list, trace assembly)
//! never need `&mut SpanStore`, and the store has no lock.
//!
//! # Hot/cold tiering
//!
//! A row is either **hot** (the [`Span`] lives in memory, behind an
//! `Arc`) or **cold** (the span was spilled to a disk segment by
//! [`SpanStore::spill_before`] and only its address — segment id and
//! in-segment offset — remains resident). Either way the row slot is 16
//! bytes, and tombstones are a bitset over rows, so no filter reads a span
//! to hide it.
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
use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::ops::Deref;
use std::path::Path;
use std::sync::Arc;

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
/// words, so a span list moves pointers, not 560-byte `Span`s.
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

/// `(req_time_ns, row)` pairs, sorted up to `settled`. An append in order
/// is settled as it lands; a batch settles the rest of its run
/// ([`TimeIndex::settle`]) before it returns.
#[derive(Debug, Default)]
struct TimeIndex {
    entries: Vec<(u64, u32)>,
    /// Length of the sorted prefix: the entries past it await a settle.
    settled: usize,
}

/// Entries [`merge_runs`] buffers per step, on the stack (8 KiB).
const MERGE_CHUNK: usize = 512;

impl TimeIndex {
    /// Append `entry`, settled at once if nothing is pending and it sorts
    /// last.
    fn push(&mut self, entry: (u64, u32)) {
        let in_order = self.settled == self.entries.len()
            && self.entries.last().is_none_or(|&last| last <= entry);
        self.entries.push(entry);
        self.settled += usize::from(in_order);
    }

    /// Sort the entries appended since the last settle, then merge them
    /// into place. The merge touches only the suffix from the first settled
    /// entry later than the new run's earliest, so in-order ingest merges
    /// nothing. Neither step allocates: a stable sort's scratch buffer
    /// would cost ingest an allocation per out-of-order batch.
    fn settle(&mut self) {
        let settled = std::mem::replace(&mut self.settled, self.entries.len());
        let fresh = &mut self.entries[settled..];
        fresh.sort_unstable();
        let Some(&earliest) = fresh.first() else {
            return;
        };
        let from = self.entries[..settled].partition_point(|&e| e < earliest);
        merge_runs(&mut self.entries[from..], settled - from);
    }
}

/// Merge the sorted runs `v[..mid]` and `v[mid..]` in place, with a
/// fixed stack buffer. Each step takes the right run's last chunk `C` and
/// the left run's entries above `C`'s first (`H`): it rotates `H` past the
/// rest of the right run, merges `H` and `C` backward into the tail, and
/// goes on with what is left before them. A step moves `H`, `C` and the
/// right run's remainder once, so merging `b` new entries into `a` costs
/// about `a + b²/(2·MERGE_CHUNK)` moves.
fn merge_runs(v: &mut [(u64, u32)], mut mid: usize) {
    let mut end = v.len();
    while 0 < mid && mid < end {
        let mut buf = [(0u64, 0u32); MERGE_CHUNK];
        let chunk = (end - mid).min(MERGE_CHUNK);
        let c = end - chunk;
        let high = v[..mid].partition_point(|&e| e < v[c]);
        v[high..c].rotate_left(mid - high);
        let h = c - (mid - high);
        buf[..chunk].copy_from_slice(&v[c..end]);
        let (mut i, mut j) = (c, chunk);
        while j > 0 {
            end -= 1;
            if i > h && v[i - 1] > buf[j - 1] {
                i -= 1;
                v[end] = v[i];
            } else {
                j -= 1;
                v[end] = buf[j];
            }
        }
        (mid, end) = (high, h);
    }
}

/// One row slot: the span, shared with every trace that holds it, or the
/// address of a spilled span in the cold tier. The fields are the
/// variant's own, not a struct's, so they pack beside the tag.
#[derive(Debug, Clone)]
enum RowSlot {
    Hot(Arc<Span>),
    Cold {
        /// Segment holding the span.
        segment: SegmentId,
        /// Offset of the span within the segment's span section.
        offset: u32,
    },
}

// A slot is paid per stored row, hot or cold.
const _: () = assert!(std::mem::size_of::<RowSlot>() <= 16);

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
    /// its segment address, not a full `Span` footprint, and a trace
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
    time_index: TimeIndex,
    /// Rows consumed by server-side re-aggregation, one bit per row;
    /// hidden from queries.
    tombstones: Vec<u64>,
    /// Ids tombstoned while no row held them (the standalone regime's
    /// [`SpanStore::tombstone`]): hidden all the same, and a row later
    /// inserted under one is born tombstoned.
    unknown_tombstones: BTreeSet<SpanId>,
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
            &RowSlot::Cold { segment, offset } => {
                Some(SpanRef::Owned(Box::new(self.page_in(segment, offset))))
            }
        }
    }

    /// The span at `row`, shared: a hot row costs a reference count, a
    /// cold row the one copy [`SpanStore::span_at`] pages in. Panics as
    /// [`SpanStore::span_at`] does.
    pub fn shared_at(&self, row: u32) -> Option<Arc<Span>> {
        match self.rows.get(row as usize)? {
            RowSlot::Hot(s) => Some(Arc::clone(s)),
            &RowSlot::Cold { segment, offset } => Some(Arc::new(self.page_in(segment, offset))),
        }
    }

    /// A copy of the cold row at `offset` of `segment`, read through the
    /// attached pool.
    fn page_in(&self, segment: SegmentId, offset: u32) -> Span {
        let pool = self.cold_reader.as_ref();
        let pool = pool.expect("cold rows require an attached cold reader");
        pool.read_span(segment, offset)
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
        self.own_row(id)
            .is_some_and(|row| self.complete_span_row(row, resp))
    }

    /// The row a standalone store assigned `id` to, if it holds one.
    fn own_row(&self, id: SpanId) -> Option<u32> {
        let row = u32::try_from(id.raw().checked_sub(1)?).ok()?;
        ((row as usize) < self.rows.len()).then_some(row)
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
        match self.own_row(id) {
            Some(row) => self.tombstone_row(row),
            // Unknown id: hide it anyway (idempotent), nothing to evict.
            None => {
                if self.unknown_tombstones.insert(id) {
                    self.edits += 1;
                }
            }
        }
    }

    /// Row-addressed [`SpanStore::tombstone`] for stores whose ids were
    /// assigned externally (see the type-level docs on id regimes).
    pub fn tombstone_row(&mut self, row: u32) {
        if (row as usize) < self.rows.len() && self.set_tombstone_bit(row) {
            self.pending_evict.push(row);
            self.edits += 1;
        }
    }

    /// Set `row`'s tombstone bit; whether it was clear.
    fn set_tombstone_bit(&mut self, row: u32) -> bool {
        let (word, bit) = ((row / 64) as usize, 1u64 << (row % 64));
        if self.tombstones.len() <= word {
            self.tombstones.resize(word + 1, 0);
        }
        let was_clear = self.tombstones[word] & bit == 0;
        self.tombstones[word] |= bit;
        was_clear
    }

    /// Whether the span a standalone store holds (or once was asked to
    /// hide) under `id` is tombstoned. A shard of a sharded corpus is
    /// asked by row: [`SpanStore::is_tombstoned_row`].
    pub fn is_tombstoned(&self, id: SpanId) -> bool {
        match self.own_row(id) {
            Some(row) => self.is_tombstoned_row(row),
            None => self.unknown_tombstones.contains(&id),
        }
    }

    /// Whether `row` is tombstoned: one bit, whatever the row's tier.
    #[inline]
    pub fn is_tombstoned_row(&self, row: u32) -> bool {
        bit(&self.tombstones, row)
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
        let idx = &mut self.time_index;
        idx.settle();
        idx.entries.retain(|&(_, row)| !bit(&self.tombstones, row));
        idx.settled = idx.entries.len();
        removed
    }

    /// Insert a span, assigning its id. Returns the id. A span older than
    /// the newest indexed one leaves its time-index entry unsettled (see
    /// [`SpanStore::query`]) until a batch write or [`SpanStore::settle`]:
    /// merging one entry costs a move of every later one.
    pub fn insert(&mut self, mut span: Span) -> SpanId {
        let row = self.rows.len() as u32;
        let id = Self::id_at(row);
        span.span_id = id;
        self.index_and_push(Arc::new(span));
        if self.unknown_tombstones.remove(&id) {
            self.set_tombstone_bit(row);
        }
        id
    }

    /// Insert a span that already carries an externally assigned id (one
    /// shard of a sharded corpus — the owner maps that id to the returned
    /// row). The span is indexed exactly like [`SpanStore::insert`]; only
    /// id assignment is skipped. The `Arc` is the row: the owner allocates
    /// it once, as the span leaves its decoded batch, and it is never
    /// copied again. Settles like [`SpanStore::insert`]: an owner routing
    /// a batch one span at a time calls [`SpanStore::settle`] at its end.
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
    pub fn insert_routed_batch(&mut self, spans: Vec<Arc<Span>>) -> u32 {
        let first = self.rows.len() as u32;
        self.reserve(spans.len());
        for span in spans {
            self.index_and_push(span);
        }
        self.time_index.settle();
        first
    }

    /// Insert a batch (what an agent ships per flush). Index maintenance is
    /// append-only, and the time index is settled once, at the end.
    pub fn insert_batch(&mut self, spans: Vec<Span>) -> Vec<SpanId> {
        self.reserve(spans.len());
        let ids = spans.into_iter().map(|span| self.insert(span)).collect();
        self.time_index.settle();
        ids
    }

    /// Merge the time-index entries single-span inserts left unsettled;
    /// every batch write settles itself.
    pub fn settle(&mut self) {
        self.time_index.settle();
    }

    /// Make room for `n` more rows and time-index entries.
    fn reserve(&mut self, n: usize) {
        self.rows.reserve(n);
        self.time_index.entries.reserve(n);
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

    /// Append a time-index entry, tracking the newest request time.
    fn push_time_entry(&mut self, ts: u64, row: u32) {
        self.newest_req = self.newest_req.max(Some(TimeNs(ts)));
        self.time_index.push((ts, row));
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

    /// Span-list query (time window + filters), over the time index its
    /// writers sorted. Tier-aware: the time index covers cold rows, which
    /// page in as they are materialised, each under the buffer pool's lock
    /// alone (tombstones are filtered by their row bit first, so hidden
    /// cold rows cost nothing). While single-span inserts have left
    /// entries unsettled, the query scans every row and sorts its answer.
    pub fn query(&self, q: &SpanQuery) -> Vec<SpanRef<'_>> {
        let idx = &self.time_index;
        if idx.settled < idx.entries.len() {
            return self.query_unsettled(q);
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
            if self.is_tombstoned_row(row) {
                continue;
            }
            let span = self.span_at(row).expect("time-indexed row exists");
            if q.matches(&span) {
                out.push(span);
            }
        }
        out
    }

    /// [`SpanStore::query`] while single-span inserts have left entries
    /// unsettled: every live row that matches, sorted as the index lists.
    #[cold]
    fn query_unsettled(&self, q: &SpanQuery) -> Vec<SpanRef<'_>> {
        let live = (0..self.rows.len() as u32).filter(|&row| !self.is_tombstoned_row(row));
        let spans = live.map(|row| self.span_at(row).expect("row in range"));
        let mut out: Vec<_> = spans.filter(|span| q.matches(span)).collect();
        out.sort_by_key(|s| (s.req_time, s.span_id));
        out.truncate(q.limit);
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
    /// they are filtered by their row bit either way.
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
                RowSlot::Cold { .. } => unreachable!("grouped rows are hot"),
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
                let offset = offset as u32;
                self.rows[row as usize] = RowSlot::Cold { segment, offset };
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
            span.for_each_assoc_key(|key| self.index(key, row));
            self.push_time_entry(span.req_time.as_nanos(), row);
            self.rows.push(RowSlot::Cold { segment, offset });
            self.cold_count += 1;
        }
        self.time_index.settle();
        self.cold_reader = Some(Arc::clone(pool));
        Ok(stats)
    }
}

/// Bit `row` of a row bitset.
#[inline]
fn bit(words: &[u64], row: u32) -> bool {
    (words.get((row / 64) as usize)).is_some_and(|w| w >> (row % 64) & 1 == 1)
}

// Interior-mutability audit (the concurrent sharded store shares shards
// across threads): `SpanStore` has none — every field, the time index
// included, is mutated through `&mut self` only. `SpanStore` is therefore
// `Send + Sync` by composition, and the concurrent store may hand
// `&SpanStore` to scoped probe threads while a worker thread owns the
// `&mut` side behind an `RwLock`. The assertion makes that load-bearing
// property a compile error to lose (e.g. by adding a `Cell` or `Rc`
// field).
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

    /// Tombstones are a bit per row: they hide rows across a word boundary
    /// through eviction and spill (a hidden cold row is filtered without a
    /// page-in), and recovery rebuilds rows, not tombstones. An id no row
    /// holds is hidden all the same, once, and a row later stored under
    /// it is born hidden.
    #[test]
    fn tombstone_bits_survive_evict_and_spill_and_recovery_starts_clear() {
        let mut st = SpanStore::new();
        let ids = st.insert_batch((0..130u64).map(|t| span(t * 10)).collect());
        let hidden = [0usize, 63, 64, 129];
        for &i in &hidden {
            st.tombstone(ids[i]);
        }
        let visible = |st: &SpanStore| {
            let q = SpanQuery::window(TimeNs(0), TimeNs(u64::MAX));
            st.query(&q).iter().map(|s| s.span_id).collect::<Vec<_>>()
        };
        let want: Vec<SpanId> = (ids.iter().enumerate())
            .filter(|(i, _)| !hidden.contains(i))
            .map(|(_, &id)| id)
            .collect();
        assert_eq!(visible(&st), want);
        assert!(ids.iter().enumerate().all(|(i, &id)| {
            st.is_tombstoned(id) == hidden.contains(&i)
                && st.is_tombstoned_row(i as u32) == hidden.contains(&i)
        }));
        assert_eq!(st.evict_tombstoned(), 0, "the synthetic spans index no key");
        assert_eq!((st.pending_evictions(), visible(&st)), (0, want.clone()));

        let dir = persist::test_dir("tombstone-bits");
        let pool = Arc::new(BufferPool::new(crate::BufferPoolConfig::with_frames(4)));
        st.spill_before(TimeNs(u64::MAX), &pool, dir.path(), 0)
            .expect("spill succeeds");
        assert_eq!(st.cold_rows(), 130);
        assert!(hidden.iter().all(|&i| st.is_tombstoned(ids[i])));
        let first = SpanQuery::window(TimeNs(0), TimeNs(1));
        assert!(st.query(&first).is_empty(), "row 0 is hidden");
        assert_eq!(pool.stats().misses, 0, "and filtered without a page-in");
        assert_eq!(visible(&st), want);

        let mut revived = SpanStore::new();
        revived
            .recover_cold_segments(&pool, dir.path(), 0)
            .expect("recovery succeeds");
        assert_eq!(visible(&revived), ids, "recovery rebuilds rows only");

        let mut st = SpanStore::new();
        st.insert_batch(vec![span(100), span(200)]);
        let edits = st.edits();
        st.tombstone(SpanId(4));
        st.tombstone(SpanId(4));
        assert_eq!(st.edits(), edits + 1, "an unknown id is hidden once");
        assert!(st.is_tombstoned(SpanId(4)) && !st.is_tombstoned(SpanId(3)));
        st.insert_batch(vec![span(300), span(400)]);
        assert!(st.is_tombstoned(SpanId(4)) && st.is_tombstoned_row(3));
        let times: Vec<u64> = (st
            .query(&SpanQuery::window(TimeNs(0), TimeNs(1_000)))
            .iter())
        .map(|s| s.req_time.as_nanos())
        .collect();
        assert_eq!(times, [100, 200, 300], "the row stored under it is hidden");
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
        // Out-of-order single inserts: the query scans the unsettled rows.
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

    /// Settling merges each batch into the index as one sort of the whole
    /// index would order it: batches in order, overlapping, entirely
    /// earlier, and longer than the merge's stack chunk.
    #[test]
    fn settle_orders_the_index_as_a_full_sort_would() {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut idx = TimeIndex::default();
        let batches = [
            (0, 1_000),
            (900, 200),
            (0, 3 * MERGE_CHUNK + 7),
            (5_000, 50),
        ];
        for (base, len) in batches {
            for _ in 0..len {
                let row = idx.entries.len() as u32;
                idx.push((base + next() % 2_000, row));
            }
            idx.settle();
            let mut want = idx.entries.clone();
            want.sort_unstable();
            assert_eq!(idx.entries, want, "after a batch of {len} from {base}");
        }
        idx.settle();
        assert_eq!(idx.settled, idx.entries.len(), "an empty settle");
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
        let first = bulk.insert_routed_batch(spans.into_iter().map(Arc::new).collect());
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
