//! [`ConcurrentShardedStore`] — the shard boundary taken across threads.
//!
//! Each shard is an independently locked unit owned by a **per-shard
//! ingest worker thread**, so index apply runs on the workers while
//! producers decode and route the next batch, and queries run
//! concurrently against a consistent snapshot — mirroring how the paper's
//! collector keeps absorbing agent traffic while Algorithm 1 assembles on
//! demand (§5).
//!
//! ## Topology
//!
//! ```text
//!  producers (any thread, &self)        per-shard workers (owned threads)
//!  ───────────────────────────          ───────────────────────────────
//!  insert_batch ─┬─ route/ids ──► bounded MPSC ──► worker 0 ──► SpanStore 0 (RwLock)
//!                ├───────────────► bounded MPSC ──► worker 1 ──► SpanStore 1 (RwLock)
//!                └───────────────► …
//! ```
//!
//! * **Routing front-end** (`route` mutex around the one
//!   [`Router`]): assigns global sequential span ids and `(shard, row)`
//!   locations — identical to what the single-threaded
//!   [`ShardedSpanStore`](crate::sharded::ShardedSpanStore) assigns for
//!   the same call order, which is what makes the differential
//!   determinism tests possible. The channel sends happen under it too,
//!   so each shard's queue receives its sub-batches in row order, and a
//!   row op is queued only after the batch holding its row.
//! * **Bounded channels**: each shard's queue holds at most
//!   [`ConcurrentConfig::queue_depth`] messages; a full queue blocks the
//!   producer (backpressure) instead of growing without bound. A blocked
//!   producer holds the route lock, so the other producers wait behind it.
//! * **Workers**: each worker owns the `&mut` side of its shard behind an
//!   `RwLock` and applies each message as it dequeues it: a batch with the
//!   amortised [`SpanStore::insert_routed_batch`], after asserting that
//!   it starts at the shard's next row, and a row op at once. A batch out
//!   of row order is a routing bug, and it kills the worker loudly
//!   ([`WorkerPanic`]) instead of misplacing rows.
//! * **Flush barrier**: [`ConcurrentShardedStore::flush`] queues one
//!   clone of an ack sender to every shard. A worker acks when it dequeues
//!   its clone, by which time it has applied everything queued before it;
//!   `flush` returns once every worker has acked — tests and benches get
//!   read-your-writes visibility on demand. A worker that dies drops its
//!   clone unacked, which the flusher sees as a disconnect
//!   ([`WorkerPanic`]), never as a hang.
//!
//! ## Version ordering (the exactness invariant)
//!
//! The trace cache validates against the corpus version, and the version
//! is read off the shards themselves (the sum of their row and edit
//! counts, [`crate::trace_cache`]): a worker moves it by applying a row
//! under its shard's write lock, with no second counter to update. A trace
//! query reads the version and does the key check or Phase 1 under one
//! [`df_check::read_all`] of **every** shard read lock, releases them, and
//! only then locks the cache to store or re-stamp the entry with that
//! version. So the version an entry records is exactly the corpus it
//! vouches for: no interleaving caches a trace that misses an applied span
//! yet records the version after it (which would be served forever — a
//! permanently stale entry). This holds by construction: the version and
//! the rows come from one guard set. No lock is taken under another: the
//! route, shard, cache and stats locks are each released before the next.

use crate::assemble::AssembleConfig;
use crate::router::Router;
use crate::server::ServerStats;
use crate::sharded::tombstone_row;
use crate::trace_cache::{self, TraceCache};
use df_check::Held;
use df_storage::{ShardPolicy, SpanRef, SpanStore};
use df_types::trace::Trace;
use df_types::wire::{WireBatch, WireDecodeError};
use df_types::{Span, SpanId};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, RwLock};
use std::thread;
/// Tunables of the concurrent store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConcurrentConfig {
    /// Messages a shard's ingest queue holds before `insert_batch` blocks
    /// on that shard (backpressure).
    pub queue_depth: usize,
}

impl Default for ConcurrentConfig {
    fn default() -> Self {
        ConcurrentConfig { queue_depth: 64 }
    }
}

/// A row-addressed mutation routed through a shard's ingest queue so it
/// applies in order with the inserts it races against.
#[derive(Debug)]
enum RowOp {
    /// Hide the row (re-aggregation consumed it).
    Tombstone,
    /// Merge a late response into the row's Incomplete span.
    Complete(Box<Span>),
}

/// One message on a shard's ingest queue.
#[derive(Debug)]
enum ShardMsg {
    /// A routed batch whose rows start at `start_row` (contiguous).
    Batch {
        start_row: u32,
        spans: Vec<Arc<Span>>,
    },
    /// A row-addressed mutation of a row already applied.
    Op { row: u32, op: RowOp },
    /// Flush barrier: the worker sends its shard index when it dequeues
    /// the message. Dropped unsent if the worker dies.
    Flush(SyncSender<u16>),
    /// Test hook ([`ConcurrentShardedStore::inject_worker_panic`]): the
    /// worker panics on receipt, simulating a crashed ingest op.
    Panic,
}

/// A shard worker crashed: the panic message, and which shard lost it.
/// Returned by [`ConcurrentShardedStore::try_flush`] /
/// [`ConcurrentShardedStore::try_insert_batch`] once the worker is gone
/// (spans already queued to that shard at crash time are lost).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerPanic {
    /// Index of the shard whose ingest worker died.
    pub shard: usize,
    /// The worker's panic message (best-effort; `"worker disconnected"`
    /// if the worker vanished without recording one).
    pub message: String,
}

impl std::fmt::Display for WorkerPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "shard {} ingest worker panicked: {}",
            self.shard, self.message
        )
    }
}

impl std::error::Error for WorkerPanic {}

/// Error from the wire ingest path
/// ([`ConcurrentShardedStore::ingest_wire`]): either the DFW1 batch was
/// malformed (rejected before any routing state changed — no ids were
/// assigned) or a shard worker had crashed.
#[derive(Debug)]
pub enum WireIngestError {
    /// The batch bytes failed DFW1 decoding; the store is untouched.
    Decode(WireDecodeError),
    /// The batch decoded but a shard ingest worker was dead; ids were
    /// assigned and healthy shards received their sub-batches.
    Worker(WorkerPanic),
}

impl std::fmt::Display for WireIngestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireIngestError::Decode(e) => write!(f, "wire batch rejected: {e}"),
            WireIngestError::Worker(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for WireIngestError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WireIngestError::Decode(e) => Some(e),
            WireIngestError::Worker(e) => Some(e),
        }
    }
}

/// One shard: the store behind its lock plus the pending-mutation gauge.
#[derive(Debug)]
struct ShardSlot {
    store: RwLock<SpanStore>,
    /// Spans and row ops enqueued to this shard but not yet applied.
    pending: AtomicUsize,
    /// The worker's panic message, recorded before its receiver drops so
    /// that producers observing the disconnect can report the cause.
    failed: OnceLock<String>,
}

/// A span corpus partitioned across per-worker-owned [`SpanStore`] shards,
/// ingesting through bounded per-shard queues. See the module docs for the
/// channel topology, the flush barrier and the staleness contract.
///
/// # Examples
///
/// ```
/// use df_server::concurrent::ConcurrentShardedStore;
/// use df_storage::ShardPolicy;
/// use df_types::span::TapSide;
/// use df_types::Span;
///
/// let store = ConcurrentShardedStore::new(ShardPolicy::with_shards(4));
/// let mut client = Span::synthetic(TapSide::ClientProcess, 100, 900);
/// client.tcp_seq_req = Some(7);
/// let mut server = Span::synthetic(TapSide::ServerProcess, 200, 800);
/// server.tcp_seq_req = Some(7);
/// let ids = store.insert_batch(vec![client, server]);
/// store.flush(); // barrier: both spans applied and visible
///
/// let trace = store.query_trace(ids[0]);
/// assert_eq!(trace.len(), 2);
/// assert!(trace.is_well_formed());
/// ```
#[derive(Debug)]
pub struct ConcurrentShardedStore {
    assemble_cfg: AssembleConfig,
    slots: Vec<Arc<ShardSlot>>,
    senders: Vec<SyncSender<ShardMsg>>,
    workers: Vec<thread::JoinHandle<()>>,
    route: Mutex<Router>,
    cache: Mutex<TraceCache>,
    stats: Mutex<ServerStats>,
}

impl ConcurrentShardedStore {
    /// Store under `policy` with default [`ConcurrentConfig`], spawning one
    /// ingest worker per shard (shard count clamped by [`Router::new`]).
    pub fn new(policy: ShardPolicy) -> Self {
        Self::with_config(policy, ConcurrentConfig::default())
    }

    /// Store with explicit concurrency tunables.
    pub fn with_config(policy: ShardPolicy, cfg: ConcurrentConfig) -> Self {
        let router = Router::new(policy);
        let policy = *router.policy();
        let mut slots = Vec::with_capacity(policy.shards);
        let mut senders = Vec::with_capacity(policy.shards);
        let mut workers = Vec::with_capacity(policy.shards);
        for si in 0..policy.shards {
            let slot = Arc::new(ShardSlot {
                store: RwLock::new(SpanStore::new()),
                pending: AtomicUsize::new(0),
                failed: OnceLock::new(),
            });
            let (tx, rx) = sync_channel::<ShardMsg>(cfg.queue_depth.max(1));
            let worker_slot = Arc::clone(&slot);
            let handle = thread::Builder::new()
                .name(format!("df-shard-{si}"))
                .spawn(move || worker_loop(si, worker_slot, policy, rx))
                .expect("spawn shard worker");
            slots.push(slot);
            senders.push(tx);
            workers.push(handle);
        }
        ConcurrentShardedStore {
            route: Mutex::new(router),
            assemble_cfg: AssembleConfig::default(),
            slots,
            senders,
            workers,
            cache: Mutex::new(TraceCache::new()),
            stats: Mutex::new(ServerStats::default()),
        }
    }

    /// Override assembly tunables. Cached traces were built under the old
    /// config, so the cache is emptied.
    pub fn set_assemble_config(&mut self, cfg: AssembleConfig) {
        self.assemble_cfg = cfg;
        *self.cache.get_mut().expect("cache lock poisoned") = TraceCache::new();
    }

    /// The routing table, under its lock.
    fn router(&self) -> Held<MutexGuard<'_, Router>> {
        df_check::lock(&self.route).expect("route lock poisoned")
    }

    /// The counters, under their lock.
    fn counters(&self) -> Held<MutexGuard<'_, ServerStats>> {
        df_check::lock(&self.stats).expect("stats lock poisoned")
    }

    /// Spans routed (ids assigned), including spans still in queues.
    pub fn len(&self) -> usize {
        self.router().len()
    }

    /// Whether no span has been routed yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Spans and row ops enqueued but not yet applied: the ingest-load
    /// gauge ([`Self::flush`] returns with it at 0).
    pub fn pending(&self) -> usize {
        self.slots
            .iter()
            .map(|s| s.pending.load(Ordering::Acquire))
            .sum()
    }

    /// Applied spans per shard, in shard order.
    pub fn shard_sizes(&self) -> Vec<usize> {
        self.slots
            .iter()
            .map(|s| df_check::read(&s.store).expect("shard lock poisoned").len())
            .collect()
    }

    /// Spans routed away from their preferred shard because it was at
    /// [`ShardPolicy::max_shard_rows`] (soft-cap clamp; nothing is lost).
    pub fn routing_clamped(&self) -> u64 {
        self.router().clamped()
    }

    /// A coherent snapshot of the counters: every snapshot satisfies
    /// `trace_queries == cache_hits + cache_misses + cache_invalidations`
    /// (all counters of one query move under one lock acquisition).
    pub fn stats(&self) -> ServerStats {
        *self.counters()
    }

    /// Insert one span. Equivalent to a one-span [`Self::insert_batch`]
    /// (the unbatched ingest path the benches compare against).
    pub fn insert(&self, span: Span) -> SpanId {
        self.insert_batch(vec![span])[0]
    }

    /// Insert a batch (what an agent ships per flush): ids and `(shard,
    /// row)` locations are assigned under the routing lock — globally
    /// sequential, identical to the single-threaded store for the same
    /// call order — and each shard's sub-batch is enqueued to its worker
    /// before the lock is released. Blocks only when a target shard's
    /// queue is full (backpressure). Spans become query-visible when their
    /// worker applies them; call [`Self::flush`] for a visibility barrier.
    pub fn insert_batch(&self, spans: Vec<Span>) -> Vec<SpanId> {
        self.try_insert_batch(spans)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Self::insert_batch`] that reports a crashed shard worker as an
    /// error instead of panicking. Sub-batches bound for healthy shards
    /// are still enqueued; spans bound for the dead shard are dropped
    /// (their ids stay assigned but will never become visible).
    pub fn try_insert_batch(&self, spans: Vec<Span>) -> Result<Vec<SpanId>, WorkerPanic> {
        self.try_insert_rows(spans.into_iter().map(Arc::new).collect())
    }

    /// [`Self::try_insert_batch`] of spans already in the `Arc`s their
    /// shards will keep: the producer allocates each row, and the worker
    /// appends it.
    fn try_insert_rows(&self, spans: Vec<Arc<Span>>) -> Result<Vec<SpanId>, WorkerPanic> {
        if spans.is_empty() {
            return Ok(Vec::new());
        }
        let mut enqueued = 0u64;
        let mut dead = None;
        let mut route = self.router();
        let (ids, subs) = route.split(spans);
        for sub in subs {
            let (si, n) = (sub.shard as usize, sub.spans.len());
            let msg = ShardMsg::Batch {
                start_row: sub.start_row,
                spans: sub.spans,
            };
            self.slots[si].pending.fetch_add(n, Ordering::AcqRel);
            if self.senders[si].send(msg).is_err() {
                // The worker is gone: undo the gauge; report it after the
                // route guard drops.
                self.slots[si].pending.fetch_sub(n, Ordering::AcqRel);
                dead.get_or_insert(si);
                continue;
            }
            enqueued += n as u64;
        }
        drop(route);
        self.counters().ingested += enqueued;
        match dead {
            None => Ok(ids),
            Some(si) => Err(self.worker_panic(si)),
        }
    }

    /// Ingest a DFW1-encoded span batch (see [`df_types::wire`]): the
    /// whole frame is decoded *before* any routing state is touched, so a
    /// malformed batch is rejected without assigning ids — shard state
    /// after a failed call is byte-identical to never having called it.
    /// Each span is decoded straight into its row's `Arc`
    /// ([`WireBatch::decode_rows`]), then takes the normal
    /// [`Self::try_insert_batch`] path.
    pub fn ingest_wire(&self, batch: &[u8]) -> Result<Vec<SpanId>, WireIngestError> {
        let rows = (WireBatch::parse(batch).and_then(|b| b.decode_rows(|_| {})))
            .map_err(WireIngestError::Decode)?;
        self.try_insert_rows(rows).map_err(WireIngestError::Worker)
    }

    /// The error for a shard whose worker disconnected, preferring the
    /// panic message the worker recorded before dropping its receiver.
    /// Never called under the route lock: a panic here must not poison it.
    fn worker_panic(&self, shard: usize) -> WorkerPanic {
        let message = (self.slots[shard].failed.get().cloned())
            .unwrap_or_else(|| "worker disconnected".to_string());
        WorkerPanic { shard, message }
    }

    /// Hide a span from queries. The tombstone is routed through the
    /// owning shard's ingest queue, behind the batch that holds its row;
    /// eviction compaction triggers in the worker once the shard crosses
    /// [`ShardPolicy::evict_threshold`].
    pub fn tombstone(&self, id: SpanId) {
        self.send_op(id, RowOp::Tombstone);
    }

    /// Merge a late response into an Incomplete span (server-side
    /// re-aggregation), routed through the owning shard's queue. The
    /// outcome is observable after [`Self::flush`] via [`Self::get`].
    pub fn complete_span(&self, id: SpanId, resp: Span) {
        self.send_op(id, RowOp::Complete(Box::new(resp)));
    }

    /// Enqueue a row op to the shard owning `id` (no-op for unknown ids),
    /// under the route lock, so it queues behind the batch holding its row.
    fn send_op(&self, id: SpanId, op: RowOp) {
        let route = self.router();
        let Some(loc) = route.loc(id) else {
            return;
        };
        let si = loc.shard as usize;
        self.slots[si].pending.fetch_add(1, Ordering::AcqRel);
        let sent = self.senders[si].send(ShardMsg::Op { row: loc.row, op });
        drop(route);
        if sent.is_err() {
            self.slots[si].pending.fetch_sub(1, Ordering::AcqRel);
            panic!("{}", self.worker_panic(si));
        }
    }

    /// Barrier: returns once every message enqueued before the call has
    /// been applied to its shard. After `flush`, every earlier
    /// `insert_batch` / `tombstone` / `complete_span` is visible to
    /// queries and assembly.
    pub fn flush(&self) {
        self.try_flush().unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Self::flush`] that reports a crashed shard worker as an error
    /// instead of panicking. Healthy shards are still flushed to the
    /// barrier; the first dead shard is returned.
    pub fn try_flush(&self) -> Result<(), WorkerPanic> {
        let (ack, acks) = sync_channel::<u16>(self.senders.len());
        for tx in &self.senders {
            // A dead worker's queue hands the clone back; it drops here.
            let _ = tx.send(ShardMsg::Flush(ack.clone()));
        }
        drop(ack);
        // Every clone ends acked or dropped (queued in a dying worker, or
        // handed back above): the loop ends, and a shard that never acked
        // lost its worker.
        let mut acked = 0u64;
        while let Ok(si) = acks.recv() {
            acked |= 1 << si;
        }
        match (0..self.slots.len()).find(|si| acked & (1 << si) == 0) {
            None => Ok(()),
            Some(dead) => Err(self.worker_panic(dead)),
        }
    }

    /// Test hook: make shard `shard`'s ingest worker panic on its next
    /// message, simulating a crashed ingest op. Hidden from docs; used by
    /// the worker-crash regression tests.
    #[doc(hidden)]
    pub fn inject_worker_panic(&self, shard: usize) {
        let _ = self.senders[shard].send(ShardMsg::Panic);
    }

    /// Fetch an *applied* span by global id (spans still in a queue return
    /// `None` until flushed).
    pub fn get(&self, id: SpanId) -> Option<Span> {
        (self.at_row(id, |shard, row| shard.span_at(row).map(SpanRef::into_owned))).flatten()
    }

    /// Whether an applied span is tombstoned.
    pub fn is_tombstoned(&self, id: SpanId) -> bool {
        self.at_row(id, SpanStore::is_tombstoned_row) == Some(true)
    }

    /// `f` of the shard and row `id` was routed to, under the shard's read
    /// lock, taken once the route lock is released.
    fn at_row<R>(&self, id: SpanId, f: impl FnOnce(&SpanStore, u32) -> R) -> Option<R> {
        let loc = self.router().loc(id)?;
        let shard = &self.slots[loc.shard as usize].store;
        Some(f(
            &df_check::read(shard).expect("shard lock poisoned"),
            loc.row,
        ))
    }

    /// Compact tombstoned rows out of every shard's indexes immediately
    /// (the workers also compact on their own once past the policy's
    /// threshold). Returns total index entries removed.
    pub fn evict_tombstoned(&self) -> usize {
        self.slots
            .iter()
            .map(|s| {
                df_check::write(&s.store)
                    .expect("shard lock poisoned")
                    .evict_tombstoned()
            })
            .sum()
    }

    /// Trace query through the cache ([`crate::trace_cache`]): the corpus
    /// version, the facts check and the assembly are read with **every**
    /// shard read lock held, and the cache is locked only once they are
    /// released (module docs: the exactness invariant). The stats count
    /// hit / revalidation / miss / invalidation disjointly.
    pub fn query_trace(&self, start: SpanId) -> Arc<Trace> {
        let loc = self.router().loc(start);
        let pin = || {
            df_check::read_all(self.slots.iter().map(|s| &s.store)).expect("shard lock poisoned")
        };
        let (trace, outcome) =
            trace_cache::query(&self.cache, pin, loc, start, &self.assemble_cfg, |_| {});
        self.counters().count(outcome);
        trace
    }
}

impl Drop for ConcurrentShardedStore {
    fn drop(&mut self) {
        // Disconnect the queues; workers drain what they hold and exit.
        self.senders.clear();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// The per-shard ingest worker: applies each message as it dequeues it.
/// The queue is in row order (producers send under the route lock), so a
/// batch starts at the shard's next row, a row op finds its row applied,
/// and a flush ack follows everything queued before it.
///
/// A panic anywhere in the message loop is caught so the worker can die
/// loudly instead of silently: the panic message is recorded on the slot
/// *before* the receiver drops, so a flusher or producer that observes the
/// disconnect can report the cause.
fn worker_loop(si: usize, slot: Arc<ShardSlot>, policy: ShardPolicy, rx: Receiver<ShardMsg>) {
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        while let Ok(msg) = rx.recv() {
            match msg {
                ShardMsg::Batch { start_row, spans } => {
                    let applied = spans.len();
                    let mut store = df_check::write(&slot.store).expect("shard lock poisoned");
                    assert_eq!(
                        start_row as usize,
                        store.len(),
                        "shard {si}: batch out of row order"
                    );
                    store.insert_routed_batch(spans);
                    slot.pending.fetch_sub(applied, Ordering::AcqRel);
                }
                ShardMsg::Op { row, op } => {
                    let mut store = df_check::write(&slot.store).expect("shard lock poisoned");
                    match op {
                        RowOp::Tombstone => tombstone_row(&mut store, &policy, row),
                        RowOp::Complete(resp) => {
                            store.complete_span_row(row, &resp);
                        }
                    }
                    slot.pending.fetch_sub(1, Ordering::AcqRel);
                }
                ShardMsg::Flush(ack) => {
                    // The flusher holds the receiver until every clone is gone.
                    let _ = ack.send(si as u16);
                }
                ShardMsg::Panic => panic!("injected worker panic (test hook)"),
            }
        }
    }));
    if let Err(payload) = outcome {
        let _ = slot.failed.set(panic_message(payload.as_ref()));
    }
    // Returning drops `rx`: unacked flush senders still queued disconnect
    // their flusher, and senders blocked on a full queue wake with an error.
}

/// Best-effort text of a caught panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use df_types::span::{SpanStatus, TapSide};

    fn linked_pair(seq: u32, base_ns: u64) -> Vec<Span> {
        let mut a = Span::synthetic(TapSide::ClientProcess, base_ns, base_ns + 500);
        a.tcp_seq_req = Some(seq);
        let mut b = Span::synthetic(TapSide::ServerProcess, base_ns + 10, base_ns + 490);
        b.tcp_seq_req = Some(seq);
        vec![a, b]
    }

    #[test]
    fn flush_is_a_visibility_barrier() {
        let store = ConcurrentShardedStore::new(ShardPolicy::with_shards(4));
        let ids = store.insert_batch(linked_pair(7, 1_000));
        store.flush();
        assert_eq!(store.pending(), 0, "flush drains every queue");
        assert_eq!(store.len(), 2);
        for &id in &ids {
            let got = store.get(id).expect("applied after flush");
            assert_eq!(got.span_id, id);
        }
        let trace = store.query_trace(ids[0]);
        assert_eq!(trace.len(), 2);
        assert!(trace.is_well_formed());
    }

    #[test]
    fn ids_are_globally_sequential_in_enqueue_order() {
        let store = ConcurrentShardedStore::new(ShardPolicy::with_shards(4));
        let mut ids = store.insert_batch(linked_pair(1, 1_000));
        ids.extend(store.insert_batch(linked_pair(2, 2_000)));
        ids.push(store.insert(linked_pair(3, 3_000).remove(0)));
        assert_eq!(
            ids.iter().map(|i| i.raw()).collect::<Vec<_>>(),
            vec![1, 2, 3, 4, 5]
        );
    }

    #[test]
    fn tombstone_and_complete_apply_in_order_with_racing_insert() {
        let store = ConcurrentShardedStore::new(ShardPolicy::with_shards(4));
        let mut req = Span::synthetic(TapSide::ClientProcess, 1_000, 1_000);
        req.status = SpanStatus::Incomplete;
        let mut resp = Span::synthetic(TapSide::ClientProcess, 1_000, 1_900);
        resp.status = SpanStatus::ResponseOnly;
        let ids = store.insert_batch(vec![req]);
        // No flush in between: the completion chases the insert through the
        // same shard queue and must apply after it.
        store.complete_span(ids[0], resp);
        let other = store.insert_batch(linked_pair(9, 5_000));
        store.tombstone(other[1]);
        store.flush();
        assert_eq!(
            store.get(ids[0]).expect("applied").status,
            SpanStatus::Ok,
            "completion applied after its insert"
        );
        assert!(store.is_tombstoned(other[1]));
        assert!(!store.is_tombstoned(other[0]));
        assert_eq!(store.pending(), 0);
    }

    #[test]
    fn trace_cache_counters_tell_revalidation_from_invalidation() {
        let store = ConcurrentShardedStore::new(ShardPolicy::with_shards(4));
        let ids = store.insert_batch(linked_pair(7, 1_000));
        store.flush();
        let cold = store.query_trace(ids[0]);
        let land = |seq| {
            let mut s = Span::synthetic(TapSide::ServerPodNic, 1_005, 1_495);
            s.tcp_seq_req = Some(seq);
            store.insert_batch(vec![s]);
            store.flush();
        };
        land(8); // shares no key
        assert!(Arc::ptr_eq(&cold, &store.query_trace(ids[0])), "kept");
        assert_eq!(store.stats().cache_counters(), (1, 1, 1, 0));
        land(7); // shares the trace's TCP sequence
        assert_eq!(store.query_trace(ids[0]).len(), 3, "a longer trace");
        assert_eq!(store.stats().cache_counters(), (1, 1, 1, 1));
    }

    #[test]
    fn unapplied_start_span_yields_empty_uncached_trace() {
        // Deterministic version of the race "query a span still in the
        // ingest queue": the routing table knows the id, the shard does not
        // hold the row yet. With the default deep queue and an immediate
        // query there is no guarantee the worker has applied the batch, so
        // an empty result must be legal — and must NOT be cached.
        let store = ConcurrentShardedStore::new(ShardPolicy::with_shards(2));
        let ids = store.insert_batch(linked_pair(7, 1_000));
        let _ = store.query_trace(ids[0]); // may be empty or full, must not panic
        store.flush();
        let trace = store.query_trace(ids[0]);
        assert_eq!(trace.len(), 2, "post-flush query sees the applied spans");
    }

    #[test]
    fn routing_clamp_rebalances_instead_of_panicking() {
        let policy = ShardPolicy {
            shards: 2,
            max_shard_rows: 2,
            ..ShardPolicy::default()
        };
        let store = ConcurrentShardedStore::new(policy);
        // Six spans of one flow all prefer the same shard; the cap forces
        // the overflow onto the other shard.
        let spans: Vec<Span> = (0..3)
            .flat_map(|i| linked_pair(7, 1_000 + i * 10))
            .collect();
        let ids = store.insert_batch(spans);
        store.flush();
        assert_eq!(ids.len(), 6);
        assert!(store.routing_clamped() >= 2);
        let sizes = store.shard_sizes();
        assert_eq!(sizes.iter().sum::<usize>(), 6, "no span lost to the cap");
        assert!(
            sizes.iter().all(|&s| s >= 2),
            "overflow rebalanced: {sizes:?}"
        );
        for &id in &ids {
            assert!(store.get(id).is_some(), "{id:?} reachable after clamping");
        }
    }

    #[test]
    fn drop_joins_workers_without_flush() {
        let store = ConcurrentShardedStore::new(ShardPolicy::with_shards(4));
        store.insert_batch(linked_pair(7, 1_000));
        drop(store); // must not hang or panic with messages still queued
    }

    #[test]
    fn worker_panic_fails_flush_and_inserts_instead_of_hanging() {
        let store = ConcurrentShardedStore::new(ShardPolicy::with_shards(2));
        let ids = store.insert_batch(linked_pair(7, 1_000));
        store.flush();
        store.inject_worker_panic(0);
        // The barrier must report the dead shard, not wait forever.
        let err = store.try_flush().expect_err("flush must fail, not hang");
        assert_eq!(err.shard, 0);
        assert!(
            err.message.contains("injected worker panic"),
            "flush error carries the panic message: {err}"
        );
        // Spans already applied stay readable on the healthy path.
        assert!(store.get(ids[0]).is_some());
        // Producers eventually hit the dead shard and get an error rather
        // than blocking; enough spans guarantees both shards are targeted.
        let spans: Vec<Span> = (0..64)
            .flat_map(|i| linked_pair(100 + i, 10_000 + u64::from(i) * 1_000))
            .collect();
        let err = store
            .try_insert_batch(spans)
            .expect_err("a sub-batch for the dead shard must error");
        assert_eq!(err.shard, 0);
        assert!(err.message.contains("injected worker panic"), "{err}");
        // The error was built after the route guard dropped: the route
        // lock is not poisoned, so lookups still answer.
        assert_eq!(store.len(), 2 + 128);
        assert!(store.get(ids[0]).is_some());
        // A row op aimed at the dead shard panics, outside the guard too.
        // After the barrier every span still missing sits on the dead shard.
        assert!(store.try_flush().is_err());
        let on_dead = (1..=store.len() as u64)
            .map(SpanId)
            .find(|&id| store.get(id).is_none())
            .expect("a span routed to the dead shard");
        let panicked =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| store.tombstone(on_dead)))
                .expect_err("a tombstone for the dead shard panics");
        assert!(panic_message(panicked.as_ref()).contains("injected worker panic"));
        assert_eq!(store.len(), 2 + 128, "the route lock survived the panic");
        // The panicking wrapper surfaces the same message.
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| store.flush()))
            .expect_err("flush() panics once the worker is dead");
        assert!(panic_message(panicked.as_ref()).contains("shard 0 ingest worker panicked"));
    }

    #[test]
    fn producer_blocked_on_full_queue_wakes_when_worker_dies() {
        // Single shard, minimal queue: after the injected panic the worker
        // stops receiving, so producers may block on a full queue — the
        // receiver dropping during unwind must wake them with an error
        // (this used to deadlock the producer forever).
        let store = ConcurrentShardedStore::with_config(
            ShardPolicy::with_shards(1),
            ConcurrentConfig { queue_depth: 1 },
        );
        store.inject_worker_panic(0);
        let err = loop {
            match store.try_insert_batch(linked_pair(1, 1_000)) {
                // Raced ahead of the worker's death: the send landed in
                // the (possibly full) queue. Retry; once the receiver is
                // gone every send errors.
                Ok(_) => continue,
                Err(e) => break e,
            }
        };
        assert_eq!(err.shard, 0);
        assert!(err.message.contains("injected worker panic"), "{err}");
        assert!(
            store.try_flush().is_err(),
            "flush must also report the dead worker"
        );
    }
}
