//! df-check model tests for the concurrent shard boundary
//! (`crates/df-server/src/concurrent.rs`): the flush barrier and the trace
//! cache's re-stamp of the version read under the shard read locks (each
//! with the *mutation* variant that must be caught), the re-stamp by two
//! racing readers, and channel backpressure.
//!
//! The suite runs checked in the default workspace test run because
//! df-server's dev-dependency on df-check enables the `checked` feature.

use df_check::model::{self, CheckConfig, FailureKind};
use df_check::sync::atomic::{AtomicUsize, Ordering};
use df_check::sync::mpsc::{Receiver, SyncSender};
use df_check::sync::{sync_channel, Arc, Mutex, RwLock};
use std::collections::BTreeSet;

/// All model tests no-op when the shims compile as plain std re-exports
/// (they only explore schedules under the `checked` feature).
fn checked_or_skip() -> bool {
    if df_check::is_checked() {
        true
    } else {
        eprintln!("skipped: df-check built without the `checked` feature");
        false
    }
}

/// A seeded mutation must be caught: exploration finds a schedule whose
/// panic names `invariant`, and that schedule is a real witness —
/// replaying it alone reproduces the failure deterministically.
fn assert_caught_and_replayable(round: impl Fn() + Copy + Send + Sync + 'static, invariant: &str) {
    let failure = model::explore(CheckConfig::default(), round)
        .failure
        .unwrap_or_else(|| panic!("mutation must be detected ({invariant})"));
    assert_eq!(failure.kind, FailureKind::Panic);
    assert!(
        failure.message.contains(invariant),
        "failure names the invariant: {}",
        failure.message
    );
    assert!(!failure.trace.is_empty(), "counterexample has a trace");
    let replayed = model::replay(failure.schedule, round);
    let rf = replayed.failure.expect("replay reproduces the failure");
    assert_eq!(rf.kind, FailureKind::Panic);
    assert!(rf.message.contains(invariant));
    assert_eq!(replayed.schedules, 1, "replay runs exactly one schedule");
}

// ---------------------------------------------------------------------
// Flush barrier (ConcurrentShardedStore::try_flush / worker_loop): an ack
// channel. The flusher queues one clone of an ack sender to every shard,
// drops its own and receives until every clone is gone; a worker acks
// with its shard index once its reorder stash is empty. The model is that
// protocol in miniature: rows apply strictly in row order, so a row that
// arrives before its predecessor is stashed.
// ---------------------------------------------------------------------

enum ShardMsg {
    /// A one-row batch; applies only once every earlier row has.
    Row(u32),
    Flush(SyncSender<u16>),
    /// The worker dies on receipt, as on a panic in the real store.
    Die,
}

/// The shipped worker discipline: a flush ack waits until the reorder
/// stash is empty. `ack_early` is the seeded mutation — ack on receipt.
fn shard_worker(si: u16, rx: Receiver<ShardMsg>, applied: Arc<AtomicUsize>, ack_early: bool) {
    let mut next_row = 0u32;
    let mut stash = BTreeSet::new();
    let mut flushes = Vec::new();
    while let Ok(msg) = rx.recv() {
        match msg {
            ShardMsg::Row(row) => {
                stash.insert(row);
            }
            ShardMsg::Flush(ack) if ack_early => {
                let _ = ack.send(si);
            }
            ShardMsg::Flush(ack) => flushes.push(ack),
            ShardMsg::Die => return,
        }
        while stash.remove(&next_row) {
            next_row += 1;
            applied.fetch_add(1, Ordering::SeqCst);
        }
        if stash.is_empty() {
            for ack in flushes.drain(..) {
                let _ = ack.send(si);
            }
        }
    }
}

/// `try_flush` in miniature; `Err` names the first shard that never acked.
fn flush(queues: &[SyncSender<ShardMsg>]) -> Result<(), usize> {
    let (ack, acks) = sync_channel::<u16>(queues.len());
    for tx in queues {
        let _ = tx.send(ShardMsg::Flush(ack.clone()));
    }
    drop(ack);
    let mut acked = 0u64;
    while let Ok(si) = acks.recv() {
        acked |= 1 << si;
    }
    match (0..queues.len()).find(|si| acked & (1 << si) == 0) {
        None => Ok(()),
        Some(dead) => Err(dead),
    }
}

/// Two shards. One producer inserts (shard 0 row 1, shard 1 row 0) and
/// flushes while a second thread owes shard 0 its `late` message, so the
/// first producer's row may sit stashed when its flush arrives. Returns
/// the flush result and whether both of the producer's rows were applied
/// when it returned.
fn flush_round(ack_early: bool, late: ShardMsg) -> (Result<(), usize>, bool) {
    let mut queues = Vec::new();
    let mut applied = Vec::new();
    let mut workers = Vec::new();
    for si in 0..2u16 {
        let (tx, rx) = sync_channel::<ShardMsg>(4);
        let count = Arc::new(AtomicUsize::new(0));
        queues.push(tx);
        applied.push(Arc::clone(&count));
        workers.push(model::spawn(move || shard_worker(si, rx, count, ack_early)));
    }
    let second = {
        let tx = queues[0].clone();
        model::spawn(move || {
            let _ = tx.send(late);
        })
    };
    let _ = queues[0].send(ShardMsg::Row(1)); // shard 0 may be dead already
    queues[1].send(ShardMsg::Row(0)).expect("worker alive");
    let flushed = flush(&queues);
    let visible = applied[0].load(Ordering::SeqCst) == 2 && applied[1].load(Ordering::SeqCst) == 1;
    second.join();
    drop(queues);
    for w in workers {
        w.join();
    }
    (flushed, visible)
}

/// The barrier guarantee is read-your-writes: the second thread's row 0
/// always arrives, and once `flush` returns `Ok` the rows enqueued before
/// it are applied.
fn barrier_round(ack_early: bool) {
    let outcome = flush_round(ack_early, ShardMsg::Row(0));
    assert_eq!(outcome, (Ok(()), true), "flush is a barrier");
}

#[test]
fn flush_barrier_model_never_deadlocks_and_orders_all_prior_work() {
    if !checked_or_skip() {
        return;
    }
    let report = model::check(CheckConfig::default(), || barrier_round(false));
    assert!(report.complete, "barrier model explored exhaustively");
    assert!(report.lock_cycles.is_empty());
}

#[test]
fn acking_before_the_reorder_stash_drains_is_caught_and_replayable() {
    if !checked_or_skip() {
        return;
    }
    assert_caught_and_replayable(|| barrier_round(true), "flush is a barrier");
}

#[test]
fn flush_reports_a_dead_worker_in_every_schedule_and_never_blocks() {
    if !checked_or_skip() {
        return;
    }
    // Shard 0's row 0 never comes, so a flush message it receives is
    // stashed, not acked — and the second thread kills the worker: before
    // the flush message is sent (the send hands it back), while it is
    // queued, or once it is stashed. In every case the worker's clone of
    // the ack sender is dropped unacked, so the flusher sees shard 1's
    // ack, then the disconnect. A flusher that blocked instead would fail
    // the check as a deadlock.
    let report = model::check(CheckConfig::default(), || {
        let (flushed, _) = flush_round(false, ShardMsg::Die);
        assert_eq!(flushed, Err(0), "the dead shard is reported");
    });
    assert!(report.complete, "every schedule explored");
    assert!(report.lock_cycles.is_empty());
}

#[test]
fn bounded_channel_backpressure_preserves_fifo_under_every_schedule() {
    if !checked_or_skip() {
        return;
    }
    let report = model::check(CheckConfig::default(), || {
        // queue_depth 1: the producer blocks on every send until the
        // worker drains — the store's backpressure mode.
        let (tx, rx) = sync_channel::<u32>(1);
        let consumer = model::spawn(move || {
            let mut got = Vec::new();
            while let Ok(v) = rx.recv() {
                got.push(v);
            }
            got
        });
        for i in 0..3 {
            tx.send(i).expect("receiver alive");
        }
        drop(tx);
        let got = consumer.join();
        assert_eq!(got, vec![0, 1, 2], "backpressure must not reorder");
    });
    assert!(report.complete);
}

// ---------------------------------------------------------------------
// Revalidation re-stamp (trace_cache::query under
// ConcurrentShardedStore::query_trace's guards): the key check and the
// version it stamps are read under the same shard read locks. The version
// is read off the shard itself, so a worker moves it by applying a row.
// ---------------------------------------------------------------------

/// The shipped worker step: append one row under the shard write lock —
/// `(posting entries under the trace's keys, corpus version)` when
/// `on_keys`, the version alone otherwise.
fn append(store: &Arc<RwLock<(u64, u64)>>, on_keys: bool) -> model::JoinHandle<()> {
    let store = Arc::clone(store);
    model::spawn(move || {
        let mut s = store.write().expect("shard lock");
        s.0 += u64::from(on_keys);
        s.1 += 1;
    })
}

/// An entry recorded at (0 posting entries, version 0) is revalidated
/// while a worker appends under the trace's keys. The shipped reader
/// compares the postings and reads the version it stamps under one shard
/// read lock; `stamp_late` is the mutation that drops the guard and reads
/// the version again. Permanently stale: stamped with the final version,
/// without the appended row.
fn restamp_round(stamp_late: bool) {
    let store = Arc::new(RwLock::new((0u64, 0u64)));
    let worker = append(&store, true);
    let reader = {
        let store = Arc::clone(&store);
        model::spawn(move || {
            let s = store.read().expect("shard lock");
            let facts_hold = s.0 == 0;
            if stamp_late {
                drop(s);
                return facts_hold.then(|| store.read().expect("shard lock").1);
            }
            facts_hold.then_some(s.1) // None: invalidated, Algorithm 1 runs
        })
    };
    worker.join();
    let stamped = reader.join();
    let final_version = store.read().expect("shard lock").1;
    assert!(
        stamped != Some(final_version),
        "permanently stale cache entry: re-stamped at version {final_version} without the appended row"
    );
}

#[test]
fn restamp_under_the_shard_read_locks_admits_no_stale_schedule() {
    if !checked_or_skip() {
        return;
    }
    let report = model::check(CheckConfig::default(), || restamp_round(false));
    assert!(report.complete, "schedule space must be exhausted");
    assert!(report.lock_cycles.is_empty(), "no lock-order inversions");
}

#[test]
fn reading_the_version_after_the_guards_drop_is_caught_and_replayable() {
    if !checked_or_skip() {
        return;
    }
    assert_caught_and_replayable(|| restamp_round(true), "permanently stale");
}

/// `trace_cache::query` in miniature, twice over: readers A and B both
/// find one entry behind the corpus version (stamped at 0, the shard at 1)
/// while a worker appends one more unrelated row. Each reader takes shard
/// → cache, reads the version under the guard and re-stamps only an entry
/// still behind it — the facts hold, the rows are unrelated — recording
/// how many rows it saw; it counts its outcome once the guard is gone.
#[test]
fn two_readers_on_one_moved_entry_restamp_once_each_and_count_once() {
    if !checked_or_skip() {
        return;
    }
    let report = model::check(CheckConfig::default(), || {
        let store = Arc::new(RwLock::new((0u64, 1u64))); // (postings, version == rows)
        let cache = Arc::new(Mutex::new((0u64, 0u64))); // (stamped version, rows seen)
        let stats = Arc::new(Mutex::new((0u64, 0u64))); // (hits, of them revalidations)
        let worker = append(&store, false);
        let reader = || {
            let (store, cache, stats) =
                (Arc::clone(&store), Arc::clone(&cache), Arc::clone(&stats));
            model::spawn(move || {
                let revalidated = {
                    let s = store.read().expect("shard lock");
                    let mut c = cache.lock().expect("trace cache");
                    let moved = c.0 != s.1;
                    if moved {
                        *c = (s.1, s.1);
                    }
                    moved
                };
                let mut st = stats.lock().expect("stats");
                st.0 += 1;
                st.1 += u64::from(revalidated);
                revalidated
            })
        };
        let (a, b) = (reader(), reader());
        worker.join();
        let revalidations = u64::from(a.join()) + u64::from(b.join());
        let (stamped, seen) = *cache.lock().expect("trace cache");
        assert_eq!(
            stamped, seen,
            "permanently stale cache entry: stamped at version {stamped} having seen {seen} rows"
        );
        let counted = *stats.lock().expect("stats");
        assert_eq!(counted, (2, revalidations), "each reader counted once");
        assert!((1..=2).contains(&revalidations), "the rest were plain hits");
    });
    assert!(report.complete, "schedule space must be exhausted");
    assert!(report.lock_cycles.is_empty(), "no lock-order inversions");
}
