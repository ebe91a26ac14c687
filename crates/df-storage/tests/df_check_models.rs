//! df-check model tests for the buffer pool's two safety invariants:
//!
//! 1. **Eviction never selects a pinned frame.** The pool pins a frame
//!    (`pins += 1`) and marks it non-evictable in the replacer inside one
//!    critical section; eviction consults the replacer inside another.
//!    The models drive the *real* [`df_storage::bufferpool::Replacer`]
//!    through racing pin/unpin and evict threads — the shipped discipline
//!    admits no schedule that evicts a pinned frame, and the mutation
//!    that forgets `set_evictable(false)` on pin is caught, with a
//!    deterministic replay.
//!
//! 2. **Page-out writes before it flips.** `SpanStore::spill_before`
//!    waits for every segment write's completion *before* flipping rows
//!    `Hot → Cold`, so a concurrent reader that observes a cold row can
//!    always page the segment in — it can never be served a stale or
//!    missing row. The model checks the write-then-flip ordering
//!    exhaustively and shows the flip-before-write mutation loses.
//!
//! The suite runs checked in the default workspace test run because
//! df-storage's dev-dependency on df-check enables the `checked`
//! feature. Budgets respect `DF_CHECK_MAX_SCHEDULES` /
//! `DF_CHECK_MAX_PREEMPTIONS` so CI can bound wall-clock (see `ci.sh`).

use df_check::model::{self, CheckConfig, FailureKind};
use df_check::sync::{Arc, Mutex};
use df_storage::bufferpool::Replacer;

fn budget() -> CheckConfig {
    CheckConfig::default().env_budget()
}

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

// ---------------------------------------------------------------------
// Invariant 1: eviction never selects a pinned frame.
// ---------------------------------------------------------------------

/// Replacer state plus the pin counts the pool keeps next to it — one
/// lock, exactly like `bufferpool::Inner`.
struct PoolState {
    replacer: Replacer,
    pins: [usize; 2],
}

/// One round of the *shipped* pin discipline over the real [`Replacer`]:
/// pin = `pins += 1` and `set_evictable(false)` in one critical section,
/// unpin the mirror image, eviction asserts the victim is unpinned.
/// `honest_pin` selects the shipped discipline; `false` is the mutation
/// where the pinner forgets to mark the frame non-evictable.
fn pin_discipline_round(honest_pin: bool) {
    let state = Arc::new(Mutex::new(PoolState {
        replacer: Replacer::new(2),
        pins: [0, 0],
    }));
    {
        // Two installed, unpinned, evictable frames.
        let mut s = state.lock().expect("pool lock");
        for f in 0..2 {
            s.replacer.record_access(f);
            s.replacer.set_evictable(f, true);
        }
    }

    let pinner = {
        let state = Arc::clone(&state);
        model::spawn(move || {
            {
                let mut s = state.lock().expect("pool lock");
                s.pins[0] += 1;
                if honest_pin {
                    s.replacer.set_evictable(0, false);
                }
            }
            {
                let mut s = state.lock().expect("pool lock");
                s.pins[0] -= 1;
                s.replacer.set_evictable(0, true);
            }
        })
    };
    let evictor = {
        let state = Arc::clone(&state);
        model::spawn(move || {
            let mut s = state.lock().expect("pool lock");
            if let Some(victim) = s.replacer.evict() {
                assert_eq!(
                    s.pins[victim], 0,
                    "evicted a pinned frame: frame {victim} has readers"
                );
            }
        })
    };
    pinner.join();
    evictor.join();
}

#[test]
fn eviction_never_selects_a_pinned_frame_under_any_schedule() {
    if !checked_or_skip() {
        return;
    }
    let report = model::check(budget(), || pin_discipline_round(true));
    assert!(report.complete, "schedule space must be exhausted");
    assert!(report.schedules >= 2, "interleavings actually explored");
    assert!(report.lock_cycles.is_empty(), "no lock-order inversions");
}

#[test]
fn forgetting_set_evictable_on_pin_is_caught_and_replays() {
    if !checked_or_skip() {
        return;
    }
    let report = model::explore(budget(), || pin_discipline_round(false));
    let failure = report
        .failure
        .expect("pin without set_evictable(false) must lose a schedule");
    assert_eq!(failure.kind, FailureKind::Panic);
    assert!(
        failure.message.contains("evicted a pinned frame"),
        "failure names the invariant: {}",
        failure.message
    );
    assert!(
        !failure.schedule.is_empty(),
        "counterexample has a schedule"
    );
    assert!(!failure.trace.is_empty(), "counterexample has a trace");

    let replayed = model::replay(failure.schedule.clone(), || pin_discipline_round(false));
    let rf = replayed.failure.expect("replay reproduces the failure");
    assert_eq!(rf.kind, FailureKind::Panic);
    assert_eq!(replayed.schedules, 1, "replay runs exactly one schedule");
}

// ---------------------------------------------------------------------
// Invariant 2: page-out writes the segment durably BEFORE flipping the
// row cold, so a page-in racing the spill never sees a cold row whose
// segment is missing (and never serves a stale payload).
// ---------------------------------------------------------------------

/// A row is either hot with its payload resident, or cold with the
/// payload only on "disk".
#[derive(Clone, Copy, PartialEq, Eq)]
enum Row {
    Hot(u32),
    Cold,
}

/// One spill racing one reader. `write_first` selects the shipped
/// ordering (segment write completion awaited, then flip) vs the mutation
/// (flip first, write later). The reader must obtain payload 7 on every
/// schedule, whichever tier it reads from.
fn page_out_ordering_round(write_first: bool) {
    let disk = Arc::new(Mutex::new(None::<u32>)); // segment file
    let row = Arc::new(Mutex::new(Row::Hot(7))); // RowSlot

    let spiller = {
        let disk = Arc::clone(&disk);
        let row = Arc::clone(&row);
        model::spawn(move || {
            if write_first {
                *disk.lock().expect("disk lock") = Some(7); // wait() returned Ok
                *row.lock().expect("row lock") = Row::Cold; // then flip
            } else {
                *row.lock().expect("row lock") = Row::Cold; // flip early (bug)
                *disk.lock().expect("disk lock") = Some(7);
            }
        })
    };
    let reader = {
        let disk = Arc::clone(&disk);
        let row = Arc::clone(&row);
        model::spawn(move || {
            let tier = *row.lock().expect("row lock");
            let payload = match tier {
                Row::Hot(v) => v,
                Row::Cold => disk
                    .lock()
                    .expect("disk lock")
                    .expect("cold row with no durable segment: page-in would serve a stale row"),
            };
            assert_eq!(payload, 7, "page-in must serve the spilled payload");
        })
    };
    spiller.join();
    reader.join();
}

#[test]
fn write_then_flip_ordering_admits_no_stale_page_in() {
    if !checked_or_skip() {
        return;
    }
    let report = model::check(budget(), || page_out_ordering_round(true));
    assert!(report.complete, "schedule space must be exhausted");
    assert!(report.schedules >= 2, "interleavings actually explored");
    assert!(report.lock_cycles.is_empty(), "no lock-order inversions");
}

#[test]
fn flip_before_write_is_caught_and_replays() {
    if !checked_or_skip() {
        return;
    }
    let report = model::explore(budget(), || page_out_ordering_round(false));
    let failure = report
        .failure
        .expect("flipping before the write completes must lose a schedule");
    assert_eq!(failure.kind, FailureKind::Panic);
    assert!(
        failure.message.contains("cold row with no durable segment"),
        "failure names the invariant: {}",
        failure.message
    );

    let replayed = model::replay(failure.schedule.clone(), || page_out_ordering_round(false));
    let rf = replayed.failure.expect("replay reproduces the failure");
    assert_eq!(rf.kind, FailureKind::Panic);
    assert_eq!(replayed.schedules, 1, "replay runs exactly one schedule");
}
