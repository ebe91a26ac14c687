//! Self-tests for the model checker: exploration, deadlock detection,
//! lock-order cycles, preemption bounding, dedup, and deterministic
//! replay.
//!
//! Real exploration needs the `checked` feature (CI and the workspace
//! test run enable it); without it each test that needs the scheduler
//! skips itself at runtime.

use df_check::model::{self, CheckConfig, FailureKind};
use df_check::sync;
use df_check::sync::atomic::{AtomicUsize, Ordering};

fn checked_or_skip() -> bool {
    if !df_check::is_checked() {
        eprintln!("skipping: df-check built without the `checked` feature");
        return false;
    }
    true
}

#[test]
fn mutex_counter_explores_exhaustively() {
    if !checked_or_skip() {
        return;
    }
    let report = model::explore(CheckConfig::default(), || {
        let counter = sync::Arc::new(sync::Mutex::new(0u32));
        let c2 = sync::Arc::clone(&counter);
        let t = model::spawn(move || {
            *c2.lock().expect("uncontended in model") += 1;
        });
        *counter.lock().expect("uncontended in model") += 1;
        t.join();
        assert_eq!(*counter.lock().expect("uncontended in model"), 2);
    });
    assert!(report.failure.is_none(), "{:?}", report.failure);
    assert!(report.complete, "bounded space should be exhausted");
    assert!(report.schedules >= 2, "must explore both lock orders");
    assert!(report.lock_cycles.is_empty());
}

/// Non-atomic read-modify-write on a shared counter: a load, then a store
/// of the loaded value plus one. The update is lost only when one thread
/// is preempted between its two halves.
fn lost_update() {
    let cell = sync::Arc::new(AtomicUsize::new(0));
    let c2 = sync::Arc::clone(&cell);
    let t = model::spawn(move || {
        let v = c2.load(Ordering::SeqCst);
        c2.store(v + 1, Ordering::SeqCst);
    });
    let v = cell.load(Ordering::SeqCst);
    cell.store(v + 1, Ordering::SeqCst);
    t.join();
    assert_eq!(cell.load(Ordering::SeqCst), 2, "lost update");
}

#[test]
fn lost_update_needs_a_preemption() {
    if !checked_or_skip() {
        return;
    }
    // Preemption bound 0: only voluntary switches, threads run to
    // completion one after the other — no lost update reachable.
    let bounded0 = model::explore(
        CheckConfig {
            max_preemptions: 0,
            ..CheckConfig::default()
        },
        lost_update,
    );
    assert!(bounded0.failure.is_none(), "{:?}", bounded0.failure);
    assert!(bounded0.complete);

    // Bound 2 (default): the interleaving is found and reported as the
    // assertion panic.
    let report = model::explore(CheckConfig::default(), lost_update);
    let failure = report.failure.expect("lost update must be found");
    assert_eq!(failure.kind, FailureKind::Panic);
    assert!(
        failure.message.contains("lost update"),
        "{}",
        failure.message
    );
    assert!(
        !failure.trace.is_empty(),
        "failure carries the interleaving"
    );

    // The recorded decision vector reproduces the identical failure.
    let replayed = model::replay(failure.schedule.clone(), lost_update);
    let again = replayed.failure.expect("replay reproduces the lost update");
    assert_eq!(again.kind, FailureKind::Panic);
    assert_eq!(again.message, failure.message);
    assert_eq!(again.schedule, failure.schedule);
    assert_eq!(replayed.schedules, 1, "replay runs exactly one schedule");
}

#[test]
fn ab_ba_deadlock_is_detected() {
    if !checked_or_skip() {
        return;
    }
    let report = model::explore(CheckConfig::default(), || {
        let a = sync::Arc::new(sync::Mutex::new(0u32));
        let b = sync::Arc::new(sync::Mutex::new(0u32));
        let (a2, b2) = (sync::Arc::clone(&a), sync::Arc::clone(&b));
        let t = model::spawn(move || {
            let _ga = a2.lock().expect("uncontended in model");
            let _gb = b2.lock().expect("uncontended in model");
        });
        let _gb = b.lock().expect("uncontended in model");
        let _ga = a.lock().expect("uncontended in model");
        drop(_ga);
        drop(_gb);
        t.join();
    });
    let failure = report.failure.expect("AB-BA must fail");
    assert!(
        matches!(
            failure.kind,
            FailureKind::Deadlock | FailureKind::LockOrderCycle
        ),
        "got {:?}",
        failure.kind
    );
}

#[test]
fn lock_order_cycle_flagged_on_passing_schedules() {
    if !checked_or_skip() {
        return;
    }
    // The channel edge serializes the two critical sections, so no
    // schedule can deadlock — but the A→B / B→A inversion is still a
    // latent hazard and must be flagged by the lock-order graph.
    let report = model::explore(CheckConfig::default(), || {
        let a = sync::Arc::new(sync::Mutex::new(0u32));
        let b = sync::Arc::new(sync::Mutex::new(0u32));
        let (tx, rx) = sync::mpsc::sync_channel::<()>(1);
        let (a2, b2) = (sync::Arc::clone(&a), sync::Arc::clone(&b));
        let t = model::spawn(move || {
            {
                let _ga = a2.lock().expect("uncontended in model");
                let _gb = b2.lock().expect("uncontended in model");
            }
            tx.send(()).expect("receiver alive");
        });
        rx.recv().expect("sender alive");
        let _gb = b.lock().expect("uncontended in model");
        let _ga = a.lock().expect("uncontended in model");
        drop(_ga);
        drop(_gb);
        t.join();
    });
    let failure = report.failure.expect("cycle must be flagged");
    assert_eq!(failure.kind, FailureKind::LockOrderCycle);
    assert!(!report.lock_cycles.is_empty());
    assert!(
        report.lock_cycles[0].contains("Mutex"),
        "cycle names the locks: {}",
        report.lock_cycles[0]
    );
}

#[test]
fn bounded_channel_backpressure_and_order() {
    if !checked_or_skip() {
        return;
    }
    let report = model::explore(CheckConfig::default(), || {
        let (tx, rx) = sync::mpsc::sync_channel::<u32>(1);
        let t = model::spawn(move || {
            for i in 0..3 {
                tx.send(i).expect("receiver alive");
            }
        });
        for i in 0..3 {
            assert_eq!(rx.recv().expect("sender alive"), i, "FIFO order");
        }
        assert!(rx.recv().is_err(), "disconnected after sender drop");
        t.join();
    });
    assert!(report.failure.is_none(), "{:?}", report.failure);
    assert!(report.complete);
}

#[test]
fn condvar_gate_wakes_and_terminates() {
    if !checked_or_skip() {
        return;
    }
    let report = model::explore(CheckConfig::default(), || {
        let gate = sync::Arc::new((sync::Mutex::new(0usize), sync::Condvar::new()));
        let g2 = sync::Arc::clone(&gate);
        let worker = model::spawn(move || {
            let (m, cv) = &*g2;
            let mut done = m.lock().expect("uncontended in model");
            *done += 1;
            if *done == 2 {
                cv.notify_all();
            }
        });
        let (m, cv) = &*gate;
        {
            let mut done = m.lock().expect("uncontended in model");
            *done += 1;
            if *done == 2 {
                cv.notify_all();
            }
        }
        let mut done = m.lock().expect("uncontended in model");
        while *done < 2 {
            done = cv.wait(done).expect("uncontended in model");
        }
        assert_eq!(*done, 2);
        drop(done);
        worker.join();
    });
    assert!(report.failure.is_none(), "{:?}", report.failure);
    assert!(report.complete);
}

#[test]
fn state_dedup_prunes_commuting_schedules() {
    if !checked_or_skip() {
        return;
    }
    // Two threads touching two unrelated mutexes: most interleavings are
    // observationally identical and must be pruned by the state hash.
    let report = model::explore(CheckConfig::default(), || {
        let a = sync::Arc::new(sync::Mutex::new(0u32));
        let b = sync::Arc::new(sync::Mutex::new(0u32));
        let a2 = sync::Arc::clone(&a);
        let t = model::spawn(move || {
            *a2.lock().expect("uncontended in model") += 1;
        });
        *b.lock().expect("uncontended in model") += 1;
        t.join();
        assert_eq!(*a.lock().expect("uncontended in model"), 1);
        assert_eq!(*b.lock().expect("uncontended in model"), 1);
    });
    assert!(report.failure.is_none(), "{:?}", report.failure);
    assert!(report.complete);
    // The count is the total over every run, not the last run's 0 or 1.
    assert!(
        report.states_pruned * 2 > report.schedules,
        "most commuting schedules should hit the dedup ({} schedules, {} pruned)",
        report.schedules,
        report.states_pruned
    );
}

#[test]
fn unchecked_build_degrades_to_single_run() {
    if df_check::is_checked() {
        return;
    }
    let report = model::explore(CheckConfig::default(), || {
        let c = sync::Arc::new(sync::Mutex::new(0u32));
        *c.lock().expect("single-threaded") += 1;
        assert_eq!(*c.lock().expect("single-threaded"), 1);
    });
    assert!(report.failure.is_none());
    assert_eq!(report.schedules, 1);
    assert!(!report.complete);
}

#[test]
fn check_panics_with_rendered_trace_on_failure() {
    if !checked_or_skip() {
        return;
    }
    let err = std::panic::catch_unwind(|| model::check(CheckConfig::default(), lost_update))
        .expect_err("check must panic on a failing model");
    let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(msg.contains("Panic"), "rendered failure: {msg}");
    assert!(msg.contains("lost update"), "rendered failure: {msg}");
    assert!(
        msg.contains("schedule"),
        "includes the decision vector: {msg}"
    );
}
