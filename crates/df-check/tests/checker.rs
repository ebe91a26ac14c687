//! Self-tests for the model checker: exploration, race detection,
//! deadlock detection, lock-order cycles, preemption bounding, dedup,
//! and deterministic replay.
//!
//! Real exploration needs the `checked` feature (CI and the workspace
//! test run enable it); without it each test that needs the scheduler
//! skips itself at runtime.

use df_check::model::{self, CheckConfig, FailureKind};
use df_check::sync;

fn checked_or_skip() -> bool {
    if !df_check::is_checked() {
        eprintln!("skipping: df-check built without the `checked` feature");
        return false;
    }
    true
}

fn budget() -> CheckConfig {
    CheckConfig::default().env_budget()
}

#[test]
fn mutex_counter_explores_exhaustively() {
    if !checked_or_skip() {
        return;
    }
    let report = model::explore(budget(), || {
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

#[test]
fn racy_counter_is_reported_and_replayable() {
    if !checked_or_skip() {
        return;
    }
    let body = || {
        let counter = sync::Arc::new(sync::Racy::new(0u64));
        let c2 = sync::Arc::clone(&counter);
        let t = model::spawn(move || {
            c2.update(|v| v + 1);
        });
        counter.update(|v| v + 1);
        t.join();
    };
    let report = model::explore(budget(), body);
    let failure = report.failure.expect("unsynchronized counter must race");
    assert_eq!(failure.kind, FailureKind::DataRace);
    assert!(
        !failure.trace.is_empty(),
        "failure carries the interleaving"
    );
    assert!(!failure.schedule.is_empty(), "failure carries the schedule");

    // The recorded decision vector reproduces the identical failure.
    let replayed = model::replay(failure.schedule.clone(), body);
    let again = replayed.failure.expect("replay reproduces the race");
    assert_eq!(again.kind, FailureKind::DataRace);
    assert_eq!(again.message, failure.message);
    assert_eq!(again.schedule, failure.schedule);
}

#[test]
fn mutex_protected_racy_cell_has_no_race() {
    if !checked_or_skip() {
        return;
    }
    // The release→acquire vector-clock join must order the two accesses.
    let report = model::explore(budget(), || {
        let lock = sync::Arc::new(sync::Mutex::new(()));
        let cell = sync::Arc::new(sync::Racy::new(0u64));
        let (l2, c2) = (sync::Arc::clone(&lock), sync::Arc::clone(&cell));
        let t = model::spawn(move || {
            let _g = l2.lock().expect("uncontended in model");
            c2.update(|v| v + 1);
        });
        {
            let _g = lock.lock().expect("uncontended in model");
            cell.update(|v| v + 1);
        }
        t.join();
        assert_eq!(cell.get(), 2);
    });
    assert!(report.failure.is_none(), "{:?}", report.failure);
    assert!(report.complete);
}

#[test]
fn lost_update_needs_a_preemption() {
    if !checked_or_skip() {
        return;
    }
    // Non-atomic read-modify-write on a shared cell; the lost update only
    // shows up when one thread is preempted between its read and write.
    let body = || {
        let cell = sync::Arc::new(sync::Racy::new(0u64));
        let c2 = sync::Arc::clone(&cell);
        let t = model::spawn(move || {
            let v = c2.get();
            c2.set(v + 1);
        });
        let v = cell.get();
        cell.set(v + 1);
        t.join();
        assert_eq!(cell.get(), 2, "lost update");
    };
    let no_races = CheckConfig {
        fail_on_race: false,
        ..budget()
    };

    // Preemption bound 0: only voluntary switches, threads run to
    // completion one after the other — no lost update reachable.
    let bounded0 = model::explore(
        CheckConfig {
            max_preemptions: 0,
            ..no_races.clone()
        },
        body,
    );
    assert!(bounded0.failure.is_none(), "{:?}", bounded0.failure);
    assert!(bounded0.complete);

    // Bound 2 (default): the interleaving is found and reported as the
    // assertion panic.
    let report = model::explore(no_races, body);
    let failure = report.failure.expect("lost update must be found");
    assert_eq!(failure.kind, FailureKind::Panic);
    assert!(
        failure.message.contains("lost update"),
        "{}",
        failure.message
    );
}

#[test]
fn ab_ba_deadlock_is_detected() {
    if !checked_or_skip() {
        return;
    }
    let report = model::explore(budget(), || {
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
    let report = model::explore(budget(), || {
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
    let report = model::explore(budget(), || {
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
    let report = model::explore(budget(), || {
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
    let report = model::explore(budget(), || {
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
    assert!(
        report.states_pruned > 0,
        "commuting schedules should hit the dedup ({} schedules, 0 pruned)",
        report.schedules
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
    let err = std::panic::catch_unwind(|| {
        model::check(budget(), || {
            let cell = sync::Arc::new(sync::Racy::new(0u64));
            let c2 = sync::Arc::clone(&cell);
            let t = model::spawn(move || c2.set(1));
            cell.set(2);
            t.join();
        });
    })
    .expect_err("check must panic on a failing model");
    let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(msg.contains("DataRace"), "rendered failure: {msg}");
    assert!(
        msg.contains("schedule"),
        "includes the decision vector: {msg}"
    );
}
