//! df-check model tests for the distributed protocol's coordination
//! state machines.
//!
//! The cluster event loop is single-threaded, but its correctness rests
//! on two pure disciplines that *would* be concurrent in a real
//! deployment: Phase 1 candidate-set responses merging into the round
//! that asked for them ([`RoundTracker`]), and span batches applying to a
//! shard in row order no matter how RPC retries reorder or duplicate
//! them ([`BatchReorder`]). These tests model both under adversarial
//! schedules — and prove the *naive* variants (merge any known response,
//! append batches in arrival order) are caught with a replayable
//! counterexample.
//!
//! Replication adds a third discipline: a primary may acknowledge a
//! replicated write *exactly once*, and only when the quorum is met or
//! nothing is left outstanding ([`WriteQuorum`]). Modeled the same way,
//! with the naive eager-ack counter caught and replayed.

use df_check::model::{self, CheckConfig, FailureKind};
use df_check::sync::{Arc, Mutex};
use df_cluster::{BatchReorder, RoundTracker, WriteQuorum};
use std::collections::HashSet;

fn checked_or_skip() -> bool {
    if df_check::is_checked() {
        true
    } else {
        eprintln!("skipped: df-check built without the `checked` feature");
        false
    }
}

// ---------------------------------------------------------------------
// RPC retry never reorders candidate-set rounds.
//
// Retries reuse the rpc id, so the coordinator can receive: a duplicate
// of an accepted response, and a late response for a round it has
// already abandoned. The tracker must accept each expected id once, in
// the current round only — under EVERY delivery interleaving.
// ---------------------------------------------------------------------

/// Round 0 expects rpcs {1, 2}; rpc 1's response is delivered twice (a
/// cluster-level retry produced two copies). Then round 1 opens and a
/// straggler copy of the round-0 response races the round-1 response.
fn tracker_round() {
    let t = Arc::new(Mutex::new(RoundTracker::new()));
    assert!(t.lock().expect("tracker lock").begin_round(0, &[1, 2]));
    let deliverers: Vec<_> = [(0u32, 1u64), (0, 1), (0, 2)]
        .into_iter()
        .map(|(round, id)| {
            let t = Arc::clone(&t);
            model::spawn(move || t.lock().expect("tracker lock").accept(round, id))
        })
        .collect();
    let outcomes: Vec<bool> = deliverers.into_iter().map(|h| h.join()).collect();
    assert_eq!(
        outcomes.iter().filter(|&&ok| ok).count(),
        2,
        "exactly one copy of each expected response accepted"
    );
    {
        let mut g = t.lock().expect("tracker lock");
        assert_eq!(g.outstanding(), 0, "round 0 settled");
        assert!(g.begin_round(1, &[3]));
    }
    let late = {
        let t = Arc::clone(&t);
        model::spawn(move || t.lock().expect("tracker lock").accept(0, 2))
    };
    let current = {
        let t = Arc::clone(&t);
        model::spawn(move || t.lock().expect("tracker lock").accept(1, 3))
    };
    assert!(!late.join(), "stale round-0 straggler must be rejected");
    assert!(current.join(), "round-1 response must be accepted");
    let g = t.lock().expect("tracker lock");
    assert!(
        g.is_ordered(),
        "accepted responses interleaved across rounds"
    );
    assert_eq!(g.log().len(), 3);
    assert_eq!(g.stale(), 2, "one duplicate + one straggler");
}

#[test]
fn rpc_retry_never_reorders_candidate_rounds() {
    if !checked_or_skip() {
        return;
    }
    let report = model::check(CheckConfig::default(), tracker_round);
    assert!(report.complete, "schedule space must be exhausted");
    assert!(report.schedules >= 2, "multiple delivery orders explored");
    assert!(report.lock_cycles.is_empty(), "no lock-order inversions");
}

/// The *mutation*: a tracker that merges any response whose rpc id it
/// ever issued, ignoring the round label — the bug the RoundTracker
/// exists to prevent.
#[derive(Default)]
struct NaiveTracker {
    issued: HashSet<u64>,
    log: Vec<(u32, u64)>,
}

impl NaiveTracker {
    fn accept(&mut self, round: u32, rpc_id: u64) -> bool {
        if self.issued.remove(&rpc_id) {
            self.log.push((round, rpc_id));
            true
        } else {
            false
        }
    }
}

fn naive_tracker_round() {
    let t = Arc::new(Mutex::new(NaiveTracker::default()));
    // Round 0 issued rpc 1 but timed it out; round 1 issued rpc 2. The
    // straggling round-0 response races the round-1 response.
    t.lock().expect("tracker lock").issued.extend([1, 2]);
    let handles: Vec<_> = [(0u32, 1u64), (1, 2)]
        .into_iter()
        .map(|(round, id)| {
            let t = Arc::clone(&t);
            model::spawn(move || t.lock().expect("tracker lock").accept(round, id))
        })
        .collect();
    for h in handles {
        h.join();
    }
    let g = t.lock().expect("tracker lock");
    assert!(
        g.log.windows(2).all(|w| w[0].0 <= w[1].0),
        "stale round response merged after a newer round"
    );
}

#[test]
fn round_agnostic_merging_is_caught_and_replayable() {
    if !checked_or_skip() {
        return;
    }
    let report = model::explore(CheckConfig::default(), naive_tracker_round);
    let failure = report
        .failure
        .expect("ignoring round labels must reorder rounds in some schedule");
    assert_eq!(failure.kind, FailureKind::Panic);
    assert!(
        failure.message.contains("stale round response"),
        "failure names the invariant: {}",
        failure.message
    );
    let replayed = model::replay(failure.schedule.clone(), naive_tracker_round);
    let rf = replayed.failure.expect("replay reproduces the failure");
    assert_eq!(rf.kind, FailureKind::Panic);
    assert_eq!(replayed.schedules, 1, "replay runs exactly one schedule");
}

// ---------------------------------------------------------------------
// Reordered / duplicated span batches still apply in row order.
// ---------------------------------------------------------------------

/// Three batches covering rows 0..2, 2..3, 3..5 delivered by concurrent
/// "RPC handlers", plus a retransmitted duplicate of the first. The
/// shard must end up exactly [0, 1, 2, 3, 4] under every interleaving.
fn reorder_round() {
    let state = Arc::new(Mutex::new((Vec::<u32>::new(), BatchReorder::<u32>::new())));
    let batches: [(u32, Vec<u32>); 4] = [
        (0, vec![0, 1]),
        (2, vec![2]),
        (3, vec![3, 4]),
        (0, vec![0, 1]),
    ];
    let handles: Vec<_> = batches
        .into_iter()
        .map(|(start_row, batch)| {
            let state = Arc::clone(&state);
            model::spawn(move || {
                let mut g = state.lock().expect("shard lock");
                let (applied, reorder) = &mut *g;
                let runs = reorder.offer(applied.len() as u32, start_row, batch);
                for run in runs {
                    applied.extend(run);
                }
            })
        })
        .collect();
    for h in handles {
        h.join();
    }
    let g = state.lock().expect("shard lock");
    assert_eq!(g.0, vec![0, 1, 2, 3, 4], "rows applied contiguously");
    assert_eq!(g.1.pending(), 0, "nothing stranded in the stash");
    assert_eq!(g.1.duplicates(), 1, "the retransmission was dropped");
}

#[test]
fn reordered_batches_apply_in_row_order_under_every_schedule() {
    if !checked_or_skip() {
        return;
    }
    let report = model::check(CheckConfig::default(), reorder_round);
    assert!(report.complete, "schedule space must be exhausted");
    assert!(report.schedules >= 2, "multiple delivery orders explored");
    assert!(report.lock_cycles.is_empty(), "no lock-order inversions");
}

// ---------------------------------------------------------------------
// A replicated write is acknowledged exactly once, at or past quorum
// (or, when every replica failed, as the explicit shortfall path).
// ---------------------------------------------------------------------

/// Quorum 2 of 3 copies: the primary applied locally, two replica acks
/// race in. Whichever handler's `try_ack` fires must see the quorum met
/// at that instant, and exactly one handler may acknowledge — under
/// every interleaving of the two responses.
fn quorum_round() {
    let w = Arc::new(Mutex::new(WriteQuorum::new(2, 2)));
    let handlers: Vec<_> = (0..2)
        .map(|_| {
            let w = Arc::clone(&w);
            model::spawn(move || {
                let mut g = w.lock().expect("write lock");
                g.record_ack();
                if g.try_ack() {
                    // Snapshot *inside* the critical section: the state
                    // that justified this ack.
                    Some((g.applied(), g.quorum()))
                } else {
                    None
                }
            })
        })
        .collect();
    let acks: Vec<_> = handlers.into_iter().filter_map(|h| h.join()).collect();
    assert_eq!(acks.len(), 1, "the requester must be acked exactly once");
    let (applied, quorum) = acks[0];
    assert!(applied >= quorum, "ack taken below quorum without failures");
    let g = w.lock().expect("write lock");
    assert!(g.settled() && g.acked() && g.met());
}

/// Quorum 3 of 3 with both replicas failing: the racing failure
/// handlers may ack only when *nothing* is left outstanding, exactly
/// once, and that ack is an under-quorum shortfall.
fn quorum_shortfall_round() {
    let w = Arc::new(Mutex::new(WriteQuorum::new(3, 2)));
    let handlers: Vec<_> = (0..2)
        .map(|_| {
            let w = Arc::clone(&w);
            model::spawn(move || {
                let mut g = w.lock().expect("write lock");
                g.record_failure();
                if g.try_ack() {
                    Some((g.outstanding(), g.met()))
                } else {
                    None
                }
            })
        })
        .collect();
    let acks: Vec<_> = handlers.into_iter().filter_map(|h| h.join()).collect();
    assert_eq!(acks.len(), 1, "exhaustion must ack exactly once");
    let (outstanding, met) = acks[0];
    assert_eq!(outstanding, 0, "acked while an RPC was still in flight");
    assert!(!met, "this path is a shortfall by construction");
}

#[test]
fn replicated_writes_ack_exactly_once_at_quorum() {
    if !checked_or_skip() {
        return;
    }
    let report = model::check(CheckConfig::default(), quorum_round);
    assert!(report.complete, "schedule space must be exhausted");
    assert!(report.schedules >= 2, "multiple ack orders explored");
    assert!(report.lock_cycles.is_empty(), "no lock-order inversions");
    let report = model::check(CheckConfig::default(), quorum_shortfall_round);
    assert!(report.complete, "schedule space must be exhausted");
    assert!(report.lock_cycles.is_empty(), "no lock-order inversions");
}

/// The *mutation*: an eager-ack counter that acknowledges whenever the
/// applied count has reached the quorum — with no at-most-once guard.
/// Both replica-ack handlers observe `applied >= quorum` in some
/// schedule and the requester is acknowledged twice (a duplicate
/// SpanBatchAck on the wire).
struct NaiveQuorum {
    quorum: u32,
    applied: u32,
    acks_sent: u32,
}

fn naive_quorum_round() {
    let w = Arc::new(Mutex::new(NaiveQuorum {
        quorum: 2,
        applied: 1, // the primary's local apply
        acks_sent: 0,
    }));
    let handlers: Vec<_> = (0..2)
        .map(|_| {
            let w = Arc::clone(&w);
            model::spawn(move || {
                {
                    let mut g = w.lock().expect("write lock");
                    g.applied += 1;
                }
                // The bug: a second lock scope re-derives "should I ack"
                // from the running total, so both handlers can say yes.
                let mut g = w.lock().expect("write lock");
                if g.applied >= g.quorum {
                    g.acks_sent += 1;
                }
            })
        })
        .collect();
    for h in handlers {
        h.join();
    }
    let g = w.lock().expect("write lock");
    assert!(g.acks_sent <= 1, "requester acknowledged more than once");
}

#[test]
fn eager_quorum_acks_are_caught_and_replayable() {
    if !checked_or_skip() {
        return;
    }
    let report = model::explore(CheckConfig::default(), naive_quorum_round);
    let failure = report
        .failure
        .expect("quorum-met re-checks must double-ack in some schedule");
    assert_eq!(failure.kind, FailureKind::Panic);
    assert!(
        failure.message.contains("more than once"),
        "failure names the invariant: {}",
        failure.message
    );
    let replayed = model::replay(failure.schedule.clone(), naive_quorum_round);
    let rf = replayed.failure.expect("replay reproduces the failure");
    assert_eq!(rf.kind, FailureKind::Panic);
    assert_eq!(replayed.schedules, 1, "replay runs exactly one schedule");
}

/// The *mutation*: appending batches in arrival order without the
/// reorder buffer. Some schedule delivers rows 2..3 first and corrupts
/// the row space.
fn naive_apply_round() {
    let shard = Arc::new(Mutex::new(Vec::<u32>::new()));
    let handles: Vec<_> = [vec![0u32, 1], vec![2]]
        .into_iter()
        .map(|batch| {
            let shard = Arc::clone(&shard);
            model::spawn(move || shard.lock().expect("shard lock").extend(batch))
        })
        .collect();
    for h in handles {
        h.join();
    }
    let g = shard.lock().expect("shard lock");
    assert_eq!(*g, vec![0, 1, 2], "rows must land in row order");
}

#[test]
fn arrival_order_application_is_caught() {
    if !checked_or_skip() {
        return;
    }
    let report = model::explore(CheckConfig::default(), naive_apply_round);
    let failure = report
        .failure
        .expect("arrival-order application must corrupt some schedule");
    assert_eq!(failure.kind, FailureKind::Panic);
    let replayed = model::replay(failure.schedule.clone(), naive_apply_round);
    assert!(replayed.failure.is_some(), "replay reproduces the failure");
}
