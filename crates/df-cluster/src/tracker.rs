//! Pure coordination state machines for the distributed protocol.
//!
//! Both types are deliberately free of I/O and clocks so df-check can
//! model them under adversarial schedules (see
//! `tests/df_check_models.rs`):
//!
//! * [`RoundTracker`] — enforces that Phase 1 candidate-set responses are
//!   only merged into the round that asked for them. Retries reuse the
//!   original rpc id, so a late duplicate from an earlier attempt (or an
//!   earlier *round*) is rejected instead of corrupting frontier order.
//! * [`BatchReorder`] (defined beside the router in `df-server`, which
//!   applies its own worker queues through it) — applies span batches to a
//!   shard strictly in row order even when retried/reordered RPCs deliver
//!   them out of order or twice. Row-contiguity is what keeps remote shard
//!   contents identical to the single-process oracle.

pub use df_server::BatchReorder;
use std::collections::HashSet;

/// Guards Phase 1's round structure: a response is accepted only if it
/// answers an rpc id issued for the *current* round and has not been
/// accepted before.
#[derive(Debug, Default)]
pub struct RoundTracker {
    current: Option<u32>,
    expected: HashSet<u64>,
    accepted: Vec<(u32, u64)>,
    stale: u64,
}

impl RoundTracker {
    /// Fresh tracker (no round open).
    pub fn new() -> Self {
        Self::default()
    }

    /// Open round `round` expecting responses for `rpc_ids`. Rounds must
    /// be strictly increasing; a regression is refused (returns `false`)
    /// and leaves the tracker untouched.
    pub fn begin_round(&mut self, round: u32, rpc_ids: &[u64]) -> bool {
        if self.current.is_some_and(|c| round <= c) {
            return false;
        }
        self.current = Some(round);
        self.expected = rpc_ids.iter().copied().collect();
        true
    }

    /// Offer a response labelled with the round it claims to answer.
    /// Returns `true` iff it is for the current round, was expected, and
    /// is the first copy; everything else counts as stale.
    pub fn accept(&mut self, round: u32, rpc_id: u64) -> bool {
        if self.current == Some(round) && self.expected.remove(&rpc_id) {
            self.accepted.push((round, rpc_id));
            true
        } else {
            self.stale += 1;
            false
        }
    }

    /// Responses still outstanding for the current round.
    pub fn outstanding(&self) -> usize {
        self.expected.len()
    }

    /// Rejected responses (duplicates, wrong round, never asked for).
    pub fn stale(&self) -> u64 {
        self.stale
    }

    /// Acceptance log in arrival order, as `(round, rpc_id)` pairs.
    pub fn log(&self) -> &[(u32, u64)] {
        &self.accepted
    }

    /// The no-reordering invariant: accepted responses never interleave
    /// across rounds (the log is non-decreasing in round).
    pub fn is_ordered(&self) -> bool {
        self.accepted.windows(2).all(|w| w[0].0 <= w[1].0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracker_accepts_current_round_once_and_rejects_the_rest() {
        let mut t = RoundTracker::new();
        assert!(t.begin_round(0, &[10, 11]));
        assert!(t.accept(0, 10));
        assert!(!t.accept(0, 10), "duplicate must be stale");
        assert!(!t.accept(0, 99), "never-issued id must be stale");
        assert!(t.accept(0, 11));
        assert_eq!(t.outstanding(), 0);

        assert!(!t.begin_round(0, &[12]), "round regression refused");
        assert!(t.begin_round(1, &[12]));
        assert!(!t.accept(0, 12), "old-round label must be stale");
        assert!(t.accept(1, 12));
        assert_eq!(t.stale(), 3);
        assert!(t.is_ordered());
    }
}
