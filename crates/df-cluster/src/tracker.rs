//! Pure coordination state machines for the distributed protocol.
//!
//! Both types are deliberately free of I/O, clocks and threads — the
//! cluster event loop is single-threaded — so a response's effect depends
//! only on the order events reach it, and the unit tests run every order:
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
}

impl RoundTracker {
    /// Fresh tracker (no round open).
    pub fn new() -> Self {
        Self::default()
    }

    /// Open round `round` expecting responses for `rpc_ids`. Rounds must
    /// be strictly increasing.
    pub fn begin_round(&mut self, round: u32, rpc_ids: &[u64]) {
        debug_assert!(
            self.current.is_none_or(|c| round > c),
            "round {round} does not follow round {:?}",
            self.current
        );
        self.current = Some(round);
        self.expected = rpc_ids.iter().copied().collect();
    }

    /// Offer a response labelled with the round it claims to answer.
    /// Returns `true` iff it is for the current round, was expected, and
    /// is the first copy; duplicates, other rounds' labels and ids never
    /// asked for are refused.
    pub fn accept(&mut self, round: u32, rpc_id: u64) -> bool {
        self.current == Some(round) && self.expected.remove(&rpc_id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every order of `items`.
    fn orders<T: Clone>(items: &[T]) -> Vec<Vec<T>> {
        if items.is_empty() {
            return vec![Vec::new()];
        }
        let mut out = Vec::new();
        for i in 0..items.len() {
            let mut rest = items.to_vec();
            let first = rest.remove(i);
            for mut order in orders(&rest) {
                order.insert(0, first.clone());
                out.push(order);
            }
        }
        out
    }

    #[test]
    fn tracker_accepts_current_round_once_and_rejects_the_rest() {
        let mut t = RoundTracker::new();
        t.begin_round(0, &[10, 11]);
        assert!(t.accept(0, 10));
        assert!(!t.accept(0, 10), "duplicate must be refused");
        assert!(!t.accept(0, 99), "never-issued id must be refused");
        assert!(t.accept(0, 11));

        t.begin_round(1, &[12]);
        assert!(!t.accept(0, 12), "old-round label must be refused");
        assert!(t.accept(1, 12));
    }

    /// Round 0 expects rpcs 1 and 2, and rpc 1's response arrives twice (a
    /// retry produced two copies). Round 1 expects rpc 3, racing a
    /// straggler for round 0's rpc 2 and rpc 3's answer under round 0's
    /// label. Every delivery order of each round is run on the real
    /// tracker, and the round-agnostic merge (accept any id still
    /// expected) must lose in some order.
    #[test]
    fn every_delivery_order_merges_each_response_once_into_its_own_round() {
        const ROUND_0: [(u32, u64); 3] = [(0, 1), (0, 1), (0, 2)];
        const ROUND_1: [(u32, u64); 3] = [(0, 2), (0, 3), (1, 3)];
        for first in orders(&ROUND_0) {
            for second in orders(&ROUND_1) {
                let mut t = RoundTracker::new();
                t.begin_round(0, &[1, 2]);
                let accepted: Vec<bool> = first.iter().map(|&(r, id)| t.accept(r, id)).collect();
                assert_eq!(
                    accepted.iter().filter(|&&ok| ok).count(),
                    2,
                    "one copy of each expected response in {first:?}"
                );
                t.begin_round(1, &[3]);
                for &(round, id) in &second {
                    assert_eq!(
                        t.accept(round, id),
                        round == 1,
                        "({round}, {id}) in {second:?}"
                    );
                }
            }
        }
        let naive_merged_stale = orders(&ROUND_1).iter().any(|order| {
            let mut expected = HashSet::from([3]);
            order
                .iter()
                .any(|&(round, id)| expected.remove(&id) && round != 1)
        });
        assert!(
            naive_merged_stale,
            "the round-agnostic merge must lose in some order"
        );
    }
}
