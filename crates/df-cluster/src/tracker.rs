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
//! * [`BatchReorder`] — applies span batches to a shard strictly in row
//!   order even when retried/reordered RPCs deliver them out of order or
//!   twice. Row-contiguity is what keeps remote shard contents identical
//!   to the single-process oracle.

use std::collections::{BTreeMap, HashSet};

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

/// Reassembles a shard's row space from possibly-reordered,
/// possibly-duplicated sub-batches.
///
/// `offer(applied, start_row, batch)` returns the run of batches that are
/// now contiguous with the `applied` rows and can be appended; anything
/// from the future is stashed, anything already covered is dropped as a
/// duplicate. Free of I/O and clocks, so its output depends only on the
/// arrival order, and the unit test runs every order.
#[derive(Debug)]
pub struct BatchReorder<T> {
    stash: BTreeMap<u32, Vec<T>>,
    duplicates: u64,
}

impl<T> Default for BatchReorder<T> {
    fn default() -> Self {
        BatchReorder {
            stash: BTreeMap::new(),
            duplicates: 0,
        }
    }
}

impl<T> BatchReorder<T> {
    /// Fresh reorder buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Offer a batch covering rows `start_row..start_row + batch.len()`
    /// given that rows `0..applied` are already in the store. Returns the
    /// batches (in row order) that became contiguous and must be appended
    /// now.
    pub fn offer(&mut self, applied: u32, start_row: u32, batch: Vec<T>) -> Vec<Vec<T>> {
        if start_row < applied || self.stash.contains_key(&start_row) {
            // Retransmitted RPC for rows we already hold: ack silently.
            self.duplicates += 1;
            return Vec::new();
        }
        self.stash.insert(start_row, batch);
        let mut runs = Vec::new();
        let mut cursor = applied;
        while let Some(run) = self.stash.remove(&cursor) {
            cursor += run.len() as u32;
            runs.push(run);
        }
        runs
    }

    /// Batches stashed waiting for a predecessor.
    pub fn pending(&self) -> usize {
        self.stash.len()
    }

    /// The lowest stashed `start_row`, if any batch is waiting. Anti-
    /// entropy uses this to bound a backfill pull: pulling past the first
    /// stashed batch would collide with it on `start_row` and strand it
    /// as a false duplicate.
    pub fn first_pending_start(&self) -> Option<u32> {
        self.stash.keys().next().copied()
    }

    /// Duplicate batches dropped.
    pub fn duplicates(&self) -> u64 {
        self.duplicates
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

    #[test]
    fn reorder_applies_out_of_order_and_drops_duplicates() {
        let mut r: BatchReorder<u32> = BatchReorder::new();
        assert_eq!(r.first_pending_start(), None);
        // Rows 0..2 arrive late; rows 2..5 first.
        assert!(r.offer(0, 2, vec![2, 3, 4]).is_empty());
        assert_eq!(r.pending(), 1);
        assert_eq!(r.first_pending_start(), Some(2));
        let runs = r.offer(0, 0, vec![0, 1]);
        assert_eq!(runs, vec![vec![0, 1], vec![2, 3, 4]]);
        assert_eq!(r.pending(), 0);
        // A retransmission of the first batch is a no-op.
        assert!(r.offer(5, 0, vec![0, 1]).is_empty());
        assert_eq!(r.duplicates(), 1);
        // Next contiguous batch applies immediately.
        assert_eq!(r.offer(5, 5, vec![5]), vec![vec![5]]);

        // Every arrival order of three batches plus a retransmission of the
        // first ends with rows 0..5 applied in row order, nothing stashed and
        // one duplicate dropped. Appending in arrival order instead must
        // corrupt the row space in some order.
        let batches = [
            (0, vec![0, 1]),
            (2, vec![2]),
            (3, vec![3, 4]),
            (0, vec![0, 1]),
        ];
        let mut arrival_order_broke = false;
        for order in orders(&batches) {
            let mut r = BatchReorder::new();
            let mut rows: Vec<u32> = Vec::new();
            for (start_row, batch) in order.clone() {
                for run in r.offer(rows.len() as u32, start_row, batch) {
                    rows.extend(run);
                }
            }
            assert_eq!(rows, [0, 1, 2, 3, 4], "applied in row order: {order:?}");
            assert_eq!((r.pending(), r.duplicates()), (0, 1), "{order:?}");
            let naive: Vec<u32> = order.into_iter().flat_map(|(_, batch)| batch).collect();
            arrival_order_broke |= naive[..5] != [0, 1, 2, 3, 4];
        }
        assert!(
            arrival_order_broke,
            "arrival-order append must lose in some order"
        );
    }
}
