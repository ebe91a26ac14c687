//! The one router: global span ids, shard choice and the id → `(shard,
//! row)` table.
//!
//! Every store front-end — the single-threaded
//! [`ShardedSpanStore`](crate::sharded::ShardedSpanStore), the threaded
//! [`ConcurrentShardedStore`](crate::concurrent::ConcurrentShardedStore)
//! (behind its routing lock) and the `df-cluster` coordinator — assigns
//! ids and rows through a [`Router`], so for one insertion sequence all
//! three hold byte-identical rows per shard: ids are global and sequential
//! (`1, 2, 3, …` — what a single [`SpanStore`](df_storage::SpanStore)
//! would assign), and each shard's rows are handed out contiguously.
//! Shards store spans via the row-addressed `insert_routed` regime and are
//! never asked to translate ids themselves.
//!
//! [`Router::split`] cuts an ingest batch into per-shard sub-batches whose
//! rows are contiguous; [`BatchReorder`] is its receiving end, putting
//! sub-batches that raced each other over a queue or a network back into
//! row order before they touch the shard.

use df_storage::ShardPolicy;
use df_types::{Span, SpanId};
use std::collections::BTreeMap;

/// Location of a span inside a sharded corpus.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Loc {
    /// Shard index.
    pub shard: u16,
    /// Row within the shard.
    pub row: u32,
}

/// One shard's slice of an ingest batch: `spans` occupy rows
/// `start_row..start_row + spans.len()` of `shard`.
#[derive(Debug)]
pub struct SubBatch {
    /// Destination shard.
    pub shard: u16,
    /// Row of the first span.
    pub start_row: u32,
    /// The spans, ids already assigned, in batch order.
    pub spans: Vec<Span>,
}

/// Id assignment and shard routing for one corpus.
#[derive(Debug)]
pub struct Router {
    policy: ShardPolicy,
    /// Global id − 1 → location.
    route: Vec<Loc>,
    /// Next row per shard.
    shard_rows: Vec<u32>,
    clamped: u64,
}

impl Router {
    /// Router under `policy`. The shard count is clamped to `1..=64`: a
    /// flush barrier tracks the shards that acked as a 64-bit mask.
    pub fn new(mut policy: ShardPolicy) -> Self {
        policy.shards = policy.shards.clamp(1, 64);
        Router {
            route: Vec::new(),
            shard_rows: vec![0; policy.shards],
            clamped: 0,
            policy,
        }
    }

    /// The policy in force (shard count already clamped).
    pub fn policy(&self) -> &ShardPolicy {
        &self.policy
    }

    /// Spans routed so far.
    pub fn len(&self) -> usize {
        self.route.len()
    }

    /// Whether nothing has been routed.
    pub fn is_empty(&self) -> bool {
        self.route.is_empty()
    }

    /// Spans routed away from their preferred shard because it had reached
    /// [`ShardPolicy::max_shard_rows`]. Nonzero means flow locality is
    /// degraded (cross-shard probes do the work); nothing was refused.
    pub fn clamped(&self) -> u64 {
        self.clamped
    }

    /// Where `id` lives, if it was ever routed.
    pub fn loc(&self, id: SpanId) -> Option<Loc> {
        let idx = id.raw().checked_sub(1)? as usize;
        self.route.get(idx).copied()
    }

    /// Every location, in global-id order.
    pub(crate) fn locs(&self) -> &[Loc] {
        &self.route
    }

    /// Make room for `n` more routes (a batch is about to be assigned).
    pub(crate) fn reserve(&mut self, n: usize) {
        self.route.reserve(n);
    }

    /// Route one span: stamp the next global id on it and hand out the
    /// next row of its shard.
    #[inline]
    pub(crate) fn assign(&mut self, span: &mut Span) -> Loc {
        span.span_id = SpanId(self.route.len() as u64 + 1);
        let shard = self.pick_shard(self.policy.route(span));
        let row = &mut self.shard_rows[shard as usize];
        let loc = Loc { shard, row: *row };
        *row += 1;
        self.route.push(loc);
        loc
    }

    /// The preferred shard, unless it is at the policy's row cap — then the
    /// least-loaded shard, with the clamp counted. The cap is soft: if
    /// every shard is full the least-loaded one still accepts the span, so
    /// ingest degrades by rebalancing rather than by erroring.
    #[inline]
    fn pick_shard(&mut self, preferred: usize) -> u16 {
        if (self.shard_rows[preferred] as usize) < self.policy.max_shard_rows {
            return preferred as u16;
        }
        self.clamped += 1;
        self.shard_rows
            .iter()
            .enumerate()
            .min_by_key(|(_, &rows)| rows)
            .map_or(preferred as u16, |(i, _)| i as u16)
    }

    /// Route a whole batch: ids in batch order, plus the non-empty
    /// per-shard sub-batches in ascending shard order.
    pub fn split(&mut self, spans: Vec<Span>) -> (Vec<SpanId>, Vec<SubBatch>) {
        let mut ids = Vec::with_capacity(spans.len());
        let mut per_shard: Vec<Option<SubBatch>> = self.shard_rows.iter().map(|_| None).collect();
        self.reserve(spans.len());
        for mut span in spans {
            let Loc { shard, row } = self.assign(&mut span);
            ids.push(span.span_id);
            per_shard[shard as usize]
                .get_or_insert_with(|| SubBatch {
                    shard,
                    start_row: row,
                    spans: Vec::new(),
                })
                .spans
                .push(span);
        }
        (ids, per_shard.into_iter().flatten().collect())
    }
}

/// Reassembles a shard's row space from possibly-reordered,
/// possibly-duplicated sub-batches.
///
/// `offer(applied, start_row, batch)` returns the run of batches that are
/// now contiguous with the `applied` rows and can be appended; anything
/// from the future is stashed, anything already covered is dropped as a
/// duplicate. Free of I/O and clocks so df-check can model it under
/// adversarial schedules.
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
    }
}
