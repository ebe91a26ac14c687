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
//! rows are contiguous. The threaded store sends them under its routing
//! lock, so its queues stay in row order; the cluster ships them over the
//! network and puts them back into row order on arrival (`df-cluster`'s
//! `BatchReorder`).

use df_storage::ShardPolicy;
use df_types::{Span, SpanId};
use std::sync::Arc;

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
    /// The rows the shard will keep, ids already assigned, in batch order.
    pub spans: Vec<Arc<Span>>,
}

/// Id assignment and shard routing for one corpus.
#[derive(Debug)]
pub struct Router {
    policy: ShardPolicy,
    /// Global id − 1 → location. Empty under one shard, where id `n` is
    /// always row `n − 1` of shard 0 and a table would only cost memory.
    route: Vec<Loc>,
    /// Spans routed so far.
    routed: usize,
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
            routed: 0,
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
        self.routed
    }

    /// Whether nothing has been routed.
    pub fn is_empty(&self) -> bool {
        self.routed == 0
    }

    /// Whether the corpus has one shard, so routes need no table.
    fn tableless(&self) -> bool {
        self.policy.shards == 1
    }

    /// Spans routed away from their preferred shard because it had reached
    /// [`ShardPolicy::max_shard_rows`]. Nonzero means flow locality is
    /// degraded (cross-shard probes do the work); nothing was refused.
    pub fn clamped(&self) -> u64 {
        self.clamped
    }

    /// Where `id` lives, if it was ever routed.
    pub fn loc(&self, id: SpanId) -> Option<Loc> {
        let idx = usize::try_from(id.raw().checked_sub(1)?).ok()?;
        if idx >= self.routed {
            return None;
        }
        if self.tableless() {
            return Some(Loc {
                shard: 0,
                row: idx as u32,
            });
        }
        self.route.get(idx).copied()
    }

    /// Every location, in global-id order.
    pub(crate) fn locs(&self) -> impl Iterator<Item = Loc> + '_ {
        (1..=self.routed as u64).filter_map(|id| self.loc(SpanId(id)))
    }

    /// Make room for `n` more routes (a batch is about to be assigned).
    pub(crate) fn reserve(&mut self, n: usize) {
        if !self.tableless() {
            self.route.reserve(n);
        }
    }

    /// Route one row: stamp the next global id on it, in place (a row
    /// fresh from decode is unshared, so nothing is copied), and hand out
    /// the next row of its shard.
    #[inline]
    pub(crate) fn assign(&mut self, span: &mut Arc<Span>) -> Loc {
        Arc::make_mut(span).span_id = SpanId(self.routed as u64 + 1);
        let shard = self.pick_shard(self.policy.route(span));
        let row = &mut self.shard_rows[shard as usize];
        let loc = Loc { shard, row: *row };
        *row += 1;
        self.routed += 1;
        if !self.tableless() {
            self.route.push(loc);
        }
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
    pub fn split(&mut self, spans: Vec<Arc<Span>>) -> (Vec<SpanId>, Vec<SubBatch>) {
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
