//! Sharding policy for a partitioned span corpus.
//!
//! The paper's deployment stores spans from many nodes in a ClickHouse
//! cluster; this crate's [`SpanStore`] is the single-node
//! analogue. To scale the corpus past one store, the server partitions it
//! into shards and [`ShardPolicy`] decides, per span, which shard owns it:
//!
//! * **Routing key** — the hash of the span's *canonical* flow five-tuple
//!   (FNV-1a over addresses, ports, protocol). Both directions of a
//!   connection canonicalise to the same tuple, and every capture point of
//!   one exchange observes the same flow, so the whole capture ladder of an
//!   exchange lands in one shard — the common-case probe during assembly
//!   stays shard-local. Spans without flow identity (an all-zero tuple,
//!   e.g. third-party app spans imported without network context) fall back
//!   to a span-id hash so they still spread evenly.
//! * **Eviction threshold** — how many tombstoned rows a shard accumulates
//!   before its association indexes are compacted
//!   ([`SpanStore::evict_tombstoned`]).
//!
//! The cold tier ([`Tier`]) cuts time into fixed one-second buckets: a
//! spill writes one segment per shard and bucket, and the automatic spill
//! horizon ([`TierConfig::hot_buckets`]) counts in them.

use crate::bufferpool::{BufferPool, BufferPoolConfig};
use crate::store::{RecoverStats, SpanStore, SpillStats};
use df_check::sync::Arc;
use df_types::{DurationNs, Span, TimeNs};
use std::io;
use std::net::Ipv4Addr;
use std::path::PathBuf;

/// How a sharded span corpus routes spans to shards.
///
/// # Examples
///
/// ```
/// use df_storage::ShardPolicy;
///
/// let policy = ShardPolicy::with_shards(4);
/// assert_eq!(policy.shards, 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardPolicy {
    /// Number of shards. One shard degrades to a plain [`crate::SpanStore`].
    pub shards: usize,
    /// Tombstoned-row count at which a shard's association indexes are
    /// compacted (see [`crate::SpanStore::evict_tombstoned`]).
    pub evict_threshold: usize,
    /// Soft cap on rows per shard. When the preferred shard is full the
    /// router *clamps*: the span is routed to the least-loaded shard
    /// instead (and the owner counts the clamp) rather than panicking or
    /// overflowing the `u32` row space the routing table addresses rows
    /// with. Defaults to the full `u32` row space; tests shrink it to
    /// exercise the clamp path.
    pub max_shard_rows: usize,
}

impl Default for ShardPolicy {
    fn default() -> Self {
        ShardPolicy {
            shards: 4,
            evict_threshold: 4096,
            max_shard_rows: u32::MAX as usize,
        }
    }
}

impl ShardPolicy {
    /// A single-shard policy (behaviourally a plain [`crate::SpanStore`]).
    pub fn single() -> Self {
        Self::with_shards(1)
    }

    /// Default policy with `shards` shards (at least one).
    pub fn with_shards(shards: usize) -> Self {
        ShardPolicy {
            shards: shards.max(1),
            ..Default::default()
        }
    }

    /// The shard owning `span`: hash of the canonical flow five-tuple, so
    /// every capture point of an exchange routes identically; spans with no
    /// flow identity hash their id instead.
    pub fn route(&self, span: &Span) -> usize {
        let t = span.five_tuple.canonical();
        let zero = Ipv4Addr::new(0, 0, 0, 0);
        let h = if t.src_ip == zero && t.dst_ip == zero && t.src_port == 0 && t.dst_port == 0 {
            fnv1a(&span.span_id.raw().to_le_bytes())
        } else {
            let mut bytes = [0u8; 13];
            bytes[0..4].copy_from_slice(&t.src_ip.octets());
            bytes[4..8].copy_from_slice(&t.dst_ip.octets());
            bytes[8..10].copy_from_slice(&t.src_port.to_le_bytes());
            bytes[10..12].copy_from_slice(&t.dst_port.to_le_bytes());
            bytes[12] = t.protocol as u8;
            fnv1a(&bytes)
        };
        (h % self.shards as u64) as usize
    }
}

/// Width of the cold tier's time buckets.
pub(crate) const TIME_BUCKET: DurationNs = DurationNs::from_secs(1);

/// The time bucket containing `t`.
pub(crate) fn bucket_of(t: TimeNs) -> u64 {
    t.slot(TIME_BUCKET)
}

/// How a sharded corpus tiers spans between RAM and disk.
///
/// One [`crate::BufferPool`] (and so one frame budget and one background
/// disk scheduler) is shared by every shard; `dir` is where the spilled
/// segment files live, and `hot_buckets` is the spill horizon: buckets
/// older than the newest `hot_buckets` buckets are eligible to spill.
#[derive(Debug, Clone)]
pub struct TierConfig {
    /// Directory holding this store's segment files.
    pub dir: PathBuf,
    /// Buffer-pool sizing and replacement policy.
    pub pool: BufferPoolConfig,
    /// How many of the most recent time buckets stay hot under
    /// automatic spilling (at least 1 — the bucket currently being
    /// ingested never spills).
    pub hot_buckets: u64,
}

impl TierConfig {
    /// Tiering into `dir` with default pool sizing and a 4-bucket hot
    /// horizon.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        TierConfig {
            dir: dir.into(),
            pool: BufferPoolConfig::default(),
            hot_buckets: 4,
        }
    }

    /// Replace the pool config.
    pub fn with_pool(mut self, pool: BufferPoolConfig) -> Self {
        self.pool = pool;
        self
    }

    /// Replace the hot-bucket horizon (clamped to at least 1).
    pub fn with_hot_buckets(mut self, hot_buckets: u64) -> Self {
        self.hot_buckets = hot_buckets.max(1);
        self
    }
}

/// The hot/cold tier of one corpus: the [`BufferPool`] every shard of the
/// corpus pages through (one frame budget, one background disk scheduler)
/// and the [`TierConfig`] it was built from. Every owner of shards — the
/// sharded store, the concurrent store, a cluster node — holds at most
/// one and spills and recovers its shards through it (either attaches
/// the pool to the shard as its cold reader). No directory is made up
/// front: the disk scheduler creates a segment's parents when it writes,
/// and a recovery scan reads a missing directory as empty.
#[derive(Debug)]
pub struct Tier {
    pool: Arc<BufferPool>,
    cfg: TierConfig,
}

impl Tier {
    /// A tier with a fresh pool sized by `cfg.pool`.
    pub fn new(cfg: TierConfig) -> Self {
        Tier {
            pool: Arc::new(BufferPool::new(cfg.pool)),
            cfg,
        }
    }

    /// The error every spill or recovery entry point returns when its
    /// owner has no tier.
    pub fn not_enabled() -> io::Error {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            "tiering not enabled on this store",
        )
    }

    /// The shared buffer pool (for [`BufferPool::stats`]).
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    /// [`SpanStore::spill_before`] into this tier's directory; `shard`
    /// namespaces the segment file names.
    pub fn spill(
        &self,
        store: &mut SpanStore,
        watermark: TimeNs,
        shard: u16,
    ) -> io::Result<SpillStats> {
        store.spill_before(watermark, &self.pool, &self.cfg.dir, shard)
    }

    /// [`SpanStore::recover_cold_segments`] from this tier's directory
    /// into the empty `store`.
    pub fn recover(&self, store: &mut SpanStore, shard: u16) -> io::Result<RecoverStats> {
        store.recover_cold_segments(&self.pool, &self.cfg.dir, shard)
    }

    /// The automatic spill watermark for a corpus whose newest request
    /// is at `newest`: the start of the oldest of the newest
    /// [`TierConfig::hot_buckets`] buckets. `None` while the corpus spans
    /// fewer buckets than that horizon.
    pub fn watermark(&self, newest: TimeNs) -> Option<TimeNs> {
        let first_hot = (bucket_of(newest) + 1).checked_sub(self.cfg.hot_buckets.max(1))?;
        Some(TimeNs(first_hot.saturating_mul(TIME_BUCKET.as_nanos())))
    }
}

/// FNV-1a: tiny, deterministic across processes (unlike `DefaultHasher`),
/// and good enough dispersion for shard routing.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use df_types::ids::SpanId;
    use df_types::net::FiveTuple;
    use df_types::span::TapSide;

    fn span_with_tuple(t: FiveTuple) -> Span {
        Span {
            span_id: SpanId(7),
            five_tuple: t,
            ..Span::synthetic(TapSide::ClientProcess, 0, 1)
        }
    }

    #[test]
    fn both_flow_directions_route_to_the_same_shard() {
        let p = ShardPolicy::with_shards(16);
        let fwd = FiveTuple::tcp(
            Ipv4Addr::new(10, 0, 0, 1),
            40000,
            Ipv4Addr::new(10, 0, 0, 2),
            80,
        );
        let a = p.route(&span_with_tuple(fwd));
        let b = p.route(&span_with_tuple(fwd.reversed()));
        assert_eq!(a, b);
        assert!(a < 16);
    }

    #[test]
    fn flowless_spans_spread_by_span_id() {
        let p = ShardPolicy::with_shards(16);
        let zero = FiveTuple::tcp(Ipv4Addr::new(0, 0, 0, 0), 0, Ipv4Addr::new(0, 0, 0, 0), 0);
        let mut shards = std::collections::HashSet::new();
        for id in 1..64u64 {
            let mut s = span_with_tuple(zero);
            s.span_id = SpanId(id);
            shards.insert(p.route(&s));
        }
        assert!(shards.len() > 4, "span-id fallback disperses: {shards:?}");
    }

    #[test]
    fn zero_shards_clamps_to_one() {
        assert_eq!(ShardPolicy::with_shards(0).shards, 1);
    }

    #[test]
    fn routing_spreads_distinct_flows() {
        let p = ShardPolicy::with_shards(8);
        let mut shards = std::collections::HashSet::new();
        for i in 0..64u16 {
            let t = FiveTuple::tcp(
                Ipv4Addr::new(10, 0, (i / 8) as u8, (i % 8) as u8),
                40000 + i,
                Ipv4Addr::new(10, 1, 0, 1),
                80,
            );
            shards.insert(p.route(&span_with_tuple(t)));
        }
        assert!(
            shards.len() >= 6,
            "64 flows hit most of 8 shards: {shards:?}"
        );
    }
}
