//! Buffer-pool manager for cold span segments: a bounded map of decoded
//! segments, lent out as `Arc`s, with scan-resistant LRU-K eviction.
//!
//! Spilled time buckets live on disk as span segments (see
//! [`crate::persist`]); every access to a cold row goes through this pool
//! so that at most [`BufferPoolConfig::frames`] decoded segments are
//! resident (or being paged in) at once, no matter how large the cold
//! corpus grows.
//!
//! - **Lending**: [`BufferPool::fetch`] returns the segment's
//!   `Arc<Vec<Span>>`. Eviction drops the pool's reference only; a reader
//!   still holding the `Arc` keeps reading the spans it was lent, so no
//!   pin count or page guard is needed to keep a page alive under a
//!   reader. The frame budget bounds what the *pool* keeps.
//! - **LRU-K** ([O'Neil et al., SIGMOD '93]): the victim is the resident
//!   segment with the largest backward-K distance (K = 2) — segments
//!   with fewer than K recorded accesses count as infinitely distant and
//!   are evicted first (oldest first). A single full-corpus scan touches
//!   each segment once, so scan pages stay in the "< K accesses" class
//!   and evict each other, while the point-query working set (≥ K
//!   touches) survives. The tests compare it against `K = 1`, plain LRU.
//! - **Miss handling**: a miss marks the segment loading and does the
//!   read *outside* the pool lock, on the fetching thread ([`DiskIo`]);
//!   concurrent fetchers of the same segment wait on a condvar instead of
//!   issuing duplicate IO. A fetch that finds every frame mid-load waits
//!   on the same condvar; every load ends (installed or failed) with a
//!   notify, so the wait is bounded.
//! - **One loader**: every segment file — a page-in or a crash-recovery
//!   adoption — is read and decoded by `BufferPool::load`; the pool keeps
//!   the decoded spans, recovery also takes the row numbers.

use crate::persist::{self, DiskIo, SpanSegment};
use df_types::span::Span;
use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex};

/// Identifier of one spilled span segment (unique within a store).
pub type SegmentId = u64;

/// The K of the pool's LRU-K replacer.
const K: usize = 2;

/// Configuration for a [`BufferPool`].
#[derive(Debug, Clone, Copy)]
pub struct BufferPoolConfig {
    /// Frame budget: maximum resident (or loading) decoded segments.
    pub frames: usize,
}

impl Default for BufferPoolConfig {
    fn default() -> Self {
        BufferPoolConfig { frames: 64 }
    }
}

impl BufferPoolConfig {
    /// Config with a specific frame budget (at least 1).
    pub fn with_frames(frames: usize) -> Self {
        BufferPoolConfig {
            frames: frames.max(1),
        }
    }
}

/// Why a pool operation failed.
#[derive(Debug)]
pub enum PoolError {
    /// The segment id was never [`BufferPool::register`]ed.
    UnknownSegment(SegmentId),
    /// The segment file could not be read or decoded.
    Io(io::Error),
}

impl fmt::Display for PoolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PoolError::UnknownSegment(seg) => write!(f, "unknown segment id {seg}"),
            PoolError::Io(e) => write!(f, "segment IO failed: {e}"),
        }
    }
}

impl std::error::Error for PoolError {}

/// Replacement bookkeeping, factored out of the pool so its unit tests
/// can drive it directly. Not thread-safe on its own — the pool guards
/// it with the pool mutex. Its entries are exactly the resident segments.
#[derive(Debug)]
pub(crate) struct Replacer {
    k: usize,
    tick: u64,
    /// Last up-to-K access ticks per segment, oldest at the front.
    entries: HashMap<SegmentId, VecDeque<u64>>,
}

impl Replacer {
    /// LRU-K replacer; `k` is clamped to at least 1.
    pub fn new(k: usize) -> Self {
        Replacer {
            k: k.max(1),
            tick: 0,
            entries: HashMap::new(),
        }
    }

    /// Record an access to `seg`, registering it on first touch.
    pub fn record_access(&mut self, seg: SegmentId) {
        self.tick += 1;
        let k = self.k;
        let history = (self.entries.entry(seg)).or_insert_with(|| VecDeque::with_capacity(k));
        if history.len() == k {
            history.pop_front();
        }
        history.push_back(self.tick);
    }

    /// Pick and unregister a victim, or `None` if nothing is registered.
    ///
    /// LRU-K: segments with fewer than K accesses have infinite
    /// backward-K distance and are preferred (oldest first access first);
    /// among fully-histogrammed segments the victim has the *oldest*
    /// Kth-most-recent access. Ticks are unique, so there are no ties.
    pub fn evict(&mut self) -> Option<SegmentId> {
        let victim = (self.entries.iter())
            .min_by_key(|(_, history)| {
                // Class 0 (< K accesses, infinite distance) sorts before
                // class 1; within a class the oldest relevant tick wins.
                let class = usize::from(history.len() >= self.k);
                (class, history.front().copied().unwrap_or(0))
            })
            .map(|(seg, _)| *seg)?;
        self.entries.remove(&victim);
        Some(victim)
    }
}

/// Monotonic pool counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Fetches served from a resident segment.
    pub hits: usize,
    /// Fetches that had to page in from disk.
    pub misses: usize,
    /// Resident segments evicted to make room.
    pub evictions: usize,
}

#[derive(Debug)]
struct Inner {
    /// Decoded segments the pool keeps; their keys are the replacer's.
    resident: HashMap<SegmentId, Arc<Vec<Span>>>,
    /// Segments being paged in; waiters sleep on the pool condvar.
    /// `resident.len() + loading.len()` never exceeds the frame budget.
    loading: HashSet<SegmentId>,
    replacer: Replacer,
    /// SegmentId → on-disk path, set by [`BufferPool::register`].
    catalog: HashMap<SegmentId, PathBuf>,
    stats: PoolStats,
    next_segment: SegmentId,
}

/// The buffer-pool manager. Thread-safe; shared via `Arc` between the
/// store shards and whoever spills.
#[derive(Debug)]
pub struct BufferPool {
    frames: usize,
    disk: DiskIo,
    inner: Mutex<Inner>,
    cv: Condvar,
}

impl BufferPool {
    /// Pool with the given config.
    pub fn new(cfg: BufferPoolConfig) -> Self {
        BufferPool {
            frames: cfg.frames.max(1),
            disk: DiskIo::default(),
            inner: Mutex::new(Inner {
                resident: HashMap::new(),
                loading: HashSet::new(),
                replacer: Replacer::new(K),
                catalog: HashMap::new(),
                stats: PoolStats::default(),
                next_segment: 0,
            }),
            cv: Condvar::new(),
        }
    }

    /// Allocate a fresh segment id (the spiller names the file, then
    /// [`BufferPool::register`]s it).
    pub fn alloc_segment(&self) -> SegmentId {
        let mut inner = df_check::lock(&self.inner).expect("buffer pool lock poisoned");
        let seg = inner.next_segment;
        inner.next_segment += 1;
        seg
    }

    /// Record where `seg` lives on disk. Must happen before any fetch.
    pub fn register(&self, seg: SegmentId, path: PathBuf) {
        let mut inner = df_check::lock(&self.inner).expect("buffer pool lock poisoned");
        inner.catalog.insert(seg, path);
    }

    /// The counted file IO every segment read and spill write goes
    /// through, on the calling thread.
    pub fn scheduler(&self) -> &DiskIo {
        &self.disk
    }

    /// The one segment loader: read the file at `path` and decode it.
    /// Page-in and crash recovery both come through here, so a file is a
    /// valid segment exactly when this returns `Ok`.
    pub(crate) fn load(&self, path: &Path) -> io::Result<SpanSegment> {
        persist::decode_span_segment(&self.disk.read(path)?)
    }

    /// Fetch `seg`'s decoded spans, paging them in if necessary. The
    /// returned `Arc` stays valid after the pool evicts the segment.
    pub fn fetch(&self, seg: SegmentId) -> Result<Arc<Vec<Span>>, PoolError> {
        let mut inner = df_check::lock(&self.inner).expect("buffer pool lock poisoned");
        let path = loop {
            if let Some(spans) = inner.resident.get(&seg).cloned() {
                inner.stats.hits += 1;
                inner.replacer.record_access(seg);
                return Ok(spans);
            }
            if !inner.loading.contains(&seg) {
                let Some(path) = inner.catalog.get(&seg).cloned() else {
                    return Err(PoolError::UnknownSegment(seg));
                };
                // Take a frame before releasing the lock: a free one, else
                // the replacer's victim.
                if inner.resident.len() + inner.loading.len() < self.frames {
                    break path;
                }
                if let Some(victim) = inner.replacer.evict() {
                    inner.resident.remove(&victim);
                    inner.stats.evictions += 1;
                    break path;
                }
            }
            // Another fetcher is paging `seg` in, or every frame is
            // mid-load: wait for a load to end rather than duplicating IO
            // or overrunning the budget.
            inner = df_check::wait(&self.cv, inner).expect("buffer pool lock poisoned");
        };
        inner.loading.insert(seg);
        inner.stats.misses += 1;
        drop(inner);

        // Page-in outside the pool lock.
        let loaded = self.load(&path);

        let mut inner = df_check::lock(&self.inner).expect("buffer pool lock poisoned");
        inner.loading.remove(&seg);
        self.cv.notify_all();
        let spans = Arc::new(loaded.map_err(PoolError::Io)?.spans);
        inner.resident.insert(seg, Arc::clone(&spans));
        inner.replacer.record_access(seg);
        Ok(spans)
    }

    /// Read one span out of `seg` by its in-segment offset.
    ///
    /// Panics if the segment cannot be read at all: a cold row that was
    /// spilled must be recoverable, and returning a fabricated absence
    /// would silently corrupt assembly.
    pub fn read_span(&self, seg: SegmentId, offset: u32) -> Span {
        let spans = (self.fetch(seg)).unwrap_or_else(|e| panic!("cold span page-in failed: {e}"));
        (spans.get(offset as usize))
            .unwrap_or_else(|| panic!("segment {seg} has no row at offset {offset}"))
            .clone()
    }

    /// Number of decoded segments the pool currently keeps.
    pub fn resident_frames(&self) -> usize {
        let inner = df_check::lock(&self.inner).expect("buffer pool lock poisoned");
        inner.resident.len()
    }

    /// The configured frame budget.
    pub fn frame_budget(&self) -> usize {
        self.frames
    }

    /// Snapshot of hit/miss/eviction counters.
    pub fn stats(&self) -> PoolStats {
        df_check::lock(&self.inner)
            .expect("buffer pool lock poisoned")
            .stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use df_types::span::TapSide;

    #[test]
    fn lru_k_prefers_infinite_distance_then_oldest_kth_access() {
        let mut r = Replacer::new(2);
        for seg in 0..3 {
            r.record_access(seg); // ticks 1, 2, 3
        }
        // Segments 0 and 1 get a second access → full history.
        r.record_access(0); // tick 4
        r.record_access(1); // tick 5

        // Segment 2 has < K accesses → infinite distance, evicted first.
        assert_eq!(r.evict(), Some(2));
        // Among full histories the oldest Kth-recent access (segment 0's
        // tick 1 vs segment 1's tick 2) loses.
        assert_eq!(r.evict(), Some(0));
        assert_eq!(r.evict(), Some(1));
        assert_eq!(r.evict(), None);
    }

    #[test]
    fn lru_k_is_scan_resistant_where_lru_is_not() {
        // Hot set {0, 1} touched twice; then a scan touches {2, 3} once.
        let setup = |k| {
            let mut r = Replacer::new(k);
            for seg in [0, 1] {
                r.record_access(seg);
                r.record_access(seg);
            }
            for seg in [2, 3] {
                r.record_access(seg);
            }
            r
        };
        // LRU-K: scan segments have infinite backward-2 distance → they
        // go first and the hot set survives.
        let mut lruk = setup(2);
        assert_eq!(lruk.evict(), Some(2));
        assert_eq!(lruk.evict(), Some(3));
        // Plain LRU (K = 1): the hot set is now the *least recent* →
        // flushed by the scan.
        let mut lru = setup(1);
        assert_eq!(lru.evict(), Some(0));
        assert_eq!(lru.evict(), Some(1));
    }

    /// LRU-K earns its complexity at the pool level, over real segment
    /// files: a hot set of 8 segments point-queried every round (twice,
    /// so it crosses the K = 2 threshold), interleaved with one-pass scans
    /// over 48 cold segments — three times the 16-frame budget. Under
    /// K = 2 the scan pages never reach K accesses and evict each other;
    /// under plain LRU (K = 1) every scan flushes the hot set. The rates
    /// are `PoolStats` counters of a single-threaded access sequence, so
    /// they are pinned.
    #[test]
    fn lru_k_pool_keeps_the_hot_set_across_scans_where_lru_does_not() {
        const HOT: usize = 8;
        const SCAN: usize = 48;
        const ROUNDS: usize = 10;
        let dir = persist::test_dir("scan-resistance");
        let files: Vec<(PathBuf, Vec<u8>)> = (0..(HOT + SCAN) as u64)
            .map(|seg| {
                let spans = [2 * seg, 2 * seg + 1]
                    .map(|t| Span::synthetic(TapSide::ClientProcess, t, t + 1));
                let path = dir.path().join(format!("seg{seg:04}.dfspan"));
                (path, persist::encode_span_segment(&spans, &[0, 1]))
            })
            .collect();

        // The pool's counters and the hot-set hits of the workload under
        // replacer depth `k`.
        let run = |k: usize| {
            let pool = BufferPool::new(BufferPoolConfig::with_frames(16));
            df_check::lock(&pool.inner).expect("pool lock").replacer = Replacer::new(k);
            let ids: Vec<u64> = (files.iter())
                .map(|(path, bytes)| {
                    pool.scheduler()
                        .write(path, bytes)
                        .expect("segment written");
                    let id = pool.alloc_segment();
                    pool.register(id, path.clone());
                    id
                })
                .collect();
            let (hot, scan) = ids.split_at(HOT);
            // Fetch one segment; true when it was resident.
            let hit = |seg: u64| {
                let before = pool.stats().misses;
                assert_eq!(pool.fetch(seg).expect("segment pages in").len(), 2);
                pool.stats().misses == before
            };
            let mut hot_hits = 0;
            for _round in 0..ROUNDS {
                hot_hits += hot.iter().filter(|&&h| hit(h)).count();
                hot_hits += hot.iter().filter(|&&h| hit(h)).count();
                for &s in scan {
                    hit(s);
                }
                hot_hits += hot.iter().filter(|&&h| hit(h)).count();
            }
            (pool.stats(), hot_hits)
        };

        let hot_accesses = 3 * HOT * ROUNDS;
        let (lru_k, lru_k_hot) = run(K);
        let (lru, lru_hot) = run(1);
        assert!(
            lru_k.hits > lru.hits,
            "LRU-K must out-hit LRU: {lru_k:?} vs {lru:?}"
        );
        assert!(
            lru_k_hot * 10 > hot_accesses * 9,
            "LRU-K must keep the hot set resident across scans: {lru_k_hot} of {hot_accesses}"
        );
        // 232/720 = 32.2 % overall and 232/240 = 96.7 % of hot accesses
        // (only the first round's 8 cold faults miss) against 152/720 =
        // 21.1 % and 152/240 = 63.3 %: every hit there is, is a hot-set hit.
        assert_eq!((lru_k.hits, lru_k.misses, lru_k_hot), (232, 488, 232));
        assert_eq!((lru.hits, lru.misses, lru_hot), (152, 568, 152));
    }
}
