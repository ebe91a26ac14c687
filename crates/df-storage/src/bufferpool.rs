//! Buffer-pool manager for cold span segments: a fixed frame budget, a
//! pin/unpin discipline, and scan-resistant LRU-K eviction.
//!
//! Spilled time buckets live on disk as span segments (see
//! [`crate::persist`]); every access to a cold row goes through this pool
//! so that at most [`BufferPoolConfig::frames`] decoded segments are
//! resident at once, no matter how large the cold corpus grows. The
//! design follows the classic database buffer pool (the `bustub-rust`
//! lineage the ROADMAP points at):
//!
//! - **Frames**: `frames` slots, each holding one decoded segment as an
//!   `Arc<Vec<Span>>`. The frame budget is the memory ceiling.
//! - **Pins**: a fetched page is pinned until its [`PageRef`] drops; a
//!   pinned frame is never eviction-eligible (the df-check model test
//!   `pinned_frame_never_evicted` pins this down by exhaustive
//!   interleaving).
//! - **LRU-K** ([O'Neil et al., SIGMOD '93]): the victim is the
//!   evictable frame with the largest backward-K distance — frames with
//!   fewer than K recorded accesses count as infinitely distant and are
//!   evicted first (oldest first). A single full-corpus scan touches each
//!   segment once, so scan pages stay in the "< K accesses" class and
//!   evict each other, while the point-query working set (≥ K touches)
//!   survives. `K = 1` degenerates to plain LRU, the baseline
//!   `tests/tiering.rs` compares hit rates against.
//! - **Miss handling**: a miss inserts a `Loading` placeholder and does
//!   the read *outside* the pool lock via the background
//!   [`DiskScheduler`]; concurrent fetchers of the same segment wait on a
//!   condvar instead of issuing duplicate IO.
//! - **One loader**: every segment file — a page-in, an all-pinned
//!   bypass read, a crash-recovery adoption — is read and decoded by
//!   `BufferPool::load`; a frame keeps the decoded spans, recovery also
//!   takes the row numbers.

use crate::disk_sched::DiskScheduler;
use crate::persist::{self, SpanSegment};
use df_check::sync::{Arc, Condvar, Mutex};
use df_types::span::Span;
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::io;
use std::ops::Deref;
use std::path::PathBuf;

/// Identifier of one spilled span segment (unique within a store).
pub type SegmentId = u64;

/// Configuration for a [`BufferPool`].
#[derive(Debug, Clone, Copy)]
pub struct BufferPoolConfig {
    /// Frame budget: maximum resident decoded segments.
    pub frames: usize,
    /// K for LRU-K (1 is plain LRU).
    pub k: usize,
    /// Disk-scheduler queue depth.
    pub queue_depth: usize,
}

impl Default for BufferPoolConfig {
    fn default() -> Self {
        BufferPoolConfig {
            frames: 64,
            k: 2,
            queue_depth: 128,
        }
    }
}

impl BufferPoolConfig {
    /// Config with a specific frame budget, defaults elsewhere.
    pub fn with_frames(frames: usize) -> Self {
        BufferPoolConfig {
            frames: frames.max(1),
            ..BufferPoolConfig::default()
        }
    }
}

/// Why a pool operation failed.
#[derive(Debug)]
pub enum PoolError {
    /// Every frame is pinned; nothing can be evicted to make room.
    AllPinned,
    /// The segment id was never [`BufferPool::register`]ed.
    UnknownSegment(SegmentId),
    /// The segment file could not be read or decoded.
    Io(io::Error),
}

impl fmt::Display for PoolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PoolError::AllPinned => write!(f, "all buffer-pool frames are pinned"),
            PoolError::UnknownSegment(seg) => write!(f, "unknown segment id {seg}"),
            PoolError::Io(e) => write!(f, "segment IO failed: {e}"),
        }
    }
}

impl std::error::Error for PoolError {}

/// Per-frame replacement state.
#[derive(Debug)]
struct FrameHistory {
    /// Last up-to-K access ticks, oldest at the front.
    history: VecDeque<u64>,
    evictable: bool,
}

/// Replacement bookkeeping, factored out of the pool so the df-check
/// model tests can drive it directly (the K = 2 vs K = 1 hit-rate
/// comparison drives whole pools: `tests/tiering.rs`). Not thread-safe on
/// its own — the pool guards it with the pool mutex.
#[derive(Debug)]
pub struct Replacer {
    k: usize,
    tick: u64,
    entries: HashMap<usize, FrameHistory>,
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

    /// Record an access to `frame`, registering it on first touch.
    /// Newly registered frames are *not* evictable until
    /// [`Replacer::set_evictable`] says so.
    pub fn record_access(&mut self, frame: usize) {
        self.tick += 1;
        let tick = self.tick;
        let k = self.k;
        let entry = self.entries.entry(frame).or_insert_with(|| FrameHistory {
            history: VecDeque::with_capacity(k),
            evictable: false,
        });
        if entry.history.len() == k {
            entry.history.pop_front();
        }
        entry.history.push_back(tick);
    }

    /// Mark `frame` evictable (pin count reached zero) or not (pinned).
    pub fn set_evictable(&mut self, frame: usize, evictable: bool) {
        if let Some(entry) = self.entries.get_mut(&frame) {
            entry.evictable = evictable;
        }
    }

    /// Pick and unregister a victim, or `None` if nothing is evictable.
    ///
    /// LRU-K: frames with fewer than K accesses have infinite backward-K
    /// distance and are preferred (oldest first access first); among
    /// fully-histogrammed frames the victim has the *oldest* Kth-most-
    /// recent access.
    pub fn evict(&mut self) -> Option<usize> {
        let victim = self
            .entries
            .iter()
            .filter(|(_, e)| e.evictable)
            .min_by_key(|(frame, e)| {
                // Class 0 (< K accesses, infinite distance) sorts before
                // class 1; within a class the oldest relevant tick wins.
                // The frame index breaks exact ties deterministically.
                let class = usize::from(e.history.len() >= self.k);
                let tick = e.history.front().copied().unwrap_or(0);
                (class, tick, **frame)
            })
            .map(|(frame, _)| *frame);
        if let Some(frame) = victim {
            self.entries.remove(&frame);
        }
        victim
    }
}

/// One resident decoded segment.
#[derive(Debug)]
struct Frame {
    segment: SegmentId,
    spans: Arc<Vec<Span>>,
    pins: usize,
}

/// Page-table state for a segment.
#[derive(Debug, Clone, Copy)]
enum Slot {
    /// Decoded and resident in the given frame.
    Resident(usize),
    /// A fetch is in flight; wait on the pool condvar.
    Loading,
}

/// Monotonic pool counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Fetches served from a resident frame.
    pub hits: usize,
    /// Fetches that had to page in from disk.
    pub misses: usize,
    /// Frames evicted to make room.
    pub evictions: usize,
    /// Reads served by bypassing the pool because every frame was
    /// pinned (unbounded memory is never required for correctness).
    pub bypass_reads: usize,
}

#[derive(Debug)]
struct Inner {
    /// Frame slots; `None` means free.
    frames: Vec<Option<Frame>>,
    /// Indices of free slots.
    free: Vec<usize>,
    /// SegmentId → residency state.
    table: HashMap<SegmentId, Slot>,
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
    cfg: BufferPoolConfig,
    sched: DiskScheduler,
    inner: Mutex<Inner>,
    cv: Condvar,
}

impl BufferPool {
    /// Pool with the given config and a fresh background disk scheduler.
    pub fn new(cfg: BufferPoolConfig) -> Self {
        let frames = cfg.frames.max(1);
        BufferPool {
            sched: DiskScheduler::new(cfg.queue_depth),
            inner: Mutex::new(Inner {
                frames: (0..frames).map(|_| None).collect(),
                free: (0..frames).rev().collect(),
                table: HashMap::new(),
                replacer: Replacer::new(cfg.k),
                catalog: HashMap::new(),
                stats: PoolStats::default(),
                next_segment: 0,
            }),
            cv: Condvar::new(),
            cfg: BufferPoolConfig { frames, ..cfg },
        }
    }

    /// Allocate a fresh segment id (the spiller names the file, then
    /// [`BufferPool::register`]s it).
    pub fn alloc_segment(&self) -> SegmentId {
        let mut inner = self.inner.lock().expect("buffer pool lock poisoned");
        let seg = inner.next_segment;
        inner.next_segment += 1;
        seg
    }

    /// Record where `seg` lives on disk. Must happen before any fetch.
    pub fn register(&self, seg: SegmentId, path: PathBuf) {
        let mut inner = self.inner.lock().expect("buffer pool lock poisoned");
        inner.catalog.insert(seg, path);
    }

    /// The pool's background disk scheduler (spill writes go through it
    /// so ingest never does file IO inline).
    pub fn scheduler(&self) -> &DiskScheduler {
        &self.sched
    }

    /// The one segment loader: read the file at `path` on the disk
    /// scheduler's thread and decode it. Page-in, the all-pinned bypass
    /// and crash recovery all come through here, so a file is a valid
    /// segment exactly when this returns `Ok`.
    pub(crate) fn load(&self, path: PathBuf) -> io::Result<SpanSegment> {
        let bytes = self.sched.read(path).wait()?;
        persist::decode_span_segment(&bytes)
    }

    /// Fetch `seg`, paging it in if necessary. The returned [`PageRef`]
    /// pins the frame until dropped.
    pub fn fetch(&self, seg: SegmentId) -> Result<PageRef<'_>, PoolError> {
        let mut inner = self.inner.lock().expect("buffer pool lock poisoned");
        loop {
            match inner.table.get(&seg) {
                Some(&Slot::Resident(frame_idx)) => {
                    inner.stats.hits += 1;
                    let spans = {
                        let frame = inner.frames[frame_idx]
                            .as_mut()
                            .expect("resident slot has a frame");
                        frame.pins += 1;
                        Arc::clone(&frame.spans)
                    };
                    inner.replacer.record_access(frame_idx);
                    inner.replacer.set_evictable(frame_idx, false);
                    return Ok(PageRef {
                        pool: self,
                        frame: frame_idx,
                        spans,
                    });
                }
                Some(&Slot::Loading) => {
                    // Another fetcher is paging this segment in; wait for
                    // it to install (or fail) rather than duplicating IO.
                    inner = self.cv.wait(inner).expect("buffer pool lock poisoned");
                }
                None => break,
            }
        }
        let Some(path) = inner.catalog.get(&seg).cloned() else {
            return Err(PoolError::UnknownSegment(seg));
        };
        // Reserve a frame before releasing the lock: a free one, else a
        // victim from the replacer (which never selects a pinned frame).
        let frame_idx = match inner.free.pop() {
            Some(f) => f,
            None => match inner.replacer.evict() {
                Some(f) => {
                    let old = inner.frames[f].take().expect("victim frame occupied");
                    debug_assert_eq!(old.pins, 0, "evicted a pinned frame");
                    inner.table.remove(&old.segment);
                    inner.stats.evictions += 1;
                    f
                }
                None => return Err(PoolError::AllPinned),
            },
        };
        inner.table.insert(seg, Slot::Loading);
        inner.stats.misses += 1;
        drop(inner);

        // Page-in outside the pool lock.
        let loaded = self.load(path);

        let mut inner = self.inner.lock().expect("buffer pool lock poisoned");
        match loaded {
            Ok(segment) => {
                let spans = Arc::new(segment.spans);
                inner.frames[frame_idx] = Some(Frame {
                    segment: seg,
                    spans: Arc::clone(&spans),
                    pins: 1,
                });
                inner.table.insert(seg, Slot::Resident(frame_idx));
                inner.replacer.record_access(frame_idx);
                inner.replacer.set_evictable(frame_idx, false);
                self.cv.notify_all();
                Ok(PageRef {
                    pool: self,
                    frame: frame_idx,
                    spans,
                })
            }
            Err(e) => {
                inner.table.remove(&seg);
                inner.free.push(frame_idx);
                self.cv.notify_all();
                Err(PoolError::Io(e))
            }
        }
    }

    /// Read one span out of `seg` by its in-segment offset.
    ///
    /// The normal path pins the page, clones the row, and unpins. If
    /// every frame is pinned the read bypasses the pool entirely
    /// (uncached read-through, counted in
    /// [`PoolStats::bypass_reads`]) — correctness never requires more
    /// than the frame budget. Panics if the segment cannot be read at
    /// all: a cold row that was spilled must be recoverable, and
    /// returning a fabricated absence would silently corrupt assembly.
    pub fn read_span(&self, seg: SegmentId, offset: u32) -> Span {
        match self.fetch(seg) {
            Ok(page) => page
                .get(offset as usize)
                .unwrap_or_else(|| panic!("segment {seg} has no row at offset {offset}"))
                .clone(),
            Err(PoolError::AllPinned) => {
                let path = {
                    let mut inner = self.inner.lock().expect("buffer pool lock poisoned");
                    inner.stats.bypass_reads += 1;
                    inner
                        .catalog
                        .get(&seg)
                        .cloned()
                        .unwrap_or_else(|| panic!("unknown segment id {seg}"))
                };
                self.load(path)
                    .unwrap_or_else(|e| panic!("cold segment {seg} unreadable: {e}"))
                    .spans
                    .get(offset as usize)
                    .unwrap_or_else(|| panic!("segment {seg} has no row at offset {offset}"))
                    .clone()
            }
            Err(e) => panic!("cold span page-in failed: {e}"),
        }
    }

    /// Number of frames currently holding a decoded segment.
    pub fn resident_frames(&self) -> usize {
        let inner = self.inner.lock().expect("buffer pool lock poisoned");
        inner.frames.iter().filter(|f| f.is_some()).count()
    }

    /// The configured frame budget.
    pub fn frame_budget(&self) -> usize {
        self.cfg.frames
    }

    /// Snapshot of hit/miss/eviction counters.
    pub fn stats(&self) -> PoolStats {
        self.inner.lock().expect("buffer pool lock poisoned").stats
    }
}

/// RAII pin on a resident segment: derefs to the decoded span slice and
/// unpins on drop (the frame becomes eviction-eligible once its last
/// `PageRef` is gone).
#[derive(Debug)]
pub struct PageRef<'a> {
    pool: &'a BufferPool,
    frame: usize,
    spans: Arc<Vec<Span>>,
}

impl Deref for PageRef<'_> {
    type Target = [Span];

    fn deref(&self) -> &[Span] {
        &self.spans
    }
}

impl Drop for PageRef<'_> {
    fn drop(&mut self) {
        let mut inner = self.pool.inner.lock().expect("buffer pool lock poisoned");
        let frame = inner.frames[self.frame]
            .as_mut()
            .expect("pinned frame occupied");
        frame.pins -= 1;
        if frame.pins == 0 {
            inner.replacer.set_evictable(self.frame, true);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_k_prefers_infinite_distance_then_oldest_kth_access() {
        let mut r = Replacer::new(2);
        for f in 0..3 {
            r.record_access(f); // ticks 1, 2, 3
            r.set_evictable(f, true);
        }
        // Frames 0 and 1 get a second access → full history.
        r.record_access(0); // tick 4
        r.record_access(1); // tick 5
                            // Frame 2 has < K accesses → infinite distance, evicted first.
        assert_eq!(r.evict(), Some(2));
        // Among full histories the oldest Kth-recent access (frame 0's
        // tick 1 vs frame 1's tick 2) loses.
        assert_eq!(r.evict(), Some(0));
        assert_eq!(r.evict(), Some(1));
        assert_eq!(r.evict(), None);
    }

    #[test]
    fn lru_k_is_scan_resistant_where_lru_is_not() {
        // Hot set {0, 1} touched twice; then a scan touches {2, 3} once.
        let setup = |k| {
            let mut r = Replacer::new(k);
            for f in [0usize, 1] {
                r.record_access(f);
                r.record_access(f);
                r.set_evictable(f, true);
            }
            for f in [2usize, 3] {
                r.record_access(f);
                r.set_evictable(f, true);
            }
            r
        };
        // LRU-K: scan frames have infinite backward-2 distance → they go
        // first and the hot set survives.
        let mut lruk = setup(2);
        assert_eq!(lruk.evict(), Some(2));
        assert_eq!(lruk.evict(), Some(3));
        // Plain LRU (K = 1): the hot set is now the *least recent* →
        // flushed by the scan.
        let mut lru = setup(1);
        assert_eq!(lru.evict(), Some(0));
        assert_eq!(lru.evict(), Some(1));
    }

    #[test]
    fn pinned_frames_are_never_victims() {
        let mut r = Replacer::new(2);
        r.record_access(0);
        r.record_access(1);
        r.set_evictable(1, true);
        // Frame 0 is pinned (never marked evictable): only 1 can go.
        assert_eq!(r.evict(), Some(1));
        assert_eq!(r.evict(), None);
        r.set_evictable(0, true);
        assert_eq!(r.evict(), Some(0));
    }
}
