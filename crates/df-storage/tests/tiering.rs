//! Integration tests for the tiered hot/cold span store: spill, page-in
//! through the buffer pool, query equivalence against an all-hot oracle,
//! the frame-budget acceptance check (≥1M spans ingested, resident set
//! bounded by the pool's frame count), and LRU-K's scan resistance over
//! real segment files.

use df_check::sync::Arc;
use df_storage::persist;
use df_storage::{BufferPool, BufferPoolConfig, SpanQuery, SpanStore};
use df_types::ids::{FlowId, PseudoThreadId, SpanId, SysTraceId, XRequestId};
use df_types::net::FiveTuple;
use df_types::span::{Span, SpanKind, SpanStatus, TapSide};
use df_types::{AssocKey, TimeNs};
use std::net::Ipv4Addr;
use std::path::{Path, PathBuf};

/// Unique per-test temp dir, removed on drop.
struct TestDir {
    path: PathBuf,
}

fn test_dir(tag: &str) -> TestDir {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .expect("clock after epoch")
        .subsec_nanos();
    let path =
        std::env::temp_dir().join(format!("df-tiering-{tag}-{}-{nanos}", std::process::id()));
    std::fs::create_dir_all(&path).expect("create test dir");
    TestDir { path }
}

impl TestDir {
    fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for TestDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// A span with deterministic association keys so the hash indexes carry
/// real entries.
fn span(i: u64) -> Span {
    let req_ns = i * 10_000_000; // 10 ms apart → 100 per 1 s bucket
    Span {
        flow_id: FlowId(i),
        five_tuple: FiveTuple::tcp(
            Ipv4Addr::new(10, 0, (i % 8) as u8, 1),
            40000 + (i % 100) as u16,
            Ipv4Addr::new(10, 0, 0, 2),
            80,
        ),
        endpoint: format!("GET /api/endpoint-{}", i % 16),
        req_bytes: 10,
        resp_bytes: 20,
        systrace_id_req: Some(SysTraceId(1_000 + i / 2)),
        pseudo_thread_id: i.is_multiple_of(3).then_some(PseudoThreadId(500 + i / 3)),
        x_request_id_req: i.is_multiple_of(4).then_some(XRequestId(7_000 + i as u128)),
        tcp_seq_req: Some(90_000 + (i / 2) as u32),
        ..Span::synthetic(TapSide::ClientProcess, req_ns, req_ns + 1_000_000)
    }
}

/// A stripped-down span for the bulk 1M-row test: no association keys, a
/// short endpoint, `bucket` selected directly.
fn bulk_span(i: u64, bucket: u64) -> Span {
    let req_ns = bucket * 1_000_000_000 + (i % 1_000_000);
    Span {
        kind: SpanKind::Net,
        flow_id: FlowId(i),
        endpoint: String::new(),
        status_code: None,
        ..Span::synthetic(TapSide::ClientNodeNic, req_ns, req_ns + 1)
    }
}

fn tiered_pair(n: u64) -> (SpanStore, SpanStore) {
    let mut hot = SpanStore::new();
    let mut tiered = SpanStore::new();
    for i in 0..n {
        hot.insert(span(i));
        tiered.insert(span(i));
    }
    (hot, tiered)
}

#[test]
fn spill_flips_old_buckets_and_preserves_every_read_path() {
    let dir = test_dir("equiv");
    let (hot, mut tiered) = tiered_pair(400); // 4 one-second buckets
    let pool = Arc::new(BufferPool::new(BufferPoolConfig::with_frames(8)));

    // Spill buckets 0 and 1 (watermark = start of bucket 2).
    let stats = tiered
        .spill_before(TimeNs(2_000_000_000), &pool, dir.path(), 0)
        .expect("spill succeeds");
    assert_eq!(stats.segments, 2, "one segment per cold bucket");
    assert_eq!(stats.spans, 200);
    // The size law: a segment is its header, the bucket's DFW1 batch and
    // the row numbers, each section behind a u64 length — nothing else.
    let law: usize = [0..100u64, 100..200]
        .into_iter()
        .map(|bucket| {
            let spans: Vec<Span> = bucket
                .map(|i| hot.get(SpanId(i + 1)).expect("oracle has id").into_owned())
                .collect();
            18 + (8 + df_types::wire::encode_batch(&spans).len()) + (8 + 4 + 4 * spans.len())
        })
        .sum();
    assert_eq!(stats.bytes, law as u64);
    assert_eq!(tiered.cold_rows(), 200);
    assert_eq!(tiered.hot_rows(), 200);
    assert_eq!(hot.len(), tiered.len());

    // get() by id pages cold rows in transparently.
    for i in 0..400u64 {
        let id = SpanId(i + 1);
        let want = hot.get(id).expect("oracle has id");
        let got = tiered.get(id).expect("tiered store serves cold ids");
        assert_eq!(*want, *got, "span {id:?} identical across tiers");
    }

    // Window queries straddling the hot/cold boundary match the oracle.
    let q = SpanQuery::window(TimeNs(1_500_000_000), TimeNs(2_500_000_000));
    let want: Vec<SpanId> = hot.query(&q).iter().map(|s| s.span_id).collect();
    let got: Vec<SpanId> = tiered.query(&q).iter().map(|s| s.span_id).collect();
    assert_eq!(want, got, "straddling window query matches all-hot oracle");

    // Association probes still resolve on cold rows, and the rows they
    // name materialise to the oracle's spans.
    for i in 0..400u64 {
        let key = 1_000 + i / 2;
        let rows = tiered.find(AssocKey::Systrace(key)).to_vec();
        assert_eq!(rows, hot.find(AssocKey::Systrace(key)).to_vec());
        for row in rows {
            assert_eq!(
                *tiered.span_at(row).expect("probe row exists"),
                *hot.span_at(row).expect("oracle row exists")
            );
        }
    }

    // Full iteration agrees.
    let want: Vec<Span> = hot.iter().map(|s| s.into_owned()).collect();
    let got: Vec<Span> = tiered.iter().map(|s| s.into_owned()).collect();
    assert_eq!(want, got, "iter() identical across tiers");

    // The pool actually serviced the cold reads.
    let ps = pool.stats();
    assert!(ps.misses >= 2, "both segments paged in at least once");
    assert!(ps.hits > 0, "repeat reads hit resident frames");
}

#[test]
fn tombstones_survive_spill_and_compaction_pages_in() {
    let dir = test_dir("tombstone");
    let (mut hot, mut tiered) = tiered_pair(300);
    let pool = Arc::new(BufferPool::new(BufferPoolConfig::with_frames(4)));

    // Tombstone every 7th span *before* the spill: tombstoned rows still
    // spill (the segment is an image of the rows), but stay masked.
    let doomed: Vec<SpanId> = (0..300u64)
        .filter(|i| i.is_multiple_of(7))
        .map(|i| SpanId(i + 1))
        .collect();
    for &id in &doomed {
        hot.tombstone(id);
        tiered.tombstone(id);
    }
    tiered
        .spill_before(TimeNs(2_000_000_000), &pool, dir.path(), 0)
        .expect("spill succeeds");

    let q = SpanQuery::window(TimeNs(0), TimeNs(3_000_000_000));
    let want: Vec<SpanId> = hot.query(&q).iter().map(|s| s.span_id).collect();
    let got: Vec<SpanId> = tiered.query(&q).iter().map(|s| s.span_id).collect();
    assert_eq!(want, got, "tombstone mask identical across tiers");
    assert!(!got.contains(&SpanId(1)), "tombstoned span filtered");

    // Index compaction over cold rows pages them in to erase their keys.
    let evicted_hot = hot.evict_tombstoned();
    let evicted_tiered = tiered.evict_tombstoned();
    assert_eq!(evicted_hot, evicted_tiered);
    for i in (0..300u64).filter(|i| i.is_multiple_of(7)) {
        let key = 1_000 + i / 2;
        assert_eq!(
            tiered.find(AssocKey::Systrace(key)).to_vec(),
            hot.find(AssocKey::Systrace(key)).to_vec(),
            "compacted probe agrees for key {key}"
        );
    }
}

#[test]
fn incomplete_spans_never_spill() {
    let dir = test_dir("incomplete");
    let mut st = SpanStore::new();
    let pool = Arc::new(BufferPool::new(BufferPoolConfig::with_frames(4)));

    for i in 0..100u64 {
        let mut s = span(i);
        if i.is_multiple_of(5) {
            s.status = SpanStatus::Incomplete;
        }
        st.insert(s);
    }
    let stats = st
        .spill_before(TimeNs(u64::MAX), &pool, dir.path(), 0)
        .expect("spill succeeds");
    assert_eq!(stats.spans, 80, "incomplete spans stay hot");
    assert_eq!(st.hot_rows(), 20);

    // The half-open exchange can still be completed in place.
    let mut resp = span(0);
    resp.resp_time = TimeNs(99_000_000_000);
    assert!(st.complete_span(SpanId(1), &resp), "hot row completes");
}

#[test]
fn repeated_spill_is_idempotent_and_new_buckets_spill_later() {
    let dir = test_dir("idempotent");
    let (_, mut st) = tiered_pair(200);
    let pool = Arc::new(BufferPool::new(BufferPoolConfig::with_frames(4)));

    let first = st
        .spill_before(TimeNs(1_000_000_000), &pool, dir.path(), 0)
        .expect("spill succeeds");
    assert_eq!(first.spans, 100);
    let again = st
        .spill_before(TimeNs(1_000_000_000), &pool, dir.path(), 0)
        .expect("re-spill succeeds");
    assert_eq!(again.spans, 0, "already-cold rows are not re-spilled");
    assert_eq!(again.segments, 0);

    let rest = st
        .spill_before(TimeNs(2_000_000_000), &pool, dir.path(), 0)
        .expect("later spill succeeds");
    assert_eq!(rest.spans, 100, "the newer bucket spills once eligible");
    assert_eq!(st.cold_rows(), 200);
}

#[test]
fn all_pinned_pool_serves_reads_through_the_bypass_path() {
    let dir = test_dir("bypass");
    let pool = BufferPool::new(BufferPoolConfig::with_frames(1));

    // Two one-span segments behind a one-frame pool.
    let mut paths = Vec::new();
    for seg in 0..2u64 {
        let spans = vec![span(seg)];
        let bytes = persist::encode_span_segment(&spans, &[seg as u32]);
        let path = dir.path().join(format!("seg{seg}.dfspan"));
        pool.scheduler()
            .write(path.clone(), bytes)
            .wait()
            .expect("segment written");
        let id = pool.alloc_segment();
        pool.register(id, path.clone());
        paths.push(id);
    }

    let pinned = pool.fetch(paths[0]).expect("first segment pages in");
    assert_eq!(pinned.len(), 1);
    // The only frame is pinned: reading the other segment cannot evict,
    // so read_span falls back to a direct scheduler read.
    let s = pool.read_span(paths[1], 0);
    assert_eq!(s.flow_id, FlowId(1));
    let stats = pool.stats();
    assert_eq!(stats.bypass_reads, 1, "bypass read counted");
    assert_eq!(pool.resident_frames(), 1);
    drop(pinned);

    // With the pin released the second segment evicts the first normally.
    let _second = pool.fetch(paths[1]).expect("evicts the unpinned frame");
    assert!(pool.stats().evictions >= 1);
}

#[test]
fn crash_recovery_reregisters_segments_and_rebuilds_reads() {
    let dir = test_dir("recovery");

    // First incarnation: ingest 3 one-second buckets, spill them all.
    let (oracle, mut first) = tiered_pair(300);
    let pool = Arc::new(BufferPool::new(BufferPoolConfig::with_frames(8)));
    let spilled = first
        .spill_before(TimeNs(3_000_000_000), &pool, dir.path(), 7)
        .expect("spill succeeds");
    assert_eq!(spilled.segments, 3);
    assert_eq!(spilled.spans, 300);
    drop(first);
    drop(pool); // crash: all in-memory state gone

    // Plant a corrupt file and two foreign-version segments (the retired
    // v1 and a future v3, otherwise well-formed) matching the shard's
    // naming scheme: recovery must count them, not die on them.
    std::fs::write(
        dir.path()
            .join("shard0007-b000000000099-seg00009999.dfspan"),
        b"torn spill",
    )
    .expect("write corrupt file");
    for version in [1u8, 3] {
        let mut foreign = persist::encode_span_segment(&[span(300)], &[300]);
        foreign[8] = version;
        std::fs::write(
            dir.path().join(format!(
                "shard0007-b000000000003-seg0000999{version}.dfspan"
            )),
            foreign,
        )
        .expect("write foreign-version file");
    }

    // Second incarnation: fresh pool, fresh store, recover from disk.
    let pool = Arc::new(BufferPool::new(BufferPoolConfig::with_frames(8)));
    let mut revived = SpanStore::new();
    let recovered = revived
        .recover_cold_segments(&pool, dir.path(), 7)
        .expect("recovery succeeds");
    assert_eq!(recovered.segments, 3, "every DFSPANS1 file re-registered");
    assert_eq!(recovered.rejected_segments, 3, "corrupt + foreign counted");
    assert_eq!(recovered.rows, 300);
    assert_eq!(recovered.orphan_rows, 0);
    assert_eq!(revived.len(), 300);
    assert_eq!(revived.cold_rows(), 300);

    // Every read path agrees with the never-crashed oracle.
    for i in 0..300u64 {
        let id = SpanId(i + 1);
        assert_eq!(
            *oracle.get(id).expect("oracle has id"),
            *revived.get(id).expect("revived store serves id"),
        );
    }
    let q = SpanQuery::window(TimeNs(500_000_000), TimeNs(2_500_000_000));
    let want: Vec<SpanId> = oracle.query(&q).iter().map(|s| s.span_id).collect();
    let got: Vec<SpanId> = revived.query(&q).iter().map(|s| s.span_id).collect();
    assert_eq!(want, got, "window query identical after recovery");
    for i in 0..300u64 {
        let key = 1_000 + i / 2;
        assert_eq!(
            revived.find(AssocKey::Systrace(key)).to_vec(),
            oracle.find(AssocKey::Systrace(key)).to_vec(),
            "association probe identical after recovery"
        );
    }
    assert!(pool.stats().misses >= 3, "reads went through the new pool");
}

#[test]
fn recovery_adopts_valid_files_and_counts_corrupt_ones() {
    let dir = test_dir("recovery-scan");
    let spans: Vec<Span> = (0..3).map(span).collect();
    let bytes = persist::encode_span_segment(&spans, &[0, 1, 2]);
    let write = |name: &str, bytes: &[u8]| {
        std::fs::write(dir.path().join(name), bytes).expect("write file");
    };
    // Two valid segments for shard 2, written out of order to check the
    // scan sorts by path (= spill order).
    write("shard0002-b000000000005-seg00000001.dfspan", &bytes);
    write("shard0002-b000000000001-seg00000000.dfspan", &bytes);
    // A different shard's segment: ignored.
    write("shard0003-b000000000001-seg00000002.dfspan", &bytes);
    // Garbage and a truncated-but-magic-valid file matching shard 2's
    // pattern: counted, not fatal.
    write("shard0002-b000000000009-seg00000009.dfspan", b"garbage");
    write(
        "shard0002-b000000000010-seg00000010.dfspan",
        &bytes[..bytes.len() - 1],
    );
    // Unrelated noise: skipped silently.
    write("notes.txt", b"hi");

    let candidates = persist::scan_span_segments(dir.path(), 2).expect("scan");
    let names: Vec<&str> = candidates
        .iter()
        .map(|p| p.file_name().unwrap().to_str().unwrap())
        .collect();
    assert_eq!(names.len(), 4, "shard 2's files only: {names:?}");
    assert!(names[0].contains("seg00000000") && names[1].contains("seg00000001"));

    let pool = Arc::new(BufferPool::new(BufferPoolConfig::with_frames(2)));
    let mut revived = SpanStore::new();
    let recovered = revived
        .recover_cold_segments(&pool, dir.path(), 2)
        .expect("recovery succeeds");
    assert_eq!(recovered.segments, 2);
    assert_eq!(recovered.rejected_segments, 2);
    assert_eq!((recovered.rows, recovered.orphan_rows), (3, 0));
    assert_eq!(
        revived.get(SpanId(3)).expect("row serves").flow_id,
        FlowId(2)
    );

    // A directory that never existed has nothing to recover, not an error.
    let mut empty = SpanStore::new();
    let none = empty
        .recover_cold_segments(&pool, &dir.path().join("nope"), 2)
        .expect("missing directory is an empty scan");
    assert_eq!(none, df_storage::RecoverStats::default());
}

#[test]
fn recovery_with_a_lost_middle_segment_adopts_only_the_prefix() {
    let dir = test_dir("recovery-gap");
    let (_, mut first) = tiered_pair(300);
    let pool = Arc::new(BufferPool::new(BufferPoolConfig::with_frames(8)));
    first
        .spill_before(TimeNs(3_000_000_000), &pool, dir.path(), 0)
        .expect("spill succeeds");
    drop(first);
    drop(pool);

    // Lose the middle bucket's segment (rows 100..200).
    let victim = std::fs::read_dir(dir.path())
        .expect("read dir")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .find(|p| p.to_str().unwrap().contains("-b000000000001-"))
        .expect("middle segment exists");
    std::fs::remove_file(&victim).expect("remove middle segment");

    let pool = Arc::new(BufferPool::new(BufferPoolConfig::with_frames(8)));
    let mut revived = SpanStore::new();
    let recovered = revived
        .recover_cold_segments(&pool, dir.path(), 0)
        .expect("recovery succeeds");
    assert_eq!(recovered.segments, 2);
    assert_eq!(recovered.rows, 100, "contiguous prefix only");
    assert_eq!(
        recovered.orphan_rows, 100,
        "post-gap rows left for backfill"
    );
    assert_eq!(revived.len(), 100);
    let mut want = span(99);
    want.span_id = SpanId(100);
    assert_eq!(*revived.get(SpanId(100)).expect("prefix row serves"), want);
}

/// The ISSUE's acceptance check: ingest ≥1M spans under a small frame
/// budget, spill everything but the newest bucket, touch every cold
/// segment, and assert the resident set never exceeds the budget.
#[test]
fn million_span_ingest_stays_within_frame_budget() {
    let dir = test_dir("budget-1m");
    const TOTAL: u64 = 1_000_000;
    const BUCKETS: u64 = 8;

    let mut st = SpanStore::new();
    st.insert_batch(
        (0..TOTAL)
            .map(|i| bulk_span(i, i % BUCKETS))
            .collect::<Vec<_>>(),
    );
    assert_eq!(st.len() as u64, TOTAL);

    let pool = Arc::new(BufferPool::new(BufferPoolConfig::with_frames(4)));
    // Keep only the newest bucket hot: 7 cold buckets → 7 segments.
    let stats = st
        .spill_before(TimeNs((BUCKETS - 1) * 1_000_000_000), &pool, dir.path(), 0)
        .expect("bulk spill succeeds");
    assert_eq!(stats.segments, (BUCKETS - 1) as usize);
    assert_eq!(stats.spans as u64, TOTAL / BUCKETS * (BUCKETS - 1));
    assert_eq!(st.hot_rows() as u64, TOTAL / BUCKETS);
    assert_eq!(st.cold_rows() as u64, TOTAL - TOTAL / BUCKETS);

    // Touch one span per cold bucket, twice around: every touch pages the
    // segment in, and the resident set must stay within the frame budget
    // the whole time.
    assert_eq!(pool.frame_budget(), 4);
    for round in 0..2 {
        for b in 0..(BUCKETS - 1) {
            // Row layout is insertion order: bucket b starts at row b.
            let row = b as u32 + round * 8;
            let s = st.span_at(row).expect("cold row pages in");
            assert_eq!(s.flow_id, FlowId(row as u64));
            assert!(
                pool.resident_frames() <= pool.frame_budget(),
                "resident set within the frame budget"
            );
        }
    }
    let ps = pool.stats();
    assert!(
        ps.misses >= (BUCKETS - 1) as usize,
        "every segment paged in"
    );
    assert!(
        ps.evictions >= 3,
        "the pool recycled frames to stay in budget"
    );
}

/// LRU-K earns its complexity at the pool level, over real segment
/// files: a hot set of 8 segments point-queried every round (twice, so
/// it crosses the K = 2 threshold), interleaved with one-pass scans over
/// 48 cold segments — three times the 16-frame budget. Under K = 2 the
/// scan pages never reach K accesses and evict each other; under plain
/// LRU (K = 1) every scan flushes the hot set. The rates are `PoolStats`
/// counters of a single-threaded access sequence, so they are pinned.
#[test]
fn lru_k_pool_keeps_the_hot_set_across_scans_where_lru_does_not() {
    const HOT: usize = 8;
    const SCAN: usize = 48;
    const ROUNDS: usize = 10;
    let dir = test_dir("scan-resistance");
    let paths: Vec<PathBuf> = (0..(HOT + SCAN) as u64)
        .map(|seg| {
            let spans = vec![span(2 * seg), span(2 * seg + 1)];
            let path = dir.path().join(format!("seg{seg:04}.dfspan"));
            std::fs::write(&path, persist::encode_span_segment(&spans, &[0, 1]))
                .expect("segment written");
            path
        })
        .collect();

    // The pool's counters and the hot-set hits of the workload under
    // replacer depth `k`.
    let run = |k: usize| {
        let pool = BufferPool::new(BufferPoolConfig {
            frames: 16,
            k,
            queue_depth: 64,
        });
        let ids: Vec<u64> = paths
            .iter()
            .map(|p| {
                let id = pool.alloc_segment();
                pool.register(id, p.clone());
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
    let (lru_k, lru_k_hot) = run(2);
    let (lru, lru_hot) = run(1);
    assert!(
        lru_k.hits > lru.hits,
        "LRU-K must out-hit LRU: {lru_k:?} vs {lru:?}"
    );
    assert!(
        lru_k_hot * 10 > hot_accesses * 9,
        "LRU-K must keep the hot set resident across scans: {lru_k_hot} of {hot_accesses}"
    );
    // 232/720 = 32.2 % overall and 232/240 = 96.7 % of hot accesses (only
    // the first round's 8 cold faults miss) against 152/720 = 21.1 % and
    // 152/240 = 63.3 %: every hit there is, is a hot-set hit.
    assert_eq!((lru_k.hits, lru_k.misses, lru_k_hot), (232, 488, 232));
    assert_eq!((lru.hits, lru.misses, lru_hot), (152, 568, 152));
}
