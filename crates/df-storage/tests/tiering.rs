//! Integration tests for the tiered hot/cold span store: spill, page-in
//! through the buffer pool, query equivalence against an all-hot oracle,
//! the frame-budget acceptance check (≥1M spans ingested, resident set
//! bounded by the pool's frame count), and the pool's lending, waiting
//! and single page-in over real segment files.

use df_storage::persist::{self, test_dir};
use df_storage::{BufferPool, BufferPoolConfig, SpanQuery, SpanStore};
use df_types::ids::{FlowId, PseudoThreadId, SpanId, SysTraceId, XRequestId};
use df_types::net::FiveTuple;
use df_types::span::{Span, SpanKind, SpanStatus, TapSide};
use df_types::{AssocKey, TimeNs};
use std::net::Ipv4Addr;
use std::path::PathBuf;
use std::sync::{Arc, Barrier};

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
    // The size law: a segment is its header, the bucket's DFW batch and
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
fn a_failed_spill_flips_no_row() {
    let dir = test_dir("failed-spill");
    // The tier directory is a regular file, so every segment write fails;
    // or bucket 1's segment path is a directory, so only bucket 0's lands.
    let not_a_dir = dir.path().join("file");
    std::fs::write(&not_a_dir, b"").expect("file written");
    let squatted = dir.path().join("squatted");
    std::fs::create_dir_all(squatted.join("shard0000-b000000000001-seg00000001.dfspan"))
        .expect("squatter made");
    let all = SpanQuery::window(TimeNs(0), TimeNs(u64::MAX));
    let ids = |st: &SpanStore| st.query(&all).iter().map(|s| s.span_id).collect::<Vec<_>>();
    for (tier, landed) in [(not_a_dir, 0), (squatted, 1)] {
        let (hot, mut tiered) = tiered_pair(400);
        let pool = Arc::new(BufferPool::new(BufferPoolConfig::with_frames(4)));
        let spilled = tiered.spill_before(TimeNs(2_000_000_000), &pool, &tier, 0);
        assert!(spilled.is_err(), "{tier:?}: a write failed");
        assert_eq!(tiered.cold_rows(), 0, "{tier:?}: no row flipped");
        assert_eq!(pool.scheduler().stats().writes, landed);
        for row in 0..hot.len() as u32 {
            assert_eq!(
                *tiered.span_at(row).expect("row"),
                *hot.span_at(row).expect("row")
            );
        }
        assert_eq!(ids(&tiered), ids(&hot));
    }
}

/// A trace holds its members as the rows [`SpanStore::shared_at`] hands
/// out. Spill flips those rows cold and drops the store's reference, not
/// the trace's: every member held from before the spill still reads its
/// span, and a read after it pages a copy in from the segment.
#[test]
fn rows_shared_before_a_spill_still_read_after_they_flip_cold() {
    let dir = test_dir("shared");
    let (hot, mut tiered) = tiered_pair(200);
    let members: Vec<Arc<Span>> = (0..200)
        .map(|row| tiered.shared_at(row).expect("row exists"))
        .collect();
    let pool = Arc::new(BufferPool::new(BufferPoolConfig::with_frames(2)));
    let stats = tiered
        .spill_before(TimeNs(u64::MAX), &pool, dir.path(), 0)
        .expect("spill succeeds");
    assert_eq!((stats.spans, tiered.cold_rows()), (200, 200));
    for (row, member) in (0..200).zip(&members) {
        let want = hot.span_at(row).expect("oracle row");
        assert_eq!(**member, *want, "row {row} held across the spill");
        let paged = tiered.shared_at(row).expect("cold row pages in");
        assert_eq!(*paged, *want);
        assert!(!Arc::ptr_eq(&paged, member), "a cold read is a fresh copy");
    }
}

/// Eviction drops the pool's reference to a segment, not the reader's:
/// a one-frame pool evicts the segment a reader still holds to page in
/// another, and the held `Arc` keeps reading the spans it was lent.
#[test]
fn a_lent_segment_outlives_the_eviction_of_its_frame() {
    let dir = test_dir("lent");
    let pool = BufferPool::new(BufferPoolConfig::with_frames(1));
    let ids: Vec<u64> = (0..2u64)
        .map(|seg| {
            let path = dir.path().join(format!("seg{seg}.dfspan"));
            register_segment(&pool, path, &[span(seg)])
        })
        .collect();

    let held = pool.fetch(ids[0]).expect("first segment pages in");
    let s = pool.read_span(ids[1], 0);
    assert_eq!(s.flow_id, FlowId(1));
    assert_eq!((pool.stats().evictions, pool.resident_frames()), (1, 1));
    assert_eq!(*held, [span(0)], "the held segment still reads span 0");
}

/// Write `spans` as one segment file at `path` and register it with `pool`.
fn register_segment(pool: &BufferPool, path: PathBuf, spans: &[Span]) -> u64 {
    let rows: Vec<u32> = (0..spans.len() as u32).collect();
    std::fs::write(&path, persist::encode_span_segment(spans, &rows)).expect("segment written");
    let id = pool.alloc_segment();
    pool.register(id, path);
    id
}

/// Fetch `seg` from `threads` threads released at once; every result, in
/// thread order.
fn fetch_at_once(
    pool: &BufferPool,
    seg: u64,
    threads: usize,
) -> Vec<Result<Arc<Vec<Span>>, String>> {
    let start = Barrier::new(threads);
    std::thread::scope(|s| {
        let fetchers: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(|| {
                    start.wait();
                    pool.fetch(seg).map_err(|e| e.to_string())
                })
            })
            .collect();
        fetchers
            .into_iter()
            .map(|t| t.join().expect("fetcher panicked"))
            .collect()
    })
}

/// Concurrent fetchers of one cold segment share a single page-in: the
/// first marks the segment loading and the rest wait on the pool condvar.
#[test]
fn concurrent_fetchers_of_one_cold_segment_share_one_page_in() {
    const THREADS: usize = 4;
    let dir = test_dir("loading");
    let pool = BufferPool::new(BufferPoolConfig::with_frames(4));
    for seg in 0..4u64 {
        let spans = [span(2 * seg), span(2 * seg + 1)];
        let path = dir.path().join(format!("seg{seg}.dfspan"));
        let id = register_segment(&pool, path, &spans);
        let before = pool.stats();
        for got in fetch_at_once(&pool, id, THREADS) {
            assert_eq!(*got.expect("segment pages in"), spans, "segment {seg}");
        }
        let wave = pool.stats();
        assert_eq!(
            wave.misses - before.misses,
            1,
            "one page-in for segment {seg}"
        );
        assert_eq!(wave.hits - before.hits, THREADS - 1, "the rest were hits");
        for _ in 0..THREADS {
            assert_eq!(*pool.fetch(id).expect("resident"), spans);
        }
        let later = pool.stats();
        assert_eq!(
            (later.hits - wave.hits, later.misses),
            (THREADS, wave.misses)
        );
    }
    assert_eq!(pool.stats().evictions, 0);
}

/// A page-in that fails wakes every waiter with an error and gives its
/// frame back: the one-frame pool then pages another segment in without
/// evicting, and fetching the lost segment again fails instead of hanging.
#[test]
fn failed_page_in_errs_every_waiter_and_frees_its_frame() {
    let dir = test_dir("loading-fails");
    let pool = BufferPool::new(BufferPoolConfig::with_frames(1));
    let lost_path = dir.path().join("lost.dfspan");
    let lost = register_segment(&pool, lost_path.clone(), &[span(0)]);
    let kept = register_segment(&pool, dir.path().join("kept.dfspan"), &[span(1)]);
    std::fs::remove_file(&lost_path).expect("segment deleted");
    for got in fetch_at_once(&pool, lost, 4) {
        assert!(got.is_err(), "a waiter was served a deleted segment");
    }
    assert_eq!(
        pool.resident_frames(),
        0,
        "the failed load gave its frame back"
    );
    assert_eq!(*pool.fetch(kept).expect("pages in"), [span(1)]);
    assert_eq!(pool.stats().evictions, 0, "no eviction was needed");
    assert!(pool.fetch(lost).is_err());
}

/// More fetchers than frames: each waits for a frame to finish loading
/// instead of overrunning the budget, and every read is right.
#[test]
fn fetchers_outnumbering_frames_wait_for_a_frame() {
    const THREADS: u64 = 4;
    let dir = test_dir("frame-wait");
    let pool = BufferPool::new(BufferPoolConfig::with_frames(1));
    let ids: Vec<u64> = (0..THREADS)
        .map(|seg| {
            let path = dir.path().join(format!("seg{seg}.dfspan"));
            register_segment(&pool, path, &[span(seg)])
        })
        .collect();
    let start = Barrier::new(THREADS as usize);
    std::thread::scope(|s| {
        for (seg, &id) in ids.iter().enumerate() {
            let (pool, start) = (&pool, &start);
            s.spawn(move || {
                start.wait();
                for _ in 0..50 {
                    assert_eq!(*pool.fetch(id).expect("pages in"), [span(seg as u64)]);
                    assert!(pool.resident_frames() <= 1, "resident within budget");
                }
            });
        }
    });
    assert_eq!(pool.resident_frames(), 1);
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

    // Plant a corrupt file, two foreign-version segments (the retired v1
    // and a future v3, otherwise well-formed) and a segment holding a
    // version-1 DFW batch (its version byte follows the header, the
    // section length and the batch's magic), matching the shard's naming
    // scheme: recovery must count them, not die on them.
    std::fs::write(
        dir.path()
            .join("shard0007-b000000000099-seg00009999.dfspan"),
        b"torn spill",
    )
    .expect("write corrupt file");
    let batch_version = persist::SPAN_SEGMENT_HEADER_LEN + 8 + 4;
    for (seg, (at, version)) in [(8, 1u8), (8, 3), (batch_version, 1)]
        .into_iter()
        .enumerate()
    {
        let mut foreign = persist::encode_span_segment(&[span(300)], &[300]);
        foreign[at] = version;
        std::fs::write(
            dir.path()
                .join(format!("shard0007-b000000000003-seg0000999{seg}.dfspan")),
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
    assert_eq!(recovered.rejected_segments, 4, "corrupt + foreign counted");
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
