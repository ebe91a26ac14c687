//! Tiered-storage bench: buffer-pool page-in cost and eviction-policy
//! quality.
//!
//! Two questions, one per part:
//!
//! * **What does a cold read cost?** Criterion latency of a warm hit
//!   (segment resident, pin/unpin only) vs a cold miss (disk-scheduler
//!   read + DFSPANS1 decode + frame install), plus spill throughput.
//!   The manual timing loops record the same numbers to JSON.
//! * **Does LRU-K earn its complexity?** A scan-then-point workload —
//!   a hot set of segments point-queried every round, interleaved with
//!   one-pass scans over a cold range wider than the frame budget — run
//!   against the *same* segment files under LRU-K (K = 2) and plain
//!   LRU (K = 1). LRU-K must keep the hot set resident (scan pages never
//!   reach K accesses, so they evict each other); LRU flushes it every
//!   scan. The bench asserts the hit-rate ordering, so the `--test` smoke
//!   run in `ci.sh` gates the claim.
//!
//! Results go to `results/storage_tiered.json`, quoted by
//! `EXPERIMENTS.md`.

use criterion::{criterion_group, criterion_main, Criterion};
use df_storage::{persist, BufferPool, BufferPoolConfig, ShardPolicy, SpanStore};
use df_types::ids::{FlowId, SpanId};
use df_types::span::{Span, TapSide};
use df_types::TimeNs;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

const FRAMES: usize = 16;
const HOT_SEGMENTS: usize = 8;
const SCAN_SEGMENTS: usize = 48;
const ROUNDS: usize = 10;
const SPANS_PER_SEGMENT: usize = 16;

fn segment_spans(seg: u64) -> Vec<Span> {
    (0..SPANS_PER_SEGMENT as u64)
        .map(|i| {
            let mut s = Span::synthetic(
                TapSide::ServerProcess,
                seg * 1_000_000_000 + i * 1_000,
                seg * 1_000_000_000 + i * 1_000 + 500,
            );
            s.span_id = SpanId(seg * SPANS_PER_SEGMENT as u64 + i + 1);
            s.flow_id = FlowId(seg);
            s
        })
        .collect()
}

/// Write `count` segment files and return their paths.
fn write_segments(dir: &Path, count: usize) -> Vec<PathBuf> {
    std::fs::create_dir_all(dir).expect("create bench dir");
    (0..count)
        .map(|seg| {
            let spans = segment_spans(seg as u64);
            let rows: Vec<u32> = (0..spans.len() as u32).collect();
            let bytes = persist::encode_span_segment(&spans, &rows);
            let path = dir.join(format!("seg{seg:04}.dfspan"));
            std::fs::write(&path, bytes).expect("write segment");
            path
        })
        .collect()
}

/// A pool over the given segment files; returns (pool, segment ids).
fn pool_over(paths: &[PathBuf], k: usize, frames: usize) -> (BufferPool, Vec<u64>) {
    let pool = BufferPool::new(BufferPoolConfig {
        frames,
        k,
        queue_depth: 64,
    });
    let ids = paths
        .iter()
        .map(|p| {
            let id = pool.alloc_segment();
            pool.register(id, p.clone());
            id
        })
        .collect();
    (pool, ids)
}

/// Run the scan-then-point workload; returns (hit_rate, hot_hit_rate).
/// Each round: every hot segment twice (point queries with re-use, so
/// they cross the K=2 threshold), then a one-pass scan over the cold
/// range (wider than the frame budget), then the hot set once more.
fn scan_then_point(pool: &BufferPool, ids: &[u64]) -> (f64, f64) {
    let (hot, scan) = ids.split_at(HOT_SEGMENTS);
    let mut hot_accesses = 0u64;
    let mut hot_hits = 0u64;
    let mut touch = |seg: u64, is_hot: bool| {
        let before = pool.stats().misses;
        let page = pool.fetch(seg).expect("segment pages in");
        assert_eq!(page.len(), SPANS_PER_SEGMENT);
        drop(page);
        if is_hot {
            hot_accesses += 1;
            if pool.stats().misses == before {
                hot_hits += 1;
            }
        }
    };
    for _round in 0..ROUNDS {
        for &h in hot {
            touch(h, true);
            touch(h, true);
        }
        for &s in scan {
            touch(s, false);
        }
        for &h in hot {
            touch(h, true);
        }
    }
    let st = pool.stats();
    let total = (st.hits + st.misses) as f64;
    (
        st.hits as f64 / total,
        hot_hits as f64 / hot_accesses as f64,
    )
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root")
}

fn bench_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("df-bench-tiered-{tag}-{}", std::process::id()))
}

fn bench_tiered(c: &mut Criterion) {
    let dir = bench_dir("criterion");
    let paths = write_segments(&dir, 2);

    let mut group = c.benchmark_group("storage_tiered");

    // Warm hit: resident frame, pin/unpin and history update only.
    {
        let (pool, ids) = pool_over(&paths, 2, FRAMES);
        pool.fetch(ids[0]).expect("prime");
        group.bench_function("warm_hit", |b| {
            b.iter(|| pool.fetch(ids[0]).expect("resident").len())
        });
    }
    // Cold miss: one frame, two segments — every fetch evicts and pages
    // in through the disk scheduler.
    {
        let (pool, ids) = pool_over(&paths, 2, 1);
        let mut flip = 0usize;
        group.bench_function("cold_miss", |b| {
            b.iter(|| {
                flip ^= 1;
                pool.fetch(ids[flip]).expect("pages in").len()
            })
        });
    }
    // Spill throughput: encode + write + flip for a 4-bucket store.
    group.bench_function("spill_4_buckets", |b| {
        b.iter(|| {
            let mut st = SpanStore::new();
            for seg in 0..4u64 {
                for s in segment_spans(seg) {
                    let mut s = s;
                    s.span_id = SpanId(0);
                    st.insert(s);
                }
            }
            let pool = Arc::new(BufferPool::new(BufferPoolConfig::with_frames(FRAMES)));
            let stats = st
                .spill_before(
                    &ShardPolicy::single(),
                    TimeNs(u64::MAX),
                    &pool,
                    &dir.join("spill"),
                    0,
                )
                .expect("spill succeeds");
            stats.spans
        })
    });
    group.finish();

    // ---- Manual measurements for the JSON snapshot ----

    let warm_ns = {
        let (pool, ids) = pool_over(&paths, 2, FRAMES);
        pool.fetch(ids[0]).expect("prime");
        let t = Instant::now();
        let reps = 10_000u32;
        for _ in 0..reps {
            let p = pool.fetch(ids[0]).expect("resident");
            std::hint::black_box(p.len());
        }
        t.elapsed().as_nanos() as f64 / f64::from(reps)
    };
    let cold_ns = {
        let (pool, ids) = pool_over(&paths, 2, 1);
        let t = Instant::now();
        let reps = 200u32;
        for r in 0..reps {
            let p = pool.fetch(ids[(r % 2) as usize]).expect("pages in");
            std::hint::black_box(p.len());
        }
        t.elapsed().as_nanos() as f64 / f64::from(reps)
    };

    // ---- LRU-K vs plain LRU on the scan-then-point workload ----

    let dir2 = bench_dir("policies");
    let paths = write_segments(&dir2, HOT_SEGMENTS + SCAN_SEGMENTS);
    let mut rates = Vec::new();
    for (name, k) in [("lru_k", 2), ("lru", 1)] {
        let (pool, ids) = pool_over(&paths, k, FRAMES);
        let (hit_rate, hot_hit_rate) = scan_then_point(&pool, &ids);
        println!(
            "storage_tiered/{name:6}  hit rate {:5.1}%   hot-set hit rate {:5.1}%",
            hit_rate * 100.0,
            hot_hit_rate * 100.0
        );
        rates.push((name, hit_rate, hot_hit_rate));
    }
    // The claim the smoke gate enforces: scan resistance.
    assert!(
        rates[0].1 > rates[1].1,
        "LRU-K must beat LRU on scan-then-point: {rates:?}"
    );
    assert!(
        rates[0].2 > 0.9,
        "LRU-K must keep the hot set resident across scans: {rates:?}"
    );

    let json = serde_json::json!({
        "config": {
            "frames": FRAMES,
            "k": 2,
            "hot_segments": HOT_SEGMENTS,
            "scan_segments": SCAN_SEGMENTS,
            "rounds": ROUNDS,
            "spans_per_segment": SPANS_PER_SEGMENT,
        },
        "latency_ns": {
            "warm_hit": warm_ns,
            "cold_miss": cold_ns,
        },
        "hit_rate": rates
            .iter()
            .map(|(n, hr, _)| (n.to_string(), *hr))
            .collect::<std::collections::BTreeMap<_, _>>(),
        "hot_set_hit_rate": rates
            .iter()
            .map(|(n, _, hh)| (n.to_string(), *hh))
            .collect::<std::collections::BTreeMap<_, _>>(),
    });
    let root = repo_root();
    let body = serde_json::to_string_pretty(&json).expect("serialise");
    let _ = std::fs::create_dir_all(root.join("results"));
    let _ = std::fs::write(root.join("results/storage_tiered.json"), &body);
    println!("[saved results/storage_tiered.json]");

    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&dir2);
}

criterion_group!(benches, bench_tiered);
criterion_main!(benches);
