//! Differential tests for tiered (hot/cold) trace assembly: a store
//! whose old buckets were spilled to disk segments and page back through
//! the buffer pool must be **extensionally identical** to the all-hot
//! oracle — same member sets, same parent edges — for every start span,
//! under randomized corpora, watermarks (hot/cold splits that straddle
//! traces), tombstone masks, and span caps.
//!
//! Also pins the trace-cache interaction: spilling is content-neutral,
//! so the corpus version does not move and a cached trace stays a hit
//! across a spill of its own buckets.

use df_server::sharded::assemble_trace_sharded;
use df_server::{AssembleConfig, ConcurrentConfig, ConcurrentShardedStore, ShardedSpanStore};
use df_storage::{BufferPoolConfig, ShardPolicy, TierConfig};
use df_types::ids::{FlowId, NodeId, Pid, SysTraceId, XRequestId};
use df_types::span::TapSide;
use df_types::trace::Trace;
use df_types::{FiveTuple, Span, SpanId, TimeNs};
use proptest::prelude::*;
use std::net::Ipv4Addr;
use std::path::PathBuf;

/// Unique per-test temp dir for segment files, removed on drop.
struct TestDir {
    path: PathBuf,
}

fn test_dir(tag: &str) -> TestDir {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .expect("clock after epoch")
        .subsec_nanos();
    let path = std::env::temp_dir().join(format!(
        "df-tiered-diff-{tag}-{}-{nanos}",
        std::process::id()
    ));
    TestDir { path }
}

impl Drop for TestDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Random corpus with deliberately small association-key spaces so spans
/// chain into multi-span traces, spread over ~4 one-second buckets so a
/// random watermark produces genuine hot/cold splits (including traces
/// straddling the boundary).
fn corpus(seed: u64, n: usize) -> Vec<Span> {
    let mut rng = TestRng::for_case("tiered-differential", seed);
    let sides = [
        TapSide::ClientProcess,
        TapSide::ClientNodeNic,
        TapSide::Gateway,
        TapSide::ServerNodeNic,
        TapSide::ServerProcess,
    ];
    (0..n)
        .map(|_| {
            let t = rng.next_u64() % 4_000; // ms over 4 buckets
            let mut s = Span::synthetic(
                sides[(rng.next_u64() % 5) as usize],
                t * 1_000_000,
                t * 1_000_000 + rng.next_u64() % 3_000_000,
            );
            s.capture.node = NodeId((rng.next_u64() % 3) as u32);
            s.flow_id = FlowId(rng.next_u64() % 8);
            s.five_tuple = FiveTuple::tcp(
                Ipv4Addr::new(10, 0, 0, (rng.next_u64() % 6) as u8 + 1),
                (rng.next_u64() % 500) as u16 + 1024,
                Ipv4Addr::new(10, 0, 1, (rng.next_u64() % 6) as u8 + 1),
                80,
            );
            s.pid = Some(Pid((rng.next_u64() % 16) as u32));
            // Small key spaces: many spans share keys → chains form.
            if !rng.next_u64().is_multiple_of(3) {
                s.systrace_id_req = Some(SysTraceId(rng.next_u64() % 12));
            }
            if rng.next_u64().is_multiple_of(2) {
                s.systrace_id_resp = Some(SysTraceId(rng.next_u64() % 12));
            }
            if rng.next_u64().is_multiple_of(2) {
                s.x_request_id_req = Some(XRequestId(rng.next_u128() % 6));
            }
            if rng.next_u64().is_multiple_of(3) {
                s.tcp_seq_req = Some((rng.next_u64() % 10) as u32);
            }
            if rng.next_u64().is_multiple_of(4) {
                s.tcp_seq_resp = Some((rng.next_u64() % 10) as u32);
            }
            s
        })
        .collect()
}

/// Canonical edge list: (span, parent) sorted — the extensional content
/// of a trace.
fn edges(t: &Trace) -> Vec<(SpanId, Option<SpanId>)> {
    let mut e: Vec<_> = t.spans.iter().map(|s| (s.span.span_id, s.parent)).collect();
    e.sort_unstable();
    e
}

/// The core differential: same corpus into an all-hot oracle, a tiered
/// store and a tiered threaded store; spill both tiered stores at
/// `watermark_ms`; they must spill the same segments, and every start
/// span must assemble identically on all three.
fn assert_tiered_matches_oracle(
    tag: &str,
    spans: Vec<Span>,
    shards: usize,
    watermark_ms: u64,
    tombstone_every: Option<u64>,
    max_spans: usize,
) {
    let dir = test_dir(tag);
    let policy = ShardPolicy::with_shards(shards);

    let mut oracle = ShardedSpanStore::new(policy);
    let mut tiered = ShardedSpanStore::new(policy);
    // 3 frames: tighter than the cold-bucket count → real eviction.
    let pool =
        |sub: &str| TierConfig::new(dir.path.join(sub)).with_pool(BufferPoolConfig::with_frames(3));
    let cfg = AssembleConfig {
        max_spans,
        ..AssembleConfig::default()
    };
    let mut threaded =
        ConcurrentShardedStore::with_tiering(policy, ConcurrentConfig::default(), pool("threaded"));
    threaded.set_assemble_config(cfg.clone());
    let ids_a = oracle.insert_batch(spans.clone());
    let ids_b = tiered.insert_batch(spans.clone());
    let ids_c = threaded.insert_batch(spans);
    assert_eq!(ids_a, ids_b, "tiering must not disturb id assignment");
    assert_eq!(ids_a, ids_c, "nor must threading");

    if let Some(k) = tombstone_every {
        for &id in ids_a.iter().filter(|id| id.raw() % k == 0) {
            oracle.tombstone(id);
            tiered.tombstone(id);
            threaded.tombstone(id);
        }
    }
    threaded.flush();

    tiered.enable_tiering(pool("sharded"));
    let watermark = TimeNs(watermark_ms * 1_000_000);
    let stats = tiered.spill_before(watermark).expect("spill succeeds");
    let (hot, cold) = tiered.tier_occupancy();
    assert_eq!(cold, stats.spans, "flip count matches spill stats");
    assert_eq!(hot + cold, oracle.len());
    assert_eq!(
        threaded.spill_before(watermark).expect("spill succeeds"),
        stats,
        "both stores spill the same segments"
    );
    assert_eq!(threaded.tier_occupancy(), (hot, cold));

    for &id in &ids_a {
        let want = edges(&assemble_trace_sharded(&oracle, id, &cfg));
        let context =
            format!("start {id:?} (watermark {watermark_ms} ms, {shards} shards, cap {max_spans})");
        assert_eq!(
            want,
            edges(&assemble_trace_sharded(&tiered, id, &cfg)),
            "tiered assembly diverged from all-hot oracle at {context}"
        );
        assert_eq!(
            want,
            edges(&threaded.query_trace(id)),
            "threaded tiered assembly diverged from all-hot oracle at {context}"
        );
    }
}

#[test]
fn straddling_assembly_matches_oracle_fixed_cases() {
    // Watermark mid-corpus: traces straddle the hot/cold boundary.
    assert_tiered_matches_oracle("fixed-mid", corpus(42, 120), 3, 2_000, None, 10_000);
    // Everything cold.
    assert_tiered_matches_oracle("fixed-all", corpus(43, 100), 2, 10_000, None, 10_000);
    // Nothing cold (watermark before the corpus) — spill is a no-op.
    assert_tiered_matches_oracle("fixed-none", corpus(44, 100), 2, 0, None, 10_000);
    // Tombstone mask + tight span cap.
    assert_tiered_matches_oracle("fixed-tomb", corpus(45, 120), 4, 2_500, Some(5), 7);
}

#[test]
fn spill_and_page_in_leave_the_corpus_version_standing() {
    let dir = test_dir("version");
    let mut st = ShardedSpanStore::new(ShardPolicy::with_shards(2));
    let ids = st.insert_batch(corpus(7, 80));
    st.enable_tiering(TierConfig::new(&dir.path));
    let before = st.version();
    let stats = st.spill_before(TimeNs(3_000_000_000)).expect("spill");
    assert!(stats.spans > 0, "something actually spilled");
    // The spilled content is still fully readable.
    for &id in &ids {
        assert!(st.get(id).is_some(), "cold span {id:?} pages back in");
    }
    assert_eq!(st.version(), before, "spill is content-neutral");
}

/// A second `enable_tiering` keeps the tier: the pool that knows the
/// segments already spilled stays attached, and the later config is
/// ignored. (A fresh pool here used to panic the next cold read with
/// "unknown segment id 0".)
#[test]
fn enabling_tiering_twice_keeps_the_spilled_segments_readable() {
    let dir = test_dir("twice");
    let mut st = ShardedSpanStore::new(ShardPolicy::with_shards(2));
    let ids = st.insert_batch(corpus(11, 32));
    let first = st.enable_tiering(TierConfig::new(dir.path.join("first")));
    let stats = st.spill_before(TimeNs(u64::MAX)).expect("spill");
    assert_eq!(stats.spans, ids.len());
    let second = st.enable_tiering(TierConfig::new(dir.path.join("second")));
    assert!(
        std::sync::Arc::ptr_eq(&first, &second),
        "one pool per store"
    );
    for &id in &ids {
        assert_eq!(st.get(id).expect("cold span pages back in").span_id, id);
    }
    assert!(!dir.path.join("second").exists(), "later config ignored");
}

#[test]
fn cached_trace_survives_a_spill_of_its_own_buckets() {
    let dir = test_dir("cache");
    let store = ConcurrentShardedStore::with_tiering(
        ShardPolicy::with_shards(2),
        ConcurrentConfig::default(),
        TierConfig::new(&dir.path),
    );
    let ids = store.insert_batch(corpus(9, 100));
    store.flush();

    let start = ids[0];
    let first = store.query_trace(start); // miss → cached
    let again = store.query_trace(start); // hit
    let s = store.stats();
    assert_eq!(s.cache_misses, 1);
    assert_eq!(s.cache_hits, 1);

    let stats = store.spill_before(TimeNs(5_000_000_000)).expect("spill");
    assert!(stats.spans > 0, "the trace's buckets actually spilled");
    let (_, cold) = store.tier_occupancy();
    assert_eq!(cold, stats.spans);

    // Spill left the corpus version standing, so the cached trace is
    // still a hit, without a key check — and a fresh (cold-serving)
    // assembly agrees with it.
    let after = store.query_trace(start);
    let s = store.stats();
    assert_eq!(s.cache_hits, 2, "cache entry survived the spill");
    assert_eq!(s.cache_revalidations, 0, "a Hit, not Revalidated");
    assert_eq!(s.cache_invalidations, 0);
    assert_eq!(edges(&first), edges(&again));
    assert_eq!(edges(&first), edges(&after));

    // The pool serviced real page-ins for post-spill reads.
    for &id in &ids {
        assert!(store.get(id).is_some());
    }
    let pool = store.buffer_pool().expect("tiering enabled");
    assert!(pool.stats().misses > 0, "cold reads went through the pool");
}

proptest! {
    /// Randomized hot/cold splits: corpora, shard counts, watermarks,
    /// tombstone masks and span caps — tiered assembly always equals the
    /// all-hot oracle.
    #[test]
    fn prop_tiered_assembly_equals_all_hot_oracle(
        seed in any::<u64>(),
        shards in 1usize..4,
        watermark_ms in 0u64..4_500,
        tomb in 0u64..4,
        cap in 0usize..3,
    ) {
        let spans = corpus(seed, 60);
        let tombstone_every = if tomb == 0 { None } else { Some(tomb * 3) };
        let max_spans = [10_000, 9, 3][cap];
        assert_tiered_matches_oracle(
            "prop",
            spans,
            shards,
            watermark_ms,
            tombstone_every,
            max_spans,
        );
    }
}
