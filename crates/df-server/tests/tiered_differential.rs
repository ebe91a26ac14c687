//! Differential tests for tiered (hot/cold) trace assembly: a store
//! whose old buckets were spilled to disk segments and page back through
//! the buffer pool must be **extensionally identical** to the all-hot
//! oracle — same member sets, same parent edges — for every start span,
//! under randomized corpora, watermarks (hot/cold splits that straddle
//! traces), tombstone masks, and span caps.
//!
//! Also pins that spilling is content-neutral: the corpus version does
//! not move (the trace cache's unit tests check that a cached trace stays
//! a hit across a spill of its own buckets).

use df_server::sharded::assemble_trace_sharded;
use df_server::{AssembleConfig, ShardedSpanStore};
use df_storage::persist::test_dir;
use df_storage::{BufferPoolConfig, ShardPolicy, TierConfig};
use df_types::ids::{FlowId, NodeId, Pid, SysTraceId, XRequestId};
use df_types::span::TapSide;
use df_types::trace::Trace;
use df_types::{FiveTuple, Span, SpanId, TimeNs};
use proptest::prelude::*;
use std::net::Ipv4Addr;

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

/// The core differential: same corpus into an all-hot oracle and a tiered
/// store; spill the tiered store at `watermark_ms`; every start span must
/// assemble identically on both.
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
    let cfg = AssembleConfig {
        max_spans,
        ..AssembleConfig::default()
    };
    let ids_a = oracle.insert_batch(spans.clone());
    let ids_b = tiered.insert_batch(spans);
    assert_eq!(ids_a, ids_b, "tiering must not disturb id assignment");

    if let Some(k) = tombstone_every {
        for &id in ids_a.iter().filter(|id| id.raw() % k == 0) {
            oracle.tombstone(id);
            tiered.tombstone(id);
        }
    }

    // 3 frames: tighter than the cold-bucket count → real eviction.
    tiered.enable_tiering(TierConfig::new(dir.path()).with_pool(BufferPoolConfig::with_frames(3)));
    let watermark = TimeNs(watermark_ms * 1_000_000);
    let stats = tiered.spill_before(watermark).expect("spill succeeds");
    let (hot, cold) = tiered.tier_occupancy();
    assert_eq!(cold, stats.spans, "flip count matches spill stats");
    assert_eq!(hot + cold, oracle.len());

    for &id in &ids_a {
        let want = edges(&assemble_trace_sharded(&oracle, id, &cfg));
        let context =
            format!("start {id:?} (watermark {watermark_ms} ms, {shards} shards, cap {max_spans})");
        assert_eq!(
            want,
            edges(&assemble_trace_sharded(&tiered, id, &cfg)),
            "tiered assembly diverged from all-hot oracle at {context}"
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
    st.enable_tiering(TierConfig::new(dir.path()));
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
    let first = st.enable_tiering(TierConfig::new(dir.path().join("first")));
    let stats = st.spill_before(TimeNs(u64::MAX)).expect("spill");
    assert_eq!(stats.spans, ids.len());
    let second = st.enable_tiering(TierConfig::new(dir.path().join("second")));
    assert!(
        std::sync::Arc::ptr_eq(&first, &second),
        "one pool per store"
    );
    for &id in &ids {
        assert_eq!(st.get(id).expect("cold span pages back in").span_id, id);
    }
    assert!(!dir.path().join("second").exists(), "later config ignored");
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
