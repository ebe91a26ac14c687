//! Differential tests for the DFW1 wire ingest path: shipping a batch as
//! encoded bytes through [`ConcurrentShardedStore::ingest_wire`] /
//! [`Server::ingest_wire`] must leave the store in *exactly* the state
//! that handing the same spans to the struct path does — same ids, same
//! shard rows, same query results, byte-identical re-encodings — and a
//! malformed batch must leave it in exactly the state of never having
//! called ingest at all.

use df_server::{ConcurrentShardedStore, Server, WireIngestError};
use df_storage::{ShardPolicy, SpanQuery};
use df_types::ids::*;
use df_types::span::{CapturePoint, TapSide};
use df_types::tags::ResourceInventory;
use df_types::wire;
use df_types::{FiveTuple, Span, SpanId, SpanStatus, TimeNs};
use proptest::prelude::*;
use std::net::Ipv4Addr;

/// Deterministic corpus: spans spread over a handful of flows, endpoints
/// and tap sides so multi-shard policies actually fan out.
fn corpus(seed: u64, n: usize) -> Vec<Span> {
    let mut rng = TestRng::for_case("wire-differential", seed);
    let tap_sides = [
        TapSide::ClientProcess,
        TapSide::ClientNodeNic,
        TapSide::Gateway,
        TapSide::ServerNodeNic,
        TapSide::ServerProcess,
    ];
    (0..n)
        .map(|i| {
            let t = rng.next_u64() % 1_000;
            // Field order is draw order; the rest is `synthetic`'s.
            let mut span = Span {
                capture: CapturePoint {
                    node: NodeId((rng.next_u64() % 4) as u32),
                    tap_side: tap_sides[(rng.next_u64() % 5) as usize],
                    interface: None,
                },
                agent: AgentId((rng.next_u64() % 4) as u32),
                flow_id: FlowId(rng.next_u64() % 16),
                five_tuple: FiveTuple::tcp(
                    Ipv4Addr::new(10, 0, 0, (rng.next_u64() % 250) as u8 + 1),
                    (rng.next_u64() % 1000) as u16 + 1024,
                    Ipv4Addr::new(10, 0, 1, (rng.next_u64() % 250) as u8 + 1),
                    80,
                ),
                endpoint: format!("GET /api/{}", rng.next_u64() % 8),
                req_time: TimeNs(t * 1_000_000),
                resp_time: TimeNs(t * 1_000_000 + rng.next_u64() % 5_000_000),
                status: if rng.next_u64().is_multiple_of(10) {
                    SpanStatus::ServerError
                } else {
                    SpanStatus::Ok
                },
                req_bytes: rng.next_u64() % 4096,
                resp_bytes: rng.next_u64() % 65536,
                pid: Some(Pid((rng.next_u64() % 100) as u32)),
                process_name: Some(format!("svc-{}", i % 3).into()),
                systrace_id_req: Some(SysTraceId(rng.next_u64() % 8)),
                x_request_id_req: Some(XRequestId(rng.next_u128() % 4)),
                tcp_seq_req: Some((rng.next_u64() % 10) as u32),
                ..Span::synthetic(TapSide::Gateway, 0, 0)
            };
            span.tags = std::mem::take(&mut span.tags).with_label("env", "prod");
            span
        })
        .collect()
}

/// Drain a store into a canonical, id-ordered span list.
fn full_scan(store: &ConcurrentShardedStore) -> Vec<Span> {
    (1..=store.len() as u64)
        .map(|id| store.get(SpanId(id)).expect("applied after flush"))
        .collect()
}

/// The core differential: batches through the struct path on one store,
/// the same batches DFW1-encoded through the wire path on another —
/// every observable (ids, shard layout, scans, per-id gets, and the
/// re-encoded bytes of the final state) must be identical.
fn assert_wire_matches_struct(policy: fn() -> ShardPolicy, batches: &[Vec<Span>]) {
    let struct_store = ConcurrentShardedStore::new(policy());
    let wire_store = ConcurrentShardedStore::new(policy());

    for batch in batches {
        let ids_struct = struct_store.insert_batch(batch.clone());
        let encoded = wire::encode_batch(batch);
        let ids_wire = wire_store.ingest_wire(&encoded).expect("valid batch");
        assert_eq!(ids_struct, ids_wire, "id assignment diverged");
    }
    struct_store.flush();
    wire_store.flush();

    assert_eq!(struct_store.len(), wire_store.len());
    assert_eq!(struct_store.shard_sizes(), wire_store.shard_sizes());
    let a = full_scan(&struct_store);
    let b = full_scan(&wire_store);
    assert_eq!(a, b, "scan results diverged");
    // Byte-identical: re-encoding the final state from both stores
    // produces the same DFW1 bytes.
    assert_eq!(wire::encode_batch(&a), wire::encode_batch(&b));
    for span in &a {
        assert_eq!(struct_store.get(span.span_id), wire_store.get(span.span_id));
    }
}

#[test]
fn wire_ingest_matches_struct_ingest_single_shard() {
    let spans = corpus(7, 200);
    let batches: Vec<Vec<Span>> = spans.chunks(37).map(<[Span]>::to_vec).collect();
    assert_wire_matches_struct(|| ShardPolicy::with_shards(1), &batches);
}

#[test]
fn wire_ingest_matches_struct_ingest_sharded() {
    let spans = corpus(11, 300);
    let batches: Vec<Vec<Span>> = spans.chunks(41).map(<[Span]>::to_vec).collect();
    assert_wire_matches_struct(|| ShardPolicy::with_shards(4), &batches);
}

#[test]
fn malformed_batch_leaves_store_untouched() {
    let store = ConcurrentShardedStore::new(ShardPolicy::with_shards(2));
    let spans = corpus(3, 10);

    // Truncate a valid encoding mid-frame: decode must fail *before* any
    // routing state changes.
    let valid = wire::encode_batch(&spans);
    let err = store.ingest_wire(&valid[..valid.len() - 3]).unwrap_err();
    assert!(matches!(err, WireIngestError::Decode(_)), "got {err:?}");
    // And the error chain carries the wire error as its source.
    assert!(std::error::Error::source(&err).is_some());

    store.flush();
    assert_eq!(store.len(), 0, "failed ingest must not assign ids");
    assert_eq!(store.shard_sizes(), vec![0, 0]);

    // The next successful ingest starts at id 1 — proof the failed call
    // consumed nothing.
    let ids = store.ingest_wire(&valid).expect("valid bytes");
    assert_eq!(ids[0], SpanId(1));

    // A header-only prefix is rejected the same way.
    let store2 = ConcurrentShardedStore::new(ShardPolicy::with_shards(1));
    assert!(store2.ingest_wire(&valid[..4]).is_err());
    store2.flush();
    assert_eq!(store2.len(), 0);
    assert_eq!(store2.ingest_wire(&valid).expect("valid")[0], SpanId(1));

    // `Server::ingest_wire` promises the same. Here only the *last* record
    // is corrupt, so nine spans decode before the error — none of them may
    // have reached the router, a shard, the corpus version or a counter.
    let torn = &valid[..valid.len() - 3];
    let decoded = wire::WireBatch::parse(torn).expect("header and dictionary intact");
    assert_eq!(
        decoded.spans().filter(Result::is_ok).count(),
        spans.len() - 1
    );
    let mut server = Server::new(&ResourceInventory::default());
    let snapshot = |s: &Server| {
        let (sizes, shards) = (s.shard_sizes(), s.store().shard_stats());
        (
            s.span_count(),
            s.stats(),
            sizes,
            shards,
            s.store().version(),
        )
    };
    let before = snapshot(&server);
    assert!(server.ingest_wire(torn).is_err());
    assert_eq!(snapshot(&server), before);
    assert_eq!(
        server.ingest_wire(&valid).expect("valid bytes")[0],
        SpanId(1)
    );
    assert_ne!(snapshot(&server), before);
}

#[test]
fn server_wire_ingest_matches_batch_ingest() {
    // The Server facade adds phase-2 enrichment before insert; both paths
    // must enrich identically and report identical stats.
    let inventory = ResourceInventory::default();
    let mut struct_server = Server::new(&inventory);
    let mut wire_server = Server::new(&inventory);

    let spans = corpus(23, 120);
    for batch in spans.chunks(29) {
        let ids_a = struct_server.ingest_batch(batch.to_vec());
        let ids_b = wire_server
            .ingest_wire(&wire::encode_batch(batch))
            .expect("valid batch");
        assert_eq!(ids_a, ids_b);
    }

    let q = SpanQuery {
        limit: usize::MAX,
        ..Default::default()
    };
    let mut a = struct_server.span_list(&q);
    let mut b = wire_server.span_list(&q);
    a.sort_by_key(|s| s.span_id);
    b.sort_by_key(|s| s.span_id);
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!((&**x, x.labels), (&**y, y.labels));
    }
    assert_eq!(struct_server.stats().ingested, wire_server.stats().ingested);
    assert_eq!(struct_server.stats().enriched, wire_server.stats().enriched);
}

proptest! {
    /// Arbitrary corpora and batch splits: the wire path tracks the
    /// struct path on a multi-shard policy.
    #[test]
    fn prop_wire_path_equals_struct_path(seed in any::<u64>(), chunk in 1usize..50) {
        let spans = corpus(seed, 80);
        let batches: Vec<Vec<Span>> = spans.chunks(chunk).map(<[Span]>::to_vec).collect();
        assert_wire_matches_struct(|| ShardPolicy::with_shards(3), &batches);
    }
}
