//! Concurrency tests for the threaded sharded store
//! (`deepflow::server::concurrent`): determinism of concurrent ingest
//! against the single-threaded oracle, and a multi-producer stress run
//! with interleaved tombstone / completion / eviction traffic.
//!
//! Run under `RUST_TEST_THREADS=8` in CI (see `ci.sh`) so the worker and
//! producer threads genuinely interleave with other test threads.

use deepflow::server::assemble::{assemble_trace_reference, AssembleConfig};
use deepflow::server::concurrent::{ConcurrentConfig, ConcurrentShardedStore};
use deepflow::server::sharded::ShardedSpanStore;
use deepflow::storage::{ShardPolicy, SpanQuery, SpanStore};
use deepflow::types::span::{SpanStatus, TapSide};
use deepflow::types::{FiveTuple, Span, SpanId, TimeNs, Trace};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::net::Ipv4Addr;
use std::sync::Barrier;

/// A corpus of `flows` four-span capture ladders. Each flow links its
/// spans by TCP sequence number, and the server-side pair sits on a
/// *different* five-tuple than the client-side pair (joined by
/// X-Request-ID), so assembly genuinely crosses shard boundaries.
fn corpus(flows: usize) -> Vec<Span> {
    let mut spans = Vec::new();
    for f in 0..flows {
        let base = 1_000 + f as u64 * 3_000;
        let seq = f as u32 + 1;
        let xreq = f as u128 + 1;
        let client_flow = FiveTuple::tcp(
            Ipv4Addr::new(10, 0, (f % 13) as u8, 1),
            40_000 + (f % 97) as u16,
            Ipv4Addr::new(10, 1, 0, 1),
            80,
        );
        let server_flow = FiveTuple::tcp(
            Ipv4Addr::new(10, 1, 0, 1),
            50_000 + (f % 89) as u16,
            Ipv4Addr::new(10, 2, (f % 7) as u8, 2),
            8080,
        );
        let mut a = Span::synthetic(TapSide::ClientProcess, base, base + 900);
        a.tcp_seq_req = Some(seq);
        a.x_request_id_req = Some(deepflow::types::ids::XRequestId(xreq));
        a.five_tuple = client_flow;
        let mut b = Span::synthetic(TapSide::ClientNodeNic, base + 10, base + 890);
        b.kind = deepflow::types::SpanKind::Net;
        b.tcp_seq_req = Some(seq);
        b.x_request_id_req = Some(deepflow::types::ids::XRequestId(xreq));
        b.five_tuple = client_flow;
        let mut c = Span::synthetic(TapSide::ServerProcess, base + 20, base + 880);
        c.tcp_seq_req = Some(1_000_000 + seq);
        c.x_request_id_req = Some(deepflow::types::ids::XRequestId(xreq));
        c.five_tuple = server_flow;
        let mut d = Span::synthetic(TapSide::ServerPodNic, base + 30, base + 870);
        d.kind = deepflow::types::SpanKind::Net;
        d.tcp_seq_req = Some(1_000_000 + seq);
        d.five_tuple = server_flow;
        spans.extend([a, b, c, d]);
    }
    spans
}

fn shuffle<T>(items: &mut [T], rng: &mut SmallRng) {
    for i in (1..items.len()).rev() {
        let j: usize = rng.gen_range(0..=i);
        items.swap(i, j);
    }
}

fn edges(t: &Trace) -> Vec<(SpanId, Option<SpanId>)> {
    let mut e: Vec<_> = t.spans.iter().map(|s| (s.span.span_id, s.parent)).collect();
    e.sort_unstable();
    e
}

/// Concurrent ingest of a shuffled corpus is bit-for-bit the single-
/// threaded result at 1, 4 and 8 workers: same ids, same shard layout,
/// same query answers, same assembled traces — differentially against
/// both `ShardedSpanStore` and the single-store Algorithm 1 reference.
#[test]
fn concurrent_ingest_is_deterministic_across_worker_counts() {
    let mut spans = corpus(120);
    let mut rng = SmallRng::seed_from_u64(0xDF_2026);
    shuffle(&mut spans, &mut rng);

    // Single-store oracle (ids follow insert order, as everywhere).
    let mut oracle = SpanStore::new();
    for s in &spans {
        oracle.insert(s.clone());
    }
    let cfg = AssembleConfig::default();

    for workers in [1usize, 4, 8] {
        let policy = ShardPolicy::with_shards(workers);

        // Single-threaded sharded store, one batch.
        let mut sharded = ShardedSpanStore::new(policy);
        let expected_ids = sharded.insert_batch(spans.clone());

        // Concurrent store, same span order split into uneven batches so
        // worker application and producer enqueue genuinely overlap.
        let store = ConcurrentShardedStore::new(policy);
        let mut got_ids = Vec::new();
        for chunk in spans.chunks(97) {
            got_ids.extend(store.insert_batch(chunk.to_vec()));
        }
        store.flush();

        assert_eq!(got_ids, expected_ids, "{workers} workers: id assignment");
        assert_eq!(store.len(), sharded.len());
        assert_eq!(
            store.shard_sizes(),
            sharded.shard_sizes(),
            "{workers} workers: routing must not depend on threading"
        );
        assert_eq!(store.pending(), 0, "flush drained every queue");

        // Every span applied, none lost, none duplicated.
        for &id in &got_ids {
            let got = store
                .get(id)
                .unwrap_or_else(|| panic!("{workers} workers lost span {id:?}"));
            assert_eq!(got.span_id, id);
            assert_eq!(got, *sharded.get(id).expect("oracle has id"));
        }

        // Windowed queries agree with the single-threaded sharded store.
        let q = SpanQuery::window(TimeNs(0), TimeNs(500_000));
        let got: Vec<SpanId> = store.query(&q).iter().map(|s| s.span_id).collect();
        let want: Vec<SpanId> = sharded.query(&q).iter().map(|s| s.span_id).collect();
        assert_eq!(got, want, "{workers} workers: query order");

        // Assembly from a sample of start spans matches the reference
        // formulation of Algorithm 1 on the unsharded oracle.
        for &start in expected_ids.iter().step_by(37) {
            let want = assemble_trace_reference(&oracle, start, &cfg);
            let got = store.query_trace(start);
            assert_eq!(
                edges(&got),
                edges(&want),
                "{workers} workers: trace from {start:?} diverged"
            );
        }
    }
}

/// N producers × M shards under interleaved tombstone / completion /
/// eviction traffic: no span is lost, mutations land in order, and the
/// stats snapshot stays coherent while readers query mid-ingest.
#[test]
fn multi_producer_stress_loses_nothing_and_keeps_stats_coherent() {
    const PRODUCERS: usize = 4;
    const ROUNDS: usize = 40;
    const BATCH: usize = 24;

    let policy = ShardPolicy {
        shards: 4,
        // Low threshold so worker-side eviction compaction actually fires
        // during the run.
        evict_threshold: 8,
        ..ShardPolicy::default()
    };
    let store = ConcurrentShardedStore::with_config(
        policy,
        ConcurrentConfig {
            // Shallow queues: producers hit backpressure for real.
            queue_depth: 4,
        },
    );

    // Start gate: producers and the reader all rendezvous before touching
    // the store, so the contention window opens with every thread live
    // instead of the first spawned producer racing ahead alone.
    let gate = Barrier::new(PRODUCERS + 1);

    std::thread::scope(|scope| {
        for p in 0..PRODUCERS {
            let store = &store;
            let gate = &gate;
            scope.spawn(move || {
                gate.wait();
                let mut rng = SmallRng::seed_from_u64(p as u64 + 7);
                for round in 0..ROUNDS {
                    let mut batch = Vec::with_capacity(BATCH);
                    for i in 0..BATCH {
                        let base = 1_000 + ((p * ROUNDS + round) * BATCH + i) as u64 * 100;
                        let mut s = Span::synthetic(TapSide::ClientProcess, base, base + 50);
                        s.tcp_seq_req = Some((p * 1_000_000 + round * 1_000 + i) as u32);
                        s.five_tuple = FiveTuple::tcp(
                            Ipv4Addr::new(10, p as u8, (round % 23) as u8, (i % 11) as u8),
                            40_000 + i as u16,
                            Ipv4Addr::new(10, 200, 0, 1),
                            80,
                        );
                        if i % 5 == 0 {
                            s.status = SpanStatus::Incomplete;
                        }
                        batch.push(s);
                    }
                    let ids = store.insert_batch(batch);
                    // Interleave mutations with other producers' inserts,
                    // without flushing first: ordering is the store's job.
                    for (i, &id) in ids.iter().enumerate() {
                        if i % 5 == 0 {
                            let resp = Span::synthetic(TapSide::ClientProcess, 1_000, 2_000);
                            store.complete_span(id, resp);
                        } else if i % 7 == 0 {
                            store.tombstone(id);
                        }
                    }
                    if rng.gen_bool(0.1) {
                        store.evict_tombstoned();
                    }
                }
            });
        }
        // A reader hammering queries mid-ingest: every snapshot must be
        // coherent, every returned trace well-formed.
        let store = &store;
        let gate = &gate;
        scope.spawn(move || {
            gate.wait();
            for i in 0..200u64 {
                let trace = store.query_trace(SpanId(i % 500 + 1));
                assert!(trace.is_well_formed());
                let st = store.stats();
                assert_eq!(
                    st.trace_queries,
                    st.cache_hits + st.cache_misses + st.cache_invalidations,
                    "mid-ingest stats snapshot incoherent"
                );
            }
        });
    });
    store.flush();

    let total = PRODUCERS * ROUNDS * BATCH;
    assert_eq!(store.len(), total, "every routed span accounted for");
    assert_eq!(store.pending(), 0, "flush drained all queues");
    assert_eq!(
        store.shard_sizes().iter().sum::<usize>(),
        total,
        "every span applied to some shard"
    );
    let st = store.stats();
    assert_eq!(st.ingested, total as u64);

    // No lost spans: every id resolves, mutations applied in enqueue
    // order. Ids were assigned under the routing lock so per-producer
    // patterns are not recoverable; instead verify global integrity.
    let mut completed = 0u64;
    let mut tombstoned = 0u64;
    for raw in 1..=total as u64 {
        let id = SpanId(raw);
        let span = store
            .get(id)
            .unwrap_or_else(|| panic!("span {id:?} lost in the stress run"));
        assert_eq!(span.span_id, id);
        assert_ne!(
            span.status,
            SpanStatus::Incomplete,
            "{id:?}: completion enqueued right after its insert must apply"
        );
        if span.status == SpanStatus::Ok && span.resp_time == TimeNs(2_000) {
            completed += 1;
        }
        if store.is_tombstoned(id) {
            tombstoned += 1;
        }
    }
    // Each producer round completes ceil(BATCH/5) spans and tombstones
    // the i%7==0, i%5!=0 remainder; totals are exact because no op is lost.
    let complete_per_round = BATCH.div_ceil(5) as u64;
    let tombstone_per_round = (0..BATCH).filter(|i| i % 7 == 0 && i % 5 != 0).count() as u64;
    assert_eq!(completed, complete_per_round * (PRODUCERS * ROUNDS) as u64);
    assert_eq!(
        tombstoned,
        tombstone_per_round * (PRODUCERS * ROUNDS) as u64
    );

    // Post-run stats stay coherent after the reader thread's traffic.
    assert_eq!(
        st.trace_queries,
        st.cache_hits + st.cache_misses + st.cache_invalidations
    );
}

/// Backpressure sanity: a queue depth of 1 forces producers to block on
/// the worker and everything still lands exactly once.
#[test]
fn minimal_queue_depth_only_slows_ingest_down() {
    let store = ConcurrentShardedStore::with_config(
        ShardPolicy::with_shards(2),
        ConcurrentConfig { queue_depth: 1 },
    );
    let spans = corpus(30);
    let n = spans.len();
    let ids: Vec<SpanId> = spans
        .chunks(7)
        .flat_map(|c| store.insert_batch(c.to_vec()))
        .collect();
    store.flush();
    assert_eq!(ids.len(), n);
    assert_eq!(store.len(), n);
    assert_eq!(store.shard_sizes().iter().sum::<usize>(), n);
}
