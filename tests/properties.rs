//! Property-based tests over the core invariants.

use deepflow::agent::session::{SessionAggregator, SessionOutcome};
use deepflow::kernel::{ReadOutcome, Socket};
use deepflow::types::net::TcpFlags;
use deepflow::types::packet::Segment;
use deepflow::types::{
    DurationNs, FiveTuple, L7Protocol, MessageType, SessionKey, SocketId, SpanStatus, TapSide,
    TimeNs, TransportProtocol,
};
use proptest::prelude::*;
use std::net::Ipv4Addr;

proptest! {
    /// TCP reassembly delivers exactly the sent byte stream once, whatever
    /// the segment arrival order and duplication pattern.
    #[test]
    fn socket_reassembly_is_exactly_once(
        chunks in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 1..64), 1..10),
        order in proptest::collection::vec(any::<usize>(), 0..30),
        dup_mask in any::<u32>(),
    ) {
        let mut sock = Socket::new(
            SocketId(1),
            TransportProtocol::Tcp,
            (Ipv4Addr::new(10, 0, 0, 1), 80),
            0,
        );
        sock.remote = Some((Ipv4Addr::new(10, 0, 0, 2), 9999));
        sock.state = deepflow::kernel::SocketState::Established;
        sock.rcv_nxt = 1000;

        // Build segments for one logical message.
        let mut segments = Vec::new();
        let mut seq = 1000u32;
        let n = chunks.len();
        for (i, c) in chunks.iter().enumerate() {
            segments.push(Segment {
                five_tuple: FiveTuple::tcp(
                    Ipv4Addr::new(10, 0, 0, 2), 9999,
                    Ipv4Addr::new(10, 0, 0, 1), 80,
                ),
                seq,
                ack: 0,
                flags: if i + 1 == n { TcpFlags::PSH_ACK } else { TcpFlags::ACK },
                window: 65535,
                payload: bytes::Bytes::from(c.clone()),
                is_retransmission: false,
            });
            seq = seq.wrapping_add(c.len() as u32);
        }
        let expected: Vec<u8> = chunks.concat();

        // Deliver in a scrambled order with duplicates, then in order to
        // guarantee completion.
        for (k, &i) in order.iter().enumerate() {
            let idx = i % segments.len();
            sock.receive_data(&segments[idx]);
            if dup_mask & (1 << (k % 32)) != 0 {
                sock.receive_data(&segments[idx]); // duplicate
            }
        }
        for s in &segments {
            sock.receive_data(s);
        }

        let mut got = Vec::new();
        while let Ok(ReadOutcome { data, .. }) = sock.read(usize::MAX) {
            if data.is_empty() {
                break;
            }
            got.extend_from_slice(&data);
        }
        prop_assert_eq!(got, expected, "stream delivered exactly once, in order");
    }

    /// Session aggregation conserves messages: every request is eventually
    /// matched, expired, or still pending — never duplicated or lost.
    #[test]
    fn session_aggregation_conserves_requests(
        ops in proptest::collection::vec((any::<u8>(), any::<bool>(), 0u64..8), 1..200),
    ) {
        let mut agg: SessionAggregator<u64> = SessionAggregator::new(DurationNs::from_secs(60));
        let mut sent_requests = 0u64;
        let mut matched = 0u64;
        let mut out_of_window = 0u64;
        let mut displaced = 0u64;
        let mut t = 0u64;
        for (i, (flow, is_req, key)) in ops.iter().enumerate() {
            t += 1_000_000; // 1ms apart
            let flow_key = u64::from(flow % 4);
            let skey = if *key == 0 {
                SessionKey::Ordered
            } else {
                SessionKey::Multiplexed(*key)
            };
            let mtype = if *is_req { MessageType::Request } else { MessageType::Response };
            match agg.offer(flow_key, skey, mtype, TimeNs(t), i as u64) {
                SessionOutcome::Stored => sent_requests += 1,
                SessionOutcome::Matched { .. } => matched += 1,
                SessionOutcome::OutOfWindow { .. } => out_of_window += 1,
                // A reused multiplexed id stores the new request and hands
                // back the one it replaced.
                SessionOutcome::Displaced(_) => {
                    sent_requests += 1;
                    displaced += 1;
                }
                SessionOutcome::OrphanResponse(_) | SessionOutcome::Ignored(_) => {}
            }
        }
        let pending = agg.pending() as u64;
        prop_assert_eq!(matched + out_of_window + displaced + pending, sent_requests);
        prop_assert_eq!(displaced, agg.displaced);
        let drained = agg.drain_pending().len() as u64;
        prop_assert_eq!(drained, pending);
        prop_assert_eq!(agg.pending(), 0);
    }

    /// Segmentize → receive round trip for arbitrary payload sizes
    /// (including multi-MSS) preserves bytes and message boundaries.
    #[test]
    fn segmentize_receive_round_trip(size in 1usize..6000) {
        let mut tx = Socket::new(
            SocketId(1),
            TransportProtocol::Tcp,
            (Ipv4Addr::new(10, 0, 0, 1), 1234),
            777,
        );
        tx.remote = Some((Ipv4Addr::new(10, 0, 0, 2), 80));
        tx.state = deepflow::kernel::SocketState::Established;

        let mut rx = Socket::new(
            SocketId(2),
            TransportProtocol::Tcp,
            (Ipv4Addr::new(10, 0, 0, 2), 80),
            0,
        );
        rx.remote = Some((Ipv4Addr::new(10, 0, 0, 1), 1234));
        rx.state = deepflow::kernel::SocketState::Established;
        rx.rcv_nxt = 777;

        let payload: Vec<u8> = (0..size).map(|i| (i % 251) as u8).collect();
        let segs = tx.segmentize(bytes::Bytes::from(payload.clone())).unwrap();
        for s in &segs {
            rx.receive_data(s);
        }
        let r = rx.read(usize::MAX).unwrap();
        prop_assert_eq!(r.data.to_vec(), payload);
        prop_assert!(r.msg_start);
        prop_assert_eq!(r.seq, 777);
    }

    /// Five-tuple canonicalisation is an involution-compatible projection:
    /// canonical(x) == canonical(reverse(x)) and canonical is idempotent.
    #[test]
    fn five_tuple_canonical_properties(
        a in any::<u32>(), b in any::<u32>(), pa in any::<u16>(), pb in any::<u16>(),
    ) {
        let t = FiveTuple::tcp(Ipv4Addr::from(a), pa, Ipv4Addr::from(b), pb);
        prop_assert_eq!(t.canonical(), t.reversed().canonical());
        prop_assert_eq!(t.canonical().canonical(), t.canonical());
        prop_assert!(t.same_flow(&t.reversed()));
    }

    /// The latency histogram's quantiles never regress and always land
    /// inside [min, max].
    #[test]
    fn histogram_quantiles_bounded_and_monotone(
        samples in proptest::collection::vec(1u64..10_000_000_000, 1..300),
    ) {
        let mut h = deepflow::mesh::LatencyHistogram::new();
        for &s in &samples {
            h.record(DurationNs(s));
        }
        let lo = *samples.iter().min().unwrap();
        let hi = *samples.iter().max().unwrap();
        let mut last = 0u64;
        for q in [0.0, 0.1, 0.5, 0.9, 0.99, 1.0] {
            let v = h.quantile(q).as_nanos();
            prop_assert!(v >= last, "quantile regressed at {q}");
            prop_assert!(v >= lo && v <= hi, "quantile {q} out of [{lo}, {hi}]: {v}");
            last = v;
        }
    }
}

/// Build a span from the generated association-attribute pools used by the
/// assembly properties.
#[allow(clippy::too_many_arguments)]
fn prop_span(
    tap: u8,
    t: u64,
    d: u64,
    seq_r: Option<u32>,
    seq_p: Option<u32>,
    sys_r: Option<u64>,
    sys_p: Option<u64>,
    xr: Option<u128>,
    ot: Option<u128>,
    pth: Option<u64>,
) -> deepflow::types::Span {
    use deepflow::types::ids::*;
    use deepflow::types::span::{CapturePoint, SpanKind};
    use deepflow::types::tags::TagSet;

    let tap_sides = [
        TapSide::ClientApp,
        TapSide::ClientProcess,
        TapSide::ClientPodNic,
        TapSide::ClientNodeNic,
        TapSide::ClientHypervisor,
        TapSide::Gateway,
        TapSide::ServerHypervisor,
        TapSide::ServerNodeNic,
        TapSide::ServerPodNic,
        TapSide::ServerProcess,
        TapSide::ServerApp,
    ];
    let req = t * 1_000_000;
    deepflow::types::Span {
        span_id: SpanId(0),
        kind: if tap == 0 || tap == 10 {
            SpanKind::App
        } else {
            SpanKind::Sys
        },
        capture: CapturePoint {
            node: NodeId(1),
            tap_side: tap_sides[tap as usize % 11],
            interface: None,
        },
        agent: AgentId(1),
        flow_id: FlowId(u64::from(seq_r.unwrap_or(99))),
        five_tuple: FiveTuple::tcp(Ipv4Addr::new(10, 0, 0, 1), 1, Ipv4Addr::new(10, 0, 0, 2), 2),
        l7_protocol: L7Protocol::Http1,
        endpoint: "op".to_string(),
        req_time: TimeNs(req),
        resp_time: TimeNs(req + d * 1_000_000),
        status: SpanStatus::Ok,
        status_code: Some(200),
        req_bytes: 0,
        resp_bytes: 0,
        pid: None,
        tid: None,
        process_name: None,
        systrace_id_req: sys_r.map(SysTraceId),
        systrace_id_resp: sys_p.map(SysTraceId),
        pseudo_thread_id: pth.map(PseudoThreadId),
        x_request_id_req: xr.map(XRequestId),
        x_request_id_resp: None,
        tcp_seq_req: seq_r,
        tcp_seq_resp: seq_p,
        otel_trace_id: ot.map(OtelTraceId),
        otel_span_id: ot.map(|v| OtelSpanId(v as u64)),
        otel_parent_span_id: None,
        tags: TagSet::default(),
        flow_metrics: None,
    }
}

proptest! {
    /// The frontier-based Algorithm 1 is extensionally identical to the
    /// full-rescan reference formulation: same span set, same parent
    /// edges, no tombstoned spans, no duplicates — for arbitrary corpora,
    /// arbitrary tombstone subsets and arbitrary size caps.
    #[test]
    fn frontier_assembly_matches_reference(
        specs in proptest::collection::vec(
            (
                0u8..11,          // tap side
                0u64..20,         // req time bucket
                1u64..30,         // duration bucket
                proptest::option::of(0u32..8),   // tcp_seq_req pool
                proptest::option::of(0u32..8),   // tcp_seq_resp pool
                proptest::option::of(0u64..6),   // systrace_req pool
                proptest::option::of(0u64..6),   // systrace_resp pool
                proptest::option::of(0u128..4),  // x_request_id pool
                proptest::option::of(0u128..3),  // otel trace pool
                proptest::option::of(0u64..4),   // pseudo-thread pool
            ),
            1..60,
        ),
        start_idx in 0usize..60,
        tombstone_mask in any::<u64>(),
        max_spans in 1usize..80,
    ) {
        use deepflow::server::assemble::{
            assemble_trace, assemble_trace_reference, AssembleConfig,
        };
        use deepflow::storage::SpanStore;
        use deepflow::types::SpanId;

        let mut store = SpanStore::new();
        for (tap, t, d, seq_r, seq_p, sys_r, sys_p, xr, ot, pth) in &specs {
            store.insert(prop_span(*tap, *t, *d, *seq_r, *seq_p, *sys_r, *sys_p, *xr, *ot, *pth));
        }
        let mut tombstoned = Vec::new();
        for i in 0..specs.len().min(64) {
            if tombstone_mask & (1 << i) != 0 {
                let id = SpanId(i as u64 + 1);
                store.tombstone(id);
                tombstoned.push(id);
            }
        }
        let start = SpanId((start_idx % specs.len()) as u64 + 1);
        let cfg = AssembleConfig { max_spans, ..Default::default() };
        let fast = assemble_trace(&store, start, &cfg);
        let slow = assemble_trace_reference(&store, start, &cfg);

        let edges = |t: &deepflow::types::trace::Trace| {
            let mut e: Vec<(SpanId, Option<SpanId>)> =
                t.spans.iter().map(|s| (s.span.span_id, s.parent)).collect();
            e.sort_unstable();
            e
        };
        prop_assert_eq!(edges(&fast), edges(&slow), "frontier vs reference diverged");
        // No tombstoned span ever appears.
        for t in [&fast, &slow] {
            prop_assert!(
                t.spans.iter().all(|s| !store.is_tombstoned(s.span.span_id)),
                "tombstoned span in trace"
            );
        }
        // No duplicate span ids.
        let mut ids: Vec<SpanId> = fast.spans.iter().map(|s| s.span.span_id).collect();
        ids.sort_unstable();
        ids.dedup();
        prop_assert_eq!(ids.len(), fast.spans.len(), "duplicate span in trace");
        // The cap is honoured and the start span kept unless tombstoned.
        prop_assert!(fast.len() <= max_spans);
        if !store.is_tombstoned(start) {
            prop_assert!(fast.spans.iter().any(|s| s.span.span_id == start));
        } else {
            prop_assert!(fast.is_empty());
        }
    }
}

proptest! {
    /// Cross-shard assembly is extensionally identical to the single-store
    /// reference oracle at every shard count and through every prober of
    /// the one Phase-1 driver: the router assigns the same global
    /// sequential ids a single store would, and the assembled span set and
    /// parent edges must be the same whether the corpus lives in 1, 4 or
    /// 16 in-process shards, behind the threaded store's workers, or on a
    /// 3-node RF=2 cluster (ingested in `batch`-span chunks, so the
    /// per-shard split and reorder paths run). Spans of one logical
    /// exchange are deliberately spread over *different* flows (per-index
    /// five-tuples) so the frontier search genuinely crosses shard
    /// boundaries.
    #[test]
    fn sharded_assembly_matches_reference(
        specs in proptest::collection::vec(
            (
                0u8..11,          // tap side
                0u64..20,         // req time bucket
                1u64..30,         // duration bucket
                proptest::option::of(0u32..8),   // tcp_seq_req pool
                proptest::option::of(0u32..8),   // tcp_seq_resp pool
                proptest::option::of(0u64..6),   // systrace_req pool
                proptest::option::of(0u64..6),   // systrace_resp pool
                proptest::option::of(0u128..4),  // x_request_id pool
                proptest::option::of(0u128..3),  // otel trace pool
                proptest::option::of(0u64..4),   // pseudo-thread pool
            ),
            1..60,
        ),
        start_idx in 0usize..60,
        tombstone_mask in any::<u64>(),
        max_spans in 1usize..80,
        batch in 1usize..24,
    ) {
        use deepflow::cluster::{Cluster, ClusterConfig};
        use deepflow::server::assemble::{assemble_trace_reference, AssembleConfig};
        use deepflow::server::concurrent::ConcurrentShardedStore;
        use deepflow::server::sharded::{assemble_trace_sharded, ShardedSpanStore};
        use deepflow::storage::{ShardPolicy, SpanStore};
        use deepflow::types::SpanId;

        // Vary each span's flow by its index so linked spans land in
        // different shards and assembly has to merge across them.
        let spans: Vec<deepflow::types::Span> = specs
            .iter()
            .enumerate()
            .map(|(i, (tap, t, d, seq_r, seq_p, sys_r, sys_p, xr, ot, pth))| {
                let mut s = prop_span(*tap, *t, *d, *seq_r, *seq_p, *sys_r, *sys_p, *xr, *ot, *pth);
                s.five_tuple = FiveTuple::tcp(
                    Ipv4Addr::new(10, 0, 0, (i % 8) as u8),
                    1,
                    Ipv4Addr::new(10, 0, 1, (i % 8) as u8),
                    2,
                );
                s
            })
            .collect();

        let mut reference = SpanStore::new();
        for s in &spans {
            reference.insert(s.clone());
        }
        let start = SpanId((start_idx % spans.len()) as u64 + 1);
        let cfg = AssembleConfig { max_spans, ..Default::default() };
        let last_id = Some(SpanId(spans.len() as u64));
        let edges = |t: &deepflow::types::trace::Trace| {
            let mut e: Vec<(SpanId, Option<SpanId>)> =
                t.spans.iter().map(|s| (s.span.span_id, s.parent)).collect();
            e.sort_unstable();
            e
        };

        // The cluster has no tombstone path: it is checked against the
        // oracle before any span is hidden.
        let mut cluster = Cluster::new(ClusterConfig {
            nodes: 3,
            replication_factor: 2,
            assemble: cfg.clone(),
            ..ClusterConfig::default()
        });
        let mut ids = Vec::new();
        for chunk in spans.chunks(batch) {
            ids.extend(cluster.ingest(chunk.to_vec()));
        }
        prop_assert_eq!(ids.last().copied(), last_id, "cluster ids are sequential");
        let remote = cluster.assemble(start);
        prop_assert!(remote.is_complete());
        prop_assert_eq!(
            edges(&remote.trace),
            edges(&assemble_trace_reference(&reference, start, &cfg)),
            "cluster vs reference diverged"
        );

        let tombstoned = (0..spans.len().min(64))
            .filter(|i| tombstone_mask & (1 << i) != 0)
            .map(|i| SpanId(i as u64 + 1));
        for id in tombstoned.clone() {
            reference.tombstone(id);
        }
        let oracle = assemble_trace_reference(&reference, start, &cfg);

        let mut threaded = ConcurrentShardedStore::new(ShardPolicy::with_shards(4));
        threaded.set_assemble_config(cfg.clone());
        let mut ids = Vec::new();
        for chunk in spans.chunks(batch) {
            ids.extend(threaded.insert_batch(chunk.to_vec()));
        }
        prop_assert_eq!(ids.last().copied(), last_id, "threaded ids are sequential");
        for id in tombstoned.clone() {
            threaded.tombstone(id);
        }
        threaded.flush();
        prop_assert_eq!(
            edges(&threaded.query_trace(start)),
            edges(&oracle),
            "threaded store vs reference diverged"
        );

        for shards in [1usize, 4, 16] {
            let mut sharded = ShardedSpanStore::new(ShardPolicy::with_shards(shards));
            let ids = sharded.insert_batch(spans.clone());
            prop_assert_eq!(ids.last().copied(), last_id, "global ids are sequential");
            for id in tombstoned.clone() {
                sharded.tombstone(id);
            }
            let got = assemble_trace_sharded(&sharded, start, &cfg);
            prop_assert_eq!(
                edges(&got),
                edges(&oracle),
                "sharded ({}) vs reference diverged",
                shards
            );
        }
    }

    /// Index eviction is semantically invisible: tombstoning then
    /// compacting (`evict_tombstoned`) yields exactly the traces that
    /// probe-time filtering alone yields, on both the plain store and the
    /// sharded store — for every possible start span.
    #[test]
    fn eviction_equals_probe_time_filtering(
        specs in proptest::collection::vec(
            (
                0u8..11,          // tap side
                0u64..20,         // req time bucket
                1u64..30,         // duration bucket
                proptest::option::of(0u32..8),   // tcp_seq_req pool
                proptest::option::of(0u32..8),   // tcp_seq_resp pool
                proptest::option::of(0u64..6),   // systrace_req pool
                proptest::option::of(0u64..6),   // systrace_resp pool
                proptest::option::of(0u128..4),  // x_request_id pool
                proptest::option::of(0u128..3),  // otel trace pool
                proptest::option::of(0u64..4),   // pseudo-thread pool
            ),
            1..40,
        ),
        tombstone_mask in any::<u64>(),
    ) {
        use deepflow::server::assemble::{assemble_trace, AssembleConfig};
        use deepflow::server::sharded::{assemble_trace_sharded, ShardedSpanStore};
        use deepflow::storage::{ShardPolicy, SpanStore};
        use deepflow::types::SpanId;

        let cfg = AssembleConfig::default();
        let edges = |t: &deepflow::types::trace::Trace| {
            let mut e: Vec<(SpanId, Option<SpanId>)> =
                t.spans.iter().map(|s| (s.span.span_id, s.parent)).collect();
            e.sort_unstable();
            e
        };

        // Plain store: tombstones pending (probe-time filtering only)...
        let mut store = SpanStore::new();
        for (tap, t, d, seq_r, seq_p, sys_r, sys_p, xr, ot, pth) in &specs {
            store.insert(prop_span(*tap, *t, *d, *seq_r, *seq_p, *sys_r, *sys_p, *xr, *ot, *pth));
        }
        for i in 0..specs.len().min(64) {
            if tombstone_mask & (1 << i) != 0 {
                store.tombstone(SpanId(i as u64 + 1));
            }
        }
        let before: Vec<_> = (1..=specs.len() as u64)
            .map(|id| edges(&assemble_trace(&store, SpanId(id), &cfg)))
            .collect();
        // ...then compacted out of the indexes entirely.
        store.evict_tombstoned();
        prop_assert_eq!(store.pending_evictions(), 0);
        let after: Vec<_> = (1..=specs.len() as u64)
            .map(|id| edges(&assemble_trace(&store, SpanId(id), &cfg)))
            .collect();
        prop_assert_eq!(&before, &after, "eviction changed an assembled trace");

        // Sharded store: same invariant across shards.
        let mut sharded = ShardedSpanStore::new(ShardPolicy::with_shards(4));
        for (tap, t, d, seq_r, seq_p, sys_r, sys_p, xr, ot, pth) in &specs {
            sharded.insert(prop_span(*tap, *t, *d, *seq_r, *seq_p, *sys_r, *sys_p, *xr, *ot, *pth));
        }
        for i in 0..specs.len().min(64) {
            if tombstone_mask & (1 << i) != 0 {
                sharded.tombstone(SpanId(i as u64 + 1));
            }
        }
        let before: Vec<_> = (1..=specs.len() as u64)
            .map(|id| edges(&assemble_trace_sharded(&sharded, SpanId(id), &cfg)))
            .collect();
        sharded.evict_tombstoned();
        let after: Vec<_> = (1..=specs.len() as u64)
            .map(|id| edges(&assemble_trace_sharded(&sharded, SpanId(id), &cfg)))
            .collect();
        prop_assert_eq!(&before, &after, "sharded eviction changed an assembled trace");
    }
}

proptest! {
    /// Algorithm 1 always terminates and yields a well-formed trace (no
    /// cycles, no dangling parents, no duplicates) for arbitrary span
    /// corpora with randomly shared association attributes.
    #[test]
    fn assembly_is_total_and_well_formed(
        specs in proptest::collection::vec(
            (
                0u8..11,          // tap side
                0u64..20,         // req time bucket
                1u64..30,         // duration bucket
                proptest::option::of(0u32..8),   // tcp_seq_req pool
                proptest::option::of(0u32..8),   // tcp_seq_resp pool
                proptest::option::of(0u64..6),   // systrace_req pool
                proptest::option::of(0u64..6),   // systrace_resp pool
                proptest::option::of(0u128..4),  // x_request_id pool
                proptest::option::of(0u128..3),  // otel trace pool
            ),
            1..60,
        ),
        start_idx in 0usize..60,
    ) {
        use deepflow::server::assemble::{assemble_trace, AssembleConfig};
        use deepflow::storage::SpanStore;
        use deepflow::types::span::{CapturePoint, SpanKind};
        use deepflow::types::ids::*;
        use deepflow::types::tags::TagSet;

        let tap_sides = [
            TapSide::ClientApp, TapSide::ClientProcess, TapSide::ClientPodNic,
            TapSide::ClientNodeNic, TapSide::ClientHypervisor, TapSide::Gateway,
            TapSide::ServerHypervisor, TapSide::ServerNodeNic, TapSide::ServerPodNic,
            TapSide::ServerProcess, TapSide::ServerApp,
        ];
        let mut store = SpanStore::new();
        for (tap, t, d, seq_r, seq_p, sys_r, sys_p, xr, ot) in &specs {
            let req = *t * 1_000_000;
            let span = deepflow::types::Span {
                span_id: SpanId(0),
                kind: if *tap == 0 || *tap == 10 { SpanKind::App } else { SpanKind::Sys },
                capture: CapturePoint {
                    node: NodeId(1),
                    tap_side: tap_sides[*tap as usize % 11],
                    interface: None,
                },
                agent: AgentId(1),
                flow_id: FlowId(u64::from(seq_r.unwrap_or(99))),
                five_tuple: FiveTuple::tcp(
                    Ipv4Addr::new(10, 0, 0, 1), 1, Ipv4Addr::new(10, 0, 0, 2), 2,
                ),
                l7_protocol: L7Protocol::Http1,
                endpoint: "op".to_string(),
                req_time: TimeNs(req),
                resp_time: TimeNs(req + d * 1_000_000),
                status: SpanStatus::Ok,
                status_code: Some(200),
                req_bytes: 0,
                resp_bytes: 0,
                pid: None,
                tid: None,
                process_name: None,
                systrace_id_req: sys_r.map(SysTraceId),
                systrace_id_resp: sys_p.map(SysTraceId),
                pseudo_thread_id: None,
                x_request_id_req: xr.map(XRequestId),
                x_request_id_resp: None,
                tcp_seq_req: *seq_r,
                tcp_seq_resp: *seq_p,
                otel_trace_id: ot.map(OtelTraceId),
                otel_span_id: ot.map(|v| OtelSpanId(v as u64)),
                otel_parent_span_id: None,
                tags: TagSet::default(),
                flow_metrics: None,
            };
            store.insert(span);
        }
        let start = SpanId((start_idx % specs.len()) as u64 + 1);
        let trace = assemble_trace(&store, start, &AssembleConfig::default());
        prop_assert!(!trace.is_empty());
        prop_assert!(trace.is_well_formed(), "trace:\n{}", trace.render_text());
        // The start span is always in its own trace.
        prop_assert!(trace.spans.iter().any(|s| s.span.span_id == start));
    }
}
