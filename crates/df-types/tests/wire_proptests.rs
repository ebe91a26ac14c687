//! Property tests for the DFW1 wire format (`df_types::wire`).
//!
//! Three families:
//!
//! 1. **Round-trip**: any batch of arbitrary spans — every optional field,
//!    tag, status, protocol, and flow-metrics shape — survives
//!    encode → decode byte-for-byte equal.
//! 2. **Robustness**: the decoder never panics. Arbitrary garbage,
//!    truncations of valid frames, and single-byte corruptions must all
//!    come back as `Ok` or a structured [`WireDecodeError`] — no panics,
//!    no unbounded allocation.
//! 3. **Versioning**: any frame with a version byte other than
//!    [`wire::WIRE_VERSION`] is rejected with `BadVersion`, regardless of
//!    what follows.
//!
//! The vendored proptest shim has no combinators, so spans are drawn by a
//! hand-rolled generator over the shim's deterministic [`TestRng`]; each
//! property takes a seed and a count and builds its own corpus.

use df_types::ids::*;
use df_types::metrics::FlowMetrics;
use df_types::span::{CapturePoint, SpanKind, TapSide};
use df_types::tags::{ResourceTags, TagSet};
use df_types::wire::{self, WireDecodeError};
use df_types::{DurationNs, FiveTuple, L7Protocol, Span, SpanId, SpanStatus, TimeNs};
use proptest::prelude::*;
use std::net::Ipv4Addr;

fn opt<T>(rng: &mut TestRng, f: impl FnOnce(&mut TestRng) -> T) -> Option<T> {
    if rng.next_u64() & 1 == 0 {
        None
    } else {
        Some(f(rng))
    }
}

/// A short printable string, including empty and non-ASCII-identifier
/// characters (spaces, punctuation, multi-byte UTF-8).
fn arb_string(rng: &mut TestRng) -> String {
    const ALPHABET: &[&str] = &[
        "a",
        "z",
        "0",
        "9",
        "-",
        "_",
        "/",
        " ",
        "?",
        "é",
        "字",
        "✓",
        "\u{1F600}",
    ];
    let len = (rng.next_u64() % 9) as usize;
    (0..len)
        .map(|_| ALPHABET[(rng.next_u64() % ALPHABET.len() as u64) as usize])
        .collect()
}

fn arb_five_tuple(rng: &mut TestRng) -> FiveTuple {
    let src = Ipv4Addr::from((rng.next_u64() as u32).to_be_bytes());
    let dst = Ipv4Addr::from((rng.next_u64() as u32).to_be_bytes());
    let (sp, dp) = (rng.next_u64() as u16, rng.next_u64() as u16);
    if rng.next_u64() & 1 == 0 {
        FiveTuple::tcp(src, sp, dst, dp)
    } else {
        FiveTuple::udp(src, sp, dst, dp)
    }
}

fn arb_l7(rng: &mut TestRng) -> L7Protocol {
    match rng.next_u64() % 12 {
        0 => L7Protocol::Http1,
        1 => L7Protocol::Http2,
        2 => L7Protocol::Dns,
        3 => L7Protocol::Redis,
        4 => L7Protocol::Mysql,
        5 => L7Protocol::Kafka,
        6 => L7Protocol::Mqtt,
        7 => L7Protocol::Dubbo,
        8 => L7Protocol::Amqp,
        9 => L7Protocol::Tls,
        10 => L7Protocol::Custom(rng.next_u64() as u8),
        _ => L7Protocol::Unknown,
    }
}

fn arb_resource_tags(rng: &mut TestRng) -> ResourceTags {
    ResourceTags {
        vpc_id: opt(rng, |r| r.next_u64() as u32),
        ip: opt(rng, |r| r.next_u64() as u32),
        region_id: opt(rng, |r| r.next_u64() as u32),
        az_id: opt(rng, |r| r.next_u64() as u32),
        subnet_id: opt(rng, |r| r.next_u64() as u32),
        host_id: opt(rng, |r| r.next_u64() as u32),
        cluster_id: opt(rng, |r| r.next_u64() as u32),
        k8s_node_id: opt(rng, |r| r.next_u64() as u32),
        namespace_id: opt(rng, |r| r.next_u64() as u32),
        workload_id: opt(rng, |r| r.next_u64() as u32),
        service_id: opt(rng, |r| r.next_u64() as u32),
        pod_id: opt(rng, |r| r.next_u64() as u32),
    }
}

fn arb_flow_metrics(rng: &mut TestRng) -> FlowMetrics {
    FlowMetrics {
        packets_tx: rng.next_u64(),
        packets_rx: rng.next_u64(),
        bytes_tx: rng.next_u64(),
        bytes_rx: rng.next_u64(),
        retransmissions: rng.next_u64(),
        resets: rng.next_u64(),
        zero_windows: rng.next_u64(),
        syn_retries: rng.next_u64(),
        rtt: DurationNs(rng.next_u64()),
        srt: DurationNs(rng.next_u64()),
        established: rng.next_u64() & 1 == 1,
    }
}

const TAP_SIDES: [TapSide; 11] = [
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

fn arb_span(rng: &mut TestRng) -> Span {
    let n_custom = (rng.next_u64() % 4) as usize;
    let custom = (0..n_custom)
        .map(|_| (arb_string(rng), arb_string(rng)))
        .collect();
    Span {
        span_id: SpanId(rng.next_u64()),
        kind: match rng.next_u64() % 3 {
            0 => SpanKind::Sys,
            1 => SpanKind::Net,
            _ => SpanKind::App,
        },
        capture: CapturePoint {
            node: NodeId(rng.next_u64() as u32),
            tap_side: TAP_SIDES[(rng.next_u64() % 11) as usize],
            interface: opt(rng, |r| arb_string(r).into()),
        },
        agent: AgentId(rng.next_u64() as u32),
        flow_id: FlowId(rng.next_u64()),
        five_tuple: arb_five_tuple(rng),
        l7_protocol: arb_l7(rng),
        endpoint: arb_string(rng),
        // Full-range times, including resp_time < req_time (ResponseOnly
        // fragments paired with an expired request) — the delta is
        // zigzag-encoded on the wire.
        req_time: TimeNs(rng.next_u64()),
        resp_time: TimeNs(rng.next_u64()),
        status: match rng.next_u64() % 5 {
            0 => SpanStatus::Ok,
            1 => SpanStatus::ClientError,
            2 => SpanStatus::ServerError,
            3 => SpanStatus::Incomplete,
            _ => SpanStatus::ResponseOnly,
        },
        status_code: opt(rng, |r| r.next_u64() as u16),
        req_bytes: rng.next_u64(),
        resp_bytes: rng.next_u64(),
        pid: opt(rng, |r| Pid(r.next_u64() as u32)),
        tid: opt(rng, |r| Tid(r.next_u64() as u32)),
        process_name: opt(rng, |r| arb_string(r).into()),
        systrace_id_req: opt(rng, |r| SysTraceId(r.next_u64())),
        systrace_id_resp: opt(rng, |r| SysTraceId(r.next_u64())),
        pseudo_thread_id: opt(rng, |r| PseudoThreadId(r.next_u64())),
        x_request_id_req: opt(rng, |r| XRequestId(r.next_u128())),
        x_request_id_resp: opt(rng, |r| XRequestId(r.next_u128())),
        tcp_seq_req: opt(rng, |r| r.next_u64() as u32),
        tcp_seq_resp: opt(rng, |r| r.next_u64() as u32),
        otel_trace_id: opt(rng, |r| OtelTraceId(r.next_u128())),
        otel_span_id: opt(rng, |r| OtelSpanId(r.next_u64())),
        otel_parent_span_id: opt(rng, |r| OtelSpanId(r.next_u64())),
        tags: TagSet {
            resource: arb_resource_tags(rng),
            custom,
        },
        flow_metrics: opt(rng, arb_flow_metrics),
    }
}

fn arb_batch(seed: u64, max: u64) -> Vec<Span> {
    let mut rng = TestRng::for_case("wire-span-gen", seed);
    let n = rng.next_u64() % (max + 1);
    (0..n).map(|_| arb_span(&mut rng)).collect()
}

proptest! {
    /// Encode → decode is the identity on arbitrary batches, including
    /// the empty one and spans where `resp_time < req_time`.
    #[test]
    fn round_trip_arbitrary_batches(seed in any::<u64>()) {
        let spans = arb_batch(seed, 20);
        let bytes = wire::encode_batch(&spans);
        let decoded = wire::decode_batch(&bytes).expect("own encoding decodes");
        prop_assert_eq!(&decoded, &spans);
        // The streaming parse agrees with the one-shot helper, and the
        // header peek agrees with the count.
        let batch = wire::WireBatch::parse(&bytes).expect("parse");
        prop_assert_eq!(batch.span_count() as usize, spans.len());
        prop_assert_eq!(batch.decode_all().expect("decode_all"), spans);
        prop_assert_eq!(wire::peek_span_count(&bytes).expect("peek") as usize, spans.len());
    }

    /// Arbitrary bytes never panic the decoder: every outcome is `Ok`
    /// (vanishingly unlikely) or a structured error.
    #[test]
    fn garbage_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..300)) {
        let _ = wire::decode_batch(&bytes);
        let _ = wire::peek_span_count(&bytes);
    }

    /// Garbage *behind a valid prefix* never panics either: the frame
    /// header is well-formed, everything after it is attacker-controlled.
    #[test]
    fn garbage_after_valid_prefix_never_panics(
        bytes in proptest::collection::vec(any::<u8>(), 0..300),
    ) {
        let mut framed = Vec::with_capacity(bytes.len() + wire::WIRE_PREFIX_LEN);
        framed.extend_from_slice(wire::WIRE_MAGIC);
        framed.push(wire::WIRE_VERSION);
        framed.extend_from_slice(&bytes);
        let _ = wire::decode_batch(&framed);
        let _ = wire::peek_span_count(&framed);
    }

    /// Every truncation of a valid frame fails cleanly (a strict prefix
    /// can never be a complete frame, so `Ok` is impossible too).
    #[test]
    fn truncations_fail_cleanly(seed in any::<u64>(), cut_seed in any::<u64>()) {
        let mut spans = arb_batch(seed, 5);
        if spans.is_empty() {
            spans.push(arb_span(&mut TestRng::for_case("wire-span-gen", seed ^ 2)));
        }
        let bytes = wire::encode_batch(&spans);
        let cut = (cut_seed % bytes.len() as u64) as usize; // strict prefix
        prop_assert!(wire::decode_batch(&bytes[..cut]).is_err());
    }

    /// Single-byte corruption anywhere in a valid frame never panics;
    /// it either still decodes (the flip hit a value byte) or errors.
    #[test]
    fn bit_flips_never_panic(seed in any::<u64>(), pos_seed in any::<u64>(), bit in 0u8..8) {
        let spans = arb_batch(seed, 5);
        let mut bytes = wire::encode_batch(&spans);
        let pos = (pos_seed % bytes.len() as u64) as usize;
        bytes[pos] ^= 1 << bit;
        let _ = wire::decode_batch(&bytes);
        let _ = wire::peek_span_count(&bytes);
    }

    /// A frame stamped with any version but ours is rejected up front
    /// with `BadVersion` — future encodings can change everything behind
    /// the version byte.
    #[test]
    fn foreign_versions_rejected(seed in any::<u64>(), version in any::<u8>()) {
        if version == wire::WIRE_VERSION {
            return Ok(());
        }
        let mut bytes = wire::encode_batch(&arb_batch(seed, 4));
        bytes[4] = version;
        prop_assert_eq!(
            wire::decode_batch(&bytes).unwrap_err(),
            WireDecodeError::BadVersion { found: version }
        );
        prop_assert_eq!(
            wire::peek_span_count(&bytes).unwrap_err(),
            WireDecodeError::BadVersion { found: version }
        );
    }
}
