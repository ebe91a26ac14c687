//! Differential test of Algorithm 1 over the span fields the root
//! property tests leave unset: response-side X-Request-IDs (rule 12's
//! cross-match), OpenTelemetry parent span ids drawn from the corpus's own
//! span ids (rule 15, and the parent cycles the guard breaks), and
//! sequence-less exchanges of one flow under two endpoints. Sharded
//! assembly at 1 and 4 shards must equal the reference from every start,
//! span for span and in trace order.

use df_server::assemble::assemble_trace_reference;
use df_server::sharded::{assemble_trace_sharded, ShardedSpanStore};
use df_server::AssembleConfig;
use df_storage::{ShardPolicy, SpanStore};
use df_types::ids::{FlowId, OtelSpanId, OtelTraceId, PseudoThreadId, SysTraceId, XRequestId};
use df_types::span::{SpanKind, TapSide};
use df_types::{Span, SpanId};
use proptest::prelude::*;
use std::net::Ipv4Addr;

const MS: u64 = 1_000_000;

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

type Keys = (
    Option<u64>,  // systrace_req pool
    Option<u64>,  // systrace_resp pool
    Option<u64>,  // pseudo-thread pool
    Option<u128>, // x_request_id_req pool
    Option<u128>, // x_request_id_resp pool
    Option<u128>, // otel trace pool
);

type Third = (
    Option<u64>,   // otel span id pool
    Option<usize>, // index of the span whose otel span id is the parent
    usize,         // endpoint of a sequence-less span
);

/// Tap side, request time and duration buckets, TCP sequences, keys.
type Spec = (u8, u64, u64, Option<u32>, Option<u32>, Keys, Third);

fn spans(specs: &[Spec]) -> Vec<Span> {
    let mut out: Vec<Span> = (specs.iter().enumerate())
        .map(
            |(i, &(tap, t, d, seq_r, seq_p, keys, (own, _, endpoint)))| {
                let (sys_r, sys_p, pth, xr, xp, ot) = keys;
                // Times span two 100 ms buckets of the sequence-less key.
                let req = t * 7 * MS;
                let side = TAP_SIDES[usize::from(tap) % TAP_SIDES.len()];
                let mut s = Span::synthetic(side, req, req + d * 5 * MS);
                if matches!(side, TapSide::ClientApp | TapSide::ServerApp) {
                    s.kind = SpanKind::App;
                }
                // Spread over the shards: linked spans sit in different ones.
                s.five_tuple.src_ip = Ipv4Addr::new(10, 0, 0, (i % 8) as u8);
                s.flow_id = FlowId(u64::from(seq_r.unwrap_or(99)));
                s.endpoint = ["A example.org", "AAAA example.org"][endpoint % 2].into();
                s.tcp_seq_req = seq_r;
                s.tcp_seq_resp = seq_p;
                s.systrace_id_req = sys_r.map(SysTraceId);
                s.systrace_id_resp = sys_p.map(SysTraceId);
                s.pseudo_thread_id = pth.map(PseudoThreadId);
                s.x_request_id_req = xr.map(XRequestId);
                s.x_request_id_resp = xp.map(XRequestId);
                s.otel_trace_id = ot.map(OtelTraceId);
                s.otel_span_id = own.map(OtelSpanId);
                s
            },
        )
        .collect();
    for (i, &(.., (_, parent, _))) in specs.iter().enumerate() {
        out[i].otel_parent_span_id = parent.and_then(|p| out[p % out.len()].otel_span_id);
    }
    out
}

proptest! {
    #[test]
    fn sharded_assembly_matches_reference_on_every_rule_field(
        specs in proptest::collection::vec(
            (
                0u8..11,                          // tap side
                0u64..20,                         // req time bucket
                1u64..30,                         // duration bucket
                proptest::option::of(0u32..8),    // tcp_seq_req pool
                proptest::option::of(0u32..8),    // tcp_seq_resp pool
                (
                    proptest::option::of(0u64..6),
                    proptest::option::of(0u64..6),
                    proptest::option::of(0u64..4),
                    proptest::option::of(0u128..4),
                    proptest::option::of(0u128..4),
                    proptest::option::of(0u128..3),
                ),
                (
                    proptest::option::of(0u64..6),
                    proptest::option::of(0usize..60),
                    0usize..2,
                ),
            ),
            1..60,
        ),
        tombstones in proptest::collection::vec(0usize..60, 0..8),
        max_spans in 1usize..80,
    ) {
        let spans = spans(&specs);
        let tombstoned: Vec<SpanId> = (tombstones.iter())
            .map(|i| SpanId((i % spans.len()) as u64 + 1))
            .collect();
        let mut reference = SpanStore::new();
        for s in &spans {
            reference.insert(s.clone());
        }
        let mut sharded = [1, 4].map(|n| ShardedSpanStore::new(ShardPolicy::with_shards(n)));
        for store in &mut sharded {
            store.insert_batch(spans.clone());
        }
        for &id in &tombstoned {
            reference.tombstone(id);
            sharded.iter_mut().for_each(|store| store.tombstone(id));
        }
        for cfg in [AssembleConfig::default(), AssembleConfig { max_spans, ..Default::default() }] {
            for start in (1..=spans.len() as u64).map(SpanId) {
                let want = assemble_trace_reference(&reference, start, &cfg);
                prop_assert!(want.is_well_formed());
                for store in &sharded {
                    let got = assemble_trace_sharded(store, start, &cfg);
                    prop_assert_eq!(
                        &got,
                        &want,
                        "{} shards, start {:?}, cap {}",
                        store.shard_sizes().len(),
                        start,
                        cfg.max_spans
                    );
                }
            }
        }
    }
}
