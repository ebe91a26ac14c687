//! The synthetic capture-ladder corpus the criterion microbenches share
//! (`alg1_assembly`, `alg1_parallel`, `cluster_assembly`): one builder, so
//! their numbers compare on byte-identical spans.

use df_server::AssembleConfig;
use df_types::ids::*;
use df_types::l7::L7Protocol;
use df_types::net::FiveTuple;
use df_types::span::{CapturePoint, Span, SpanKind, SpanStatus, TapSide};
use df_types::tags::TagSet;
use df_types::TimeNs;
use std::collections::VecDeque;
use std::net::Ipv4Addr;

/// A bare sys span at `tap` over `[req, resp]` with no association keys.
pub fn span(tap: TapSide, req: u64, resp: u64) -> Span {
    Span {
        span_id: SpanId(0),
        kind: SpanKind::Sys,
        capture: CapturePoint {
            node: NodeId(1),
            tap_side: tap,
            interface: None,
        },
        agent: AgentId(1),
        flow_id: FlowId(1),
        five_tuple: FiveTuple::tcp(
            Ipv4Addr::new(10, 0, 0, 1),
            40000,
            Ipv4Addr::new(10, 0, 0, 2),
            80,
        ),
        l7_protocol: L7Protocol::Http1,
        endpoint: "GET /".to_string(),
        req_time: TimeNs(req),
        resp_time: TimeNs(resp),
        status: SpanStatus::Ok,
        status_code: Some(200),
        req_bytes: 1,
        resp_bytes: 1,
        pid: None,
        tid: None,
        process_name: None,
        systrace_id_req: None,
        systrace_id_resp: None,
        pseudo_thread_id: None,
        x_request_id_req: None,
        x_request_id_resp: None,
        tcp_seq_req: None,
        tcp_seq_resp: None,
        otel_trace_id: None,
        otel_span_id: None,
        otel_parent_span_id: None,
        tags: TagSet::default(),
        flow_metrics: None,
    }
}

/// The nine network/process capture points of one request-response
/// exchange, outermost (client process) first.
const LADDER: [TapSide; 9] = [
    TapSide::ClientProcess,
    TapSide::ClientPodNic,
    TapSide::ClientNodeNic,
    TapSide::ClientHypervisor,
    TapSide::Gateway,
    TapSide::ServerHypervisor,
    TapSide::ServerNodeNic,
    TapSide::ServerPodNic,
    TapSide::ServerProcess,
];

/// Append one capture-ladder exchange: nine sys spans sharing `seq`, linked
/// upstream via `link_in` (client side) and downstream via `link_out`
/// (server side), plus one app span tied in through `otel`.
pub fn push_exchange(spans: &mut Vec<Span>, seq: u32, link_in: u64, link_out: u64, otel: u128) {
    let base = u64::from(seq) * 1_000_000; // unique, monotone per exchange
    for (rank, tap) in LADDER.iter().enumerate() {
        let r = rank as u64;
        let mut s = span(*tap, base + r * 10, base + 900_000 - r * 10);
        s.tcp_seq_req = Some(seq);
        if *tap == TapSide::ClientProcess {
            s.systrace_id_req = Some(SysTraceId(link_in));
        }
        if *tap == TapSide::ServerProcess {
            s.systrace_id_req = Some(SysTraceId(link_out));
            s.otel_trace_id = Some(OtelTraceId(otel));
        }
        spans.push(s);
    }
    let mut app = span(TapSide::ServerApp, base + 1_000, base + 800_000);
    app.kind = SpanKind::App;
    app.otel_trace_id = Some(OtelTraceId(otel));
    app.otel_span_id = Some(OtelSpanId(u64::from(seq)));
    spans.push(app);
}

/// One trace shaped as a `branching`-ary tree of exchanges, `levels` deep
/// (10 spans per exchange), root exchange first. `branching == 1` yields a
/// deep call chain; 10 yields fan-outs of ~1.1k (3 levels), ~11k (4) and
/// ~111k (5) spans. Every span is on one flow: see [`spread_flows`].
pub fn exchange_tree(branching: usize, levels: usize) -> Vec<Span> {
    let mut spans = Vec::new();
    let mut next_seq = 1u32;
    let mut next_key = 1u64;
    let mut queue = VecDeque::new();
    queue.push_back((next_key, 0usize));
    next_key += 1;
    while let Some((link_in, level)) = queue.pop_front() {
        let link_out = next_key;
        next_key += 1;
        let seq = next_seq;
        next_seq += 1;
        push_exchange(&mut spans, seq, link_in, link_out, u128::from(seq));
        if level + 1 < levels {
            for _ in 0..branching {
                queue.push_back((link_out, level + 1));
            }
        }
    }
    spans
}

/// Spread a corpus over distinct flows: each exchange (identified by its
/// TCP sequence / otel span id) gets its own five-tuple, so `ShardPolicy`
/// routing actually disperses it instead of hashing every span to one
/// shard.
pub fn spread_flows(spans: &mut [Span]) {
    for s in spans {
        let key = s
            .tcp_seq_req
            .or(s.otel_span_id.map(|v| v.0 as u32))
            .unwrap_or(0);
        s.five_tuple = FiveTuple::tcp(
            Ipv4Addr::new(10, (key >> 8) as u8, key as u8, 1),
            40_000,
            Ipv4Addr::new(10, 128, (key >> 16) as u8, 2),
            80,
        );
    }
}

/// [`exchange_tree`] with branching 10, flows spread.
pub fn fanout(levels: usize) -> Vec<Span> {
    let mut spans = exchange_tree(10, levels);
    spread_flows(&mut spans);
    spans
}

/// Config for the scale benchmarks: deep chains need more search
/// iterations than the paper's default 30, and the 100k traces exceed the
/// default span cap.
pub fn scale_cfg() -> AssembleConfig {
    AssembleConfig {
        iterations: 50_000,
        max_spans: 200_000,
        ..AssembleConfig::default()
    }
}
