//! Cross-version pin of Algorithm 1's output. One seeded corpus in a
//! 4-shard store exercises every parent rule — capture ladders (1–8),
//! request- and response-chain systrace (9, 10), pseudo-threads (11),
//! X-Request-IDs on either side (12), OpenTelemetry app spans with client
//! span ids, server containment, parent ids and a shared trace id (13–16),
//! sequence-less exchanges under two endpoints of one flow, and one parent
//! cycle — and every start is assembled, once uncapped and once under a
//! small `max_spans`. The `(span_id, parent)` pairs of every trace, in
//! trace order, hash to one FNV-1a digest.
//!
//! The reference oracle shares exchange grouping, the cycle guard and the
//! Phase 3 sort with the fast path, so a drift there moves both sides of
//! the differential tests together. This digest catches it: it must not
//! change unless an assembled trace is meant to.

use df_server::sharded::{assemble_trace_sharded, ShardedSpanStore};
use df_server::AssembleConfig;
use df_storage::ShardPolicy;
use df_types::ids::{FlowId, OtelSpanId, OtelTraceId, PseudoThreadId, SysTraceId, XRequestId};
use df_types::net::FiveTuple;
use df_types::span::{SpanKind, TapSide};
use df_types::{Span, SpanId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::net::Ipv4Addr;

/// The digest the corpus below assembles to.
const PINNED: u64 = 0x20f9_b946_92ad_aede;

const US: u64 = 1_000;

fn span(side: TapSide, kind: SpanKind, req: u64, resp: u64) -> Span {
    let mut s = Span::synthetic(side, req, resp);
    s.kind = kind;
    s
}

/// One exchange `hop` of request `r` over `[req, resp]`, seen at the client
/// process, a random subset of the network capture points and the server
/// process: `(client, server)` indexes into `out`. `seq: None` makes a
/// sequence-less exchange, joined by its response sequence and grouped by
/// flow, endpoint and time.
fn exchange(
    rng: &mut SmallRng,
    out: &mut Vec<Span>,
    (r, hop): (u64, u64),
    (req, resp): (u64, u64),
    seq: Option<u32>,
    endpoint: &str,
) -> (usize, usize) {
    let tuple = FiveTuple::tcp(
        Ipv4Addr::new(10, r as u8, hop as u8, 1),
        40_000 + rng.gen_range(0..64u16),
        Ipv4Addr::new(10, r as u8, hop as u8, 2),
        80,
    );
    let resp_seq = rng.gen_range(0..u32::MAX);
    let mut add = |side: TapSide, kind: SpanKind, inset: u64| {
        let mut s = span(side, kind, req + inset, resp - inset);
        s.five_tuple = tuple;
        s.flow_id = FlowId(r * 100 + hop);
        s.endpoint = endpoint.into();
        s.tcp_seq_req = seq;
        s.tcp_seq_resp = Some(resp_seq);
        out.push(s);
        out.len() - 1
    };
    let client = add(TapSide::ClientProcess, SpanKind::Sys, 0);
    let net = [
        TapSide::ClientPodNic,
        TapSide::ClientNodeNic,
        TapSide::ClientHypervisor,
        TapSide::Gateway,
        TapSide::ServerHypervisor,
        TapSide::ServerNodeNic,
        TapSide::ServerPodNic,
    ];
    for (i, side) in net.into_iter().enumerate() {
        if seq.is_some() && rng.gen_bool(0.5) {
            add(side, SpanKind::Net, 1 + i as u64);
        }
    }
    let server = add(TapSide::ServerProcess, SpanKind::Sys, 10);
    (client, server)
}

/// Requests down chains of 2–5 services. Each hop's call out of a service
/// is tied to the service's own ingress span by one mechanism, drawn per
/// hop; traced requests add app spans.
fn corpus(seed: u64) -> Vec<Span> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut out = Vec::new();
    let mut next_id = 1u64;
    let mut fresh = || {
        next_id += 1;
        next_id
    };
    for r in 0..24u64 {
        let traced = r % 3 == 0;
        let trace = OtelTraceId(u128::from(r) + 1);
        // Odd requests straddle a 100 ms boundary of the sequence-less
        // exchange key.
        let base = r * 1_000_000_000 + r % 2 * 90_000_000;
        let depth = rng.gen_range(2..6u64);
        let seq = rng.gen_range(0..u32::MAX);
        let span_of = |hop: u64| (base + hop * 200 * US, base + 20_000 * US - hop * 200 * US);
        let (_, mut ingress) = exchange(&mut rng, &mut out, (r, 0), span_of(0), Some(seq), "GET /");
        for hop in 1..depth {
            let at = span_of(hop);
            let seq = rng.gen_range(0..u32::MAX);
            let (client, server) =
                exchange(&mut rng, &mut out, (r, hop), at, Some(seq), "GET /api");
            let id = fresh();
            match rng.gen_range(0..6u32) {
                0 => {
                    out[ingress].systrace_id_req = Some(SysTraceId(id));
                    out[client].systrace_id_req = Some(SysTraceId(id));
                    if rng.gen_bool(0.5) {
                        // An app span opened with the ingress and carrying
                        // its id: a tie the smaller span id wins.
                        let (req, resp) = (out[ingress].req_time, out[ingress].resp_time);
                        let (req, resp) = (req.as_nanos(), resp.as_nanos());
                        let mut app = span(TapSide::ServerApp, SpanKind::App, req, resp);
                        app.systrace_id_req = Some(SysTraceId(id));
                        out.push(app);
                    }
                }
                1 => {
                    out[ingress].systrace_id_resp = Some(SysTraceId(id));
                    out[client].systrace_id_resp = Some(SysTraceId(id));
                }
                2 => {
                    out[ingress].pseudo_thread_id = Some(PseudoThreadId(id));
                    out[client].pseudo_thread_id = Some(PseudoThreadId(id));
                }
                3 => {
                    // A proxy: either side's id may be the one carried on.
                    let x = Some(XRequestId(u128::from(id)));
                    match rng.gen_range(0..3u32) {
                        0 => (out[ingress].x_request_id_req, out[client].x_request_id_req) = (x, x),
                        1 => {
                            (out[ingress].x_request_id_resp, out[client].x_request_id_req) = (x, x)
                        }
                        _ => {
                            (out[ingress].x_request_id_req, out[client].x_request_id_resp) = (x, x)
                        }
                    }
                }
                4 if traced => {
                    // Server app span inside the ingress (rule 14), a client
                    // app span under it by parent id (rule 15), and the call
                    // carrying the client app span's id (rule 13).
                    let (req, resp) = at;
                    let ingress_at = (
                        out[ingress].req_time.as_nanos(),
                        out[ingress].resp_time.as_nanos(),
                    );
                    let mut server_app = span(
                        TapSide::ServerApp,
                        SpanKind::App,
                        ingress_at.0 + 20 * US,
                        ingress_at.1 - 20 * US,
                    );
                    let mut client_app = span(
                        TapSide::ClientApp,
                        SpanKind::App,
                        req - 50 * US,
                        resp + 50 * US,
                    );
                    let (sa, ca) = (OtelSpanId(fresh()), OtelSpanId(fresh()));
                    server_app.otel_span_id = Some(sa);
                    client_app.otel_span_id = Some(ca);
                    client_app.otel_parent_span_id = Some(sa);
                    for s in [&mut server_app, &mut client_app] {
                        s.otel_trace_id = Some(trace);
                    }
                    out[ingress].otel_trace_id = Some(trace);
                    out[client].otel_trace_id = Some(trace);
                    out[client].otel_span_id = Some(ca);
                    out.extend([server_app, client_app]);
                }
                _ => {
                    // Rule 16 alone: the trace id, nothing else.
                    out[ingress].otel_trace_id = Some(trace);
                    out[client].otel_trace_id = Some(trace);
                }
            }
            if rng.gen_bool(0.3) {
                // Two sequence-less lookups on one flow in one time bucket,
                // told apart only by their endpoints.
                let sys = Some(SysTraceId(fresh()));
                out[ingress].systrace_id_req = out[ingress].systrace_id_req.or(sys);
                let sys = out[ingress].systrace_id_req;
                let t = at.0 + rng.gen_range(30 * US..at.1 - at.0 - 100 * US);
                for name in ["A example.org", "AAAA example.org"] {
                    let (c, _) =
                        exchange(&mut rng, &mut out, (r, 99), (t, t + 90 * US), None, name);
                    out[c].systrace_id_req = sys;
                }
            }
            ingress = server;
        }
        if r == 6 {
            // Two app spans naming each other as parent: a cycle for the
            // guard to break.
            let (a, b) = (OtelSpanId(fresh()), OtelSpanId(fresh()));
            for (own, parent) in [(a, b), (b, a)] {
                let mut s = span(
                    TapSide::ServerApp,
                    SpanKind::App,
                    base + 400 * US,
                    base + 900 * US,
                );
                s.otel_trace_id = Some(trace);
                s.otel_span_id = Some(own);
                s.otel_parent_span_id = Some(parent);
                out.push(s);
            }
        }
    }
    out
}

fn fnv1a(hash: &mut u64, word: u64) {
    for byte in word.to_le_bytes() {
        *hash ^= u64::from(byte);
        *hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
}

#[test]
fn every_trace_of_the_seeded_corpus_hashes_to_the_pinned_digest() {
    let mut store = ShardedSpanStore::new(ShardPolicy::with_shards(4));
    let ids = store.insert_batch(corpus(26));
    assert!(
        store.shard_sizes().iter().all(|&n| n > 0),
        "every shard holds rows"
    );
    let capped = AssembleConfig {
        max_spans: 12,
        ..Default::default()
    };
    let mut digest = 0xcbf2_9ce4_8422_2325;
    for cfg in [AssembleConfig::default(), capped] {
        for &start in &ids {
            let trace = assemble_trace_sharded(&store, start, &cfg);
            assert!(trace.is_well_formed(), "start {start:?}");
            for s in &trace.spans {
                fnv1a(&mut digest, s.span.span_id.raw());
                fnv1a(&mut digest, s.parent.map_or(0, SpanId::raw));
            }
            fnv1a(&mut digest, u64::MAX);
        }
    }
    assert_eq!(
        digest,
        PINNED,
        "digest {digest:#018x} over {} spans",
        ids.len()
    );
}
