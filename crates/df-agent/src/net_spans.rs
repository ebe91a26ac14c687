//! Net spans from cBPF / AF_PACKET captures (paper §3.2.1 instrumentation
//! extensions + Appendix A).
//!
//! Each tapped interface yields frames; this module is the packet source of
//! the agent's one pipeline: it classifies a frame's payload with the
//! agent's inference engine, normalises it into an `Observed` message,
//! aggregates sessions, and resolves the capture point — one span per
//! request/response pair *per capture point*, the hop-by-hop spans that let
//! Fig. 11's operators see exactly which infrastructure element misbehaved.

use crate::session::{SessionAggregator, SessionOutcome};
use crate::span_builder::{build_span, hash2, Observed};
use df_net::taps::TapKind;
use df_protocols::inference::InferenceEngine;
use df_types::packet::Frame;
use df_types::span::{CapturePoint, Span, TapSide};
use df_types::{AgentId, DurationNs, FiveTuple, MessageType, NodeId, TimeNs};
use std::collections::{HashMap, HashSet};
use std::net::Ipv4Addr;

/// Set on every packet-path flow key and clear on every syscall-path one,
/// so the two sources never alias in the shared inference engine's cache.
pub(crate) const PACKET_FLOW_BIT: u64 = 1 << 63;

/// Per-interface capture context: what kind of tap, and which IPs are local
/// to it (a veth knows its pod; a node NIC knows the node's pods).
#[derive(Debug, Clone)]
pub struct TapContext {
    /// The tap kind.
    pub kind: TapKind,
    /// IPs local to the tapped element.
    pub local_ips: HashSet<Ipv4Addr>,
}

/// Builds net spans for one agent.
pub struct NetSpanBuilder {
    node: NodeId,
    agent: AgentId,
    /// Pending requests, each remembering the interface it was seen on.
    sessions: SessionAggregator<(String, Observed)>,
    taps: HashMap<String, TapContext>,
    /// Flow → client endpoint (set by SYN or first request).
    flow_client: HashMap<FiveTuple, (Ipv4Addr, u16)>,
    /// Frames whose payload could not be classified (continuations etc.).
    pub unparsed_frames: u64,
    /// Spans produced.
    pub spans_built: u64,
}

impl NetSpanBuilder {
    /// Builder for `node`'s agent.
    pub fn new(node: NodeId, agent: AgentId, slot: DurationNs) -> Self {
        NetSpanBuilder {
            node,
            agent,
            sessions: SessionAggregator::new(slot),
            taps: HashMap::new(),
            flow_client: HashMap::new(),
            unparsed_frames: 0,
            spans_built: 0,
        }
    }

    /// Register the context for an interface this agent taps.
    pub fn register_tap(&mut self, interface: &str, ctx: TapContext) {
        self.taps.insert(interface.to_string(), ctx);
    }

    /// Offer one captured frame, classified with the agent's `inference`
    /// engine; may complete a span. The capture's owned `interface` label
    /// travels with the message and ends up in the span's capture point.
    pub fn offer(
        &mut self,
        inference: &mut InferenceEngine,
        interface: String,
        frame: &Frame,
        ts: TimeNs,
    ) -> Option<Span> {
        let Frame::Segment(seg) = frame else {
            return None; // ARP handled by the flow table
        };
        let canon = seg.five_tuple.canonical();
        // Establish the client endpoint from the SYN.
        if seg.flags.syn && !seg.flags.ack {
            self.flow_client
                .entry(canon)
                .or_insert((seg.five_tuple.src_ip, seg.five_tuple.src_port));
        }
        if seg.payload.is_empty() {
            return None;
        }
        let flow_key = hash2(&interface, canon) | PACKET_FLOW_BIT;
        let Some(parse) = inference.parse_for(flow_key, &seg.payload) else {
            self.unparsed_frames += 1;
            return None;
        };
        // First request also pins the client if no SYN was seen (taps can
        // start mid-connection).
        if parse.msg_type == MessageType::Request {
            self.flow_client
                .entry(canon)
                .or_insert((seg.five_tuple.src_ip, seg.five_tuple.src_port));
        }
        let (key, msg_type) = (parse.session_key, parse.msg_type);
        let msg = (interface, Observed::from_packet(seg, ts, parse));
        match self.sessions.offer(flow_key, key, msg_type, ts, msg) {
            SessionOutcome::Matched { request, response }
            | SessionOutcome::OutOfWindow { request, response } => {
                Some(self.build(request.0, request.1, Some(response.1)))
            }
            _ => None,
        }
    }

    /// Expire stale pending requests into incomplete net spans, each at the
    /// capture point its matched sibling on that tap would have had.
    pub fn expire(&mut self, now: TimeNs) -> Vec<Span> {
        let stale = self.sessions.expire(now);
        stale
            .into_iter()
            .map(|(interface, req)| self.build(interface, req, None))
            .collect()
    }

    fn build(&mut self, interface: String, req: Observed, resp: Option<Observed>) -> Span {
        self.spans_built += 1;
        // The request's sender is the client unless a SYN said otherwise.
        let client_ip = match self.flow_client.get(&req.tuple.canonical()) {
            Some((ip, _)) => *ip,
            None => req.tuple.src_ip,
        };
        let capture = CapturePoint {
            node: self.node,
            tap_side: self.resolve_tap_side(&interface, client_ip),
            interface: Some(interface),
        };
        build_span(self.agent, capture, Some(req), resp)
    }

    fn resolve_tap_side(&self, interface: &str, client_ip: Ipv4Addr) -> TapSide {
        let Some(ctx) = self.taps.get(interface) else {
            return TapSide::Gateway; // unregistered tap: mid-path observer
        };
        let client_local = ctx.local_ips.contains(&client_ip);
        match ctx.kind {
            TapKind::PodVeth => {
                if client_local {
                    TapSide::ClientPodNic
                } else {
                    TapSide::ServerPodNic
                }
            }
            TapKind::NodeNic => {
                if client_local {
                    TapSide::ClientNodeNic
                } else {
                    TapSide::ServerNodeNic
                }
            }
            TapKind::PhysNic => {
                if client_local {
                    TapSide::ClientHypervisor
                } else {
                    TapSide::ServerHypervisor
                }
            }
            TapKind::TorMirror | TapKind::Gateway => TapSide::Gateway,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use df_protocols::http1;
    use df_types::net::TcpFlags;
    use df_types::packet::Segment;
    use df_types::span::{SpanKind, SpanStatus};
    use df_types::L7Protocol;

    const C: Ipv4Addr = Ipv4Addr::new(10, 1, 0, 1);
    const S: Ipv4Addr = Ipv4Addr::new(10, 1, 1, 1);

    fn seg(from_client: bool, seq: u32, payload: Bytes) -> Frame {
        let ft = if from_client {
            FiveTuple::tcp(C, 40000, S, 80)
        } else {
            FiveTuple::tcp(S, 80, C, 40000)
        };
        Frame::Segment(Segment {
            five_tuple: ft,
            seq,
            ack: 0,
            flags: TcpFlags::PSH_ACK,
            window: 100,
            payload,
            is_retransmission: false,
        })
    }

    fn builder() -> (NetSpanBuilder, InferenceEngine) {
        let mut b = NetSpanBuilder::new(NodeId(1), AgentId(1), DurationNs::from_secs(60));
        b.register_tap(
            "eth0",
            TapContext {
                kind: TapKind::NodeNic,
                local_ips: [C].into_iter().collect(),
            },
        );
        (b, InferenceEngine::default())
    }

    #[test]
    fn request_response_pair_builds_a_net_span() {
        let (mut b, mut e) = builder();
        let req = http1::request("GET", "/reviews/1", &[], b"");
        let resp = http1::response(200, &[], b"ok");
        assert!(b
            .offer(&mut e, "eth0".into(), &seg(true, 1000, req), TimeNs(100))
            .is_none());
        let span = b
            .offer(&mut e, "eth0".into(), &seg(false, 2000, resp), TimeNs(900))
            .expect("span completed");
        assert_eq!(span.kind, SpanKind::Net);
        assert_eq!(span.capture.tap_side, TapSide::ClientNodeNic);
        assert_eq!(span.endpoint, "GET /reviews/1");
        assert_eq!(span.tcp_seq_req, Some(1000));
        assert_eq!(span.tcp_seq_resp, Some(2000));
        assert_eq!(span.duration(), DurationNs(800));
        assert_eq!(span.five_tuple.src_ip, C, "client→server orientation");
        assert_eq!(span.status, SpanStatus::Ok);
    }

    #[test]
    fn server_side_tap_resolves_server_tap_side() {
        let mut b = NetSpanBuilder::new(NodeId(2), AgentId(2), DurationNs::from_secs(60));
        let mut e = InferenceEngine::default();
        b.register_tap(
            "eth0",
            TapContext {
                kind: TapKind::NodeNic,
                local_ips: [S].into_iter().collect(), // server's node
            },
        );
        b.offer(
            &mut e,
            "eth0".into(),
            &seg(true, 1, http1::request("GET", "/", &[], b"")),
            TimeNs(0),
        );
        let span = b
            .offer(
                &mut e,
                "eth0".into(),
                &seg(false, 2, http1::response(200, &[], b"")),
                TimeNs(10),
            )
            .unwrap();
        assert_eq!(span.capture.tap_side, TapSide::ServerNodeNic);
    }

    #[test]
    fn error_response_sets_span_status() {
        let (mut b, mut e) = builder();
        b.offer(
            &mut e,
            "eth0".into(),
            &seg(true, 1, http1::request("GET", "/broken", &[], b"")),
            TimeNs(0),
        );
        let span = b
            .offer(
                &mut e,
                "eth0".into(),
                &seg(false, 2, http1::response(404, &[], b"")),
                TimeNs(10),
            )
            .unwrap();
        assert_eq!(span.status, SpanStatus::ClientError);
        assert_eq!(span.status_code, Some(404));
    }

    #[test]
    fn control_segments_and_unparseable_payloads_are_skipped() {
        let (mut b, mut e) = builder();
        // SYN (no payload)
        let syn = Frame::Segment(Segment {
            five_tuple: FiveTuple::tcp(C, 40000, S, 80),
            seq: 0,
            ack: 0,
            flags: TcpFlags::SYN,
            window: 100,
            payload: Bytes::new(),
            is_retransmission: false,
        });
        assert!(b.offer(&mut e, "eth0".into(), &syn, TimeNs(0)).is_none());
        // junk payload
        assert!(b
            .offer(
                &mut e,
                "eth0".into(),
                &seg(true, 1, Bytes::from_static(b"\x00\x01garbage")),
                TimeNs(1)
            )
            .is_none());
        assert_eq!(b.unparsed_frames, 1);
    }

    #[test]
    fn expire_produces_incomplete_net_spans() {
        let (mut b, mut e) = builder();
        b.offer(
            &mut e,
            "eth0".into(),
            &seg(true, 1, http1::request("GET", "/hang", &[], b"")),
            TimeNs::from_secs(0),
        );
        let spans = b.expire(TimeNs::from_secs(300));
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].status, SpanStatus::Incomplete);
        assert_eq!(spans[0].endpoint, "GET /hang");
        // Same capture point a matched span on this tap would carry.
        assert_eq!(spans[0].capture.tap_side, TapSide::ClientNodeNic);
        assert_eq!(spans[0].capture.interface.as_deref(), Some("eth0"));
    }

    #[test]
    fn x_request_id_headers_carried_onto_span() {
        let (mut b, mut e) = builder();
        let xid = df_types::XRequestId(0x1234_5678_9abc_def0_1111_2222_3333_4444);
        let req = http1::request("GET", "/", &[("X-Request-ID".into(), xid.to_wire())], b"");
        b.offer(&mut e, "eth0".into(), &seg(true, 1, req), TimeNs(0));
        let span = b
            .offer(
                &mut e,
                "eth0".into(),
                &seg(false, 2, http1::response(200, &[], b"")),
                TimeNs(1),
            )
            .unwrap();
        assert_eq!(span.x_request_id_req, Some(xid));
    }

    #[test]
    fn udp_dns_spans_have_no_tcp_seq() {
        let (mut b, mut e) = builder();
        let q = df_protocols::dns::query(9, "svc.local");
        let a = df_protocols::dns::answer(9, "svc.local", df_protocols::dns::RCODE_OK);
        let mk = |from_client: bool, payload: Bytes| {
            let ft = if from_client {
                FiveTuple::udp(C, 5353, S, 53)
            } else {
                FiveTuple::udp(S, 53, C, 5353)
            };
            Frame::Segment(Segment {
                five_tuple: ft,
                seq: 0,
                ack: 0,
                flags: TcpFlags::default(),
                window: 0,
                payload,
                is_retransmission: false,
            })
        };
        assert!(b
            .offer(&mut e, "eth0".into(), &mk(true, q), TimeNs(0))
            .is_none());
        let span = b
            .offer(&mut e, "eth0".into(), &mk(false, a), TimeNs(5))
            .unwrap();
        assert_eq!(span.l7_protocol, L7Protocol::Dns);
        assert_eq!(span.tcp_seq_req, None);
        assert_eq!(span.tcp_seq_resp, None);
        // sanity: parse typed them correctly
        assert_eq!(span.endpoint, "A svc.local");
    }

    #[test]
    fn sequence_numbers_follow_the_transport_not_the_protocol() {
        let (mut b, mut e) = builder();
        // DNS over TCP keeps its sequence numbers.
        let q = df_protocols::dns::query(9, "svc.local");
        let a = df_protocols::dns::answer(9, "svc.local", df_protocols::dns::RCODE_OK);
        b.offer(&mut e, "eth0".into(), &seg(true, 700, q), TimeNs(0));
        let span = b.offer(&mut e, "eth0".into(), &seg(false, 800, a), TimeNs(5));
        let span = span.expect("dns over tcp pairs");
        assert_eq!(span.l7_protocol, L7Protocol::Dns);
        assert_eq!(
            (span.tcp_seq_req, span.tcp_seq_resp),
            (Some(700), Some(800))
        );
        // A non-DNS protocol over UDP has none to keep.
        let udp = |from_client: bool, payload: Bytes| {
            let Frame::Segment(mut s) = seg(from_client, 0, payload) else {
                unreachable!()
            };
            s.five_tuple.protocol = df_types::TransportProtocol::Udp;
            Frame::Segment(s)
        };
        let req = udp(true, http1::request("GET", "/udp", &[], b""));
        b.offer(&mut e, "eth0".into(), &req, TimeNs(10));
        let resp = udp(false, http1::response(200, &[], b""));
        let span = b
            .offer(&mut e, "eth0".into(), &resp, TimeNs(15))
            .expect("pairs");
        assert_eq!(span.l7_protocol, L7Protocol::Http1);
        assert_eq!((span.tcp_seq_req, span.tcp_seq_resp), (None, None));
    }
}
