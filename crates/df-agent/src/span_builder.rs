//! The one span builder (paper Fig. 6: message → session → span).
//!
//! Every capture source — syscall kprobes/tracepoints, TLS uprobes, cBPF
//! packet taps — is normalised into an [`Observed`] message, sessions of
//! them are aggregated by [`crate::session`], and [`build_span`] turns a
//! request, a response, or both ([`Halves`]) into a [`Span`]. What differs per source
//! (where the capture point comes from, which flow-metrics lookup
//! applies) stays with the callers; every span field is derived here.

use df_protocols::ParsedMessage;
use df_types::packet::Segment;
use df_types::span::{CapturePoint, Span, SpanKind, SpanStatus};
use df_types::tags::TagSet;
use df_types::{
    AgentId, Direction, FiveTuple, FlowId, MessageData, Pid, PseudoThreadId, SpanId, SysTraceId,
    Tid, TimeNs, TransportProtocol,
};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// The process-side block only syscall and uprobe captures can fill in.
#[derive(Debug)]
pub(crate) struct ProcessContext {
    /// Ingress or egress at the observed process (picks the tap side).
    pub direction: Direction,
    pid: Pid,
    tid: Tid,
    process_name: Arc<str>,
    systrace_id: SysTraceId,
    pseudo_thread_id: Option<PseudoThreadId>,
}

/// One classified L7 message as seen at one capture point.
#[derive(Debug)]
pub(crate) struct Observed {
    /// Capture time (syscall exit / frame timestamp).
    ts: TimeNs,
    /// Five-tuple as it travels on the wire: the source is the sender.
    pub tuple: FiveTuple,
    /// Sequence number of the first byte; `None` exactly when the
    /// transport is UDP, which has none — a 0 would spuriously associate
    /// every UDP span (inter-component association is a TCP property).
    tcp_seq: Option<u32>,
    byte_len: u64,
    /// The protocol parse of the payload prefix.
    parse: ParsedMessage,
    /// `Some` for syscall/uprobe captures (→ sys span), `None` for packets.
    pub process: Option<ProcessContext>,
}

impl Observed {
    fn new(ts: TimeNs, tuple: FiveTuple, seq: u32, byte_len: usize, parse: ParsedMessage) -> Self {
        Observed {
            ts,
            tuple,
            tcp_seq: (tuple.protocol != TransportProtocol::Udp).then_some(seq),
            byte_len: byte_len as u64,
            parse,
            process: None,
        }
    }

    /// A message captured at a syscall or uprobe, with its intra-component
    /// association ids already assigned and its process's shared name.
    pub fn from_syscall(
        msg: MessageData,
        parse: ParsedMessage,
        systrace_id: SysTraceId,
        pseudo_thread_id: Option<PseudoThreadId>,
        process_name: Arc<str>,
    ) -> Self {
        // `MessageData` tuples are local-first; on the wire the sender is.
        let tuple = match msg.tracing.direction {
            Direction::Egress => msg.network.five_tuple,
            Direction::Ingress => msg.network.five_tuple.reversed(),
        };
        let ts = msg.capture_ns();
        Observed {
            process: Some(ProcessContext {
                direction: msg.tracing.direction,
                pid: msg.program.pid,
                tid: msg.program.tid,
                process_name,
                systrace_id,
                pseudo_thread_id,
            }),
            ..Observed::new(ts, tuple, msg.network.tcp_seq, msg.syscall.byte_len, parse)
        }
    }

    /// A message captured from a tapped frame.
    pub fn from_packet(seg: &Segment, ts: TimeNs, parse: ParsedMessage) -> Self {
        Observed::new(ts, seg.five_tuple, seg.seq, seg.payload.len(), parse)
    }
}

/// The halves of one session a span is built from: a request, a
/// response, or both, never neither.
#[derive(Debug)]
#[expect(
    clippy::large_enum_variant,
    reason = "moved once into build_span, as the two halves were before; a box would allocate per span"
)]
pub(crate) enum Halves {
    /// Both halves: a completed span whose status comes from the response.
    Both(Observed, Observed),
    /// A request alone: its response never came (`Incomplete`, §3.3.1).
    Request(Observed),
    /// A response alone: a `ResponseOnly` fragment for server-side
    /// re-aggregation.
    Response(Observed),
}

impl Halves {
    /// A request with the response, if one matched it.
    pub fn of_request(req: Observed, resp: Option<Observed>) -> Self {
        match resp {
            Some(resp) => Halves::Both(req, resp),
            None => Halves::Request(req),
        }
    }

    /// The request half, if there is one.
    pub fn request(&self) -> Option<&Observed> {
        match self {
            Halves::Both(req, _) | Halves::Request(req) => Some(req),
            Halves::Response(_) => None,
        }
    }

    /// The response half, if there is one.
    pub fn response(&self) -> Option<&Observed> {
        match self {
            Halves::Both(_, resp) | Halves::Response(resp) => Some(resp),
            Halves::Request(_) => None,
        }
    }

    /// The request when there is one, else the response.
    fn first(&self) -> &Observed {
        match self {
            Halves::Both(req, _) | Halves::Request(req) => req,
            Halves::Response(resp) => resp,
        }
    }

    fn into_first(self) -> Observed {
        match self {
            Halves::Both(req, _) | Halves::Request(req) => req,
            Halves::Response(resp) => resp,
        }
    }
}

/// Build the span of one session observed at `capture`: both halves give a
/// completed span whose status comes from the response parse, a request
/// alone an `Incomplete` one (its response never came, §3.3.1), a response
/// alone a `ResponseOnly` fragment for server-side re-aggregation. The
/// five-tuple is oriented client→server — a request's sender is the client.
///
/// One per-source difference is kept on purpose: `otel_parent_span_id` is
/// carried by packet-path spans and left `None` on syscall-path spans, as
/// before the builders were merged. Carrying it on both would change the
/// bytes of every instrumented-app sys span; that belongs with the
/// front-half hardening (ROADMAP item 5), not with a refactor.
// Inlined so the several-hundred-byte `Span` is built once in the caller's
// frame, not copied per hop (out of line it cost `Agent::poll` a measured
// 1.6 %).
#[inline]
pub(crate) fn build_span(agent: AgentId, capture: CapturePoint, halves: Halves) -> Span {
    let (q, r) = (halves.request(), halves.response());
    let status = match &halves {
        Halves::Request(_) => SpanStatus::Incomplete,
        Halves::Response(_) => SpanStatus::ResponseOnly,
        Halves::Both(_, resp) => resp.parse.status(),
    };
    let first = halves.first();
    let five_tuple = match q {
        Some(request) => request.tuple,
        None => first.tuple.reversed(),
    };
    let (req_time, resp_time) = (first.ts, r.map_or(first.ts, |m| m.ts));
    let (req_bytes, resp_bytes) = (q.map_or(0, |m| m.byte_len), r.map_or(0, |m| m.byte_len));
    let status_code = r.and_then(|m| m.parse.status_code);
    let tcp_seq = |m: Option<&Observed>| m?.tcp_seq;
    let x_request_id = |m: Option<&Observed>| m?.parse.headers.x_request_id;
    let systrace_id = |m: Option<&Observed>| Some(m?.process.as_ref()?.systrace_id);
    let pseudo_thread_id = |m: Option<&Observed>| m?.process.as_ref()?.pseudo_thread_id;
    let (tcp_seq_req, tcp_seq_resp) = (tcp_seq(q), tcp_seq(r));
    let (x_request_id_req, x_request_id_resp) = (x_request_id(q), x_request_id(r));
    let (systrace_id_req, systrace_id_resp) = (systrace_id(q), systrace_id(r));
    let pseudo_thread_id = pseudo_thread_id(q).or(pseudo_thread_id(r));
    // Identity fields come from the request when there is one.
    let Observed { parse, process, .. } = halves.into_first();
    let is_sys = process.is_some();
    Span {
        span_id: SpanId(0),
        kind: if is_sys { SpanKind::Sys } else { SpanKind::Net },
        capture,
        agent,
        flow_id: FlowId(hash2("flow", five_tuple.canonical())),
        five_tuple,
        l7_protocol: parse.protocol,
        endpoint: parse.endpoint,
        req_time,
        resp_time,
        status,
        status_code,
        req_bytes,
        resp_bytes,
        pid: process.as_ref().map(|p| p.pid),
        tid: process.as_ref().map(|p| p.tid),
        systrace_id_req,
        systrace_id_resp,
        pseudo_thread_id,
        x_request_id_req,
        x_request_id_resp,
        tcp_seq_req,
        tcp_seq_resp,
        otel_trace_id: parse.headers.trace_id,
        otel_span_id: parse.headers.span_id,
        otel_parent_span_id: parse.headers.parent_span_id.filter(|_| !is_sys),
        process_name: process.map(|p| p.process_name),
        tags: TagSet::default(),
        flow_metrics: None,
    }
}

/// Stable hash of (label, value) — flow keys and flow ids.
pub(crate) fn hash2<A: Hash, B: Hash>(a: A, b: B) -> u64 {
    let mut h = DefaultHasher::new();
    a.hash(&mut h);
    b.hash(&mut h);
    h.finish()
}
