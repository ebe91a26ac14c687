//! [`Span`] — one request/response session observed at one capture point.
//!
//! Paper §3.3.1: a span "always begins with a request and ends with a
//! response". Because DeepFlow is network-centric, the *same* logical
//! exchange produces multiple spans — one per capture point along the path
//! (client process, client pod NIC, node NIC, gateway, server side...). The
//! assembly step (§3.3.2, Algorithm 1) stitches them together using the
//! implicit-context attributes carried here.

use crate::ids::{
    AgentId, FlowId, NodeId, OtelSpanId, OtelTraceId, Pid, PseudoThreadId, SpanId, SysTraceId, Tid,
    XRequestId,
};
use crate::l7::L7Protocol;
use crate::metrics::FlowMetrics;
use crate::net::FiveTuple;
use crate::tags::TagSet;
use crate::time::{DurationNs, TimeNs};
use serde::{Deserialize, Serialize};
use std::fmt;

/// What produced the span (paper Figure 5 and §3.2.1 extensions).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SpanKind {
    /// System span from eBPF syscall hooks ("sys span").
    Sys,
    /// Network span from cBPF / AF_PACKET captures on an interface
    /// ("net span").
    Net,
    /// Application span integrated from a third-party tracing framework
    /// (OpenTelemetry et al., §3.3.2 third-party span integration).
    App,
}

impl fmt::Display for SpanKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpanKind::Sys => write!(f, "sys"),
            SpanKind::Net => write!(f, "net"),
            SpanKind::App => write!(f, "app"),
        }
    }
}

/// Which side of the exchange, and at which layer of the infrastructure, the
/// span was observed. Ordered roughly client→server along the Appendix A
/// datacenter path (Figure 17/18); [`TapSide::path_rank`] exposes that order
/// for parent-rule evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TapSide {
    /// Client application span from a third-party tracer.
    ClientApp,
    /// Client process (eBPF syscall capture).
    ClientProcess,
    /// Client pod interface (veth).
    ClientPodNic,
    /// Client node / VM interface.
    ClientNodeNic,
    /// Client-side hypervisor / physical NIC.
    ClientHypervisor,
    /// A gateway traversed by the flow (L4 or L7).
    Gateway,
    /// Server-side hypervisor / physical NIC.
    ServerHypervisor,
    /// Server node / VM interface.
    ServerNodeNic,
    /// Server pod interface (veth).
    ServerPodNic,
    /// Server process (eBPF syscall capture).
    ServerProcess,
    /// Server application span from a third-party tracer.
    ServerApp,
}

impl TapSide {
    /// Position along the client→server capture path. Smaller = closer to
    /// the client application. Used by the 16 parent rules: on the request
    /// path, a capture point earlier in the path is the parent of the next.
    pub fn path_rank(self) -> u8 {
        match self {
            TapSide::ClientApp => 0,
            TapSide::ClientProcess => 1,
            TapSide::ClientPodNic => 2,
            TapSide::ClientNodeNic => 3,
            TapSide::ClientHypervisor => 4,
            TapSide::Gateway => 5,
            TapSide::ServerHypervisor => 6,
            TapSide::ServerNodeNic => 7,
            TapSide::ServerPodNic => 8,
            TapSide::ServerProcess => 9,
            TapSide::ServerApp => 10,
        }
    }

    /// Whether this observation point is on the client side of the flow.
    pub fn is_client_side(self) -> bool {
        self.path_rank() <= TapSide::ClientHypervisor.path_rank()
    }

    /// Whether the span was captured in the network (between processes).
    pub fn is_network(self) -> bool {
        !matches!(
            self,
            TapSide::ClientApp
                | TapSide::ClientProcess
                | TapSide::ServerProcess
                | TapSide::ServerApp
        )
    }
}

impl fmt::Display for TapSide {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TapSide::ClientApp => "c-app",
            TapSide::ClientProcess => "c",
            TapSide::ClientPodNic => "c-pod",
            TapSide::ClientNodeNic => "c-nd",
            TapSide::ClientHypervisor => "c-hv",
            TapSide::Gateway => "gw",
            TapSide::ServerHypervisor => "s-hv",
            TapSide::ServerNodeNic => "s-nd",
            TapSide::ServerPodNic => "s-pod",
            TapSide::ServerProcess => "s",
            TapSide::ServerApp => "s-app",
        };
        write!(f, "{s}")
    }
}

/// Identifies the exact capture point: node + tap side (+ optional interface
/// name for network taps).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct CapturePoint {
    /// The node whose agent produced the span.
    pub node: NodeId,
    /// The side/layer of the capture.
    pub tap_side: TapSide,
    /// Interface name for net spans (`"eth0"`, `"veth-ab12"`, ...).
    pub interface: Option<String>,
}

/// Outcome of the exchange.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SpanStatus {
    /// Completed with a success response.
    Ok,
    /// Completed with a client-error response (e.g. HTTP 4xx).
    ClientError,
    /// Completed with a server-error response (e.g. HTTP 5xx).
    ServerError,
    /// No response observed — "unexpected execution termination" (§3.3.1),
    /// or not yet: the response may still be waiting server-side
    /// re-aggregation against a late [`SpanStatus::ResponseOnly`] fragment.
    Incomplete,
    /// A response whose request expired out of the agent's time window
    /// before it arrived. Shipped to the server so re-aggregation can
    /// reunite the pair (§3.3.1: "Messages received outside of the time
    /// period are uploaded to the DeepFlow Server, where they can be
    /// aggregated again using the same technique").
    ResponseOnly,
}

impl SpanStatus {
    /// Whether the exchange failed (any non-Ok outcome). Response-only
    /// fragments are bookkeeping, not failures.
    pub fn is_error(self) -> bool {
        !matches!(self, SpanStatus::Ok | SpanStatus::ResponseOnly)
    }

    /// The outcome a response with `status_code` completes an exchange
    /// with — the one reading of a protocol's status codes, so the agent
    /// (pairing the session itself) and the server (re-aggregating a late
    /// response) give the same exchange the same status. Only ever `Ok`,
    /// `ClientError` or `ServerError`; a response without a code is `Ok`.
    pub fn of_response(protocol: L7Protocol, status_code: Option<u16>) -> SpanStatus {
        let Some(code) = status_code else {
            return SpanStatus::Ok;
        };
        let (client, server) = match protocol {
            // RFC 1035 rcodes: NXDOMAIN is the asker's mistake, SERVFAIL
            // the resolver's.
            L7Protocol::Dns => (code == 3, code == 2),
            // 20 is OK; 30/40 are client-side timeouts and bad requests.
            L7Protocol::Dubbo => ((30..70).contains(&code), code >= 70),
            // An error code (MySQL ERR packet, Kafka `error_code`, MQTT
            // CONNACK return code) is nonzero and always the server's word.
            L7Protocol::Mysql | L7Protocol::Kafka | L7Protocol::Mqtt => (false, code != 0),
            // HTTP status classes. Redis replies are recorded as 200 / 500,
            // and a user-supplied specification reports HTTP-style codes.
            L7Protocol::Http1
            | L7Protocol::Http2
            | L7Protocol::Redis
            | L7Protocol::Amqp
            | L7Protocol::Tls
            | L7Protocol::Custom(_)
            | L7Protocol::Unknown => ((400..500).contains(&code), code >= 500),
        };
        if server {
            SpanStatus::ServerError
        } else if client {
            SpanStatus::ClientError
        } else {
            SpanStatus::Ok
        }
    }
}

/// Which implicit-context attribute an [`AssocKey`] is a value of — one
/// per association index of the span store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AssocKind {
    /// Thread-propagated syscall trace ids.
    Systrace,
    /// Coroutine pseudo-thread ids.
    PseudoThread,
    /// X-Request-ID header values.
    XRequest,
    /// TCP sequence numbers.
    TcpSeq,
    /// Third-party (OTel) trace ids.
    OtelTrace,
}

impl AssocKind {
    /// Width of this kind's values in bits (the cap on their varints).
    pub fn bits(self) -> u32 {
        match self {
            AssocKind::Systrace | AssocKind::PseudoThread => 64,
            AssocKind::XRequest | AssocKind::OtelTrace => 128,
            AssocKind::TcpSeq => 32,
        }
    }

    /// The key of this kind holding `value`, or `None` when the value is
    /// wider than [`AssocKind::bits`].
    pub fn key(self, value: u128) -> Option<AssocKey> {
        Some(match self {
            AssocKind::Systrace => AssocKey::Systrace(value.try_into().ok()?),
            AssocKind::PseudoThread => AssocKey::PseudoThread(value.try_into().ok()?),
            AssocKind::XRequest => AssocKey::XRequest(value),
            AssocKind::TcpSeq => AssocKey::TcpSeq(value.try_into().ok()?),
            AssocKind::OtelTrace => AssocKey::OtelTrace(value),
        })
    }
}

/// One value of one implicit-context attribute (§3.3.2): what Algorithm 1
/// joins spans by, what the span store indexes rows under, and what a
/// Phase 1 probe carries. [`Span::for_each_assoc_key`] is the only reading
/// of a span's attribute fields into keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AssocKey {
    /// A systrace id, from either message of the exchange.
    Systrace(u64),
    /// A pseudo-thread id.
    PseudoThread(u64),
    /// An X-Request-ID, from either message.
    XRequest(u128),
    /// The TCP sequence of either message's first byte.
    TcpSeq(u32),
    /// A third-party trace id.
    OtelTrace(u128),
}

impl AssocKey {
    /// Every kind, in index order: the order [`Span::for_each_assoc_key`]
    /// yields keys in, a shard is probed in, and a probe's keys travel in.
    pub const KINDS: [AssocKind; 5] = [
        AssocKind::Systrace,
        AssocKind::PseudoThread,
        AssocKind::XRequest,
        AssocKind::TcpSeq,
        AssocKind::OtelTrace,
    ];

    /// Which attribute this is a value of.
    pub fn kind(self) -> AssocKind {
        match self {
            AssocKey::Systrace(_) => AssocKind::Systrace,
            AssocKey::PseudoThread(_) => AssocKind::PseudoThread,
            AssocKey::XRequest(_) => AssocKind::XRequest,
            AssocKey::TcpSeq(_) => AssocKind::TcpSeq,
            AssocKey::OtelTrace(_) => AssocKind::OtelTrace,
        }
    }

    /// The value, widened ([`AssocKind::key`] narrows it back).
    pub fn value(self) -> u128 {
        match self {
            AssocKey::Systrace(v) | AssocKey::PseudoThread(v) => v.into(),
            AssocKey::XRequest(v) | AssocKey::OtelTrace(v) => v,
            AssocKey::TcpSeq(v) => v.into(),
        }
    }
}

/// One observed request/response session.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Span {
    /// Storage-assigned id (0 until persisted).
    pub span_id: SpanId,
    /// What produced the span.
    pub kind: SpanKind,
    /// Where it was observed.
    pub capture: CapturePoint,
    /// Agent that reported it.
    pub agent: AgentId,
    /// Flow the session belongs to.
    pub flow_id: FlowId,
    /// Five-tuple, oriented client→server.
    pub five_tuple: FiveTuple,
    /// Inferred L7 protocol.
    pub l7_protocol: L7Protocol,
    /// Operation label, e.g. `"GET /api/v1/products"` or `"SELECT"`.
    pub endpoint: String,
    /// Capture time of the request message.
    pub req_time: TimeNs,
    /// Capture time of the response message ([`Span::req_time`] +
    /// [`Span::duration`]). Equal to `req_time` for incomplete spans.
    pub resp_time: TimeNs,
    /// Outcome.
    pub status: SpanStatus,
    /// Protocol status code if any (HTTP status, MySQL error code...).
    pub status_code: Option<u16>,
    /// Request body length in bytes.
    pub req_bytes: u64,
    /// Response body length in bytes.
    pub resp_bytes: u64,

    // ---- process context (sys spans only) ----
    /// Observed process id.
    pub pid: Option<Pid>,
    /// Observed thread id.
    pub tid: Option<Tid>,
    /// Observed process name.
    pub process_name: Option<String>,

    // ---- implicit-context association attributes (Algorithm 1 joins) ----
    /// Systrace id carried by the request message.
    pub systrace_id_req: Option<SysTraceId>,
    /// Systrace id carried by the response message.
    pub systrace_id_resp: Option<SysTraceId>,
    /// Pseudo-thread id (coroutine chain).
    pub pseudo_thread_id: Option<PseudoThreadId>,
    /// X-Request-ID seen on the request.
    pub x_request_id_req: Option<XRequestId>,
    /// X-Request-ID seen on the response.
    pub x_request_id_resp: Option<XRequestId>,
    /// TCP sequence of the first byte of the request message.
    pub tcp_seq_req: Option<u32>,
    /// TCP sequence of the first byte of the response message.
    pub tcp_seq_resp: Option<u32>,
    /// Third-party trace id (W3C/B3), if present in headers.
    pub otel_trace_id: Option<OtelTraceId>,
    /// Third-party span id.
    pub otel_span_id: Option<OtelSpanId>,
    /// Third-party parent span id.
    pub otel_parent_span_id: Option<OtelSpanId>,

    // ---- correlation payloads (§3.4) ----
    /// Resource / custom tags (smart-encoded server-side).
    pub tags: TagSet,
    /// Flow metrics snapshot for the session's flow, when the capture point
    /// tracks them (net spans and sys spans with a flow table entry).
    pub flow_metrics: Option<FlowMetrics>,
}

impl Span {
    /// A minimal well-formed span for examples, tests and synthetic
    /// workloads: an HTTP/1 `GET /` sys span observed at `tap_side` with the
    /// given request/response capture times (nanoseconds). All association
    /// attributes start `None` — set the ones the scenario needs
    /// (`tcp_seq_req`, `systrace_id_req`, ...). The span id is 0 until a
    /// store assigns one.
    ///
    /// # Examples
    ///
    /// ```
    /// use df_types::span::{Span, SpanStatus, TapSide};
    ///
    /// let mut span = Span::synthetic(TapSide::ServerProcess, 1_000, 5_000);
    /// span.tcp_seq_req = Some(42);
    /// assert_eq!(span.duration().as_nanos(), 4_000);
    /// assert_eq!(span.status, SpanStatus::Ok);
    /// assert!(span.span_id.raw() == 0, "unassigned until stored");
    /// ```
    pub fn synthetic(tap_side: TapSide, req_ns: u64, resp_ns: u64) -> Span {
        Span {
            span_id: SpanId(0),
            kind: SpanKind::Sys,
            capture: CapturePoint {
                node: NodeId(1),
                tap_side,
                interface: None,
            },
            agent: AgentId(1),
            flow_id: FlowId(1),
            five_tuple: FiveTuple::tcp(
                std::net::Ipv4Addr::new(10, 0, 0, 1),
                40000,
                std::net::Ipv4Addr::new(10, 0, 0, 2),
                80,
            ),
            l7_protocol: L7Protocol::Http1,
            endpoint: "GET /".into(),
            req_time: TimeNs(req_ns),
            resp_time: TimeNs(resp_ns),
            status: SpanStatus::Ok,
            status_code: Some(200),
            req_bytes: 0,
            resp_bytes: 0,
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

    /// Session duration (response capture − request capture).
    pub fn duration(&self) -> DurationNs {
        self.resp_time.saturating_since(self.req_time)
    }

    /// Hand `f` the span's distinct association keys, in [`AssocKey::KINDS`]
    /// order with a request-side value ahead of a response-side one. A
    /// response-side value equal to the request side's is the same key and
    /// is yielded once — so a row is indexed, probed for and evicted once
    /// per key. This is the only reading of the attribute fields into keys.
    // A visitor, not an iterator: inlined, each call of `f` sees its
    // key's variant as a constant, and the store's match on it folds
    // away. Through an iterator of materialised keys ingest paid 90 ns a
    // span (a quarter of `SpanStore::insert_batch`).
    #[inline]
    pub fn for_each_assoc_key(&self, mut f: impl FnMut(AssocKey)) {
        /// One attribute: its request-side key, then a differing response one.
        #[inline]
        fn sides<T: PartialEq + Copy>(
            req: Option<T>,
            resp: Option<T>,
            key: impl Fn(T) -> AssocKey,
            f: &mut impl FnMut(AssocKey),
        ) {
            if let Some(v) = req {
                f(key(v));
            }
            if let Some(v) = resp.filter(|_| resp != req) {
                f(key(v));
            }
        }
        let f = &mut f;
        let systrace = |v: SysTraceId| AssocKey::Systrace(v.raw());
        let pseudo_thread = |v: PseudoThreadId| AssocKey::PseudoThread(v.raw());
        let x_request = |v: XRequestId| AssocKey::XRequest(v.0);
        let otel_trace = |v: OtelTraceId| AssocKey::OtelTrace(v.0);
        sides(self.systrace_id_req, self.systrace_id_resp, systrace, f);
        sides(self.pseudo_thread_id, None, pseudo_thread, f);
        sides(self.x_request_id_req, self.x_request_id_resp, x_request, f);
        sides(self.tcp_seq_req, self.tcp_seq_resp, AssocKey::TcpSeq, f);
        sides(self.otel_trace_id, None, otel_trace, f);
    }

    /// True if the two spans share at least one association key — the
    /// candidate test of Algorithm 1's iterative search.
    pub fn shares_context_with(&self, other: &Span) -> bool {
        let mut shared = false;
        self.for_each_assoc_key(|key| other.for_each_assoc_key(|theirs| shared |= theirs == key));
        shared
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blank_span() -> Span {
        Span::synthetic(TapSide::ClientProcess, 1000, 5000)
    }

    #[test]
    fn duration_is_resp_minus_req() {
        let s = blank_span();
        assert_eq!(s.duration().as_nanos(), 4000);
    }

    #[test]
    fn tap_side_path_order_is_client_to_server() {
        let order = [
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
        for w in order.windows(2) {
            assert!(w[0].path_rank() < w[1].path_rank());
        }
        assert!(TapSide::ClientPodNic.is_network());
        assert!(!TapSide::ServerProcess.is_network());
        assert!(TapSide::ClientHypervisor.is_client_side());
        assert!(!TapSide::ServerHypervisor.is_client_side());
    }

    #[test]
    fn shares_context_matches_tcp_seq() {
        let mut a = blank_span();
        let mut b = blank_span();
        assert!(!a.shares_context_with(&b));
        a.tcp_seq_req = Some(777);
        b.tcp_seq_req = Some(777);
        assert!(a.shares_context_with(&b));
    }

    #[test]
    fn shares_context_matches_crossed_systrace_ids() {
        let mut a = blank_span();
        let mut b = blank_span();
        // server span's request systrace equals client span's request systrace
        // (the ingress→egress chain), and also test the crossed direction.
        a.systrace_id_resp = Some(SysTraceId(9));
        b.systrace_id_req = Some(SysTraceId(9));
        assert!(a.shares_context_with(&b));
    }

    #[test]
    fn status_error_classification() {
        assert!(!SpanStatus::Ok.is_error());
        assert!(SpanStatus::ServerError.is_error());
        assert!(SpanStatus::Incomplete.is_error());
    }
}
