//! The intrusive tracer implementation.

use df_mesh::tracer::{AppTracer, CallToken, ServerToken};
use df_protocols::TraceHeaders;
use df_types::span::{CapturePoint, Span, SpanKind, SpanStatus, TapSide};
use df_types::tags::TagSet;
use df_types::{
    AgentId, DurationNs, FiveTuple, FlowId, L7Protocol, NodeId, OtelSpanId, OtelTraceId, SpanId,
    TimeNs,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::sync::{Arc, Mutex};

/// Which header convention the SDK speaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HeaderStyle {
    /// W3C `traceparent` (the Jaeger-like tracer).
    TraceparentW3c,
    /// Zipkin B3 single header (the Zipkin-like tracer).
    B3,
}

/// Collects app spans from every instrumented service of one deployment.
pub type SharedReporter = Arc<Mutex<Vec<Span>>>;

/// Create a fresh reporter.
pub fn reporter() -> SharedReporter {
    Arc::new(Mutex::new(Vec::new()))
}

#[derive(Debug, Clone)]
struct OpenSpan {
    trace_id: OtelTraceId,
    span_id: OtelSpanId,
    parent: Option<OtelSpanId>,
    start: TimeNs,
    service: String,
    endpoint: String,
}

/// An explicit-context-propagation tracing SDK.
pub struct IntrusiveTracer {
    name: String,
    style: HeaderStyle,
    overhead: DurationNs,
    reporter: SharedReporter,
    servers: HashMap<ServerToken, OpenSpan>,
    calls: HashMap<CallToken, OpenSpan>,
    next_token: u64,
    rng: SmallRng,
    /// Spans started.
    pub started: u64,
}

impl IntrusiveTracer {
    /// A Jaeger-like tracer (W3C headers).
    pub fn jaeger_like(reporter: SharedReporter, seed: u64) -> Self {
        IntrusiveTracer::new("jaeger-like", HeaderStyle::TraceparentW3c, reporter, seed)
    }

    /// A Zipkin-like tracer (B3 headers).
    pub fn zipkin_like(reporter: SharedReporter, seed: u64) -> Self {
        IntrusiveTracer::new("zipkin-like", HeaderStyle::B3, reporter, seed)
    }

    /// Custom tracer.
    pub fn new(name: &str, style: HeaderStyle, reporter: SharedReporter, seed: u64) -> Self {
        IntrusiveTracer {
            name: name.to_string(),
            style,
            // Calibrated so instrumented services pay a few microseconds per
            // request — the few-percent throughput hit of Fig. 16.
            overhead: DurationNs::from_micros(4),
            reporter,
            servers: HashMap::new(),
            calls: HashMap::new(),
            next_token: 1,
            rng: SmallRng::seed_from_u64(seed),
            started: 0,
        }
    }

    /// Override the per-operation overhead (sensitivity sweeps).
    pub fn with_overhead(mut self, o: DurationNs) -> Self {
        self.overhead = o;
        self
    }

    fn token(&mut self) -> u64 {
        let t = self.next_token;
        self.next_token += 1;
        t
    }

    fn emit(&self, open: OpenSpan, end: TimeNs, ok: bool, server_side: bool) {
        let span = Span {
            span_id: SpanId(0),
            kind: SpanKind::App,
            capture: CapturePoint {
                node: NodeId(0),
                tap_side: if server_side {
                    TapSide::ServerApp
                } else {
                    TapSide::ClientApp
                },
                interface: None,
            },
            agent: AgentId(0),
            flow_id: FlowId(0),
            five_tuple: FiveTuple::tcp(Ipv4Addr::UNSPECIFIED, 0, Ipv4Addr::UNSPECIFIED, 0),
            l7_protocol: L7Protocol::Http1,
            endpoint: format!("{}: {}", open.service, open.endpoint),
            req_time: open.start,
            resp_time: end,
            status: if ok {
                SpanStatus::Ok
            } else {
                SpanStatus::ServerError
            },
            status_code: None,
            req_bytes: 0,
            resp_bytes: 0,
            pid: None,
            tid: None,
            process_name: Some(open.service.as_str().into()),
            systrace_id_req: None,
            systrace_id_resp: None,
            pseudo_thread_id: None,
            x_request_id_req: None,
            x_request_id_resp: None,
            tcp_seq_req: None,
            tcp_seq_resp: None,
            otel_trace_id: Some(open.trace_id),
            otel_span_id: Some(open.span_id),
            otel_parent_span_id: open.parent,
            tags: TagSet::default(),
            flow_metrics: None,
        };
        self.reporter.lock().expect("reporter").push(span);
    }
}

impl AppTracer for IntrusiveTracer {
    fn on_request(
        &mut self,
        service: &str,
        endpoint: &str,
        incoming: &TraceHeaders,
        now: TimeNs,
    ) -> ServerToken {
        self.started += 1;
        let (trace_id, parent) = match incoming.trace_id {
            Some(t) => (t, incoming.span_id),
            None => (OtelTraceId(self.rng.gen()), None),
        };
        let token = self.token();
        self.servers.insert(
            token,
            OpenSpan {
                trace_id,
                span_id: OtelSpanId(self.rng.gen()),
                parent,
                start: now,
                service: service.to_string(),
                endpoint: endpoint.to_string(),
            },
        );
        token
    }

    fn on_call(
        &mut self,
        server: ServerToken,
        target: &str,
        now: TimeNs,
    ) -> (CallToken, Vec<(String, String)>) {
        let Some(parent) = self.servers.get(&server).cloned() else {
            return (0, Vec::new());
        };
        self.started += 1;
        let span_id = OtelSpanId(self.rng.gen());
        let token = self.token();
        self.calls.insert(
            token,
            OpenSpan {
                trace_id: parent.trace_id,
                span_id,
                parent: Some(parent.span_id),
                start: now,
                service: parent.service.clone(),
                endpoint: format!("call {target}"),
            },
        );
        let headers = match self.style {
            HeaderStyle::TraceparentW3c => vec![(
                "traceparent".to_string(),
                format!("00-{}-{}-01", parent.trace_id.to_hex(), span_id.to_hex()),
            )],
            HeaderStyle::B3 => vec![(
                "b3".to_string(),
                format!(
                    "{}-{}-1-{}",
                    parent.trace_id.to_hex(),
                    span_id.to_hex(),
                    parent.span_id.to_hex()
                ),
            )],
        };
        (token, headers)
    }

    fn on_call_done(&mut self, call: CallToken, now: TimeNs, ok: bool) {
        if let Some(open) = self.calls.remove(&call) {
            self.emit(open, now, ok, false);
        }
    }

    fn on_response(&mut self, server: ServerToken, now: TimeNs, ok: bool) {
        if let Some(open) = self.servers.remove(&server) {
            self.emit(open, now, ok, true);
        }
    }

    fn overhead_per_op(&self) -> DurationNs {
        self.overhead
    }

    fn drain_spans(&mut self) -> Vec<Span> {
        std::mem::take(&mut *self.reporter.lock().expect("reporter"))
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn server_and_call_spans_link_by_explicit_ids() {
        let rep = reporter();
        let mut t = IntrusiveTracer::jaeger_like(rep.clone(), 7);
        let st = t.on_request(
            "productpage",
            "GET /productpage",
            &TraceHeaders::default(),
            TimeNs(0),
        );
        let (ct, headers) = t.on_call(st, "reviews", TimeNs(10));
        assert_eq!(headers[0].0, "traceparent");
        t.on_call_done(ct, TimeNs(50), true);
        t.on_response(st, TimeNs(100), true);
        let spans = t.drain_spans();
        assert_eq!(spans.len(), 2);
        let call = spans
            .iter()
            .find(|s| s.capture.tap_side == TapSide::ClientApp)
            .unwrap();
        let server = spans
            .iter()
            .find(|s| s.capture.tap_side == TapSide::ServerApp)
            .unwrap();
        assert_eq!(call.otel_trace_id, server.otel_trace_id);
        assert_eq!(call.otel_parent_span_id, server.otel_span_id);
        assert_eq!(server.otel_parent_span_id, None, "root span");
    }

    #[test]
    fn incoming_context_continues_the_trace() {
        let rep = reporter();
        let mut upstream = IntrusiveTracer::jaeger_like(rep.clone(), 1);
        let st = upstream.on_request("a", "GET /", &TraceHeaders::default(), TimeNs(0));
        let (_, headers) = upstream.on_call(st, "b", TimeNs(1));
        // Parse the injected header the way the receiving service would.
        let req = df_protocols::http1::request("GET", "/", &headers, b"");
        let parsed_headers = df_protocols::http1::trace_headers(&req);
        let mut downstream = IntrusiveTracer::jaeger_like(rep.clone(), 2);
        let st2 = downstream.on_request("b", "GET /", &parsed_headers, TimeNs(5));
        downstream.on_response(st2, TimeNs(9), true);
        let spans = downstream.drain_spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].otel_trace_id, parsed_headers.trace_id);
        assert_eq!(spans[0].otel_parent_span_id, parsed_headers.span_id);
    }

    #[test]
    fn b3_style_injects_b3_headers() {
        let rep = reporter();
        let mut t = IntrusiveTracer::zipkin_like(rep, 3);
        let st = t.on_request("svc", "GET /", &TraceHeaders::default(), TimeNs(0));
        let (_, headers) = t.on_call(st, "x", TimeNs(1));
        assert_eq!(headers[0].0, "b3");
        let req = df_protocols::http1::request("GET", "/", &headers, b"");
        let h = df_protocols::http1::trace_headers(&req);
        assert!(h.trace_id.is_some());
        assert!(h.parent_span_id.is_some());
    }

    #[test]
    fn shared_reporter_collects_across_tracers() {
        let rep = reporter();
        let mut a = IntrusiveTracer::jaeger_like(rep.clone(), 1);
        let mut b = IntrusiveTracer::jaeger_like(rep.clone(), 2);
        let sa = a.on_request("a", "x", &TraceHeaders::default(), TimeNs(0));
        a.on_response(sa, TimeNs(1), true);
        let sb = b.on_request("b", "y", &TraceHeaders::default(), TimeNs(0));
        b.on_response(sb, TimeNs(1), false);
        let spans = a.drain_spans(); // drains the shared reporter
        assert_eq!(spans.len(), 2);
        assert!(spans.iter().any(|s| s.status == SpanStatus::ServerError));
    }

    #[test]
    fn overhead_is_nonzero_and_overridable() {
        let rep = reporter();
        let t = IntrusiveTracer::jaeger_like(rep.clone(), 1);
        assert!(t.overhead_per_op() > DurationNs::ZERO);
        let t2 = IntrusiveTracer::jaeger_like(rep, 1).with_overhead(DurationNs::from_micros(50));
        assert_eq!(t2.overhead_per_op(), DurationNs::from_micros(50));
    }

    #[test]
    fn call_on_unknown_server_token_is_harmless() {
        let rep = reporter();
        let mut t = IntrusiveTracer::jaeger_like(rep, 1);
        let (tok, headers) = t.on_call(999, "x", TimeNs(0));
        assert_eq!(tok, 0);
        assert!(headers.is_empty());
        t.on_call_done(0, TimeNs(1), true); // no panic
    }
}
