//! HTTP/1.1 (RFC 7231) — pipelined; request/response matched by order.
//!
//! The workhorse protocol of both demo applications (Spring Boot, Bookinfo)
//! and the carrier of every tracing header DeepFlow integrates: W3C
//! `traceparent`, Zipkin B3 (`X-B3-TraceId`/`X-B3-SpanId`/
//! `X-B3-ParentSpanId`) and proxy `X-Request-ID`.

use crate::{Key, MessageSummary, TraceHeaders};
use bytes::Bytes;
use df_types::{L7Protocol, MessageType, OtelSpanId, OtelTraceId, XRequestId};

const METHODS: [&str; 7] = ["GET", "POST", "PUT", "DELETE", "HEAD", "PATCH", "OPTIONS"];

/// Build a request payload.
pub fn request(method: &str, path: &str, headers: &[(String, String)], body: &[u8]) -> Bytes {
    let mut s = format!("{method} {path} HTTP/1.1\r\nhost: svc\r\n");
    for (k, v) in headers {
        s.push_str(&format!("{k}: {v}\r\n"));
    }
    s.push_str(&format!("content-length: {}\r\n\r\n", body.len()));
    let mut out = s.into_bytes();
    out.extend_from_slice(body);
    Bytes::from(out)
}

/// Build a response payload.
pub fn response(status: u16, headers: &[(String, String)], body: &[u8]) -> Bytes {
    let reason = match status {
        200 => "OK",
        201 => "Created",
        204 => "No Content",
        400 => "Bad Request",
        404 => "Not Found",
        500 => "Internal Server Error",
        502 => "Bad Gateway",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Status",
    };
    let mut s = format!("HTTP/1.1 {status} {reason}\r\n");
    for (k, v) in headers {
        s.push_str(&format!("{k}: {v}\r\n"));
    }
    s.push_str(&format!("content-length: {}\r\n\r\n", body.len()));
    let mut out = s.into_bytes();
    out.extend_from_slice(body);
    Bytes::from(out)
}

/// Does the payload look like HTTP/1.x?
pub fn sniff(payload: &[u8]) -> bool {
    if payload.starts_with(b"HTTP/1.") {
        return true;
    }
    METHODS.iter().any(|m| {
        payload.len() > m.len() && payload.starts_with(m.as_bytes()) && payload[m.len()] == b' '
    })
}

/// Extract a header value (case-insensitive key match) from the head section.
pub fn header_value<'a>(payload: &'a [u8], key: &str) -> Option<&'a str> {
    let text = std::str::from_utf8(payload).ok()?;
    let head = text.split("\r\n\r\n").next()?;
    for line in head.lines().skip(1) {
        if let Some((k, v)) = line.split_once(':') {
            if k.trim().eq_ignore_ascii_case(key) {
                return Some(v.trim());
            }
        }
    }
    None
}

/// Pull the tracing headers out of an HTTP/1.1 head section.
pub fn trace_headers(payload: &[u8]) -> TraceHeaders {
    let mut h = TraceHeaders::default();
    // W3C traceparent: version-traceid-spanid-flags
    if let Some(tp) = header_value(payload, "traceparent") {
        let parts: Vec<&str> = tp.split('-').collect();
        if parts.len() == 4 {
            h.trace_id = OtelTraceId::from_hex(parts[1]);
            h.span_id = OtelSpanId::from_hex(parts[2]);
        }
    }
    // Zipkin B3 single header: traceid-spanid-sampled-parentspanid
    if h.trace_id.is_none() {
        if let Some(b3) = header_value(payload, "b3") {
            let parts: Vec<&str> = b3.split('-').collect();
            if parts.len() >= 2 {
                h.trace_id = OtelTraceId::from_hex(parts[0]);
                h.span_id = OtelSpanId::from_hex(parts[1]);
                if parts.len() >= 4 {
                    h.parent_span_id = OtelSpanId::from_hex(parts[3]);
                }
            }
        }
    }
    // Zipkin B3 multi headers.
    if h.trace_id.is_none() {
        if let Some(t) = header_value(payload, "x-b3-traceid") {
            h.trace_id = OtelTraceId::from_hex(t);
            h.span_id = header_value(payload, "x-b3-spanid").and_then(OtelSpanId::from_hex);
            h.parent_span_id =
                header_value(payload, "x-b3-parentspanid").and_then(OtelSpanId::from_hex);
        }
    }
    if let Some(x) = header_value(payload, "x-request-id") {
        h.x_request_id = XRequestId::from_wire(x);
    }
    h
}

/// Parse an HTTP/1.1 message.
pub fn parse(payload: &[u8]) -> Option<MessageSummary> {
    if payload.starts_with(b"HTTP/1.") {
        // Response: HTTP/1.1 <code> <reason>
        let text = std::str::from_utf8(payload.get(..payload.len().min(64))?).ok()?;
        let code: u16 = text.split_whitespace().nth(1)?.parse().ok()?;
        let mut s = MessageSummary::basic(
            L7Protocol::Http1,
            MessageType::Response,
            Key::Ordered,
            format!("{code}"),
        );
        s.status_code = Some(code);
        s.headers = trace_headers(payload);
        return Some(s);
    }
    if sniff(payload) {
        let text = std::str::from_utf8(payload).ok()?;
        let mut first = text.lines().next()?.split_whitespace();
        let method = first.next()?;
        let path = first.next().unwrap_or("/");
        let mut s = MessageSummary::basic(
            L7Protocol::Http1,
            MessageType::Request,
            Key::Ordered,
            format!("{method} {path}"),
        );
        s.headers = trace_headers(payload);
        return Some(s);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use df_types::SpanStatus;

    #[test]
    fn request_round_trip() {
        let req = request("GET", "/api/v1/products", &[], b"");
        assert!(sniff(&req));
        let p = parse(&req).unwrap();
        assert_eq!(p.msg_type, MessageType::Request);
        assert_eq!(p.endpoint, "GET /api/v1/products");
        assert_eq!(p.session_key, Key::Ordered);
        assert!(p.status_code.is_none());
    }

    #[test]
    fn response_parsing_classifies_errors() {
        for (code, status) in [
            (200u16, SpanStatus::Ok),
            (404, SpanStatus::ClientError),
            (503, SpanStatus::ServerError),
        ] {
            let resp = response(code, &[], b"body");
            let p = parse(&resp).unwrap();
            assert_eq!(p.msg_type, MessageType::Response);
            assert_eq!(p.status_code, Some(code));
            assert_eq!(p.status(), status, "{code}");
        }
    }

    #[test]
    fn traceparent_extraction() {
        let tid = OtelTraceId(0xabcd_0000_0000_0000_0000_0000_0000_1234);
        let sid = OtelSpanId(0x1111_2222_3333_4444);
        let req = request(
            "GET",
            "/",
            &[(
                "traceparent".into(),
                format!("00-{}-{}-01", tid.to_hex(), sid.to_hex()),
            )],
            b"",
        );
        let h = trace_headers(&req);
        assert_eq!(h.trace_id, Some(tid));
        assert_eq!(h.span_id, Some(sid));
    }

    #[test]
    fn b3_single_and_multi_extraction() {
        let tid = OtelTraceId(7);
        let sid = OtelSpanId(8);
        let pid = OtelSpanId(9);
        let single = request(
            "GET",
            "/",
            &[(
                "b3".into(),
                format!("{}-{}-1-{}", tid.to_hex(), sid.to_hex(), pid.to_hex()),
            )],
            b"",
        );
        let h = trace_headers(&single);
        assert_eq!(h.trace_id, Some(tid));
        assert_eq!(h.parent_span_id, Some(pid));

        let multi = request(
            "GET",
            "/",
            &[
                ("X-B3-TraceId".into(), tid.to_hex()),
                ("X-B3-SpanId".into(), sid.to_hex()),
                ("X-B3-ParentSpanId".into(), pid.to_hex()),
            ],
            b"",
        );
        let h2 = trace_headers(&multi);
        assert_eq!(h2.trace_id, Some(tid));
        assert_eq!(h2.span_id, Some(sid));
        assert_eq!(h2.parent_span_id, Some(pid));
    }

    #[test]
    fn x_request_id_extraction() {
        let xid = XRequestId(0xdead_beef_dead_beef_dead_beef_dead_beef);
        let resp = response(200, &[("X-Request-ID".into(), xid.to_wire())], b"");
        assert_eq!(trace_headers(&resp).x_request_id, Some(xid));
    }

    #[test]
    fn sniff_rejects_non_http() {
        assert!(!sniff(b"\x00\x01\x02\x03"));
        assert!(!sniff(b"*1\r\n$4\r\nPING\r\n"));
        assert!(!sniff(b"GETX /"));
        assert!(!sniff(b""));
    }

    #[test]
    fn header_value_is_case_insensitive() {
        let req = request("GET", "/", &[("X-Custom".into(), "42".into())], b"");
        assert_eq!(header_value(&req, "x-custom"), Some("42"));
        assert_eq!(header_value(&req, "missing"), None);
    }
}
