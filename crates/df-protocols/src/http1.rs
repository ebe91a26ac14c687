//! HTTP/1.1 (RFC 7231) — pipelined; request/response matched by order.
//!
//! The workhorse protocol of both demo applications (Spring Boot, Bookinfo)
//! and the carrier of every tracing header DeepFlow integrates: W3C
//! `traceparent`, Zipkin B3 (`X-B3-TraceId`/`X-B3-SpanId`/
//! `X-B3-ParentSpanId`) and proxy `X-Request-ID`.
//!
//! A message's head is read once (`Head::scan`): one split into lines
//! that stops at the blank line, matching the six tracing header names as
//! it goes. Only the start line and the matched values are decoded, so the
//! body, binary or cut short, never costs a message its status or headers.

use crate::{Key, MessageSummary, TraceHeaders};
use bytes::Bytes;
use df_types::{L7Protocol, MessageType, OtelSpanId, OtelTraceId, XRequestId};
use std::borrow::Cow;

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

/// Does the payload look like HTTP/1.x? A request starts with a method
/// and a space; a response with `HTTP/1.` and a status code, so that every
/// payload claimed here is one [`parse`] accepts.
pub fn sniff(payload: &[u8]) -> bool {
    if payload.starts_with(b"HTTP/1.") {
        return status_code(split_line(payload).0).is_some();
    }
    is_request(payload)
}

/// Does the payload start with a method and a space?
fn is_request(payload: &[u8]) -> bool {
    METHODS.iter().any(|m| {
        payload
            .strip_prefix(m.as_bytes())
            .is_some_and(|rest| rest.first() == Some(&b' '))
    })
}

/// The six tracing headers [`Head::scan`] looks for, in the order of
/// `Head::values`.
const TRACE_HEADERS: [&[u8]; 6] = [
    b"traceparent",
    b"b3",
    b"x-b3-traceid",
    b"x-b3-spanid",
    b"x-b3-parentspanid",
    b"x-request-id",
];

/// One pass over an HTTP/1 head: its start line, and the first raw value
/// of each of [`TRACE_HEADERS`]. Nothing past the blank line is read, and
/// nothing is decoded until asked for.
#[derive(Default)]
struct Head<'a> {
    start: &'a [u8],
    values: [Option<&'a [u8]>; 6],
}

impl<'a> Head<'a> {
    /// Split the lines once, eight bytes a step ([`split_line`]), and stop
    /// at the first `\r\n\r\n`. A line keeps its `\r`: the start line's
    /// words and the header values are read with it trimmed as whitespace,
    /// and a name ends at its colon.
    fn scan(payload: &'a [u8]) -> Self {
        let (start, mut rest) = split_line(payload);
        let (mut head, mut after_crlf) = (Head::default(), start.ends_with(b"\r"));
        head.start = start;
        while let Some(tail) = rest.get(1..) {
            let (line, next) = split_line(tail);
            if after_crlf && line == b"\r" {
                break;
            }
            head.header(line);
            (after_crlf, rest) = (line.ends_with(b"\r"), next);
        }
        head
    }

    /// Record `line`'s value if it is the first of a tracing header.
    /// Names match case-insensitively once trimmed, as `str::trim` would.
    fn header(&mut self, line: &'a [u8]) {
        // Every tracing header's name starts with `t`, `b` or `x`.
        let first = line.first().copied().unwrap_or_default();
        if first.is_ascii_alphanumeric() && !b"tbxTBX".contains(&first) {
            return;
        }
        let mut halves = line.splitn(2, |&b| b == b':');
        let (Some(name), Some(value)) = (halves.next(), halves.next()) else {
            return;
        };
        let mut name = name.trim_ascii();
        // `str::trim` also strips `\x0b` and non-ASCII spaces: defer to it.
        let edges = [name.first(), name.last()];
        if edges
            .into_iter()
            .flatten()
            .any(|&b| b == 0x0b || !b.is_ascii())
        {
            let Ok(text) = std::str::from_utf8(name) else {
                return;
            };
            name = text.trim().as_bytes();
        }
        for (slot, known) in self.values.iter_mut().zip(TRACE_HEADERS) {
            if name.eq_ignore_ascii_case(known) {
                slot.get_or_insert(value);
                return;
            }
        }
    }

    /// Decode the recovered values. A value that is not UTF-8 is absent.
    fn trace_headers(&self) -> TraceHeaders {
        let [traceparent, b3, b3_trace, b3_span, b3_parent, x_request_id] = self
            .values
            .map(|v| std::str::from_utf8(v?).ok().map(str::trim));
        let mut h = TraceHeaders::default();
        if let Some(tp) = traceparent {
            h.set_traceparent(tp);
        }
        // Zipkin B3 single header: traceid-spanid-sampled-parentspanid
        if h.trace_id.is_none() {
            if let Some(b3) = b3 {
                let mut parts = b3.split('-');
                if let (Some(trace), Some(span)) = (parts.next(), parts.next()) {
                    h.trace_id = OtelTraceId::from_hex(trace);
                    h.span_id = OtelSpanId::from_hex(span);
                    if let Some(parent) = parts.nth(1) {
                        h.parent_span_id = OtelSpanId::from_hex(parent);
                    }
                }
            }
        }
        // Zipkin B3 multi headers.
        if h.trace_id.is_none() {
            if let Some(t) = b3_trace {
                h.trace_id = OtelTraceId::from_hex(t);
                h.span_id = b3_span.and_then(OtelSpanId::from_hex);
                h.parent_span_id = b3_parent.and_then(OtelSpanId::from_hex);
            }
        }
        if let Some(x) = x_request_id {
            h.x_request_id = XRequestId::from_wire(x);
        }
        h
    }
}

/// `bytes` split before its first `\n`, or whole. Eight bytes are tested
/// at a time: a word XOR eight `\n`s has a zero byte where `\n` was, and
/// the borrow trick marks the lowest zero byte exactly (only bytes above
/// it can be marked falsely).
fn split_line(bytes: &[u8]) -> (&[u8], &[u8]) {
    const LF: u64 = u64::from_ne_bytes([b'\n'; 8]);
    let mut words = bytes.chunks_exact(8);
    for (i, word) in words.by_ref().enumerate() {
        let x = u64::from_le_bytes(word.try_into().unwrap_or_default()) ^ LF;
        let zero = x.wrapping_sub(0x0101_0101_0101_0101) & !x & 0x8080_8080_8080_8080;
        if zero != 0 {
            return bytes.split_at(i * 8 + zero.trailing_zeros() as usize / 8);
        }
    }
    let tail = words.remainder();
    let at = tail.iter().position(|&b| b == b'\n').unwrap_or(tail.len());
    bytes.split_at(bytes.len() - tail.len() + at)
}

/// A start line's first two words, as `str::split_whitespace` reads them.
/// An ASCII line is cut in place at the six ASCII bytes `char::is_whitespace`
/// accepts; any other goes through `from_utf8_lossy`, whose whitespace also
/// has non-ASCII spaces, and its words are copied.
fn first_words(start: &[u8]) -> [Option<Cow<'_, str>>; 2] {
    if !start.is_ascii() {
        let text = String::from_utf8_lossy(start);
        let mut words = text.split_whitespace();
        return [(); 2].map(|()| words.next().map(|w| Cow::Owned(w.to_owned())));
    }
    let space = |b: &u8| matches!(b, b' ' | b'\t' | b'\n' | b'\x0b' | b'\x0c' | b'\r');
    let mut rest = start;
    [(); 2].map(|()| {
        let word = rest.get(rest.iter().position(|b| !space(b))?..)?;
        let (word, tail) = word.split_at(word.iter().position(space).unwrap_or(word.len()));
        rest = tail;
        std::str::from_utf8(word).ok().map(Cow::Borrowed)
    })
}

/// A response start line's status code: its second word, as `u16`'s
/// `FromStr` reads it.
fn status_code(start: &[u8]) -> Option<u16> {
    let [_, code] = first_words(start);
    code?.parse().ok()
}

/// A request's endpoint, `"{method} {path}"` with `/` for a missing path,
/// built in one exact-capacity `String`.
fn endpoint(start: &[u8]) -> Option<String> {
    let [method, path] = first_words(start);
    let (method, path) = (method?, path.unwrap_or(Cow::Borrowed("/")));
    let mut out = String::with_capacity(method.len() + 1 + path.len());
    out.extend([&*method, " ", &*path]);
    Some(out)
}

/// Pull the tracing headers out of an HTTP/1.1 head section.
pub fn trace_headers(payload: &[u8]) -> TraceHeaders {
    Head::scan(payload).trace_headers()
}

/// The tracing headers of a bare header block of `name: value` lines, as
/// HTTP/2's frames carry one: each line goes through the routine
/// [`Head::scan`] reads an HTTP/1 head with.
pub(crate) fn header_block(block: &[u8]) -> TraceHeaders {
    let mut head = Head::default();
    block
        .split(|&b| b == b'\n')
        .for_each(|line| head.header(line));
    head.trace_headers()
}

/// Parse an HTTP/1.1 message: its start line, and its tracing headers in
/// the same pass. The body is never read, so a binary body or a payload
/// cut mid-character by the snap length parses like any other.
pub fn parse(payload: &[u8]) -> Option<MessageSummary> {
    let response = payload.starts_with(b"HTTP/1.");
    if !response && !is_request(payload) {
        return None;
    }
    let head = Head::scan(payload);
    let mut s = if response {
        // Response: HTTP/1.1 <code> <reason>.
        MessageSummary::http_response(L7Protocol::Http1, Key::Ordered, status_code(head.start)?)
    } else {
        MessageSummary::basic(
            L7Protocol::Http1,
            MessageType::Request,
            Key::Ordered,
            endpoint(head.start)?,
        )
    };
    s.headers = head.trace_headers();
    Some(s)
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
        assert_eq!(p.endpoint(), "GET /api/v1/products");
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
    fn trace_header_names_ignore_case_and_the_first_occurrence_wins() {
        let first = XRequestId(1);
        let req = request(
            "GET",
            "/",
            &[
                (" X-REQUEST-id\t".into(), format!(" {} ", first.to_wire())),
                ("x-request-id".into(), XRequestId(2).to_wire()),
            ],
            b"",
        );
        assert_eq!(trace_headers(&req).x_request_id, Some(first));
    }

    #[test]
    fn headers_after_the_blank_line_are_body() {
        let mut req = request("GET", "/", &[], b"").to_vec();
        req.extend_from_slice(format!("x-request-id: {}\r\n", XRequestId(3).to_wire()).as_bytes());
        assert_eq!(trace_headers(&req).x_request_id, None);
    }

    #[test]
    fn a_binary_request_body_keeps_the_request() {
        let req = request("POST", "/upload", &[], &[0xff; 8]);
        assert!(sniff(&req));
        let p = parse(&req).expect("binary body");
        assert_eq!(p.msg_type, MessageType::Request);
        assert_eq!(p.endpoint(), "POST /upload");
    }

    #[test]
    fn a_binary_response_body_keeps_the_status_and_headers() {
        // The head is shorter than 64 bytes, so the body starts inside the
        // window a status line was once read from.
        let short = response(200, &[], &[0xff; 64]);
        assert!(short.len() - 64 < 64);
        assert_eq!(parse(&short).expect("binary body").status_code, Some(200));

        let xid = XRequestId(0x0123_4567_89ab_cdef_0011_2233_4455_6677);
        let resp = response(200, &[("X-Request-ID".into(), xid.to_wire())], &[0xc3; 64]);
        let p = parse(&resp).expect("binary body");
        assert_eq!(p.status_code, Some(200));
        assert_eq!(p.headers.x_request_id, Some(xid));
    }

    #[test]
    fn a_payload_cut_mid_character_still_parses() {
        let xid = XRequestId(9);
        let req = request(
            "PUT",
            "/r",
            &[("x-request-id".into(), xid.to_wire())],
            "ü".as_bytes(),
        );
        let snapped = &req[..req.len() - 1];
        assert!(std::str::from_utf8(snapped).is_err());
        let p = parse(snapped).expect("cut body");
        assert_eq!(p.endpoint(), "PUT /r");
        assert_eq!(p.headers.x_request_id, Some(xid));
    }

    #[test]
    fn a_response_without_a_status_code_is_not_claimed() {
        assert!(!sniff(b"HTTP/1.1 OK\r\n\r\n"));
        assert_eq!(parse(b"HTTP/1.1 OK\r\n\r\n"), None);
        assert!(sniff(b"HTTP/1.0 404"));
    }
}
