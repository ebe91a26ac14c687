//! `http1::parse` against the parser it replaced, on generated heads.
//!
//! The old parser validated the whole payload as UTF-8 and then searched
//! it once per tracing header. `before` keeps a copy of it as the oracle.
//! Heads vary the three header families, header-name case, whitespace
//! around names and values, duplicate headers, header order, line endings
//! and header-like lines after the blank line, and each is checked
//! truncated at every byte. Only UTF-8 payloads are compared: on the
//! others the old parser dropped the message, which was the bug.

use df_protocols::http1;
use df_types::{OtelSpanId, OtelTraceId, XRequestId};
use proptest::prelude::*;

/// The parser as it was, multi-scan and whole-payload UTF-8.
mod before {
    use df_protocols::{MessageSummary, TraceHeaders};
    use df_types::{L7Protocol, MessageType, OtelSpanId, OtelTraceId, SessionKey, XRequestId};

    fn header_value<'a>(payload: &'a [u8], key: &str) -> Option<&'a str> {
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

    pub fn trace_headers(payload: &[u8]) -> TraceHeaders {
        let mut h = TraceHeaders::default();
        if let Some(tp) = header_value(payload, "traceparent") {
            let parts: Vec<&str> = tp.split('-').collect();
            if parts.len() == 4 {
                h.trace_id = OtelTraceId::from_hex(parts[1]);
                h.span_id = OtelSpanId::from_hex(parts[2]);
            }
        }
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

    fn sniff(payload: &[u8]) -> bool {
        payload.starts_with(b"HTTP/1.")
            || ["GET", "POST", "PUT", "DELETE", "HEAD", "PATCH", "OPTIONS"]
                .iter()
                .any(|m| {
                    payload.len() > m.len()
                        && payload.starts_with(m.as_bytes())
                        && payload[m.len()] == b' '
                })
    }

    pub fn parse(payload: &[u8]) -> Option<MessageSummary> {
        if payload.starts_with(b"HTTP/1.") {
            let text = std::str::from_utf8(payload.get(..payload.len().min(64))?).ok()?;
            let code: u16 = text.split_whitespace().nth(1)?.parse().ok()?;
            let mut s = MessageSummary::basic(
                L7Protocol::Http1,
                MessageType::Response,
                SessionKey::Ordered,
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
                SessionKey::Ordered,
                format!("{method} {path}"),
            );
            s.headers = trace_headers(payload);
            return Some(s);
        }
        None
    }
}

/// A stream of generated choices.
struct Choices(std::vec::IntoIter<u64>);

impl Choices {
    fn below(&mut self, n: usize) -> usize {
        (self.0.next().unwrap_or(0) % n as u64) as usize
    }

    fn pick<T: Copy>(&mut self, options: &[T]) -> T {
        options[self.below(options.len())]
    }

    fn chance(&mut self, in_four: usize) -> bool {
        self.below(4) < in_four
    }
}

/// `name` with each letter's case drawn.
fn recase(name: &str, c: &mut Choices) -> String {
    name.chars()
        .map(|ch| {
            if c.chance(2) {
                ch.to_ascii_uppercase()
            } else {
                ch
            }
        })
        .collect()
}

/// A valid id, or one broken in a way a decoder must reject.
fn hex_id(digits: usize, c: &mut Choices) -> String {
    let value = u128::from(c.0.next().unwrap_or(0)) << 64 | u128::from(c.0.next().unwrap_or(7));
    let hex = format!("{value:032x}")[32 - digits..].to_string();
    match c.below(6) {
        0 => hex[1..].to_string(),
        1 => format!("{hex}0"),
        2 => hex.replacen(|_: char| true, "g", 1),
        3 => hex.to_ascii_uppercase(),
        _ => hex,
    }
}

/// A value for one of the six tracing headers.
fn trace_value(name: &str, c: &mut Choices) -> String {
    match name {
        "traceparent" => {
            let parts = [
                "00".to_string(),
                hex_id(32, c),
                hex_id(16, c),
                "01".to_string(),
            ];
            let keep = c.pick(&[4, 4, 4, 3, 2]);
            let mut v = parts[..keep].join("-");
            if c.below(8) == 0 {
                v.push_str("-extra");
            }
            v
        }
        "b3" => {
            let parts = [hex_id(32, c), hex_id(16, c), "1".to_string(), hex_id(16, c)];
            parts[..1 + c.below(4)].join("-")
        }
        "x-b3-traceid" => hex_id(32, c),
        "x-b3-spanid" | "x-b3-parentspanid" => hex_id(16, c),
        _ => match c.below(4) {
            0 => hex_id(32, c),
            1 => "not-a-uuid".to_string(),
            _ => XRequestId(u128::from(c.0.next().unwrap_or(1))).to_wire(),
        },
    }
}

/// One generated HTTP/1 message.
fn message(c: &mut Choices) -> String {
    const NAMES: [&str; 9] = [
        "traceparent",
        "b3",
        "x-b3-traceid",
        "x-b3-spanid",
        "x-b3-parentspanid",
        "x-request-id",
        "host",
        "content-type",
        "x-b3",
    ];
    const SPACE: [&str; 6] = ["", "", " ", "  ", "\t", "\u{a0}"];
    const ENDS: [&str; 4] = ["\r\n", "\r\n", "\r\n", "\n"];
    let mut out = if c.chance(2) {
        let code = c.pick(&[200, 201, 204, 404, 500, 503]);
        format!("HTTP/1.{} {code} Reason", c.below(2))
    } else {
        let method = c.pick(&["GET", "POST", "PUT", "DELETE", "HEAD", "PATCH", "OPTIONS"]);
        let path = c.pick(&["/", "/reviews/1", "/api/v1/products?x=1", ""]);
        format!("{method} {path} HTTP/1.1")
    };
    out.push_str(c.pick(&ENDS));
    let mut lines = Vec::new();
    for _ in 0..c.below(9) {
        let name = c.pick(&NAMES);
        let value = trace_value(name, c);
        lines.push(format!(
            "{}{}{}:{}{}{}",
            c.pick(&SPACE),
            recase(name, c),
            c.pick(&SPACE),
            c.pick(&SPACE),
            value,
            c.pick(&SPACE),
        ));
        if c.below(6) == 0 {
            // The same header again, later: the first one must win.
            let again = format!("{name}: {}", trace_value(name, c));
            lines.push(again);
        }
    }
    if c.below(8) == 0 {
        lines.push("no colon here".to_string());
    }
    let n = lines.len();
    for _ in 0..n {
        lines.swap(c.below(n), c.below(n));
    }
    for line in lines {
        out.push_str(&line);
        out.push_str(c.pick(&ENDS));
    }
    out.push_str(c.pick(&["\r\n", "\r\n", "\n"]));
    if c.chance(1) {
        let late = XRequestId(42).to_wire();
        out.push_str(&format!(
            "x-request-id: {late}\r\ntraceparent: 00-x\r\n\r\n"
        ));
    }
    out.push_str("{\"body\":true}");
    out
}

/// Both parsers on every prefix of `payload` that is UTF-8.
fn agree_on_every_prefix(payload: &str) -> Result<(), String> {
    for end in 0..=payload.len() {
        let Some(prefix) = payload.get(..end) else {
            continue;
        };
        let (new, old) = (
            http1::parse(prefix.as_bytes()),
            before::parse(prefix.as_bytes()),
        );
        let headers = before::trace_headers(prefix.as_bytes());
        prop_assert_eq!(
            http1::trace_headers(prefix.as_bytes()),
            headers,
            "trace_headers of {:?}",
            prefix
        );
        // The old parser read a response's status from its first 64 bytes
        // as UTF-8, so it dropped a response whose 64th byte falls inside
        // a character. The new one keeps it.
        let window_cut = prefix.starts_with("HTTP/1.") && !prefix.is_char_boundary(end.min(64));
        if window_cut && old.is_none() {
            prop_assert_eq!(new.map(|m| m.headers), Some(headers), "{:?}", prefix);
        } else {
            prop_assert_eq!(new, old, "parse of {:?}", prefix);
        }
    }
    Ok(())
}

proptest! {
    #[test]
    fn the_one_pass_parser_matches_the_multi_scan_parser(
        draws in proptest::collection::vec(any::<u64>(), 256),
    ) {
        let mut c = Choices(draws.into_iter());
        for _ in 0..4 {
            let payload = message(&mut c);
            agree_on_every_prefix(&payload)?;
        }
    }
}

/// The generator reaches every family with ids that decode, so the
/// property above compares recovered ids, not just `None`s.
#[test]
fn generated_heads_carry_every_family() {
    let (mut traceparent, mut b3, mut multi, mut xid) = (0, 0, 0, 0);
    for case in 0..200u64 {
        let mut rng = TestRng::for_case("families", case);
        let draws: Vec<u64> = (0..256).map(|_| rng.next_u64()).collect();
        let mut c = Choices(draws.into_iter());
        let payload = message(&mut c);
        let h = http1::trace_headers(payload.as_bytes());
        let lower = payload.to_ascii_lowercase();
        traceparent += usize::from(h.trace_id.is_some() && lower.contains("traceparent"));
        b3 += usize::from(h.parent_span_id.is_some() && lower.contains("b3:"));
        multi += usize::from(h.span_id.is_some() && lower.contains("x-b3-spanid"));
        xid += usize::from(h.x_request_id.is_some());
    }
    assert!(
        traceparent > 5 && b3 > 5 && multi > 5 && xid > 5,
        "{traceparent} {b3} {multi} {xid}"
    );
    // The oracle's own spot checks, so it is known to decode ids at all.
    let tid = OtelTraceId(5);
    let req = http1::request(
        "GET",
        "/",
        &[(
            "traceparent".into(),
            format!("00-{}-{}-01", tid.to_hex(), OtelSpanId(6).to_hex()),
        )],
        b"",
    );
    assert_eq!(before::trace_headers(&req).trace_id, Some(tid));
}
