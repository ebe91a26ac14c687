//! HTTP/2 (RFC 7540) — multiplexed; matched by stream identifier.
//!
//! A deliberately small binary framing: the real connection preface
//! (`PRI * HTTP/2.0\r\n\r\nSM\r\n\r\n` on the first request flight) followed
//! by one HEADERS-ish frame per message:
//!
//! ```text
//! [u8 kind(1=req,2=resp)] [u32 stream_id] [u16 status|0] [u16 path_len] [path] [u16 hdr_len] [hdrs]
//! ```
//!
//! The embedded stream id is exactly the "distinguishing attribute" §3.3.1
//! names for parallel-protocol session aggregation.

use crate::{Key, MessageSummary, TraceHeaders};
use bytes::Bytes;
use df_types::{L7Protocol, MessageType, OtelSpanId, OtelTraceId, XRequestId};

/// The RFC 7540 client connection preface.
pub const PREFACE: &[u8] = b"PRI * HTTP/2.0\r\n\r\nSM\r\n\r\n";
const MAGIC: u8 = 0x68; // 'h' — frame marker after the preface

/// Build a request frame for a stream.
pub fn request(stream_id: u32, method: &str, path: &str, headers: &[(String, String)]) -> Bytes {
    frame(1, stream_id, 0, &format!("{method} {path}"), headers)
}

/// Build a response frame for a stream.
pub fn response(stream_id: u32, status: u16, headers: &[(String, String)]) -> Bytes {
    frame(2, stream_id, status, "", headers)
}

fn frame(kind: u8, stream_id: u32, status: u16, path: &str, headers: &[(String, String)]) -> Bytes {
    let hdrs: String = headers
        .iter()
        .map(|(k, v)| format!("{k}: {v}\r\n"))
        .collect();
    let mut out = Vec::with_capacity(16 + path.len() + hdrs.len());
    out.push(MAGIC);
    out.push(kind);
    out.extend_from_slice(&stream_id.to_be_bytes());
    out.extend_from_slice(&status.to_be_bytes());
    out.extend_from_slice(&(path.len() as u16).to_be_bytes());
    out.extend_from_slice(path.as_bytes());
    out.extend_from_slice(&(hdrs.len() as u16).to_be_bytes());
    out.extend_from_slice(hdrs.as_bytes());
    Bytes::from(out)
}

/// Prepend the connection preface (first flight of a connection).
pub fn with_preface(frame: Bytes) -> Bytes {
    let mut out = Vec::with_capacity(PREFACE.len() + frame.len());
    out.extend_from_slice(PREFACE);
    out.extend_from_slice(&frame);
    Bytes::from(out)
}

/// Does the payload look like HTTP/2?
pub fn sniff(payload: &[u8]) -> bool {
    payload.starts_with(PREFACE)
        || (payload.len() >= 12 && payload[0] == MAGIC && (payload[1] == 1 || payload[1] == 2))
}

/// Parse an HTTP/2 message.
pub fn parse(payload: &[u8]) -> Option<MessageSummary> {
    let body = if payload.starts_with(PREFACE) {
        &payload[PREFACE.len()..]
    } else {
        payload
    };
    if body.len() < 12 || body[0] != MAGIC {
        return None;
    }
    let kind = body[1];
    let stream_id = u32::from_be_bytes(body[2..6].try_into().ok()?);
    let status = u16::from_be_bytes(body[6..8].try_into().ok()?);
    let plen = u16::from_be_bytes(body[8..10].try_into().ok()?) as usize;
    if body.len() < 10 + plen + 2 {
        return None;
    }
    let path = std::str::from_utf8(&body[10..10 + plen]).ok()?;
    let hlen_off = 10 + plen;
    let hlen = u16::from_be_bytes(body[hlen_off..hlen_off + 2].try_into().ok()?) as usize;
    let hdr_bytes = body.get(hlen_off + 2..hlen_off + 2 + hlen)?;
    let headers = parse_headers(hdr_bytes);
    match kind {
        1 => {
            let mut s = MessageSummary::basic(
                L7Protocol::Http2,
                MessageType::Request,
                Key::Multiplexed(u64::from(stream_id)),
                path,
            );
            s.headers = headers;
            Some(s)
        }
        2 => {
            let mut s = MessageSummary::basic(
                L7Protocol::Http2,
                MessageType::Response,
                Key::Multiplexed(u64::from(stream_id)),
                format!("{status}"),
            );
            s.status_code = Some(status);
            s.headers = headers;
            Some(s)
        }
        _ => None,
    }
}

fn parse_headers(raw: &[u8]) -> TraceHeaders {
    let mut h = TraceHeaders::default();
    let Ok(text) = std::str::from_utf8(raw) else {
        return h;
    };
    for line in text.lines() {
        let Some((k, v)) = line.split_once(':') else {
            continue;
        };
        let k = k.trim().to_ascii_lowercase();
        let v = v.trim();
        match k.as_str() {
            "traceparent" => {
                let parts: Vec<&str> = v.split('-').collect();
                if parts.len() == 4 {
                    h.trace_id = OtelTraceId::from_hex(parts[1]);
                    h.span_id = OtelSpanId::from_hex(parts[2]);
                }
            }
            "x-request-id" => h.x_request_id = XRequestId::from_wire(v),
            _ => {}
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_response_round_trip_with_stream_id() {
        let req = request(7, "POST", "/grpc.Svc/Call", &[]);
        assert!(sniff(&req));
        let p = parse(&req).unwrap();
        assert_eq!(p.msg_type, MessageType::Request);
        assert_eq!(p.session_key, Key::Multiplexed(7));
        assert_eq!(p.endpoint, "POST /grpc.Svc/Call");

        let resp = response(7, 200, &[]);
        let p2 = parse(&resp).unwrap();
        assert_eq!(p2.msg_type, MessageType::Response);
        assert_eq!(p2.session_key, Key::Multiplexed(7));
        assert_eq!(p2.status_code, Some(200));
    }

    #[test]
    fn preface_is_recognised_and_skipped() {
        let req = with_preface(request(1, "GET", "/", &[]));
        assert!(sniff(&req));
        let p = parse(&req).unwrap();
        assert_eq!(p.session_key, Key::Multiplexed(1));
    }

    #[test]
    fn interleaved_streams_have_distinct_keys() {
        let a = parse(&request(1, "GET", "/a", &[])).unwrap();
        let b = parse(&request(3, "GET", "/b", &[])).unwrap();
        assert_ne!(a.session_key, b.session_key);
    }

    #[test]
    fn headers_survive_framing() {
        let tid = OtelTraceId(0x42);
        let sid = OtelSpanId(0x43);
        let req = request(
            5,
            "GET",
            "/",
            &[(
                "traceparent".into(),
                format!("00-{}-{}-01", tid.to_hex(), sid.to_hex()),
            )],
        );
        let p = parse(&req).unwrap();
        assert_eq!(p.headers.trace_id, Some(tid));
        assert_eq!(p.headers.span_id, Some(sid));
    }

    #[test]
    fn garbage_is_rejected() {
        assert!(parse(b"GET / HTTP/1.1\r\n\r\n").is_none());
        assert!(parse(b"\x68\x09aaaaaaaaaaaa").is_none());
        assert!(parse(b"").is_none());
    }
}
