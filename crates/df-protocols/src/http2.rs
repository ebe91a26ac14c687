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

use crate::{Key, MessageSummary};
use bytes::Bytes;
use df_types::{L7Protocol, MessageType};

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

/// Does the payload look like HTTP/2? A frame, after an optional
/// preface, whose declared path and header lengths are all there.
pub fn sniff(payload: &[u8]) -> bool {
    frame_fields(payload).is_some()
}

/// A frame's kind, stream id, status, path and raw header block.
fn frame_fields(payload: &[u8]) -> Option<(u8, u32, u16, &str, &[u8])> {
    let body = payload.strip_prefix(PREFACE).unwrap_or(payload);
    let (head, rest) = body.split_first_chunk::<10>()?;
    let [magic, kind, s0, s1, s2, s3, c0, c1, p0, p1] = *head;
    if magic != MAGIC || !matches!(kind, 1 | 2) {
        return None;
    }
    let (path, rest) = rest.split_at_checked(usize::from(u16::from_be_bytes([p0, p1])))?;
    let ([h0, h1], rest) = rest.split_first_chunk::<2>().map(|(l, r)| (*l, r))?;
    let hdrs = rest.get(..usize::from(u16::from_be_bytes([h0, h1])))?;
    Some((
        kind,
        u32::from_be_bytes([s0, s1, s2, s3]),
        u16::from_be_bytes([c0, c1]),
        std::str::from_utf8(path).ok()?,
        hdrs,
    ))
}

/// Parse an HTTP/2 message.
pub fn parse(payload: &[u8]) -> Option<MessageSummary> {
    let (kind, stream_id, status, path, hdr_bytes) = frame_fields(payload)?;
    let key = Key::Multiplexed(u64::from(stream_id));
    let mut s = if kind == 1 {
        MessageSummary::basic(L7Protocol::Http2, MessageType::Request, key, path)
    } else {
        MessageSummary::http_response(L7Protocol::Http2, key, status)
    };
    s.headers = crate::http1::header_block(hdr_bytes);
    Some(s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use df_types::{OtelSpanId, OtelTraceId, XRequestId};

    #[test]
    fn request_response_round_trip_with_stream_id() {
        let req = request(7, "POST", "/grpc.Svc/Call", &[]);
        assert!(sniff(&req));
        let p = parse(&req).unwrap();
        assert_eq!(p.msg_type, MessageType::Request);
        assert_eq!(p.session_key, Key::Multiplexed(7));
        assert_eq!(p.endpoint(), "POST /grpc.Svc/Call");

        let resp = response(7, 200, &[]);
        let p2 = parse(&resp).unwrap();
        assert_eq!(p2.msg_type, MessageType::Response);
        assert_eq!(p2.session_key, Key::Multiplexed(7));
        assert_eq!(p2.status_code, Some(200));
        assert_eq!(p2.endpoint(), "200");
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

    /// The header block is read line by line as HTTP/1's head is: a
    /// stray non-UTF-8 byte in another header costs nothing, B3 is read,
    /// and the first `X-Request-ID` wins.
    #[test]
    fn headers_read_as_http1_reads_them() {
        let (tid, sid, first) = (OtelTraceId(0x51), OtelSpanId(0x52), XRequestId(1));
        let headers = [
            ("user-agent".into(), "curl?".into()),
            ("b3".into(), format!("{}-{}-1", tid.to_hex(), sid.to_hex())),
            ("X-Request-ID".into(), first.to_wire()),
            ("x-request-id".into(), XRequestId(2).to_wire()),
        ];
        let mut req = request(9, "GET", "/", &headers).to_vec();
        let stray = req.iter().position(|&b| b == b'?').expect("placeholder");
        req[stray] = 0xff;
        let p = parse(&req).expect("frame");
        assert_eq!(
            (p.headers.trace_id, p.headers.span_id),
            (Some(tid), Some(sid))
        );
        assert_eq!(p.headers.x_request_id, Some(first));
    }

    #[test]
    fn garbage_is_rejected() {
        assert!(parse(b"GET / HTTP/1.1\r\n\r\n").is_none());
        assert!(parse(b"\x68\x09aaaaaaaaaaaa").is_none());
        assert!(parse(b"").is_none());
    }
}
