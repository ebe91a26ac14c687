//! Dubbo RPC — multiplexed; matched by the 64-bit request id.
//!
//! Header: magic `0xdabb`, flag byte (bit 7 = request), status byte,
//! request id (u64), body length (u32), then a `service/method` string body.

use crate::{Key, MessageSummary};
use bytes::Bytes;
use df_types::{L7Protocol, MessageType};

const MAGIC: [u8; 2] = [0xda, 0xbb];
const FLAG_REQUEST: u8 = 0x80;
/// Dubbo status OK.
pub const STATUS_OK: u8 = 20;
/// Dubbo server-side error status.
pub const STATUS_SERVER_ERROR: u8 = 80;

/// Build a request for `service.method`.
pub fn request(request_id: u64, service: &str, method: &str) -> Bytes {
    let body = format!("{service}/{method}");
    encode(FLAG_REQUEST, 0, request_id, body.as_bytes())
}

/// Build a response.
pub fn response(request_id: u64, status: u8, body: &[u8]) -> Bytes {
    encode(0, status, request_id, body)
}

fn encode(flags: u8, status: u8, request_id: u64, body: &[u8]) -> Bytes {
    let mut out = Vec::with_capacity(16 + body.len());
    out.extend_from_slice(&MAGIC);
    out.push(flags);
    out.push(status);
    out.extend_from_slice(&request_id.to_be_bytes());
    out.extend_from_slice(&(body.len() as u32).to_be_bytes());
    out.extend_from_slice(body);
    Bytes::from(out)
}

/// Does the payload look like Dubbo?
pub fn sniff(payload: &[u8]) -> bool {
    payload.len() >= 16 && payload[..2] == MAGIC
}

/// Parse a Dubbo message.
pub fn parse(payload: &[u8]) -> Option<MessageSummary> {
    if !sniff(payload) {
        return None;
    }
    let is_request = payload[2] & FLAG_REQUEST != 0;
    let status = payload[3];
    let request_id = u64::from_be_bytes(payload[4..12].try_into().ok()?);
    let body_len = u32::from_be_bytes(payload[12..16].try_into().ok()?) as usize;
    let body = payload.get(16..16 + body_len)?;
    if is_request {
        let endpoint = std::str::from_utf8(body).unwrap_or("?").to_string();
        Some(MessageSummary::basic(
            L7Protocol::Dubbo,
            MessageType::Request,
            Key::Multiplexed(request_id),
            endpoint,
        ))
    } else {
        let mut s = MessageSummary::basic(
            L7Protocol::Dubbo,
            MessageType::Response,
            Key::Multiplexed(request_id),
            format!("status-{status}"),
        );
        s.status_code = Some(u16::from(status));
        Some(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use df_types::SpanStatus;

    #[test]
    fn request_response_round_trip() {
        let req = request(555, "com.acme.OrderService", "placeOrder");
        assert!(sniff(&req));
        let p = parse(&req).unwrap();
        assert_eq!(p.msg_type, MessageType::Request);
        assert_eq!(p.endpoint, "com.acme.OrderService/placeOrder");
        assert_eq!(p.session_key, Key::Multiplexed(555));

        let resp = response(555, STATUS_OK, b"{}");
        let r = parse(&resp).unwrap();
        assert_eq!(r.session_key, Key::Multiplexed(555));
        assert_eq!(r.status(), SpanStatus::Ok);
    }

    #[test]
    fn server_error_status_classified() {
        let r = parse(&response(1, STATUS_SERVER_ERROR, b"boom")).unwrap();
        assert_eq!(r.status(), SpanStatus::ServerError);
        assert_eq!(r.status_code, Some(80));
    }

    #[test]
    fn sniff_needs_magic() {
        assert!(!sniff(b"GET / HTTP/1.1\r\nxxxxxxxxxxx"));
        assert!(!sniff(&[0xda, 0xbb])); // too short
    }
}
