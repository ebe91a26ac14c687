//! Kafka wire protocol — multiplexed; matched by correlation id.
//!
//! Request: `[i32 size][i16 api_key][i16 api_version][i32 correlation_id]
//! [i16 client_id_len][client_id]`; response: `[i32 size]
//! [i32 correlation_id][i16 error_code]`.

use crate::{Key, MessageSummary};
use bytes::Bytes;
use df_types::{L7Protocol, MessageType};

/// Produce API key.
pub const API_PRODUCE: i16 = 0;
/// Fetch API key.
pub const API_FETCH: i16 = 1;
/// Metadata API key.
pub const API_METADATA: i16 = 3;

fn api_name(key: i16) -> &'static str {
    match key {
        API_PRODUCE => "Produce",
        API_FETCH => "Fetch",
        API_METADATA => "Metadata",
        _ => "Api",
    }
}

/// Build a request.
pub fn request(api_key: i16, correlation_id: i32, client_id: &str) -> Bytes {
    let body_len = 2 + 2 + 4 + 2 + client_id.len();
    let mut out = Vec::with_capacity(4 + body_len);
    out.extend_from_slice(&(body_len as i32).to_be_bytes());
    out.extend_from_slice(&api_key.to_be_bytes());
    out.extend_from_slice(&7i16.to_be_bytes()); // api_version
    out.extend_from_slice(&correlation_id.to_be_bytes());
    out.extend_from_slice(&(client_id.len() as i16).to_be_bytes());
    out.extend_from_slice(client_id.as_bytes());
    Bytes::from(out)
}

/// Build a response.
pub fn response(correlation_id: i32, error_code: i16) -> Bytes {
    let mut out = Vec::with_capacity(10);
    out.extend_from_slice(&6i32.to_be_bytes());
    out.extend_from_slice(&correlation_id.to_be_bytes());
    out.extend_from_slice(&error_code.to_be_bytes());
    Bytes::from(out)
}

/// Does the payload look like Kafka?
pub fn sniff(payload: &[u8]) -> bool {
    message(payload).is_some()
}

/// A sized message, read by its shape: a 6-byte body is a response
/// (correlation id, error code); a body of 10 bytes or more is a request
/// (api key and version in range, correlation id).
enum Message {
    Request { api_key: i16, corr: i32 },
    Response { corr: i32, err: i16 },
}

fn message(payload: &[u8]) -> Option<Message> {
    let (size, body) = payload.split_first_chunk::<4>()?;
    let size = i32::from_be_bytes(*size);
    if size <= 0 || size as usize != body.len() {
        return None;
    }
    match *body {
        [c0, c1, c2, c3, e0, e1] => Some(Message::Response {
            corr: i32::from_be_bytes([c0, c1, c2, c3]),
            err: i16::from_be_bytes([e0, e1]),
        }),
        [k0, k1, v0, v1, c0, c1, c2, c3, _, _, ..] => {
            let api_key = i16::from_be_bytes([k0, k1]);
            let api_version = i16::from_be_bytes([v0, v1]);
            ((0..=67).contains(&api_key) && (0..=15).contains(&api_version)).then_some(
                Message::Request {
                    api_key,
                    corr: i32::from_be_bytes([c0, c1, c2, c3]),
                },
            )
        }
        _ => None,
    }
}

/// Parse a Kafka message.
pub fn parse(payload: &[u8]) -> Option<MessageSummary> {
    Some(match message(payload)? {
        Message::Response { corr, err } => {
            let mut s = MessageSummary::basic(
                L7Protocol::Kafka,
                MessageType::Response,
                Key::Multiplexed(corr as u32 as u64),
                if err == 0 { "OK" } else { "ERR" },
            );
            s.status_code = Some(err as u16);
            s
        }
        Message::Request { api_key, corr } => MessageSummary::basic(
            L7Protocol::Kafka,
            MessageType::Request,
            Key::Multiplexed(corr as u32 as u64),
            api_name(api_key),
        ),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use df_types::SpanStatus;

    #[test]
    fn produce_round_trip() {
        let req = request(API_PRODUCE, 99, "orders-svc");
        assert!(sniff(&req));
        let p = parse(&req).unwrap();
        assert_eq!(p.msg_type, MessageType::Request);
        assert_eq!(p.endpoint(), "Produce");
        assert_eq!(p.session_key, Key::Multiplexed(99));

        let resp = response(99, 0);
        let r = parse(&resp).unwrap();
        assert_eq!(r.session_key, Key::Multiplexed(99));
        assert_eq!(r.status(), SpanStatus::Ok);
    }

    #[test]
    fn broker_error_classified() {
        let r = parse(&response(7, 6)).unwrap(); // NOT_LEADER_FOR_PARTITION
        assert_eq!(r.status(), SpanStatus::ServerError);
        assert_eq!(r.status_code, Some(6));
    }

    #[test]
    fn correlation_ids_distinguish_in_flight_requests() {
        let a = parse(&request(API_FETCH, 1, "c")).unwrap();
        let b = parse(&request(API_FETCH, 2, "c")).unwrap();
        assert_ne!(a.session_key, b.session_key);
    }

    #[test]
    fn sniff_rejects_wrong_size_prefix() {
        assert!(!sniff(b"GET / HTTP/1.1\r\n"));
        let mut bad = request(API_FETCH, 1, "c").to_vec();
        bad[0] = 0x7f; // corrupt size
        assert!(!sniff(&bad));
    }
}
