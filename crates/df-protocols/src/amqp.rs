//! AMQP 0-9-1-flavoured broker protocol, for the RabbitMQ case study
//! (paper §4.1.3 / Fig. 12: queue backlog → zero windows → TCP resets).
//!
//! Frame: `[u8 type][u16 channel][u32 size][method string][0xCE]`.
//! We model the handful of methods the case needs: `basic.publish` (with a
//! paired `basic.ack` when publisher confirms are on), and
//! `basic.get`/`basic.get-ok`.

use crate::{Key, MessageSummary};
use bytes::Bytes;
use df_types::{L7Protocol, MessageType};

const FRAME_METHOD: u8 = 1;
const FRAME_END: u8 = 0xCE;

fn frame(channel: u16, method: &str, payload: &[u8]) -> Bytes {
    let body_len = method.len() + 1 + payload.len();
    let mut out = Vec::with_capacity(8 + body_len);
    out.push(FRAME_METHOD);
    out.extend_from_slice(&channel.to_be_bytes());
    out.extend_from_slice(&(body_len as u32).to_be_bytes());
    out.extend_from_slice(method.as_bytes());
    out.push(b'\n');
    out.extend_from_slice(payload);
    out.push(FRAME_END);
    Bytes::from(out)
}

/// `basic.publish` to a queue.
pub fn publish(channel: u16, queue: &str, payload: &[u8]) -> Bytes {
    frame(channel, &format!("basic.publish {queue}"), payload)
}

/// Broker `basic.ack` (publisher confirm).
pub fn ack(channel: u16) -> Bytes {
    frame(channel, "basic.ack", b"")
}

/// `basic.get` from a queue.
pub fn get(channel: u16, queue: &str) -> Bytes {
    frame(channel, &format!("basic.get {queue}"), b"")
}

/// `basic.get-ok` carrying a message.
pub fn get_ok(channel: u16, payload: &[u8]) -> Bytes {
    frame(channel, "basic.get-ok", payload)
}

/// `basic.get-empty` (queue empty).
pub fn get_empty(channel: u16) -> Bytes {
    frame(channel, "basic.get-empty", b"")
}

/// Does the payload look like an AMQP method frame?
pub fn sniff(payload: &[u8]) -> bool {
    method_frame(payload).is_some()
}

/// A whole method frame's channel and body (the method line, then the
/// payload): the declared size is the body's, and the method is `basic.*`.
fn method_frame(payload: &[u8]) -> Option<(u16, &[u8])> {
    let [FRAME_METHOD, c0, c1, s0, s1, s2, s3, rest @ ..] = payload else {
        return None;
    };
    let [body @ .., FRAME_END] = rest else {
        return None;
    };
    let size = u32::from_be_bytes([*s0, *s1, *s2, *s3]) as usize;
    (size == body.len() && body.starts_with(b"basic."))
        .then_some((u16::from_be_bytes([*c0, *c1]), body))
}

/// Parse an AMQP method frame.
pub fn parse(payload: &[u8]) -> Option<MessageSummary> {
    let (channel, body) = method_frame(payload)?;
    let method = body.split(|b| *b == b'\n').next().unwrap_or_default();
    let method = String::from_utf8_lossy(method);
    let verb = method.split_whitespace().next().unwrap_or("?");
    let (msg_type, endpoint) = match verb {
        "basic.publish" | "basic.get" => (MessageType::Request, method.to_string()),
        "basic.ack" | "basic.get-ok" | "basic.get-empty" => {
            (MessageType::Response, verb.to_string())
        }
        _ => (MessageType::Unknown, method.to_string()),
    };
    Some(MessageSummary::basic(
        L7Protocol::Amqp,
        msg_type,
        Key::Multiplexed(u64::from(channel)),
        endpoint,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn publish_ack_round_trip() {
        let p = publish(3, "orders", b"{\"id\":1}");
        assert!(sniff(&p));
        let parsed = parse(&p).unwrap();
        assert_eq!(parsed.msg_type, MessageType::Request);
        assert_eq!(parsed.endpoint, "basic.publish orders");
        assert_eq!(parsed.session_key, Key::Multiplexed(3));

        let a = parse(&ack(3)).unwrap();
        assert_eq!(a.msg_type, MessageType::Response);
        assert_eq!(a.session_key, Key::Multiplexed(3));
    }

    #[test]
    fn get_flow() {
        let g = parse(&get(1, "orders")).unwrap();
        assert_eq!(g.msg_type, MessageType::Request);
        let ok = parse(&get_ok(1, b"msg")).unwrap();
        assert_eq!(ok.msg_type, MessageType::Response);
        let empty = parse(&get_empty(1)).unwrap();
        assert_eq!(empty.msg_type, MessageType::Response);
    }

    #[test]
    fn sniff_checks_frame_structure() {
        assert!(!sniff(b"GET / HTTP/1.1\r\n"));
        let mut bad = publish(1, "q", b"x").to_vec();
        let last = bad.len() - 1;
        bad[last] = 0; // break frame end
        assert!(!sniff(&bad));
    }
}
