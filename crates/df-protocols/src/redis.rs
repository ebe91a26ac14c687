//! Redis RESP — pipelined; request/response matched by order.

use crate::{Key, MessageSummary};
use bytes::Bytes;
use df_types::{L7Protocol, MessageType};

/// Build a command as a RESP array of bulk strings.
pub fn command(args: &[&str]) -> Bytes {
    let mut s = format!("*{}\r\n", args.len());
    for a in args {
        s.push_str(&format!("${}\r\n{a}\r\n", a.len()));
    }
    Bytes::from(s.into_bytes())
}

/// Simple-string reply (`+OK`).
pub fn ok() -> Bytes {
    Bytes::from_static(b"+OK\r\n")
}

/// Bulk-string reply.
pub fn bulk(value: &[u8]) -> Bytes {
    let mut out = format!("${}\r\n", value.len()).into_bytes();
    out.extend_from_slice(value);
    out.extend_from_slice(b"\r\n");
    Bytes::from(out)
}

/// Null reply (cache miss).
pub fn nil() -> Bytes {
    Bytes::from_static(b"$-1\r\n")
}

/// Error reply.
pub fn error(msg: &str) -> Bytes {
    Bytes::from(format!("-ERR {msg}\r\n").into_bytes())
}

/// Does the payload look like RESP?
pub fn sniff(payload: &[u8]) -> bool {
    match payload {
        [b'*' | b'$', second, _, _, ..] => *second == b'-' || second.is_ascii_digit(),
        [b'+' | b'-' | b':', _, _, _, ..] => payload.ends_with(b"\r\n"),
        _ => false,
    }
}

/// Parse a RESP message. Arrays are requests (commands); everything else is
/// a reply.
pub fn parse(payload: &[u8]) -> Option<MessageSummary> {
    if !sniff(payload) {
        return None;
    }
    match payload {
        [b'*', ..] => {
            // Command: first bulk string is the verb.
            let text = String::from_utf8_lossy(payload);
            // *N, $len, then the verb.
            let verb = text
                .split("\r\n")
                .nth(2)
                .unwrap_or("?")
                .to_ascii_uppercase();
            // Key, if present, labels the endpoint (GET product:1 → GET).
            Some(MessageSummary::basic(
                L7Protocol::Redis,
                MessageType::Request,
                Key::Ordered,
                verb,
            ))
        }
        [b'-', ..] => {
            let mut s = MessageSummary::basic(
                L7Protocol::Redis,
                MessageType::Response,
                Key::Ordered,
                "ERR",
            );
            s.status_code = Some(500);
            Some(s)
        }
        _ => {
            let mut s =
                MessageSummary::basic(L7Protocol::Redis, MessageType::Response, Key::Ordered, "OK");
            s.status_code = Some(200);
            Some(s)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use df_types::SpanStatus;

    #[test]
    fn command_and_replies_round_trip() {
        let cmd = command(&["GET", "product:42"]);
        assert!(sniff(&cmd));
        let p = parse(&cmd).unwrap();
        assert_eq!(p.msg_type, MessageType::Request);
        assert_eq!(p.endpoint(), "GET");
        assert_eq!(p.session_key, Key::Ordered);

        for reply in [ok(), bulk(b"cached-value"), nil()] {
            let r = parse(&reply).unwrap();
            assert_eq!(r.msg_type, MessageType::Response);
            assert_eq!(r.status(), SpanStatus::Ok);
        }
    }

    #[test]
    fn error_reply_is_server_error() {
        let r = parse(&error("OOM command not allowed")).unwrap();
        assert_eq!(r.status(), SpanStatus::ServerError);
        assert_eq!(r.msg_type, MessageType::Response);
    }

    #[test]
    fn sniff_rejects_http() {
        assert!(!sniff(b"GET / HTTP/1.1\r\n"));
        assert!(!sniff(b""));
        assert!(!sniff(b"*x\r\n"));
    }
}
