//! MySQL client/server protocol — pipelined (one outstanding command).
//!
//! Packet = 3-byte little-endian length + 1-byte sequence id + body.
//! Commands start with a command byte (COM_QUERY = 0x03); replies are OK
//! (0x00), ERR (0xff) or a result set (column count).
//!
//! Every byte is read with `get` or a slice pattern: a reply cut short
//! parses to what it still says, never to a panic.

use crate::{Key, MessageSummary};
use bytes::Bytes;
use df_types::{L7Protocol, MessageType};

const COM_QUERY: u8 = 0x03;
const COM_PING: u8 = 0x0e;
const OK_BYTE: u8 = 0x00;
const ERR_BYTE: u8 = 0xff;
/// The status of an ERR reply cut before its 2-byte error code: nonzero,
/// so it is still the server's error.
const TRUNCATED_ERR_CODE: u16 = u16::MAX;

fn packet(seq: u8, body: &[u8]) -> Bytes {
    let mut out = Vec::with_capacity(4 + body.len());
    let len = (body.len() as u32).to_le_bytes();
    out.extend_from_slice(&len[..3]);
    out.push(seq);
    out.extend_from_slice(body);
    Bytes::from(out)
}

/// Build a COM_QUERY.
pub fn query(sql: &str) -> Bytes {
    let mut body = vec![COM_QUERY];
    body.extend_from_slice(sql.as_bytes());
    packet(0, &body)
}

/// Build a COM_PING.
pub fn ping() -> Bytes {
    packet(0, &[COM_PING])
}

/// OK reply (affected rows).
pub fn ok(affected: u8) -> Bytes {
    packet(1, &[OK_BYTE, affected, 0, 0, 0])
}

/// ERR reply with a MySQL error code.
pub fn err(code: u16, msg: &str) -> Bytes {
    let mut body = vec![ERR_BYTE];
    body.extend_from_slice(&code.to_le_bytes());
    body.extend_from_slice(b"#HY000");
    body.extend_from_slice(msg.as_bytes());
    packet(1, &body)
}

/// Result-set reply (column count + fake rows marker).
pub fn result_set(columns: u8) -> Bytes {
    packet(1, &[columns, 0xfe])
}

/// Does the payload look like a MySQL packet?
pub fn sniff(payload: &[u8]) -> bool {
    let [l0, l1, l2, seq, first, ..] = *payload else {
        return false;
    };
    let len = u32::from_le_bytes([l0, l1, l2, 0]) as usize;
    if len == 0 || len + 4 != payload.len() {
        return false;
    }
    // Commands use seq 0; replies small seqs.
    if seq > 8 {
        return false;
    }
    matches!(first, COM_QUERY | COM_PING | OK_BYTE | ERR_BYTE) || first <= 32
}

/// Parse a MySQL message. The sequence id tells a command (seq 0) from a
/// server reply.
pub fn parse(payload: &[u8]) -> Option<MessageSummary> {
    if !sniff(payload) {
        return None;
    }
    let [_, _, _, seq, first, ref rest @ ..] = *payload else {
        return None;
    };
    if seq == 0 {
        // Client command.
        let endpoint = match first {
            COM_QUERY => {
                let sql = std::str::from_utf8(rest).unwrap_or("?");
                sql.split_whitespace()
                    .next()
                    .unwrap_or("QUERY")
                    .to_ascii_uppercase()
            }
            COM_PING => "PING".to_string(),
            _ => format!("COM_{first:02x}"),
        };
        return Some(MessageSummary::basic(
            L7Protocol::Mysql,
            MessageType::Request,
            Key::Ordered,
            endpoint,
        ));
    }
    // Server reply.
    let mut s = MessageSummary::basic(
        L7Protocol::Mysql,
        MessageType::Response,
        Key::Ordered,
        match first {
            OK_BYTE => "OK".to_string(),
            ERR_BYTE => "ERR".to_string(),
            _ => "RESULT".to_string(),
        },
    );
    s.status_code = Some(match (first, rest) {
        (ERR_BYTE, [lo, hi, ..]) => u16::from_le_bytes([*lo, *hi]),
        (ERR_BYTE, _) => TRUNCATED_ERR_CODE,
        _ => 0,
    });
    Some(s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use df_types::SpanStatus;

    #[test]
    fn query_and_ok_round_trip() {
        let q = query("SELECT * FROM products WHERE id = 42");
        assert!(sniff(&q));
        let p = parse(&q).unwrap();
        assert_eq!(p.msg_type, MessageType::Request);
        assert_eq!(p.endpoint(), "SELECT");

        let r = parse(&ok(1)).unwrap();
        assert_eq!(r.msg_type, MessageType::Response);
        assert_eq!(r.status(), SpanStatus::Ok);
    }

    #[test]
    fn err_reply_carries_code() {
        let r = parse(&err(1213, "Deadlock found")).unwrap();
        assert_eq!(r.status(), SpanStatus::ServerError);
        assert_eq!(r.status_code, Some(1213));
    }

    /// A well-framed ERR reply whose body stops before the error code
    /// (found by the mutation property: it panicked on `payload[6]`).
    #[test]
    fn err_reply_cut_before_its_code_is_still_a_server_error() {
        let r = parse(&[2, 0, 0, 1, 0xff, 0xfe]).expect("framed reply");
        assert_eq!(r.msg_type, MessageType::Response);
        assert_eq!(r.status(), SpanStatus::ServerError);
        let r = parse(&[1, 0, 0, 1, 0xff]).expect("framed reply");
        assert_eq!(r.status(), SpanStatus::ServerError);
    }

    #[test]
    fn result_set_is_response() {
        let r = parse(&result_set(3)).unwrap();
        assert_eq!(r.msg_type, MessageType::Response);
        assert_eq!(r.endpoint(), "RESULT");
    }

    #[test]
    fn sniff_checks_length_field() {
        assert!(!sniff(b"GET / HTTP/1.1\r\n"));
        assert!(!sniff(b"\x01\x00\x00")); // truncated
                                          // wrong length prefix
        assert!(!sniff(&[9, 0, 0, 0, 3, b'S']));
    }
}
