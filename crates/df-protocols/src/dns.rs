//! DNS (RFC 1035) — multiplexed over UDP; matched by transaction id.
//!
//! The paper names DNS ids explicitly as the parallel-protocol
//! distinguishing attribute ("IDs in DNS headers", §3.3.1). We encode a
//! faithful 12-byte header plus a QNAME in standard label form.

use crate::{Key, MessageSummary};
use bytes::Bytes;
use df_types::{L7Protocol, MessageType};

/// DNS response codes we model.
pub const RCODE_OK: u8 = 0;
/// Name does not exist.
pub const RCODE_NXDOMAIN: u8 = 3;
/// Server failure.
pub const RCODE_SERVFAIL: u8 = 2;

/// Build a query for `name` with transaction id `txn`.
pub fn query(txn: u16, name: &str) -> Bytes {
    let mut out = Vec::with_capacity(12 + name.len() + 6);
    out.extend_from_slice(&txn.to_be_bytes());
    out.extend_from_slice(&0x0100u16.to_be_bytes()); // flags: RD
    out.extend_from_slice(&1u16.to_be_bytes()); // qdcount
    out.extend_from_slice(&[0, 0, 0, 0, 0, 0]); // an/ns/ar counts
    write_qname(&mut out, name);
    out.extend_from_slice(&1u16.to_be_bytes()); // qtype A
    out.extend_from_slice(&1u16.to_be_bytes()); // qclass IN
    Bytes::from(out)
}

/// Build a response for the same transaction.
pub fn answer(txn: u16, name: &str, rcode: u8) -> Bytes {
    let mut out = Vec::with_capacity(12 + name.len() + 6);
    out.extend_from_slice(&txn.to_be_bytes());
    let flags: u16 = 0x8180 | u16::from(rcode & 0x0f); // QR + RD + RA + rcode
    out.extend_from_slice(&flags.to_be_bytes());
    out.extend_from_slice(&1u16.to_be_bytes());
    out.extend_from_slice(&u16::from(rcode == RCODE_OK).to_be_bytes()); // ancount
    out.extend_from_slice(&[0, 0, 0, 0]);
    write_qname(&mut out, name);
    out.extend_from_slice(&1u16.to_be_bytes());
    out.extend_from_slice(&1u16.to_be_bytes());
    Bytes::from(out)
}

fn write_qname(out: &mut Vec<u8>, name: &str) {
    for label in name.split('.') {
        out.push(label.len() as u8);
        out.extend_from_slice(label.as_bytes());
    }
    out.push(0);
}

fn read_qname(buf: &[u8]) -> Option<String> {
    let mut parts = Vec::new();
    let mut i = 0usize;
    loop {
        let len = *buf.get(i)? as usize;
        if len == 0 {
            break;
        }
        if len > 63 {
            return None;
        }
        let label = buf.get(i + 1..i + 1 + len)?;
        parts.push(std::str::from_utf8(label).ok()?.to_string());
        i += 1 + len;
    }
    Some(parts.join("."))
}

/// Does the payload look like DNS?
pub fn sniff(payload: &[u8]) -> bool {
    question(payload).is_some()
}

/// A standard query's transaction id, flags and one question name.
fn question(payload: &[u8]) -> Option<(u16, u16, String)> {
    if payload.len() < 17 {
        return None;
    }
    let (head, rest) = payload.split_first_chunk::<12>()?;
    let [t0, t1, f0, f1, q0, q1, ..] = *head;
    let flags = u16::from_be_bytes([f0, f1]);
    let opcode = (flags >> 11) & 0xf;
    if u16::from_be_bytes([q0, q1]) != 1 || opcode != 0 {
        return None;
    }
    Some((u16::from_be_bytes([t0, t1]), flags, read_qname(rest)?))
}

/// Parse a DNS message.
pub fn parse(payload: &[u8]) -> Option<MessageSummary> {
    let (txn, flags, name) = question(payload)?;
    let is_response = flags & 0x8000 != 0;
    let rcode = (flags & 0x000f) as u8;
    let mut s = MessageSummary::basic(
        L7Protocol::Dns,
        if is_response {
            MessageType::Response
        } else {
            MessageType::Request
        },
        Key::Multiplexed(u64::from(txn)),
        format!("A {name}"),
    );
    if is_response {
        s.status_code = Some(u16::from(rcode));
    }
    Some(s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use df_types::SpanStatus;

    #[test]
    fn query_answer_round_trip() {
        let q = query(0x1234, "reviews.default.svc.cluster.local");
        assert!(sniff(&q));
        let pq = parse(&q).unwrap();
        assert_eq!(pq.msg_type, MessageType::Request);
        assert_eq!(pq.session_key, Key::Multiplexed(0x1234));
        assert_eq!(pq.endpoint(), "A reviews.default.svc.cluster.local");

        let a = answer(0x1234, "reviews.default.svc.cluster.local", RCODE_OK);
        let pa = parse(&a).unwrap();
        assert_eq!(pa.msg_type, MessageType::Response);
        assert_eq!(pa.session_key, pq.session_key);
        assert_eq!(pa.status(), SpanStatus::Ok);
    }

    #[test]
    fn rcode_errors_classified() {
        let nx = parse(&answer(1, "nope.local", RCODE_NXDOMAIN)).unwrap();
        assert_eq!(nx.status(), SpanStatus::ClientError);
        let sf = parse(&answer(2, "svc.local", RCODE_SERVFAIL)).unwrap();
        assert_eq!(sf.status(), SpanStatus::ServerError);
    }

    #[test]
    fn different_txns_do_not_collide() {
        let a = parse(&query(1, "a.local")).unwrap();
        let b = parse(&query(2, "a.local")).unwrap();
        assert_ne!(a.session_key, b.session_key);
    }

    #[test]
    fn sniff_rejects_http_and_garbage() {
        assert!(!sniff(b"GET / HTTP/1.1\r\n\r\n lots of padding"));
        assert!(!sniff(
            b"\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff"
        ));
        assert!(!sniff(b"short"));
    }
}
