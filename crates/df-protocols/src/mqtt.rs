//! MQTT v3.1 — packet-type framing with packet identifiers.

use crate::{Key, MessageSummary};
use bytes::Bytes;
use df_types::{L7Protocol, MessageType};

const CONNECT: u8 = 1;
const CONNACK: u8 = 2;
const PUBLISH: u8 = 3;
const PUBACK: u8 = 4;
const SUBSCRIBE: u8 = 8;
const SUBACK: u8 = 9;
const PINGREQ: u8 = 12;
const PINGRESP: u8 = 13;

fn fixed(ptype: u8, flags: u8, body: &[u8]) -> Bytes {
    let mut out = Vec::with_capacity(2 + body.len());
    out.push((ptype << 4) | (flags & 0x0f));
    assert!(body.len() < 128, "single-byte remaining-length only");
    out.push(body.len() as u8);
    out.extend_from_slice(body);
    Bytes::from(out)
}

/// CONNECT with a client id.
pub fn connect(client_id: &str) -> Bytes {
    let mut body = vec![0, 4];
    body.extend_from_slice(b"MQTT");
    body.push(4); // protocol level 3.1.1
    body.push(0x02); // clean session
    body.extend_from_slice(&60u16.to_be_bytes()); // keepalive
    body.extend_from_slice(&(client_id.len() as u16).to_be_bytes());
    body.extend_from_slice(client_id.as_bytes());
    fixed(CONNECT, 0, &body)
}

/// CONNACK (return code 0 = accepted).
pub fn connack(code: u8) -> Bytes {
    fixed(CONNACK, 0, &[0, code])
}

/// PUBLISH QoS1 with a packet id.
pub fn publish(packet_id: u16, topic: &str, payload: &[u8]) -> Bytes {
    let mut body = Vec::new();
    body.extend_from_slice(&(topic.len() as u16).to_be_bytes());
    body.extend_from_slice(topic.as_bytes());
    body.extend_from_slice(&packet_id.to_be_bytes());
    body.extend_from_slice(payload);
    fixed(PUBLISH, 0x02, &body) // QoS 1
}

/// PUBACK.
pub fn puback(packet_id: u16) -> Bytes {
    fixed(PUBACK, 0, &packet_id.to_be_bytes())
}

/// SUBSCRIBE.
pub fn subscribe(packet_id: u16, topic: &str) -> Bytes {
    let mut body = packet_id.to_be_bytes().to_vec();
    body.extend_from_slice(&(topic.len() as u16).to_be_bytes());
    body.extend_from_slice(topic.as_bytes());
    body.push(1); // requested QoS
    fixed(SUBSCRIBE, 0x02, &body)
}

/// SUBACK.
pub fn suback(packet_id: u16) -> Bytes {
    let mut body = packet_id.to_be_bytes().to_vec();
    body.push(1);
    fixed(SUBACK, 0, &body)
}

/// PINGREQ.
pub fn pingreq() -> Bytes {
    fixed(PINGREQ, 0, &[])
}

/// PINGRESP.
pub fn pingresp() -> Bytes {
    fixed(PINGRESP, 0, &[])
}

/// Does the payload look like MQTT? One whole packet of a known type,
/// carrying the fields its type needs.
pub fn sniff(payload: &[u8]) -> bool {
    packet(payload).is_some()
}

/// A packet's type, its body, and the PUBLISH topic and packet id that
/// key a session, once the framing and those fields check out.
fn packet(payload: &[u8]) -> Option<(u8, &[u8], Key, &str)> {
    let [first, remaining, ref body @ ..] = *payload else {
        return None;
    };
    let ptype = first >> 4;
    if !(1..=14).contains(&ptype) || usize::from(remaining) != body.len() {
        return None;
    }
    let pid = |at: usize| -> Option<Key> {
        let [hi, lo] = *body.get(at..at + 2)? else {
            return None;
        };
        Some(Key::Multiplexed(u64::from(u16::from_be_bytes([hi, lo]))))
    };
    let (key, topic) = match ptype {
        CONNECT if body.get(2..6) != Some(b"MQTT") => return None,
        PUBLISH => {
            let [hi, lo, ref rest @ ..] = *body else {
                return None;
            };
            let tlen = usize::from(u16::from_be_bytes([hi, lo]));
            let topic = std::str::from_utf8(rest.get(..tlen)?).ok()?;
            (pid(2 + tlen)?, topic)
        }
        PUBACK | SUBSCRIBE | SUBACK => (pid(0)?, ""),
        _ => (Key::Ordered, ""),
    };
    Some((ptype, body, key, topic))
}

/// Parse an MQTT message.
pub fn parse(payload: &[u8]) -> Option<MessageSummary> {
    let (ptype, body, key, topic) = packet(payload)?;
    let (msg_type, endpoint) = match ptype {
        CONNECT => (MessageType::Request, "CONNECT".to_string()),
        CONNACK => (MessageType::Response, "CONNACK".to_string()),
        PUBLISH => (MessageType::Request, format!("PUBLISH {topic}")),
        PUBACK => (MessageType::Response, "PUBACK".to_string()),
        SUBSCRIBE => (MessageType::Request, "SUBSCRIBE".to_string()),
        SUBACK => (MessageType::Response, "SUBACK".to_string()),
        PINGREQ => (MessageType::Request, "PINGREQ".to_string()),
        PINGRESP => (MessageType::Response, "PINGRESP".to_string()),
        _ => (MessageType::Unknown, format!("T{ptype}")),
    };
    let mut s = MessageSummary::basic(L7Protocol::Mqtt, msg_type, key, endpoint);
    // The CONNACK return code (0 = accepted) is MQTT's one status code.
    s.status_code = (ptype == CONNACK).then(|| u16::from(body.get(1).copied().unwrap_or(0)));
    Some(s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use df_types::SpanStatus;

    #[test]
    fn connect_connack_round_trip() {
        let c = connect("sensor-17");
        assert!(sniff(&c));
        let p = parse(&c).unwrap();
        assert_eq!(p.msg_type, MessageType::Request);
        assert_eq!(p.endpoint(), "CONNECT");

        let ok = parse(&connack(0)).unwrap();
        assert_eq!(ok.status(), SpanStatus::Ok);
        let bad = parse(&connack(5)).unwrap();
        assert_eq!(
            (bad.status(), bad.status_code),
            (SpanStatus::ServerError, Some(5))
        );
    }

    #[test]
    fn publish_puback_share_packet_id() {
        let pb = parse(&publish(321, "telemetry/temp", b"21.5")).unwrap();
        assert_eq!(pb.session_key, Key::Multiplexed(321));
        assert_eq!(pb.endpoint(), "PUBLISH telemetry/temp");
        let ack = parse(&puback(321)).unwrap();
        assert_eq!(ack.session_key, pb.session_key);
        assert_eq!(ack.msg_type, MessageType::Response);
    }

    #[test]
    fn subscribe_suback_round_trip() {
        let s = parse(&subscribe(9, "alerts/#")).unwrap();
        assert_eq!(s.session_key, Key::Multiplexed(9));
        let a = parse(&suback(9)).unwrap();
        assert_eq!(a.session_key, s.session_key);
    }

    #[test]
    fn ping_pair() {
        assert_eq!(parse(&pingreq()).unwrap().msg_type, MessageType::Request);
        assert_eq!(parse(&pingresp()).unwrap().msg_type, MessageType::Response);
    }

    #[test]
    fn sniff_rejects_other_protocols() {
        assert!(!sniff(b"GET / HTTP/1.1\r\n"));
        assert!(!sniff(b"\x00\x01"));
    }
}
