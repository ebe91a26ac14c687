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

/// Does the payload look like MQTT?
pub fn sniff(payload: &[u8]) -> bool {
    if payload.len() < 2 {
        return false;
    }
    let ptype = payload[0] >> 4;
    if !(1..=14).contains(&ptype) {
        return false;
    }
    let remaining = payload[1] as usize;
    remaining + 2 == payload.len() && (ptype != CONNECT || payload.get(4..8) == Some(b"MQTT"))
}

/// Parse an MQTT message.
pub fn parse(payload: &[u8]) -> Option<MessageSummary> {
    if !sniff(payload) {
        return None;
    }
    let ptype = payload[0] >> 4;
    let body = &payload[2..];
    let (msg_type, key, endpoint) = match ptype {
        CONNECT => (MessageType::Request, Key::Ordered, "CONNECT".to_string()),
        CONNACK => (MessageType::Response, Key::Ordered, "CONNACK".to_string()),
        PUBLISH => {
            let tlen = u16::from_be_bytes([*body.first()?, *body.get(1)?]) as usize;
            let topic = std::str::from_utf8(body.get(2..2 + tlen)?).ok()?;
            let pid = u16::from_be_bytes([*body.get(2 + tlen)?, *body.get(3 + tlen)?]);
            (
                MessageType::Request,
                Key::Multiplexed(u64::from(pid)),
                format!("PUBLISH {topic}"),
            )
        }
        PUBACK => {
            let pid = u16::from_be_bytes([*body.first()?, *body.get(1)?]);
            (
                MessageType::Response,
                Key::Multiplexed(u64::from(pid)),
                "PUBACK".to_string(),
            )
        }
        SUBSCRIBE => {
            let pid = u16::from_be_bytes([*body.first()?, *body.get(1)?]);
            (
                MessageType::Request,
                Key::Multiplexed(u64::from(pid)),
                "SUBSCRIBE".to_string(),
            )
        }
        SUBACK => {
            let pid = u16::from_be_bytes([*body.first()?, *body.get(1)?]);
            (
                MessageType::Response,
                Key::Multiplexed(u64::from(pid)),
                "SUBACK".to_string(),
            )
        }
        PINGREQ => (MessageType::Request, Key::Ordered, "PINGREQ".to_string()),
        PINGRESP => (MessageType::Response, Key::Ordered, "PINGRESP".to_string()),
        _ => (MessageType::Unknown, Key::Ordered, format!("T{ptype}")),
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
        assert_eq!(p.endpoint, "CONNECT");

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
        assert_eq!(pb.endpoint, "PUBLISH telemetry/temp");
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
