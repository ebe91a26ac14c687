//! Application-layer protocol vocabulary.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Application-layer protocols DeepFlow's inference engine recognises
/// (paper §3.3.1: "iterates through the common protocol specifications").
///
/// The set mirrors the protocol references cited by the paper: HTTP/1.1
/// (RFC 7231), HTTP/2 (RFC 7540), DNS (RFC 1035), Redis RESP, the MySQL
/// client/server protocol, the Kafka wire protocol, MQTT v3.1 and Dubbo.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum L7Protocol {
    /// HTTP/1.1 — pipelined; request/response matched by order.
    Http1,
    /// HTTP/2 — multiplexed; matched by stream identifier.
    Http2,
    /// DNS — multiplexed over UDP; matched by transaction id.
    Dns,
    /// Redis RESP — pipelined.
    Redis,
    /// MySQL client/server protocol — pipelined (one outstanding command).
    Mysql,
    /// Kafka wire protocol — multiplexed; matched by correlation id.
    Kafka,
    /// MQTT v3.1 — matched by packet identifier where applicable.
    Mqtt,
    /// Dubbo RPC — multiplexed; matched by request id.
    Dubbo,
    /// AMQP 0-9-1 style broker protocol (RabbitMQ case study, Fig. 12).
    Amqp,
    /// TLS-wrapped payload whose inner protocol was recovered via uprobes on
    /// `ssl_read`/`ssl_write` (paper §3.2.1 instrumentation extensions).
    Tls,
    /// A user-supplied protocol specification (paper §3.3.1: "the optional
    /// user-supplied protocol specifications"), identified by the slot it
    /// was registered under.
    Custom(u8),
    /// Inference failed; the flow is still measured at L4.
    Unknown,
}

impl L7Protocol {
    /// Every concrete protocol, in declaration order. The order inference
    /// tries them in is the protocol table's (`df_protocols::inference`).
    pub const ALL: [L7Protocol; 9] = [
        L7Protocol::Http1,
        L7Protocol::Http2,
        L7Protocol::Dns,
        L7Protocol::Redis,
        L7Protocol::Mysql,
        L7Protocol::Kafka,
        L7Protocol::Mqtt,
        L7Protocol::Dubbo,
        L7Protocol::Amqp,
    ];
}

impl fmt::Display for L7Protocol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            L7Protocol::Http1 => "HTTP/1.1",
            L7Protocol::Http2 => "HTTP/2",
            L7Protocol::Dns => "DNS",
            L7Protocol::Redis => "Redis",
            L7Protocol::Mysql => "MySQL",
            L7Protocol::Kafka => "Kafka",
            L7Protocol::Mqtt => "MQTT",
            L7Protocol::Dubbo => "Dubbo",
            L7Protocol::Amqp => "AMQP",
            L7Protocol::Tls => "TLS",
            L7Protocol::Custom(id) => return write!(f, "custom-{id}"),
            L7Protocol::Unknown => "unknown",
        };
        write!(f, "{s}")
    }
}

/// The inferred type of one L7 message (paper Figure 6, phase 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MessageType {
    /// The message initiates an exchange.
    Request,
    /// The message completes an exchange.
    Response,
    /// A one-way message with no expected reply (e.g. MQTT PUBLISH QoS 0).
    /// Out of scope for span construction per §3.3.1, but still counted in
    /// L7 metrics.
    OneWay,
    /// Could not be classified.
    Unknown,
}

impl fmt::Display for MessageType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            MessageType::Request => "request",
            MessageType::Response => "response",
            MessageType::OneWay => "one-way",
            MessageType::Unknown => "unknown",
        };
        write!(f, "{s}")
    }
}

/// The key used to pair a request with its response inside one flow.
///
/// Pipelined protocols use [`SessionKey::Ordered`] (FIFO matching); multiplexed
/// protocols carry an embedded id (DNS transaction id, HTTP/2 stream id,
/// Kafka correlation id, Dubbo request id).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SessionKey {
    /// Match by order within the flow (pipeline protocols).
    Ordered,
    /// Match by the protocol's embedded distinguishing attribute.
    Multiplexed(u64),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_contains_no_sentinels() {
        assert!(!L7Protocol::ALL.contains(&L7Protocol::Unknown));
        assert!(!L7Protocol::ALL.contains(&L7Protocol::Tls));
    }

    #[test]
    fn display_names() {
        assert_eq!(L7Protocol::Http1.to_string(), "HTTP/1.1");
        assert_eq!(MessageType::Request.to_string(), "request");
    }
}
