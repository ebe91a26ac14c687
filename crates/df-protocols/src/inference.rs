//! Protocol inference (paper §3.3.1, Figure 6 phase 2).
//!
//! "After the message data has been transferred to the user space, the
//! DeepFlow Agent iterates through the common protocol specifications …
//! executing a one-time protocol inference for each newly established
//! connection."
//!
//! `BUILTIN` is the protocol table: one `(protocol, sniff, parse)` row per
//! codec, in inference order — most-distinctive magic first (binary magics
//! before text heuristics) so that, e.g., a Dubbo frame is never mistaken
//! for MySQL. [`infer_protocol`] and [`parse_message`] walk it;
//! [`InferenceEngine`] walks its registered [`CustomProtocol`]s ahead of it
//! and adds the per-connection caching and bounded retry: once a flow is
//! classified, later messages skip sniffing; a flow that defies
//! classification a few times is marked [`L7Protocol::Unknown`] and only
//! measured at L4.

use crate::{amqp, dns, dubbo, http1, http2, kafka, mqtt, mysql, redis, MessageSummary};
use df_types::L7Protocol;
use std::collections::HashMap;

/// Re-export: a fully parsed message.
pub type ParsedMessage = MessageSummary;

/// A payload classifier for a custom protocol.
pub type SniffFn = Box<dyn Fn(&[u8]) -> bool + Send>;
/// A payload parser for a custom protocol.
pub type ParseFn = Box<dyn Fn(&[u8]) -> Option<MessageSummary> + Send>;

/// A user-supplied protocol specification (paper §3.3.1: the agent also
/// iterates "the optional user-supplied protocol specifications").
pub struct CustomProtocol {
    /// Display name.
    pub name: String,
    /// Does a payload belong to this protocol?
    pub sniff: SniffFn,
    /// Parse a payload. The returned summary's `protocol` field is
    /// overwritten with the registered `L7Protocol::Custom` slot.
    pub parse: ParseFn,
}

impl std::fmt::Debug for CustomProtocol {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CustomProtocol")
            .field("name", &self.name)
            .finish()
    }
}

/// One row of the protocol table: what a walk reports the flow as, and the
/// codec's two entry points.
type Row<'a> = (
    L7Protocol,
    &'a dyn Fn(&[u8]) -> bool,
    &'a dyn Fn(&[u8]) -> Option<MessageSummary>,
);

/// The built-in suite, in inference order. Binary magics come first — they
/// cannot false-positive on text protocols.
const BUILTIN: [Row<'static>; 9] = [
    (L7Protocol::Dubbo, &dubbo::sniff, &dubbo::parse),
    (L7Protocol::Amqp, &amqp::sniff, &amqp::parse),
    (L7Protocol::Http2, &http2::sniff, &http2::parse),
    (L7Protocol::Http1, &http1::sniff, &http1::parse),
    (L7Protocol::Redis, &redis::sniff, &redis::parse),
    (L7Protocol::Kafka, &kafka::sniff, &kafka::parse),
    (L7Protocol::Mqtt, &mqtt::sniff, &mqtt::parse),
    (L7Protocol::Dns, &dns::sniff, &dns::parse),
    (L7Protocol::Mysql, &mysql::sniff, &mysql::parse),
];

/// The first row whose sniffer claims `payload`.
fn infer<'a>(mut rows: impl Iterator<Item = Row<'a>>, payload: &[u8]) -> Option<L7Protocol> {
    rows.find(|(_, sniff, _)| sniff(payload))
        .map(|(protocol, ..)| protocol)
}

/// Parse `payload` with `protocol`'s row, reporting the message as that
/// row's protocol (what gives a custom parse its registered slot).
fn parse<'a>(
    mut rows: impl Iterator<Item = Row<'a>>,
    protocol: L7Protocol,
    payload: &[u8],
) -> Option<ParsedMessage> {
    let (_, _, parse) = rows.find(|(p, ..)| *p == protocol)?;
    let mut parsed = parse(payload)?;
    parsed.protocol = protocol;
    Some(parsed)
}

/// Try every built-in sniffer, returning the first protocol that matches.
pub fn infer_protocol(payload: &[u8]) -> Option<L7Protocol> {
    infer(BUILTIN.into_iter(), payload)
}

/// Parse a message under a known built-in protocol. Custom protocols are
/// parsed by the engine that registered them.
pub fn parse_message(protocol: L7Protocol, payload: &[u8]) -> Option<ParsedMessage> {
    parse(BUILTIN.into_iter(), protocol, payload)
}

#[derive(Debug, Clone, Copy)]
enum CacheEntry {
    Known(L7Protocol),
    Undetermined(u8),
    GaveUp,
}

/// Per-connection inference state.
#[derive(Debug)]
pub struct InferenceEngine {
    cache: HashMap<u64, CacheEntry>,
    max_attempts: u8,
    custom: Vec<CustomProtocol>,
    /// Successful one-shot inferences (diagnostics).
    pub inferences: u64,
    /// Messages parsed under a cached protocol.
    pub cache_hits: u64,
}

impl Default for InferenceEngine {
    fn default() -> Self {
        InferenceEngine::new(3)
    }
}

impl InferenceEngine {
    /// Engine giving each flow `max_attempts` messages to classify.
    pub fn new(max_attempts: u8) -> Self {
        InferenceEngine {
            cache: HashMap::new(),
            max_attempts,
            custom: Vec::new(),
            inferences: 0,
            cache_hits: 0,
        }
    }

    /// Register a user-supplied protocol. Returns the `L7Protocol::Custom`
    /// slot it will be reported as. Custom specifications are tried BEFORE
    /// the built-in suite (the user registered them because the built-ins
    /// don't cover their traffic, and they know their port space).
    pub fn register_custom(&mut self, proto: CustomProtocol) -> L7Protocol {
        let slot = self.custom.len() as u8;
        self.custom.push(proto);
        L7Protocol::Custom(slot)
    }

    /// Name of a registered custom protocol.
    pub fn custom_name(&self, slot: u8) -> Option<&str> {
        self.custom.get(slot as usize).map(|c| c.name.as_str())
    }

    /// The engine's table: registered specifications, then the built-ins.
    fn rows(&self) -> impl Iterator<Item = Row<'_>> + '_ {
        let custom = self.custom.iter().enumerate();
        let custom = custom
            .map(|(slot, c)| -> Row<'_> { (L7Protocol::Custom(slot as u8), &*c.sniff, &*c.parse) });
        custom.chain(BUILTIN)
    }

    /// Classify (or recall) the protocol of a flow given one message payload.
    pub fn protocol_for(&mut self, flow_key: u64, payload: &[u8]) -> L7Protocol {
        match self.cache.get(&flow_key).copied() {
            Some(CacheEntry::Known(p)) => {
                self.cache_hits += 1;
                p
            }
            Some(CacheEntry::GaveUp) => L7Protocol::Unknown,
            other => {
                let attempts = match other {
                    Some(CacheEntry::Undetermined(n)) => n,
                    _ => 0,
                };
                match infer(self.rows(), payload) {
                    Some(p) => {
                        self.inferences += 1;
                        self.cache.insert(flow_key, CacheEntry::Known(p));
                        p
                    }
                    None => {
                        let next = attempts + 1;
                        if next >= self.max_attempts {
                            self.cache.insert(flow_key, CacheEntry::GaveUp);
                        } else {
                            self.cache.insert(flow_key, CacheEntry::Undetermined(next));
                        }
                        L7Protocol::Unknown
                    }
                }
            }
        }
    }

    /// Parse a message for a flow, inferring the protocol if needed.
    pub fn parse_for(&mut self, flow_key: u64, payload: &[u8]) -> Option<ParsedMessage> {
        let protocol = self.protocol_for(flow_key, payload);
        parse(self.rows(), protocol, payload)
    }

    /// Forget a closed flow.
    pub fn evict(&mut self, flow_key: u64) {
        self.cache.remove(&flow_key);
    }

    /// Flows currently cached.
    pub fn cached_flows(&self) -> usize {
        self.cache.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use df_types::MessageType;

    #[test]
    fn each_protocol_is_inferred_from_its_own_bytes() {
        let cases: Vec<(L7Protocol, bytes::Bytes)> = vec![
            (L7Protocol::Http1, http1::request("GET", "/x", &[], b"")),
            (L7Protocol::Http2, http2::request(1, "GET", "/x", &[])),
            (L7Protocol::Dns, dns::query(1, "svc.local")),
            (L7Protocol::Redis, redis::command(&["GET", "k"])),
            (L7Protocol::Mysql, mysql::query("SELECT 1")),
            (L7Protocol::Kafka, kafka::request(kafka::API_FETCH, 1, "c")),
            (L7Protocol::Mqtt, mqtt::connect("dev-1")),
            (L7Protocol::Dubbo, dubbo::request(1, "Svc", "call")),
            (L7Protocol::Amqp, amqp::publish(1, "q", b"m")),
        ];
        for (expect, payload) in cases {
            assert_eq!(
                infer_protocol(&payload),
                Some(expect),
                "payload for {expect} misclassified"
            );
        }
    }

    #[test]
    fn the_table_has_one_row_per_concrete_protocol() {
        let mut listed: Vec<String> = BUILTIN.iter().map(|(p, ..)| p.to_string()).collect();
        let mut all: Vec<String> = L7Protocol::ALL.iter().map(L7Protocol::to_string).collect();
        listed.sort();
        all.sort();
        assert_eq!(listed, all);
        assert_eq!(infer_protocol(b""), None);
    }

    #[test]
    fn responses_are_also_classified() {
        assert_eq!(
            infer_protocol(&http1::response(200, &[], b"ok")),
            Some(L7Protocol::Http1)
        );
        assert_eq!(infer_protocol(&redis::ok()), Some(L7Protocol::Redis));
        assert_eq!(
            infer_protocol(&dns::answer(5, "a.local", dns::RCODE_OK)),
            Some(L7Protocol::Dns)
        );
    }

    #[test]
    fn engine_caches_per_flow_and_counts_hits() {
        let mut eng = InferenceEngine::default();
        let req = http1::request("GET", "/", &[], b"");
        assert_eq!(eng.protocol_for(1, &req), L7Protocol::Http1);
        assert_eq!(eng.inferences, 1);
        // Second message on the same flow: cached, even though the payload
        // (a response) looks different.
        let resp = http1::response(200, &[], b"");
        assert_eq!(eng.protocol_for(1, &resp), L7Protocol::Http1);
        assert_eq!(eng.cache_hits, 1);
        assert_eq!(eng.inferences, 1);
    }

    #[test]
    fn engine_gives_up_after_max_attempts() {
        let mut eng = InferenceEngine::new(2);
        let junk = b"\x00\x01\x02\x03 junk payload";
        assert_eq!(eng.protocol_for(9, junk), L7Protocol::Unknown);
        assert_eq!(eng.protocol_for(9, junk), L7Protocol::Unknown);
        // Now given up: even a valid HTTP payload is not re-sniffed.
        let req = http1::request("GET", "/", &[], b"");
        assert_eq!(eng.protocol_for(9, &req), L7Protocol::Unknown);
    }

    #[test]
    fn engine_retries_within_budget() {
        let mut eng = InferenceEngine::new(3);
        let junk = b"\x00\x01junkjunkjunk";
        assert_eq!(eng.protocol_for(5, junk), L7Protocol::Unknown);
        // Second message is classifiable and within the attempt budget.
        let req = http1::request("GET", "/", &[], b"");
        assert_eq!(eng.protocol_for(5, &req), L7Protocol::Http1);
    }

    #[test]
    fn parse_for_end_to_end() {
        let mut eng = InferenceEngine::default();
        let req = http1::request("POST", "/orders", &[], b"{}");
        let p = eng.parse_for(2, &req).unwrap();
        assert_eq!(p.msg_type, MessageType::Request);
        assert_eq!(p.endpoint, "POST /orders");
    }

    #[test]
    fn custom_protocol_registration_and_parse() {
        use df_types::{MessageType, SessionKey};
        let mut eng = InferenceEngine::default();
        // A toy length-prefixed protocol: [0xCA][kind][id][body...]
        let slot = eng.register_custom(CustomProtocol {
            name: "acme-rpc".into(),
            sniff: Box::new(|p| p.first() == Some(&0xCA) && p.len() >= 3),
            parse: Box::new(|p| {
                let kind = *p.get(1)?;
                let id = u64::from(*p.get(2)?);
                Some(MessageSummary::basic(
                    df_types::L7Protocol::Unknown, // overwritten by the engine
                    if kind == 1 {
                        MessageType::Request
                    } else {
                        MessageType::Response
                    },
                    SessionKey::Multiplexed(id),
                    "acme.call",
                ))
            }),
        });
        assert_eq!(slot, df_types::L7Protocol::Custom(0));
        assert_eq!(eng.custom_name(0), Some("acme-rpc"));
        // Request and response round trip with the custom key.
        let req = eng.parse_for(1, &[0xCA, 1, 42]).expect("request parses");
        assert_eq!(req.protocol, df_types::L7Protocol::Custom(0));
        assert_eq!(req.msg_type, MessageType::Request);
        assert_eq!(req.session_key, SessionKey::Multiplexed(42));
        let resp = eng.parse_for(1, &[0xCA, 2, 42]).expect("response parses");
        assert_eq!(resp.msg_type, MessageType::Response);
        // Built-ins still work on other flows.
        let p = eng
            .parse_for(2, &http1::request("GET", "/", &[], b""))
            .unwrap();
        assert_eq!(p.protocol, df_types::L7Protocol::Http1);
    }

    #[test]
    fn custom_protocol_takes_priority_over_builtins() {
        let mut eng = InferenceEngine::default();
        // Claim anything starting with 'G' — overlaps HTTP GET.
        eng.register_custom(CustomProtocol {
            name: "greedy".into(),
            sniff: Box::new(|p| p.first() == Some(&b'G')),
            parse: Box::new(|_| {
                Some(MessageSummary::basic(
                    df_types::L7Protocol::Unknown,
                    df_types::MessageType::Request,
                    df_types::SessionKey::Ordered,
                    "greedy",
                ))
            }),
        });
        let p = eng
            .parse_for(1, &http1::request("GET", "/", &[], b""))
            .unwrap();
        assert_eq!(p.protocol, df_types::L7Protocol::Custom(0));
    }

    #[test]
    fn evict_forgets_flow() {
        let mut eng = InferenceEngine::default();
        eng.protocol_for(1, &http1::request("GET", "/", &[], b""));
        assert_eq!(eng.cached_flows(), 1);
        eng.evict(1);
        assert_eq!(eng.cached_flows(), 0);
    }

    #[test]
    fn cross_protocol_confusion_matrix() {
        // Every codec's bytes must NOT be claimed by another sniffer earlier
        // in the chain (the critical property of the inference order).
        let payloads: Vec<(L7Protocol, bytes::Bytes)> = vec![
            (L7Protocol::Http1, http1::response(404, &[], b"nf")),
            (L7Protocol::Http2, http2::response(3, 500, &[])),
            (L7Protocol::Redis, redis::error("x")),
            (L7Protocol::Mysql, mysql::err(1045, "denied")),
            (L7Protocol::Kafka, kafka::response(9, 0)),
            (L7Protocol::Mqtt, mqtt::puback(4)),
            (L7Protocol::Dubbo, dubbo::response(3, dubbo::STATUS_OK, b"")),
            (L7Protocol::Amqp, amqp::ack(2)),
        ];
        for (expect, payload) in payloads {
            assert_eq!(infer_protocol(&payload), Some(expect), "for {expect}");
        }
    }
}
