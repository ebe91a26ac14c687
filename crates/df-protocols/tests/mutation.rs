//! Hostile payloads against every codec, built from the codecs' own
//! messages.
//!
//! Uniform random bytes almost never pass a sniffer's framing checks, so
//! they cannot reach the code behind them. Here each protocol's builders
//! make well-formed seeds, and every seed is truncated at every length,
//! has each bit flipped, each byte set to an extreme value, a byte
//! inserted or dropped at every offset, and its prefixes spliced onto the
//! other seeds' suffixes. Over every mutant:
//!
//! * `parse_message(p, ·)` returns, for every built-in protocol `p`;
//! * a sniffer that claims the mutant has a parser that accepts it.

use bytes::Bytes;
use df_protocols::inference::{infer_protocol, parse_message};
use df_protocols::{amqp, dns, dubbo, http1, http2, kafka, mqtt, mysql, redis};
use df_types::{L7Protocol, OtelSpanId, OtelTraceId, XRequestId};
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// A protocol and its sniffer; `parse_message` is its parser.
type Sniffer = (L7Protocol, fn(&[u8]) -> bool);

/// Every built-in protocol's row.
const SNIFFERS: [Sniffer; 9] = [
    (L7Protocol::Dubbo, dubbo::sniff),
    (L7Protocol::Amqp, amqp::sniff),
    (L7Protocol::Http2, http2::sniff),
    (L7Protocol::Http1, http1::sniff),
    (L7Protocol::Redis, redis::sniff),
    (L7Protocol::Kafka, kafka::sniff),
    (L7Protocol::Mqtt, mqtt::sniff),
    (L7Protocol::Dns, dns::sniff),
    (L7Protocol::Mysql, mysql::sniff),
];

/// Every builder of every codec, with the tracing headers the agent looks
/// for where the protocol carries them.
fn seeds() -> Vec<(L7Protocol, Bytes)> {
    let trace = [
        (
            "traceparent".to_string(),
            format!(
                "00-{}-{}-01",
                OtelTraceId(7 << 64 | 9).to_hex(),
                OtelSpanId(5).to_hex()
            ),
        ),
        (
            "b3".to_string(),
            format!(
                "{}-{}-1-{}",
                OtelTraceId(1).to_hex(),
                OtelSpanId(2).to_hex(),
                OtelSpanId(3).to_hex()
            ),
        ),
        ("x-request-id".to_string(), XRequestId(0xabc).to_wire()),
    ];
    vec![
        (
            L7Protocol::Dubbo,
            dubbo::request(7, "ProductService", "list"),
        ),
        (
            L7Protocol::Dubbo,
            dubbo::response(7, dubbo::STATUS_OK, b"[]"),
        ),
        (
            L7Protocol::Dubbo,
            dubbo::response(8, dubbo::STATUS_SERVER_ERROR, b""),
        ),
        (L7Protocol::Amqp, amqp::publish(1, "orders", b"m")),
        (L7Protocol::Amqp, amqp::ack(1)),
        (L7Protocol::Amqp, amqp::get(2, "orders")),
        (L7Protocol::Amqp, amqp::get_ok(2, b"m")),
        (L7Protocol::Amqp, amqp::get_empty(2)),
        (
            L7Protocol::Http2,
            http2::request(1, "GET", "/reviews", &trace),
        ),
        (L7Protocol::Http2, http2::response(1, 503, &trace)),
        (
            L7Protocol::Http2,
            http2::with_preface(http2::request(3, "POST", "/", &[])),
        ),
        (
            L7Protocol::Http1,
            http1::request("GET", "/reviews/1", &trace, b""),
        ),
        (
            L7Protocol::Http1,
            http1::request("POST", "/orders", &[], &[0xff, 0, 0x80]),
        ),
        (L7Protocol::Http1, http1::response(200, &trace, b"{}")),
        (L7Protocol::Http1, http1::response(404, &[], b"")),
        (L7Protocol::Redis, redis::command(&["GET", "k"])),
        (L7Protocol::Redis, redis::ok()),
        (L7Protocol::Redis, redis::bulk(b"v")),
        (L7Protocol::Redis, redis::nil()),
        (L7Protocol::Redis, redis::error("ERR x")),
        (
            L7Protocol::Kafka,
            kafka::request(kafka::API_PRODUCE, 3, "client"),
        ),
        (
            L7Protocol::Kafka,
            kafka::request(kafka::API_METADATA, 4, ""),
        ),
        (L7Protocol::Kafka, kafka::response(3, 0)),
        (L7Protocol::Kafka, kafka::response(4, 6)),
        (L7Protocol::Mqtt, mqtt::connect("dev-1")),
        (L7Protocol::Mqtt, mqtt::connack(5)),
        (L7Protocol::Mqtt, mqtt::publish(9, "t/1", b"p")),
        (L7Protocol::Mqtt, mqtt::puback(9)),
        (L7Protocol::Mqtt, mqtt::subscribe(10, "t/#")),
        (L7Protocol::Mqtt, mqtt::suback(10)),
        (L7Protocol::Mqtt, mqtt::pingreq()),
        (L7Protocol::Mqtt, mqtt::pingresp()),
        (L7Protocol::Dns, dns::query(11, "reviews.default.svc")),
        (
            L7Protocol::Dns,
            dns::answer(11, "reviews.default.svc", dns::RCODE_OK),
        ),
        (L7Protocol::Dns, dns::answer(12, "x", dns::RCODE_NXDOMAIN)),
        (L7Protocol::Mysql, mysql::query("SELECT * FROM t")),
        (L7Protocol::Mysql, mysql::ping()),
        (L7Protocol::Mysql, mysql::ok(1)),
        (L7Protocol::Mysql, mysql::err(1213, "Deadlock")),
        (L7Protocol::Mysql, mysql::result_set(3)),
    ]
}

const EXTREMES: [u8; 6] = [0x00, 0x01, 0x7f, 0x80, 0xfe, 0xff];

/// Every mutant of `seed`, handed to `check` one at a time.
fn mutate(seed: &[u8], others: &[Bytes], check: &mut impl FnMut(&[u8])) {
    let mut buf = Vec::with_capacity(seed.len() * 2);
    for len in 0..=seed.len() {
        check(&seed[..len]);
    }
    for at in 0..seed.len() {
        let mut with = |f: &dyn Fn(&mut Vec<u8>)| {
            buf.clear();
            buf.extend_from_slice(seed);
            f(&mut buf);
            check(&buf);
        };
        for bit in 0..8 {
            with(&|b| b[at] ^= 1 << bit);
        }
        for x in EXTREMES {
            with(&|b| b[at] = x);
            with(&|b| b.insert(at, x));
        }
        with(&|b| {
            b.remove(at);
        });
    }
    for other in others {
        for cut in 0..=seed.len() {
            for from in [0, other.len() / 2, other.len().saturating_sub(2)] {
                buf.clear();
                buf.extend_from_slice(&seed[..cut]);
                buf.extend_from_slice(&other[from.min(other.len())..]);
                check(&buf);
            }
        }
    }
}

/// Both properties on one payload, naming the payload on failure.
fn check_payload(payload: &[u8], origin: &str) {
    for (protocol, sniff) in SNIFFERS {
        let parsed = catch_unwind(AssertUnwindSafe(|| {
            parse_message(protocol, payload).is_some()
        }));
        let Ok(parsed) = parsed else {
            panic!("{protocol} parser panicked on {payload:02x?} ({origin})");
        };
        let claimed = sniff(payload);
        assert!(
            !claimed || parsed,
            "{protocol} sniffer claimed what its parser rejects: {payload:02x?} ({origin})"
        );
    }
}

#[test]
fn every_codec_has_seeds_and_the_table_is_complete() {
    let mut listed: Vec<String> = SNIFFERS.iter().map(|(p, ..)| p.to_string()).collect();
    let mut all: Vec<String> = L7Protocol::ALL.iter().map(L7Protocol::to_string).collect();
    listed.sort();
    all.sort();
    assert_eq!(listed, all);
    let seeds = seeds();
    for (protocol, sniff) in SNIFFERS {
        let own: Vec<&Bytes> = seeds
            .iter()
            .filter(|(p, _)| *p == protocol)
            .map(|(_, s)| s)
            .collect();
        assert!(!own.is_empty(), "{protocol} has no seeds");
        for seed in own {
            assert!(sniff(seed), "{protocol} does not claim its own {seed:02x?}");
            let parsed = parse_message(protocol, seed);
            assert!(parsed.is_some(), "{protocol} rejects its own {seed:02x?}");
            assert_eq!(infer_protocol(seed), Some(protocol), "{seed:02x?}");
        }
    }
}

#[test]
fn mutants_of_every_codec_parse_totally_and_consistently() {
    let seeds = seeds();
    let payloads: Vec<Bytes> = seeds.iter().map(|(_, s)| s.clone()).collect();
    let mut mutants = 0u64;
    for (protocol, seed) in &seeds {
        let origin = format!("a mutant of a {protocol} seed");
        mutate(seed, &payloads, &mut |m| {
            mutants += 1;
            check_payload(m, &origin);
        });
    }
    assert!(mutants > 200_000, "only {mutants} mutants");
}

proptest! {
    /// No parser panics on arbitrary bytes, and inference never claims a
    /// protocol it then fails to parse.
    #[test]
    fn inference_is_total_and_self_consistent(payload in proptest::collection::vec(any::<u8>(), 0..512)) {
        if let Some(proto) = infer_protocol(&payload) {
            // A sniffed protocol must parse its own bytes (no half-claims).
            let parsed = parse_message(proto, &payload);
            prop_assert!(
                parsed.is_some(),
                "sniffer claimed {proto} but parser rejected"
            );
        }
        // Every concrete parser is panic-free on arbitrary input.
        for proto in L7Protocol::ALL {
            let _ = parse_message(proto, &payload);
        }
    }
}
