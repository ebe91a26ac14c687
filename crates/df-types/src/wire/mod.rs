//! **DFW** (magic `DFW1`, version 2) — the binary span-batch wire format.
//!
//! Agents ship span batches to trace servers as compact bytes, not
//! constructed structs: the paper's millions-of-spans/sec-per-node ingest
//! rate depends on a cheap decode path feeding the columnar smart-encoded
//! store. DFW is that byte layout. The normative spec lives in
//! `docs/WIRE_FORMAT.md`; this module is the reference implementation, and
//! its test `wire_format_doc_matches_the_codec` asserts the doc's magic,
//! version, field order and presence bits match [`WIRE_MAGIC`],
//! [`WIRE_VERSION`], [`FIELD_ORDER`] and the `F_*` bits exactly.
//!
//! ## Frame shape
//!
//! ```text
//! "DFW1" | version u8 | span_count varint | tag dictionary
//!        | flow_count | metrics_count | flow table | metrics table | span records
//! ```
//!
//! * All multi-byte integers are **LEB128 varints** unless a field is
//!   documented as fixed-width (the five-tuple and the resource-tag
//!   bitmap are little-endian fixed-width; see `docs/WIRE_FORMAT.md`).
//! * The **tag dictionary** interns every string the batch carries
//!   (endpoints, interface names, process names, custom tag keys and
//!   values) once, at encode time. Records reference strings by dictionary
//!   id, so repeated strings cost one varint per use and arrive server-side
//!   as small dense integers — ready for the SmartInt tag columns without
//!   per-span string hashing (paper §3.4 smart encoding).
//! * The **flow table** holds each `(agent, node, flow_id, five_tuple)` a
//!   record names once, and the **metrics table** each distinct
//!   `FlowMetrics` snapshot; a record names each by a varint index, and a
//!   repeated X-Request-ID is a presence bit. Decoding copies a span's
//!   flow context and snapshot out of the tables, decoded once per batch.
//! * Each **span record** is a fixed field order ([`FIELD_ORDER`]): hot
//!   fixed-width routing/timestamp fields first, optional association keys
//!   behind a presence bitmap, variable-length tag and metric sections
//!   last. Decoding is branch-light forward parsing over `&[u8]` — no
//!   intermediate structs. A decoded span allocates its endpoint string
//!   and, when it has custom tags, their vector and strings. Process and
//!   interface names are shared: each dictionary entry a record names as
//!   one becomes one `Arc<str>`, the first time it is named, and every
//!   span of the batch naming it holds that `Arc`.
//!   [`WireBatch::decode_rows`] also moves each span into the `Arc<Span>` a
//!   store keeps as its row, so ingest makes one more allocation per span
//!   and no staging copy of the batch.
//!
//! Decoding never panics on hostile input: every failure is a structured
//! [`WireDecodeError`].
//!
//! ## Example
//!
//! ```
//! use df_types::span::{Span, TapSide};
//! use df_types::wire;
//!
//! let mut a = Span::synthetic(TapSide::ClientProcess, 1_000, 5_000);
//! a.endpoint = "GET /api/v1/products".into();
//! let b = Span::synthetic(TapSide::ServerProcess, 2_000, 4_000);
//!
//! let bytes = wire::encode_batch(&[a.clone(), b.clone()]);
//! assert_eq!(&bytes[..4], wire::WIRE_MAGIC);
//! assert_eq!(wire::peek_span_count(&bytes), Ok(2));
//!
//! let back = wire::decode_batch(&bytes).expect("well-formed batch");
//! assert_eq!(back, vec![a, b]);
//! ```

#![deny(
    clippy::indexing_slicing,
    clippy::arithmetic_side_effects,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::panic_in_result_fn,
    clippy::allow_attributes_without_reason
)]

mod decode;
mod dict;
mod encode;

pub(crate) use decode::Cursor;
pub use decode::{decode_batch, peek_span_count, WireBatch, WireSpanIter};
pub use encode::{encode_batch, WireEncoder};

use crate::span::TapSide;
use std::fmt;

/// Magic prefixing every DFW batch, whatever its version.
pub const WIRE_MAGIC: &[u8; 4] = b"DFW1";

/// Current wire-format version. Decoders reject any other value with
/// [`WireDecodeError::BadVersion`]; see `docs/WIRE_FORMAT.md` for the
/// evolution rules.
pub const WIRE_VERSION: u8 = 2;

/// Fixed prefix length: magic (4) + version (1). The span count that
/// follows is a varint, so the full header is variable-length.
pub const WIRE_PREFIX_LEN: usize = 5;

/// The span-record field order, normative and version-locked.
/// `docs/WIRE_FORMAT.md` lists exactly these fields in exactly this
/// order (a test checks it); changing it requires a version bump.
pub const FIELD_ORDER: [&str; 29] = [
    "span_id",
    "flags",
    "kind_tap",
    "flow",
    "interface",
    "l7_protocol",
    "endpoint",
    "req_time",
    "resp_delta",
    "status",
    "status_code",
    "req_bytes",
    "resp_bytes",
    "pid",
    "tid",
    "process_name",
    "systrace_id_req",
    "systrace_id_resp",
    "pseudo_thread_id",
    "x_request_id_req",
    "x_request_id_resp",
    "tcp_seq_req",
    "tcp_seq_resp",
    "otel_trace_id",
    "otel_span_id",
    "otel_parent_span_id",
    "resource_tags",
    "custom_tags",
    "flow_metrics",
];

// Presence-bitmap bits (the `flags` field). Bit set = field present.
const F_INTERFACE: u32 = 1 << 0;
const F_STATUS_CODE: u32 = 1 << 1;
const F_PID: u32 = 1 << 2;
const F_TID: u32 = 1 << 3;
const F_PROCESS_NAME: u32 = 1 << 4;
const F_SYSTRACE_REQ: u32 = 1 << 5;
const F_SYSTRACE_RESP: u32 = 1 << 6;
const F_PSEUDO_THREAD: u32 = 1 << 7;
const F_XREQ_REQ: u32 = 1 << 8;
const F_XREQ_RESP: u32 = 1 << 9;
const F_TCP_SEQ_REQ: u32 = 1 << 10;
const F_TCP_SEQ_RESP: u32 = 1 << 11;
const F_OTEL_TRACE: u32 = 1 << 12;
const F_OTEL_SPAN: u32 = 1 << 13;
const F_OTEL_PARENT: u32 = 1 << 14;
const F_FLOW_METRICS: u32 = 1 << 15;
/// `x_request_id_resp` equals `x_request_id_req` and is not written; valid
/// only with [`F_XREQ_REQ`] set and [`F_XREQ_RESP`] clear.
const F_XREQ_RESP_SAME: u32 = 1 << 16;
const F_KNOWN: u32 = (1 << 17) - 1;

/// [`TapSide`] variants indexed by [`TapSide::path_rank`] — the wire code.
const TAP_SIDES: [TapSide; 11] = [
    TapSide::ClientApp,
    TapSide::ClientProcess,
    TapSide::ClientPodNic,
    TapSide::ClientNodeNic,
    TapSide::ClientHypervisor,
    TapSide::Gateway,
    TapSide::ServerHypervisor,
    TapSide::ServerNodeNic,
    TapSide::ServerPodNic,
    TapSide::ServerProcess,
    TapSide::ServerApp,
];

/// Why a byte buffer failed to decode as a DFW batch.
///
/// Every variant carries enough context to point at the failing field;
/// none of the decode paths panic on hostile input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireDecodeError {
    /// The first four bytes are not [`WIRE_MAGIC`] (`DFW1`) — the buffer is
    /// not a span batch at all.
    BadMagic,
    /// The version byte is not [`WIRE_VERSION`]. Carries the byte found so
    /// callers can log what a peer is speaking.
    BadVersion {
        /// The version byte actually present.
        found: u8,
    },
    /// The buffer ended in the middle of the named field.
    Truncated {
        /// Name of the field being read when input ran out.
        context: &'static str,
    },
    /// A varint in the named field ran past its maximum encoded width or
    /// overflowed the field's integer type.
    BadVarint {
        /// Name of the field being read.
        context: &'static str,
    },
    /// A discriminant byte in the named field has no assigned meaning in
    /// this version.
    BadEnum {
        /// Name of the enum field.
        field: &'static str,
        /// The unassigned discriminant value.
        value: u8,
    },
    /// The tag-dictionary entry at `index` is not valid UTF-8.
    BadUtf8 {
        /// Index of the malformed dictionary entry.
        index: u32,
    },
    /// A record references tag-dictionary id `index`, but the dictionary
    /// only holds `len` entries.
    BadDictIndex {
        /// The out-of-range id.
        index: u32,
        /// Number of entries the dictionary declared.
        len: u32,
    },
    /// A record references entry `index` of the flow or metrics table,
    /// but the table only holds `len` entries.
    BadTableIndex {
        /// `"flows"` or `"metrics"`.
        table: &'static str,
        /// The out-of-range index.
        index: u32,
        /// Number of entries the table declared.
        len: u32,
    },
    /// A record's presence bitmap sets a reserved bit, or sets
    /// `F_XREQ_RESP_SAME` without `F_XREQ_REQ` or beside `F_XREQ_RESP`.
    BadFlags {
        /// The bitmap as read.
        flags: u32,
    },
    /// Bytes remain after the last declared span record.
    TrailingBytes {
        /// How many undeclared bytes follow the final record.
        extra: usize,
    },
}

impl fmt::Display for WireDecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireDecodeError::BadMagic => write!(f, "buffer does not start with DFW1"),
            WireDecodeError::BadVersion { found } => {
                write!(
                    f,
                    "unsupported DFW version {found} (expected {WIRE_VERSION})"
                )
            }
            WireDecodeError::Truncated { context } => {
                write!(f, "input truncated while reading {context}")
            }
            WireDecodeError::BadVarint { context } => {
                write!(f, "varint too wide for {context}")
            }
            WireDecodeError::BadEnum { field, value } => {
                write!(f, "unassigned discriminant {value} for {field}")
            }
            WireDecodeError::BadUtf8 { index } => {
                write!(f, "dictionary entry {index} is not valid UTF-8")
            }
            WireDecodeError::BadDictIndex { index, len } => {
                write!(
                    f,
                    "dictionary id {index} out of range (dictionary holds {len})"
                )
            }
            WireDecodeError::BadTableIndex { table, index, len } => {
                write!(f, "{table} index {index} out of range (table holds {len})")
            }
            WireDecodeError::BadFlags { flags } => {
                write!(f, "presence bitmap {flags:#x} is not valid in this version")
            }
            WireDecodeError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after the last span record")
            }
        }
    }
}

impl std::error::Error for WireDecodeError {}

// ---------------------------------------------------------------------------
// Varint primitives
// ---------------------------------------------------------------------------

pub(crate) fn put_varint_u64(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

pub(crate) fn put_varint_u128(out: &mut Vec<u8>, mut v: u128) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Zigzag-map a signed delta so small magnitudes of either sign encode
/// short. The response-time delta can be negative (a response-only
/// fragment re-aggregated against a late request may carry resp < req).
fn zigzag(n: i128) -> u128 {
    ((n << 1) ^ (n >> 127)) as u128
}

fn unzigzag(z: u128) -> i128 {
    ((z >> 1) as i128) ^ ((z & 1) as i128).wrapping_neg()
}

/// The `(number, name)` rows of the Markdown table between `doc`'s
/// `<!-- table:BEGIN -->` and `<!-- table:END -->` markers: each row's
/// first cell and the backticked name in its second. Header and
/// separator rows have no number and are skipped.
#[cfg(test)]
pub(crate) fn doc_table<'d>(doc: &'d str, table: &str) -> Vec<(u32, &'d str)> {
    let marker = |side: &str| format!("<!-- {table}:{side} -->");
    let (_, rest) = doc.split_once(&marker("BEGIN")).expect("BEGIN marker");
    let (rows, _) = rest.split_once(&marker("END")).expect("END marker");
    let row = |line: &'d str| {
        let mut cells = line.split('|').skip(1).map(str::trim);
        Some((cells.next()?.parse().ok()?, cells.next()?.trim_matches('`')))
    };
    rows.lines().filter_map(row).collect()
}

#[cfg(test)]
#[allow(
    clippy::arithmetic_side_effects,
    clippy::unreachable,
    reason = "test code; clippy.toml's allow-*-in-tests covers the other four"
)]
mod tests {
    use super::*;
    use crate::ids::{
        FlowId, OtelSpanId, OtelTraceId, Pid, PseudoThreadId, SpanId, SysTraceId, Tid, XRequestId,
    };
    use crate::l7::L7Protocol;
    use crate::metrics::FlowMetrics;
    use crate::span::{Span, SpanKind, SpanStatus};
    use crate::time::DurationNs;
    use std::sync::Arc;

    /// Every presence bit, named as `docs/WIRE_FORMAT.md` names it. Their
    /// OR must be `F_KNOWN`, so a new bit cannot be left off this list.
    const PRESENCE_BITS: [(&str, u32); 17] = [
        ("F_INTERFACE", F_INTERFACE),
        ("F_STATUS_CODE", F_STATUS_CODE),
        ("F_PID", F_PID),
        ("F_TID", F_TID),
        ("F_PROCESS_NAME", F_PROCESS_NAME),
        ("F_SYSTRACE_REQ", F_SYSTRACE_REQ),
        ("F_SYSTRACE_RESP", F_SYSTRACE_RESP),
        ("F_PSEUDO_THREAD", F_PSEUDO_THREAD),
        ("F_XREQ_REQ", F_XREQ_REQ),
        ("F_XREQ_RESP", F_XREQ_RESP),
        ("F_TCP_SEQ_REQ", F_TCP_SEQ_REQ),
        ("F_TCP_SEQ_RESP", F_TCP_SEQ_RESP),
        ("F_OTEL_TRACE", F_OTEL_TRACE),
        ("F_OTEL_SPAN", F_OTEL_SPAN),
        ("F_OTEL_PARENT", F_OTEL_PARENT),
        ("F_FLOW_METRICS", F_FLOW_METRICS),
        ("F_XREQ_RESP_SAME", F_XREQ_RESP_SAME),
    ];

    /// The normative document agrees with the codec: magic, version, the
    /// whole field table and the whole presence-bit table. Encode and
    /// decode of each bit are checked by the round trips
    /// (`tests/wire_proptests.rs` sets every optional field).
    #[test]
    fn wire_format_doc_matches_the_codec() {
        let doc = include_str!("../../../../docs/WIRE_FORMAT.md");
        let magic = std::str::from_utf8(WIRE_MAGIC).unwrap();
        for line in [
            format!("**Magic:** `{magic}`"),
            format!("**Version:** `{WIRE_VERSION}`"),
        ] {
            assert!(doc.contains(&line), "WIRE_FORMAT.md lacks {line:?}");
        }
        let fields: Vec<(u32, &str)> = (0..).zip(FIELD_ORDER).collect();
        assert_eq!(doc_table(doc, "FIELD_ORDER"), fields);
        let bits = PRESENCE_BITS.map(|(name, bit)| (bit.trailing_zeros(), name));
        assert_eq!(doc_table(doc, "PRESENCE_BITS"), bits);
        let all = PRESENCE_BITS.iter().fold(0, |all, (_, bit)| all | bit);
        assert_eq!(all, F_KNOWN, "a presence bit is missing from PRESENCE_BITS");
    }

    fn rich_span() -> Span {
        let mut s = Span::synthetic(TapSide::Gateway, 5_000, 9_000);
        s.span_id = SpanId(42);
        s.kind = SpanKind::Net;
        s.capture.interface = Some("veth-ab12".into());
        s.l7_protocol = L7Protocol::Custom(7);
        s.endpoint = "SELECT products".into();
        s.status = SpanStatus::ServerError;
        s.status_code = Some(503);
        s.req_bytes = u64::MAX;
        s.resp_bytes = 1;
        s.pid = Some(Pid(4242));
        s.tid = Some(Tid(4243));
        s.process_name = Some("mysqld".into());
        s.systrace_id_req = Some(SysTraceId(u64::MAX));
        s.systrace_id_resp = Some(SysTraceId(1));
        s.pseudo_thread_id = Some(PseudoThreadId(9));
        s.x_request_id_req = Some(XRequestId(u128::MAX));
        s.x_request_id_resp = Some(XRequestId(1));
        s.tcp_seq_req = Some(u32::MAX);
        s.tcp_seq_resp = Some(0);
        s.otel_trace_id = Some(OtelTraceId((u64::MAX as u128) + 1));
        s.otel_span_id = Some(OtelSpanId(77));
        s.otel_parent_span_id = Some(OtelSpanId(78));
        s.tags.resource.region_id = Some(3);
        s.tags.resource.pod_id = Some(1234);
        s.tags.custom = vec![
            ("team".into(), "checkout".into()),
            ("tier".into(), "checkout".into()),
        ];
        s.flow_metrics = Some(FlowMetrics {
            packets_tx: 10,
            packets_rx: 12,
            bytes_tx: 1000,
            bytes_rx: 2000,
            retransmissions: 1,
            resets: 0,
            zero_windows: 2,
            syn_retries: 0,
            rtt: DurationNs(250_000),
            srt: DurationNs(1_000_000),
            established: true,
        });
        s
    }

    #[test]
    fn round_trips_minimal_and_rich_spans() {
        let spans = vec![
            Span::synthetic(TapSide::ClientProcess, 1_000, 5_000),
            rich_span(),
        ];
        let bytes = encode_batch(&spans);
        assert_eq!(decode_batch(&bytes).expect("decodes"), spans);
    }

    /// The spans of one batch that name one process or interface share one
    /// allocation of it, and the rows `decode_rows` hands out equal the
    /// spans `decode_all` does after the same preparation.
    #[test]
    fn names_are_shared_within_a_batch() {
        let (a, mut b, mut c) = (rich_span(), rich_span(), rich_span());
        b.endpoint = "other".into();
        c.process_name = Some("postgres".into());
        let bytes = encode_batch(&[a, b, c]);
        let batch = WireBatch::parse(&bytes).expect("parses");
        let rows = batch.decode_rows(|s| s.req_bytes = 7).expect("decodes");
        let [a, b, c] = &rows[..] else {
            panic!("three rows");
        };
        let shared = |x: &Option<Arc<str>>, y: &Option<Arc<str>>| match (x, y) {
            (Some(x), Some(y)) => Arc::ptr_eq(x, y),
            _ => false,
        };
        assert!(shared(&a.process_name, &b.process_name));
        assert!(shared(&a.capture.interface, &c.capture.interface));
        assert!(!shared(&a.process_name, &c.process_name));
        let mut spans = batch.decode_all().expect("decodes");
        spans.iter_mut().for_each(|s| s.req_bytes = 7);
        assert!(rows.iter().map(|r| &**r).eq(spans.iter()));
    }

    #[test]
    fn round_trips_empty_batch() {
        let bytes = encode_batch::<Span>(&[]);
        // Span count and the three table counts, each a zero byte.
        assert_eq!(bytes.len(), WIRE_PREFIX_LEN + 4);
        assert_eq!(decode_batch(&bytes).expect("decodes"), Vec::<Span>::new());
        assert_eq!(peek_span_count(&bytes), Ok(0));
    }

    #[test]
    fn dictionary_interns_repeated_strings_once() {
        let mut a = rich_span();
        a.endpoint = "GET /".into();
        let batch = encode_batch(&[a.clone(), a.clone(), a]);
        let parsed = WireBatch::parse(&batch).expect("parses");
        // "GET /", "veth-ab12", "mysqld", "team", "checkout", "tier".
        assert_eq!(parsed.dict().len(), 6);
        assert_eq!(
            parsed.dict().filter(|s| *s == "checkout").count(),
            1,
            "repeated value interned once"
        );
    }

    #[test]
    fn resp_before_req_survives() {
        // Response-only fragments can carry resp_time < req_time.
        let mut s = Span::synthetic(TapSide::ServerProcess, 9_000, 2_000);
        s.status = SpanStatus::ResponseOnly;
        let back = decode_batch(&encode_batch(&[s.clone()])).expect("decodes");
        assert_eq!(back, vec![s]);
    }

    #[test]
    fn extreme_times_survive() {
        for (req, resp) in [(0, u64::MAX), (u64::MAX, 0), (u64::MAX, u64::MAX)] {
            let s = Span::synthetic(TapSide::ClientApp, req, resp);
            let one = std::slice::from_ref(&s);
            assert_eq!(decode_batch(&encode_batch(one)).unwrap(), vec![s]);
        }
    }

    #[test]
    fn rejects_resp_delta_past_the_time_range() {
        // req_time u64::MAX, then a delta of i128::MAX: the sum is past
        // every TimeNs and past i128 too — an error, not an overflow.
        let span = Span::synthetic(TapSide::ClientProcess, u64::MAX, u64::MAX);
        let bytes = encode_batch(&[span]);
        let req_then_zero_delta = [[0xff; 9].as_slice(), &[0x01, 0x00]].concat();
        let at = bytes
            .windows(11)
            .position(|w| w == req_then_zero_delta)
            .expect("req_time u64::MAX, then delta 0");
        let mut delta = Vec::new();
        put_varint_u128(&mut delta, zigzag(i128::MAX));
        let mut bad = bytes.clone();
        bad.splice(at + 10..at + 11, delta);
        assert_eq!(
            decode_batch(&bad),
            Err(WireDecodeError::BadVarint {
                context: "resp_delta"
            })
        );
    }

    #[test]
    fn rejects_bad_magic_version_and_truncation() {
        let bytes = encode_batch(&[rich_span()]);
        assert_eq!(decode_batch(&[]), Err(WireDecodeError::BadMagic));
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert_eq!(decode_batch(&bad), Err(WireDecodeError::BadMagic));
        // Version 1, the retired layout, and a future one.
        for found in [1, WIRE_VERSION + 1] {
            let mut vers = bytes.clone();
            vers[4] = found;
            assert_eq!(
                decode_batch(&vers),
                Err(WireDecodeError::BadVersion { found })
            );
        }
        for cut in 0..bytes.len() {
            let r = decode_batch(&bytes[..cut]);
            assert!(r.is_err(), "prefix of {cut} bytes must not decode");
        }
    }

    #[test]
    fn rejects_trailing_bytes() {
        let mut bytes = encode_batch(&[rich_span()]);
        bytes.push(0);
        assert_eq!(
            decode_batch(&bytes),
            Err(WireDecodeError::TrailingBytes { extra: 1 })
        );
    }

    /// A one-span batch of `span` and the offset of its record.
    fn one_record(span: &Span) -> (Vec<u8>, usize) {
        let bytes = encode_batch(std::slice::from_ref(span));
        let record = bytes.len() - WireBatch::parse(&bytes).unwrap().records.len();
        (bytes, record)
    }

    /// A synthetic span's record with its one-byte flags varint (bit 1
    /// alone) replaced by `flags`.
    fn with_flags(flags: u32) -> Vec<u8> {
        let (mut bytes, record) = one_record(&Span::synthetic(TapSide::ClientProcess, 1, 2));
        assert_eq!(bytes[record + 1], F_STATUS_CODE as u8);
        let mut varint = Vec::new();
        put_varint_u64(&mut varint, flags.into());
        bytes.splice(record + 1..record + 2, varint);
        bytes
    }

    /// Each index is checked against its own table, including a flow index
    /// that would land on the metrics table's first entry.
    #[test]
    fn rejects_an_index_past_its_table() {
        let mut span = Span::synthetic(TapSide::ClientProcess, 1, 2);
        span.flow_metrics = Some(FlowMetrics::default());
        // span_id(1) flags(3) kind_tap(1) flow(1) l7(1) endpoint(1) ...
        // metrics(1), the record's last field.
        let (bytes, record) = one_record(&span);
        let past = |at: usize, index: u8| {
            let mut bad = bytes.clone();
            assert_eq!(bad[at], 0);
            bad[at] = index;
            decode_batch(&bad)
        };
        let table = |table, index| WireDecodeError::BadTableIndex {
            table,
            index,
            len: 1,
        };
        assert_eq!(past(record + 5, 1), Err(table("flows", 1)));
        assert_eq!(past(record + 5, 9), Err(table("flows", 9)));
        assert_eq!(past(bytes.len() - 1, 1), Err(table("metrics", 1)));
        assert_eq!(
            past(record + 7, 9),
            Err(WireDecodeError::BadDictIndex { index: 9, len: 1 })
        );
    }

    /// A table count the rest of the frame cannot hold is refused before
    /// anything is sized by it: `u32::MAX` slots would not fit in memory.
    #[test]
    fn rejects_a_table_count_past_the_bytes_left() {
        for counts in [
            [0xff, 0xff, 0xff, 0xff, 0x0f, 0x00],
            [0x00, 0xff, 0xff, 0xff, 0xff, 0x0f],
        ] {
            let frame = [&WIRE_MAGIC[..], &[WIRE_VERSION, 0, 0], &counts, &[0; 64]].concat();
            assert_eq!(
                decode_batch(&frame),
                Err(WireDecodeError::Truncated { context: "tables" })
            );
        }
    }

    #[test]
    fn rejects_reserved_and_contradictory_flags() {
        let same = F_XREQ_RESP_SAME | F_STATUS_CODE;
        for flags in [
            1 << 17 | F_STATUS_CODE,
            same,
            same | F_XREQ_REQ | F_XREQ_RESP,
        ] {
            assert_eq!(
                decode_batch(&with_flags(flags)),
                Err(WireDecodeError::BadFlags { flags })
            );
        }
    }

    /// Spans that share a flow, a metrics snapshot and a request id carry
    /// each once, and decode to what was encoded.
    #[test]
    fn shared_flows_snapshots_and_request_ids_are_written_once() {
        let mut spans = vec![rich_span(), rich_span(), rich_span()];
        spans[1].x_request_id_resp = spans[1].x_request_id_req;
        spans[2].flow_id = FlowId(9);
        let bytes = encode_batch(&spans);
        let batch = WireBatch::parse(&bytes).unwrap();
        assert_eq!((batch.tables.flows, batch.tables.metrics), (2, 1));
        assert_eq!(batch.decode_all().unwrap(), spans);
        let mut other = spans.clone();
        other[1].x_request_id_resp = Some(XRequestId(u128::MAX - 1));
        // The repeated id costs nothing; a different one its 19 bytes.
        assert_eq!(encode_batch(&other).len(), bytes.len() + 19);
    }

    #[test]
    fn rejects_unknown_resource_tag_bits() {
        // The bitmap starts where a record with `vpc_id` (bit 0) set first
        // differs from the same record without it.
        let plain = Span::synthetic(TapSide::ClientProcess, 1, 2);
        let mut tagged = plain.clone();
        tagged.tags.resource.vpc_id = Some(1);
        let mut bytes = encode_batch(&[plain]);
        let tagged = encode_batch(&[tagged]);
        let at = (bytes.iter().zip(&tagged)).position(|(a, b)| a != b);
        let at = at.expect("the bitmaps differ");
        assert_eq!(bytes[at..at + 2], [0x00, 0x00]);
        bytes[at + 1] = 0x10; // bit 12, the first reserved bit
        assert!(matches!(
            decode_batch(&bytes),
            Err(WireDecodeError::BadEnum {
                field: "resource_tags",
                ..
            })
        ));
    }

    #[test]
    fn varint_rejects_overwide_encodings() {
        let mut cur = Cursor::new(&[0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02]);
        assert_eq!(
            cur.varint_u64("x"),
            Err(WireDecodeError::BadVarint { context: "x" })
        );
        let mut cur = Cursor::new(&[0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01]);
        assert_eq!(cur.varint_u64("x"), Ok(u64::MAX));
        let mut cur = Cursor::new(&[0x80]);
        assert_eq!(
            cur.varint_u64("x"),
            Err(WireDecodeError::Truncated { context: "x" })
        );
    }

    #[test]
    fn zigzag_round_trips_extremes() {
        for n in [
            0i128,
            -1,
            1,
            i64::MAX as i128,
            -(u64::MAX as i128),
            u64::MAX as i128,
        ] {
            assert_eq!(unzigzag(zigzag(n)), n);
        }
    }

    #[test]
    fn peek_span_count_matches_header() {
        let spans: Vec<Span> = (0..300)
            .map(|i| Span::synthetic(TapSide::ClientProcess, i, i + 1))
            .collect();
        let bytes = encode_batch(&spans);
        assert_eq!(peek_span_count(&bytes), Ok(300));
        assert_eq!(
            peek_span_count(b"DFW1"),
            Err(WireDecodeError::Truncated { context: "version" })
        );
    }

    #[test]
    fn streaming_iterator_matches_decode_all() {
        let spans = vec![rich_span(), Span::synthetic(TapSide::ClientApp, 1, 2)];
        let bytes = encode_batch(&spans);
        let batch = WireBatch::parse(&bytes).unwrap();
        let streamed: Vec<Span> = batch.spans().map(|r| r.unwrap()).collect();
        assert_eq!(streamed, spans);
        assert_eq!(batch.decode_all().unwrap(), spans);
    }
}
