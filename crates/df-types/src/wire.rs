//! **DFW1** — the binary span-batch wire format.
//!
//! Agents ship span batches to trace servers as compact bytes, not
//! constructed structs: the paper's millions-of-spans/sec-per-node ingest
//! rate depends on a cheap decode path feeding the columnar smart-encoded
//! store. DFW1 is that byte layout. The normative spec lives in
//! `docs/WIRE_FORMAT.md`; this module is the reference implementation, and
//! its test `wire_format_doc_matches_the_codec` asserts the doc's magic,
//! version, field order and presence bits match [`WIRE_MAGIC`],
//! [`WIRE_VERSION`], [`FIELD_ORDER`] and the `F_*` bits exactly.
//!
//! ## Frame shape
//!
//! ```text
//! "DFW1" | version u8 | span_count varint | tag dictionary | span records
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
//! * Each **span record** is a fixed field order ([`FIELD_ORDER`]): hot
//!   fixed-width routing/timestamp fields first, optional association keys
//!   behind a presence bitmap, variable-length tag and metric sections
//!   last. Decoding is branch-light forward parsing over `&[u8]` — no
//!   intermediate structs, no per-span allocation beyond the `Span` being
//!   materialised.
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

use crate::ids::{
    AgentId, FlowId, NodeId, OtelSpanId, OtelTraceId, Pid, PseudoThreadId, SpanId, SysTraceId, Tid,
    XRequestId,
};
use crate::l7::L7Protocol;
use crate::metrics::FlowMetrics;
use crate::net::{FiveTuple, TransportProtocol};
use crate::span::{CapturePoint, Span, SpanKind, SpanStatus, TapSide};
use crate::tags::{ResourceTags, TagSet};
use crate::time::{DurationNs, TimeNs};
use std::collections::HashMap;
use std::fmt;
use std::net::Ipv4Addr;

/// Magic prefixing every DFW1 batch.
pub const WIRE_MAGIC: &[u8; 4] = b"DFW1";

/// Current wire-format version. Decoders reject any other value with
/// [`WireDecodeError::BadVersion`]; see `docs/WIRE_FORMAT.md` for the
/// evolution rules.
pub const WIRE_VERSION: u8 = 1;

/// Fixed prefix length: magic (4) + version (1). The span count that
/// follows is a varint, so the full header is variable-length.
pub const WIRE_PREFIX_LEN: usize = 5;

/// The span-record field order, normative and version-locked.
/// `docs/WIRE_FORMAT.md` lists exactly these fields in exactly this
/// order (a test checks it); changing it requires a version bump.
pub const FIELD_ORDER: [&str; 32] = [
    "span_id",
    "flags",
    "kind_tap",
    "node",
    "interface",
    "agent",
    "flow_id",
    "five_tuple",
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
const F_KNOWN: u32 = (1 << 16) - 1;

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

/// Why a byte buffer failed to decode as a DFW1 batch.
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
                    "unsupported DFW1 version {found} (expected {WIRE_VERSION})"
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

// ---------------------------------------------------------------------------
// Encoder
// ---------------------------------------------------------------------------

/// Incremental DFW1 encoder: push spans one at a time, interning every
/// string into the batch dictionary, then [`WireEncoder::finish`] to
/// assemble the frame. Encoding is infallible by construction — every
/// `Span` value has exactly one encoding.
///
/// For the common whole-slice case use [`encode_batch`].
#[derive(Debug, Default)]
pub struct WireEncoder {
    dict: Vec<String>,
    index: HashMap<String, u32>,
    records: Vec<u8>,
    count: u64,
}

impl WireEncoder {
    /// An empty encoder.
    pub fn new() -> WireEncoder {
        WireEncoder::default()
    }

    /// Spans pushed so far.
    pub fn span_count(&self) -> u64 {
        self.count
    }

    /// Whether any span has been pushed.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    fn intern(&mut self, s: &str) -> u32 {
        if let Some(&id) = self.index.get(s) {
            return id;
        }
        let id = self.dict.len() as u32;
        self.dict.push(s.to_owned());
        self.index.insert(s.to_owned(), id);
        id
    }

    /// Append one span record, interning its strings.
    pub fn push(&mut self, span: &Span) {
        self.count = self.count.saturating_add(1);

        let mut flags = 0u32;
        if span.capture.interface.is_some() {
            flags |= F_INTERFACE;
        }
        if span.status_code.is_some() {
            flags |= F_STATUS_CODE;
        }
        if span.pid.is_some() {
            flags |= F_PID;
        }
        if span.tid.is_some() {
            flags |= F_TID;
        }
        if span.process_name.is_some() {
            flags |= F_PROCESS_NAME;
        }
        if span.systrace_id_req.is_some() {
            flags |= F_SYSTRACE_REQ;
        }
        if span.systrace_id_resp.is_some() {
            flags |= F_SYSTRACE_RESP;
        }
        if span.pseudo_thread_id.is_some() {
            flags |= F_PSEUDO_THREAD;
        }
        if span.x_request_id_req.is_some() {
            flags |= F_XREQ_REQ;
        }
        if span.x_request_id_resp.is_some() {
            flags |= F_XREQ_RESP;
        }
        if span.tcp_seq_req.is_some() {
            flags |= F_TCP_SEQ_REQ;
        }
        if span.tcp_seq_resp.is_some() {
            flags |= F_TCP_SEQ_RESP;
        }
        if span.otel_trace_id.is_some() {
            flags |= F_OTEL_TRACE;
        }
        if span.otel_span_id.is_some() {
            flags |= F_OTEL_SPAN;
        }
        if span.otel_parent_span_id.is_some() {
            flags |= F_OTEL_PARENT;
        }
        if span.flow_metrics.is_some() {
            flags |= F_FLOW_METRICS;
        }

        // Interning must happen before borrowing `records` mutably below.
        let interface_id = span.capture.interface.as_deref().map(|s| self.intern(s));
        let endpoint_id = self.intern(&span.endpoint);
        let process_name_id = span.process_name.as_deref().map(|s| self.intern(s));
        let custom_ids: Vec<(u32, u32)> = span
            .tags
            .custom
            .iter()
            .map(|(k, v)| (self.intern(k), self.intern(v)))
            .collect();

        let out = &mut self.records;
        put_varint_u64(out, span.span_id.0);
        put_varint_u64(out, flags as u64);
        let kind_code = match span.kind {
            SpanKind::Sys => 0u8,
            SpanKind::Net => 1,
            SpanKind::App => 2,
        };
        out.push((kind_code << 4) | span.capture.tap_side.path_rank());
        put_varint_u64(out, span.capture.node.0 as u64);
        if let Some(id) = interface_id {
            put_varint_u64(out, id as u64);
        }
        put_varint_u64(out, span.agent.0 as u64);
        put_varint_u64(out, span.flow_id.0);
        let ft = &span.five_tuple;
        out.extend_from_slice(&ft.src_ip.octets());
        out.extend_from_slice(&ft.dst_ip.octets());
        out.extend_from_slice(&ft.src_port.to_le_bytes());
        out.extend_from_slice(&ft.dst_port.to_le_bytes());
        out.push(match ft.protocol {
            TransportProtocol::Tcp => 0,
            TransportProtocol::Udp => 1,
        });
        match span.l7_protocol {
            L7Protocol::Http1 => out.push(0),
            L7Protocol::Http2 => out.push(1),
            L7Protocol::Dns => out.push(2),
            L7Protocol::Redis => out.push(3),
            L7Protocol::Mysql => out.push(4),
            L7Protocol::Kafka => out.push(5),
            L7Protocol::Mqtt => out.push(6),
            L7Protocol::Dubbo => out.push(7),
            L7Protocol::Amqp => out.push(8),
            L7Protocol::Tls => out.push(9),
            L7Protocol::Unknown => out.push(10),
            L7Protocol::Custom(slot) => {
                out.push(11);
                out.push(slot);
            }
        }
        put_varint_u64(out, endpoint_id as u64);
        put_varint_u64(out, span.req_time.0);
        let delta = i128::from(span.resp_time.0).saturating_sub(i128::from(span.req_time.0));
        put_varint_u128(out, zigzag(delta));
        out.push(match span.status {
            SpanStatus::Ok => 0,
            SpanStatus::ClientError => 1,
            SpanStatus::ServerError => 2,
            SpanStatus::Incomplete => 3,
            SpanStatus::ResponseOnly => 4,
        });
        if let Some(code) = span.status_code {
            put_varint_u64(out, code as u64);
        }
        put_varint_u64(out, span.req_bytes);
        put_varint_u64(out, span.resp_bytes);
        if let Some(pid) = span.pid {
            put_varint_u64(out, pid.0 as u64);
        }
        if let Some(tid) = span.tid {
            put_varint_u64(out, tid.0 as u64);
        }
        if let Some(id) = process_name_id {
            put_varint_u64(out, id as u64);
        }
        if let Some(v) = span.systrace_id_req {
            put_varint_u64(out, v.0);
        }
        if let Some(v) = span.systrace_id_resp {
            put_varint_u64(out, v.0);
        }
        if let Some(v) = span.pseudo_thread_id {
            put_varint_u64(out, v.0);
        }
        if let Some(v) = span.x_request_id_req {
            put_varint_u128(out, v.0);
        }
        if let Some(v) = span.x_request_id_resp {
            put_varint_u128(out, v.0);
        }
        if let Some(v) = span.tcp_seq_req {
            put_varint_u64(out, v as u64);
        }
        if let Some(v) = span.tcp_seq_resp {
            put_varint_u64(out, v as u64);
        }
        if let Some(v) = span.otel_trace_id {
            put_varint_u128(out, v.0);
        }
        if let Some(v) = span.otel_span_id {
            put_varint_u64(out, v.0);
        }
        if let Some(v) = span.otel_parent_span_id {
            put_varint_u64(out, v.0);
        }

        let rt = &span.tags.resource;
        let rt_fields = [
            rt.vpc_id,
            rt.ip,
            rt.region_id,
            rt.az_id,
            rt.subnet_id,
            rt.host_id,
            rt.cluster_id,
            rt.k8s_node_id,
            rt.namespace_id,
            rt.workload_id,
            rt.service_id,
            rt.pod_id,
        ];
        let mut rt_bits = 0u16;
        for (i, f) in rt_fields.iter().enumerate() {
            if f.is_some() {
                rt_bits |= 1 << i;
            }
        }
        out.extend_from_slice(&rt_bits.to_le_bytes());
        for f in rt_fields.into_iter().flatten() {
            put_varint_u64(out, f as u64);
        }

        put_varint_u64(out, custom_ids.len() as u64);
        for (k, v) in custom_ids {
            put_varint_u64(out, k as u64);
            put_varint_u64(out, v as u64);
        }

        if let Some(fm) = &span.flow_metrics {
            put_varint_u64(out, fm.packets_tx);
            put_varint_u64(out, fm.packets_rx);
            put_varint_u64(out, fm.bytes_tx);
            put_varint_u64(out, fm.bytes_rx);
            put_varint_u64(out, fm.retransmissions);
            put_varint_u64(out, fm.resets);
            put_varint_u64(out, fm.zero_windows);
            put_varint_u64(out, fm.syn_retries);
            put_varint_u64(out, fm.rtt.0);
            put_varint_u64(out, fm.srt.0);
            out.push(fm.established as u8);
        }
    }

    /// Assemble the frame: magic, version, span count, tag dictionary,
    /// then the accumulated records.
    pub fn finish(self) -> Vec<u8> {
        // Capacity estimate only — saturating so a pathological dictionary
        // can at worst under-reserve, never wrap.
        let dict_bytes: usize = self
            .dict
            .iter()
            .map(|s| s.len().saturating_add(5))
            .fold(0usize, usize::saturating_add);
        let mut out = Vec::with_capacity(
            (WIRE_PREFIX_LEN + 10)
                .saturating_add(dict_bytes)
                .saturating_add(self.records.len()),
        );
        out.extend_from_slice(WIRE_MAGIC);
        out.push(WIRE_VERSION);
        put_varint_u64(&mut out, self.count);
        put_varint_u64(&mut out, self.dict.len() as u64);
        for s in &self.dict {
            put_varint_u64(&mut out, s.len() as u64);
            out.extend_from_slice(s.as_bytes());
        }
        out.extend_from_slice(&self.records);
        out
    }
}

/// Encode a slice of spans as one DFW1 batch.
pub fn encode_batch(spans: &[Span]) -> Vec<u8> {
    let mut enc = WireEncoder::new();
    for span in spans {
        enc.push(span);
    }
    enc.finish()
}

// ---------------------------------------------------------------------------
// Decoder
// ---------------------------------------------------------------------------

#[derive(Clone)]
pub(crate) struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Cursor<'a> {
        Cursor { buf, pos: 0 }
    }

    pub(crate) fn remaining(&self) -> usize {
        self.buf.len().saturating_sub(self.pos)
    }

    /// Everything after the cursor (empty when exhausted).
    pub(crate) fn rest(&self) -> &'a [u8] {
        self.buf.get(self.pos..).unwrap_or(&[])
    }

    pub(crate) fn u8(&mut self, context: &'static str) -> Result<u8, WireDecodeError> {
        match self.buf.get(self.pos) {
            Some(&b) => {
                self.pos = self.pos.saturating_add(1);
                Ok(b)
            }
            None => Err(WireDecodeError::Truncated { context }),
        }
    }

    pub(crate) fn take(
        &mut self,
        n: usize,
        context: &'static str,
    ) -> Result<&'a [u8], WireDecodeError> {
        let end = self
            .pos
            .checked_add(n)
            .ok_or(WireDecodeError::Truncated { context })?;
        let out = self
            .buf
            .get(self.pos..end)
            .ok_or(WireDecodeError::Truncated { context })?;
        self.pos = end;
        Ok(out)
    }

    /// LEB128 decode with a bit-width cap; rejects encodings that shift
    /// significant bits past `max_bits`.
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "shift < max_bits <= 128 at both sites, checked first; a saturating \
                  add in this loop made DFW1 decode measurably slower"
    )]
    pub(crate) fn varint(
        &mut self,
        max_bits: u32,
        context: &'static str,
    ) -> Result<u128, WireDecodeError> {
        let mut value: u128 = 0;
        let mut shift: u32 = 0;
        loop {
            let byte = self.u8(context)?;
            let chunk = (byte & 0x7f) as u128;
            if shift >= max_bits {
                return Err(WireDecodeError::BadVarint { context });
            }
            let headroom = max_bits - shift;
            if headroom < 7 && (chunk >> headroom) != 0 {
                return Err(WireDecodeError::BadVarint { context });
            }
            value |= chunk << shift;
            if byte & 0x80 == 0 {
                return Ok(value);
            }
            shift += 7;
        }
    }

    pub(crate) fn varint_u64(&mut self, context: &'static str) -> Result<u64, WireDecodeError> {
        Ok(self.varint(64, context)? as u64)
    }

    pub(crate) fn varint_u32(&mut self, context: &'static str) -> Result<u32, WireDecodeError> {
        Ok(self.varint(32, context)? as u32)
    }

    pub(crate) fn varint_u16(&mut self, context: &'static str) -> Result<u16, WireDecodeError> {
        Ok(self.varint(16, context)? as u16)
    }

    pub(crate) fn varint_u128(&mut self, context: &'static str) -> Result<u128, WireDecodeError> {
        self.varint(128, context)
    }
}

/// A parsed DFW1 batch borrowing the input buffer: header validated, tag
/// dictionary indexed zero-copy (`&str` slices into the input), span
/// records still raw bytes. Iterate with [`WireBatch::spans`] or
/// materialise everything with [`WireBatch::decode_all`].
pub struct WireBatch<'a> {
    count: u64,
    dict: Vec<&'a str>,
    records: &'a [u8],
}

impl<'a> WireBatch<'a> {
    /// Validate the magic, version, span count and tag dictionary.
    /// Record bytes are not touched yet; per-span errors surface from the
    /// iterator.
    pub fn parse(bytes: &'a [u8]) -> Result<WireBatch<'a>, WireDecodeError> {
        let mut cur = Cursor::new(bytes);
        if cur
            .take(4, "magic")
            .map_err(|_| WireDecodeError::BadMagic)?
            != WIRE_MAGIC
        {
            return Err(WireDecodeError::BadMagic);
        }
        let version = cur.u8("version")?;
        if version != WIRE_VERSION {
            return Err(WireDecodeError::BadVersion { found: version });
        }
        let count = cur.varint_u64("span_count")?;
        let dict_len = cur.varint_u32("dict_count")?;
        // Hostile counts cannot force huge allocations: capacity is capped
        // by what the remaining bytes could possibly hold (≥1 byte/entry).
        let mut dict = Vec::with_capacity((dict_len as usize).min(cur.remaining()));
        for index in 0..dict_len {
            let len = cur.varint_u32("dict_entry_len")? as usize;
            let raw = cur.take(len, "dict_entry")?;
            let s = std::str::from_utf8(raw).map_err(|_| WireDecodeError::BadUtf8 { index })?;
            dict.push(s);
        }
        Ok(WireBatch {
            count,
            dict,
            records: cur.rest(),
        })
    }

    /// Number of span records the header declares.
    pub fn span_count(&self) -> u64 {
        self.count
    }

    /// The batch's interned strings, in dictionary order (zero-copy).
    pub fn dict(&self) -> &[&'a str] {
        &self.dict
    }

    /// Iterate the span records. Each item is a decoded [`Span`] or the
    /// structured error that stopped the parse (after an error the
    /// iterator yields nothing further).
    pub fn spans(&self) -> WireSpanIter<'a, '_> {
        WireSpanIter {
            batch: self,
            cur: Cursor::new(self.records),
            remaining: self.count,
            poisoned: false,
        }
    }

    /// Decode every record, verifying no trailing bytes follow the last
    /// one.
    pub fn decode_all(&self) -> Result<Vec<Span>, WireDecodeError> {
        // Capacity capped by input size (a record is ≥28 bytes) so a
        // hostile count can't force a huge allocation.
        let mut out = Vec::with_capacity(
            (self.count as usize).min((self.records.len() / 28).saturating_add(1)),
        );
        let mut iter = self.spans();
        for span in iter.by_ref() {
            out.push(span?);
        }
        iter.finish()?;
        Ok(out)
    }

    fn dict_str(&self, index: u32) -> Result<&'a str, WireDecodeError> {
        self.dict
            .get(index as usize)
            .copied()
            .ok_or(WireDecodeError::BadDictIndex {
                index,
                len: self.dict.len() as u32,
            })
    }

    fn decode_record(&self, cur: &mut Cursor<'a>) -> Result<Span, WireDecodeError> {
        let span_id = SpanId(cur.varint_u64("span_id")?);
        let flags = cur.varint_u32("flags")?;
        if flags & !F_KNOWN != 0 {
            // Unknown presence bits would desynchronise the parse: the
            // fields they announce have widths this version cannot know.
            return Err(WireDecodeError::BadEnum {
                field: "flags",
                value: (flags >> 16) as u8,
            });
        }
        let kind_tap = cur.u8("kind_tap")?;
        let kind = match kind_tap >> 4 {
            0 => SpanKind::Sys,
            1 => SpanKind::Net,
            2 => SpanKind::App,
            v => {
                return Err(WireDecodeError::BadEnum {
                    field: "kind",
                    value: v,
                })
            }
        };
        let tap_side =
            *TAP_SIDES
                .get((kind_tap & 0x0f) as usize)
                .ok_or(WireDecodeError::BadEnum {
                    field: "tap_side",
                    value: kind_tap & 0x0f,
                })?;
        let node = NodeId(cur.varint_u32("node")?);
        let interface = if flags & F_INTERFACE != 0 {
            let id = cur.varint_u32("interface")?;
            Some(self.dict_str(id)?.to_owned())
        } else {
            None
        };
        let agent = AgentId(cur.varint_u32("agent")?);
        let flow_id = FlowId(cur.varint_u64("flow_id")?);
        let &[s0, s1, s2, s3, d0, d1, d2, d3, sp0, sp1, dp0, dp1, proto] =
            cur.take(13, "five_tuple")?
        else {
            return Err(WireDecodeError::Truncated {
                context: "five_tuple",
            });
        };
        let five_tuple = FiveTuple {
            src_ip: Ipv4Addr::new(s0, s1, s2, s3),
            dst_ip: Ipv4Addr::new(d0, d1, d2, d3),
            src_port: u16::from_le_bytes([sp0, sp1]),
            dst_port: u16::from_le_bytes([dp0, dp1]),
            protocol: match proto {
                0 => TransportProtocol::Tcp,
                1 => TransportProtocol::Udp,
                v => {
                    return Err(WireDecodeError::BadEnum {
                        field: "transport_protocol",
                        value: v,
                    })
                }
            },
        };
        let l7_protocol = match cur.u8("l7_protocol")? {
            0 => L7Protocol::Http1,
            1 => L7Protocol::Http2,
            2 => L7Protocol::Dns,
            3 => L7Protocol::Redis,
            4 => L7Protocol::Mysql,
            5 => L7Protocol::Kafka,
            6 => L7Protocol::Mqtt,
            7 => L7Protocol::Dubbo,
            8 => L7Protocol::Amqp,
            9 => L7Protocol::Tls,
            10 => L7Protocol::Unknown,
            11 => L7Protocol::Custom(cur.u8("l7_custom_slot")?),
            v => {
                return Err(WireDecodeError::BadEnum {
                    field: "l7_protocol",
                    value: v,
                })
            }
        };
        let endpoint = self.dict_str(cur.varint_u32("endpoint")?)?.to_owned();
        let req_time = TimeNs(cur.varint_u64("req_time")?);
        let delta = unzigzag(cur.varint_u128("resp_delta")?);
        let resp = i128::from(req_time.0)
            .checked_add(delta)
            .and_then(|t| u64::try_from(t).ok())
            .ok_or(WireDecodeError::BadVarint {
                context: "resp_delta",
            })?;
        let resp_time = TimeNs(resp);
        let status = match cur.u8("status")? {
            0 => SpanStatus::Ok,
            1 => SpanStatus::ClientError,
            2 => SpanStatus::ServerError,
            3 => SpanStatus::Incomplete,
            4 => SpanStatus::ResponseOnly,
            v => {
                return Err(WireDecodeError::BadEnum {
                    field: "status",
                    value: v,
                })
            }
        };
        let status_code = if flags & F_STATUS_CODE != 0 {
            Some(cur.varint_u16("status_code")?)
        } else {
            None
        };
        let req_bytes = cur.varint_u64("req_bytes")?;
        let resp_bytes = cur.varint_u64("resp_bytes")?;
        let pid = if flags & F_PID != 0 {
            Some(Pid(cur.varint_u32("pid")?))
        } else {
            None
        };
        let tid = if flags & F_TID != 0 {
            Some(Tid(cur.varint_u32("tid")?))
        } else {
            None
        };
        let process_name = if flags & F_PROCESS_NAME != 0 {
            let id = cur.varint_u32("process_name")?;
            Some(self.dict_str(id)?.to_owned())
        } else {
            None
        };
        let systrace_id_req = if flags & F_SYSTRACE_REQ != 0 {
            Some(SysTraceId(cur.varint_u64("systrace_id_req")?))
        } else {
            None
        };
        let systrace_id_resp = if flags & F_SYSTRACE_RESP != 0 {
            Some(SysTraceId(cur.varint_u64("systrace_id_resp")?))
        } else {
            None
        };
        let pseudo_thread_id = if flags & F_PSEUDO_THREAD != 0 {
            Some(PseudoThreadId(cur.varint_u64("pseudo_thread_id")?))
        } else {
            None
        };
        let x_request_id_req = if flags & F_XREQ_REQ != 0 {
            Some(XRequestId(cur.varint_u128("x_request_id_req")?))
        } else {
            None
        };
        let x_request_id_resp = if flags & F_XREQ_RESP != 0 {
            Some(XRequestId(cur.varint_u128("x_request_id_resp")?))
        } else {
            None
        };
        let tcp_seq_req = if flags & F_TCP_SEQ_REQ != 0 {
            Some(cur.varint_u32("tcp_seq_req")?)
        } else {
            None
        };
        let tcp_seq_resp = if flags & F_TCP_SEQ_RESP != 0 {
            Some(cur.varint_u32("tcp_seq_resp")?)
        } else {
            None
        };
        let otel_trace_id = if flags & F_OTEL_TRACE != 0 {
            Some(OtelTraceId(cur.varint_u128("otel_trace_id")?))
        } else {
            None
        };
        let otel_span_id = if flags & F_OTEL_SPAN != 0 {
            Some(OtelSpanId(cur.varint_u64("otel_span_id")?))
        } else {
            None
        };
        let otel_parent_span_id = if flags & F_OTEL_PARENT != 0 {
            Some(OtelSpanId(cur.varint_u64("otel_parent_span_id")?))
        } else {
            None
        };

        let &[rt0, rt1] = cur.take(2, "resource_tags")? else {
            return Err(WireDecodeError::Truncated {
                context: "resource_tags",
            });
        };
        let rt_bits = u16::from_le_bytes([rt0, rt1]);
        if rt_bits & !0x0fff != 0 {
            return Err(WireDecodeError::BadEnum {
                field: "resource_tags",
                value: (rt_bits >> 12) as u8,
            });
        }
        let mut rt_vals = [None; 12];
        for (i, v) in rt_vals.iter_mut().enumerate() {
            if rt_bits & (1 << i) != 0 {
                *v = Some(cur.varint_u32("resource_tag")?);
            }
        }
        let [vpc_id, ip, region_id, az_id, subnet_id, host_id, cluster_id, k8s_node_id, namespace_id, workload_id, service_id, pod_id] =
            rt_vals;
        let resource = ResourceTags {
            vpc_id,
            ip,
            region_id,
            az_id,
            subnet_id,
            host_id,
            cluster_id,
            k8s_node_id,
            namespace_id,
            workload_id,
            service_id,
            pod_id,
        };

        let custom_len = cur.varint_u32("custom_tag_count")? as usize;
        let mut custom =
            Vec::with_capacity(custom_len.min((cur.remaining() / 2).saturating_add(1)));
        for _ in 0..custom_len {
            let k = self.dict_str(cur.varint_u32("custom_tag_key")?)?;
            let v = self.dict_str(cur.varint_u32("custom_tag_value")?)?;
            custom.push((k.to_owned(), v.to_owned()));
        }

        let flow_metrics = if flags & F_FLOW_METRICS != 0 {
            let packets_tx = cur.varint_u64("fm_packets_tx")?;
            let packets_rx = cur.varint_u64("fm_packets_rx")?;
            let bytes_tx = cur.varint_u64("fm_bytes_tx")?;
            let bytes_rx = cur.varint_u64("fm_bytes_rx")?;
            let retransmissions = cur.varint_u64("fm_retransmissions")?;
            let resets = cur.varint_u64("fm_resets")?;
            let zero_windows = cur.varint_u64("fm_zero_windows")?;
            let syn_retries = cur.varint_u64("fm_syn_retries")?;
            let rtt = DurationNs(cur.varint_u64("fm_rtt")?);
            let srt = DurationNs(cur.varint_u64("fm_srt")?);
            let established = match cur.u8("fm_established")? {
                0 => false,
                1 => true,
                v => {
                    return Err(WireDecodeError::BadEnum {
                        field: "fm_established",
                        value: v,
                    })
                }
            };
            Some(FlowMetrics {
                packets_tx,
                packets_rx,
                bytes_tx,
                bytes_rx,
                retransmissions,
                resets,
                zero_windows,
                syn_retries,
                rtt,
                srt,
                established,
            })
        } else {
            None
        };

        Ok(Span {
            span_id,
            kind,
            capture: CapturePoint {
                node,
                tap_side,
                interface,
            },
            agent,
            flow_id,
            five_tuple,
            l7_protocol,
            endpoint,
            req_time,
            resp_time,
            status,
            status_code,
            req_bytes,
            resp_bytes,
            pid,
            tid,
            process_name,
            systrace_id_req,
            systrace_id_resp,
            pseudo_thread_id,
            x_request_id_req,
            x_request_id_resp,
            tcp_seq_req,
            tcp_seq_resp,
            otel_trace_id,
            otel_span_id,
            otel_parent_span_id,
            tags: TagSet { resource, custom },
            flow_metrics,
        })
    }
}

/// Streaming record decoder over a [`WireBatch`]; yields each [`Span`] (or
/// the error that stopped the parse) without materialising the whole
/// batch.
pub struct WireSpanIter<'a, 'b> {
    batch: &'b WireBatch<'a>,
    cur: Cursor<'a>,
    remaining: u64,
    poisoned: bool,
}

impl WireSpanIter<'_, '_> {
    /// After the final record, verify the record section is fully
    /// consumed. Call once the iterator returns `None`.
    pub fn finish(&self) -> Result<(), WireDecodeError> {
        if !self.poisoned && self.remaining == 0 && self.cur.remaining() != 0 {
            return Err(WireDecodeError::TrailingBytes {
                extra: self.cur.remaining(),
            });
        }
        Ok(())
    }
}

impl Iterator for WireSpanIter<'_, '_> {
    type Item = Result<Span, WireDecodeError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.poisoned || self.remaining == 0 {
            return None;
        }
        self.remaining = self.remaining.saturating_sub(1);
        match self.batch.decode_record(&mut self.cur) {
            Ok(span) => Some(Ok(span)),
            Err(e) => {
                self.poisoned = true;
                Some(Err(e))
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        if self.poisoned {
            return (0, Some(0));
        }
        // Lower bound stays 0: a truncated buffer may hold fewer records
        // than the header declares.
        (0, Some(self.remaining.min(usize::MAX as u64) as usize))
    }
}

/// Decode a whole DFW1 batch into spans. Convenience over
/// [`WireBatch::parse`] + [`WireBatch::decode_all`].
pub fn decode_batch(bytes: &[u8]) -> Result<Vec<Span>, WireDecodeError> {
    WireBatch::parse(bytes)?.decode_all()
}

/// Read the span count from a batch header without touching the
/// dictionary or records — how forwarding nodes account spans in a batch
/// they never decode.
pub fn peek_span_count(bytes: &[u8]) -> Result<u64, WireDecodeError> {
    let mut cur = Cursor::new(bytes);
    if cur
        .take(4, "magic")
        .map_err(|_| WireDecodeError::BadMagic)?
        != WIRE_MAGIC
    {
        return Err(WireDecodeError::BadMagic);
    }
    let version = cur.u8("version")?;
    if version != WIRE_VERSION {
        return Err(WireDecodeError::BadVersion { found: version });
    }
    cur.varint_u64("span_count")
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
    use crate::span::TapSide;

    /// Every presence bit, named as `docs/WIRE_FORMAT.md` names it. Their
    /// OR must be `F_KNOWN`, so a new bit cannot be left off this list.
    const PRESENCE_BITS: [(&str, u32); 16] = [
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
    ];

    /// The normative document agrees with the codec: magic, version, the
    /// whole field table and the whole presence-bit table. Encode and
    /// decode of each bit are checked by the round trips
    /// (`tests/wire_proptests.rs` sets every optional field).
    #[test]
    fn wire_format_doc_matches_the_codec() {
        let doc = include_str!("../../../docs/WIRE_FORMAT.md");
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

    #[test]
    fn round_trips_empty_batch() {
        let bytes = encode_batch(&[]);
        assert_eq!(bytes.len(), WIRE_PREFIX_LEN + 2);
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
            parsed.dict().iter().filter(|s| **s == "checkout").count(),
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
        let mut vers = bytes.clone();
        vers[4] = WIRE_VERSION + 1;
        assert_eq!(
            decode_batch(&vers),
            Err(WireDecodeError::BadVersion {
                found: WIRE_VERSION + 1
            })
        );
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

    #[test]
    fn rejects_dict_index_out_of_range() {
        // A single-span batch whose endpoint id points past the dictionary.
        let mut s = Span::synthetic(TapSide::ClientProcess, 1, 2);
        s.endpoint = String::new();
        let mut bytes = encode_batch(&[s]);
        // The record's endpoint varint is the id 0; the dictionary holds one
        // entry. Flip the id to 9 (single-byte varint, position: find it by
        // decoding structure — endpoint is right after the fixed 13-byte
        // five-tuple + l7 byte from the record start).
        let parsed = WireBatch::parse(&bytes).unwrap();
        let record_off = bytes.len() - parsed.records.len();
        drop(parsed);
        // span_id(1) flags(1) kind_tap(1) node(1) agent(1) flow_id(1)
        // five_tuple(13) l7(1) endpoint(1).
        let endpoint_off = record_off + 1 + 1 + 1 + 1 + 1 + 1 + 13 + 1;
        assert_eq!(bytes[endpoint_off], 0);
        bytes[endpoint_off] = 9;
        assert_eq!(
            decode_batch(&bytes),
            Err(WireDecodeError::BadDictIndex { index: 9, len: 1 })
        );
    }

    #[test]
    fn rejects_unknown_flag_bits() {
        let mut s = Span::synthetic(TapSide::ClientProcess, 1, 2);
        s.endpoint = String::new();
        let mut bytes = encode_batch(&[s]);
        let parsed = WireBatch::parse(&bytes).unwrap();
        let record_off = bytes.len() - parsed.records.len();
        drop(parsed);
        // flags is the second varint in the record (after span_id = 0);
        // synthetic spans set only F_STATUS_CODE (bit 1).
        let flags_off = record_off + 1;
        assert_eq!(bytes[flags_off], 0x02);
        // Add bit 16 (first unknown bit): varint of 0x10002 = 0x82 0x80 0x04.
        bytes.splice(flags_off..flags_off + 1, [0x82u8, 0x80, 0x04]);
        assert!(matches!(
            decode_batch(&bytes),
            Err(WireDecodeError::BadEnum { field: "flags", .. })
        ));
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
