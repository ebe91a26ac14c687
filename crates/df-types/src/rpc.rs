//! Cluster RPC vocabulary: the messages trace-server nodes exchange over
//! the `df-net` fabric.
//!
//! Two protocols share one envelope:
//!
//! * **Span-batch shipping** — an agent (or ingest front-end) ships a
//!   contiguous run of routed spans to the node owning their shard
//!   ([`RpcBody::SpanBatch`]), acknowledged per batch
//!   ([`RpcBody::SpanBatchAck`]). `start_row` makes application
//!   idempotent: a duplicate (retransmitted) batch is detected by row
//!   position, an out-of-order batch is stashed until contiguous.
//! * **Candidate-set probing** — Algorithm 1 Phase 1's per-round key
//!   batches travel to remote shard owners as [`RpcBody::CandidateRequest`]
//!   and come back as `(shard, row, span)` triples
//!   ([`RpcBody::CandidateResponse`]). The `round` number lets the
//!   coordinator reject stale or duplicate responses, which is what keeps
//!   retries from reordering frontier rounds.
//! * **Span fetch** ([`RpcBody::SpanFetch`] /
//!   [`RpcBody::SpanFetchResponse`]) — the coordinator pulling one span by
//!   `(shard, row)` address, e.g. the query's start span when its shard
//!   lives on another node.
//! * **Replication** — a shard primary forwards each accepted batch to
//!   the shard's replicas as [`RpcBody::ReplicateBatch`] (the agent's
//!   DFW1 bytes carried verbatim, same layout as a span batch) and
//!   collects [`RpcBody::ReplicateAck`]s; the primary acks the agent
//!   only once its write quorum is met.
//! * **Anti-entropy** — replicas compare per-shard
//!   `(row_watermark, content_digest)` summaries
//!   ([`RpcBody::ShardSummaryRequest`] / [`RpcBody::ShardSummaryResponse`])
//!   and a lagging replica pulls the missing contiguous row ranges from a
//!   peer ([`RpcBody::RowRangeRequest`] / [`RpcBody::RowRangeResponse`]),
//!   applying them through the same reorder buffer as live replication so
//!   convergence is byte-identical.
//!
//! ## Framing
//!
//! An envelope serialises to a fabric-segment payload as a fixed 17-byte
//! header — magic `DFR1`, `rpc_id` (u64 LE), a kind byte, body length
//! (u32 LE) — followed by a **binary body**. Span payloads travel as
//! [DFW1 batches](crate::wire) (see `docs/WIRE_FORMAT.md`); the remaining
//! fields are fixed-width little-endian integers and LEB128 varints. A
//! [`RpcBody::SpanBatch`] body carries the sender's encoded batch
//! *verbatim* — a node forwarding or retrying a batch never re-encodes
//! it, and the receiver decodes the exact bytes the agent produced.
//!
//! The kind byte tells a receiver how to parse the body (and lets a tap
//! classify traffic via [`RpcEnvelope::peek`] without parsing anything).
//! [`RpcEnvelope::encode`] is infallible by construction: every body
//! value has exactly one byte encoding and nothing in the pipeline can
//! fail. Decoding never panics; every failure is a structured
//! [`RpcDecodeError`].

use crate::span::{AssocKey, Span};
use crate::wire::{self, put_varint_u128, put_varint_u64, Cursor, WireDecodeError};
use bytes::Bytes;
use std::fmt;

/// Magic prefixing every RPC payload on the wire.
pub const RPC_MAGIC: &[u8; 4] = b"DFR1";

/// Fixed header length: magic (4) + rpc_id (8) + kind (1) + body len (4).
pub const RPC_HEADER_LEN: usize = 17;

/// Normative table of every DFR1 RPC kind: `(variant name, kind byte)`.
/// `df-audit`'s spec-exhaustiveness pass cross-checks this table against
/// [`RpcBody::kind`], `decode_body`, and the RPC_KINDS table in
/// `docs/WIRE_FORMAT.md` — adding a kind without updating all four is a
/// CI failure.
pub const RPC_KINDS: &[(&str, u8)] = &[
    ("SpanBatch", 1),
    ("SpanBatchAck", 2),
    ("CandidateRequest", 3),
    ("CandidateResponse", 4),
    ("SpanFetch", 5),
    ("SpanFetchResponse", 6),
    ("ReplicateBatch", 7),
    ("ReplicateAck", 8),
    ("ShardSummaryRequest", 9),
    ("ShardSummaryResponse", 10),
    ("RowRangeRequest", 11),
    ("RowRangeResponse", 12),
];

/// One frontier round's association keys, batched per index — the Phase 1
/// probe payload. Field order is [`AssocKey::KINDS`] order, which is the
/// probe order on the receiving shard, so two stores probing the same
/// batch return candidates in the same order. That is also the wire order:
/// each index is a varint count followed by its keys as varints.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CandidateKeys {
    /// Thread-propagated syscall trace ids.
    pub systrace: Vec<u64>,
    /// Coroutine pseudo-thread ids.
    pub pseudo_thread: Vec<u64>,
    /// X-Request-ID header values.
    pub x_request: Vec<u128>,
    /// TCP sequence numbers.
    pub tcp_seq: Vec<u32>,
    /// Third-party (OTel) trace ids.
    pub otel_trace: Vec<u128>,
}

impl CandidateKeys {
    /// Append `key` to its kind's index.
    pub fn push(&mut self, key: AssocKey) {
        match key {
            AssocKey::Systrace(v) => self.systrace.push(v),
            AssocKey::PseudoThread(v) => self.pseudo_thread.push(v),
            AssocKey::XRequest(v) => self.x_request.push(v),
            AssocKey::TcpSeq(v) => self.tcp_seq.push(v),
            AssocKey::OtelTrace(v) => self.otel_trace.push(v),
        }
    }

    /// Every key, index by index in [`AssocKey::KINDS`] order — the probe
    /// order.
    pub fn iter(&self) -> impl Iterator<Item = AssocKey> + '_ {
        let systrace = self.systrace.iter().map(|&v| AssocKey::Systrace(v));
        let pseudo_thread = self
            .pseudo_thread
            .iter()
            .map(|&v| AssocKey::PseudoThread(v));
        let x_request = self.x_request.iter().map(|&v| AssocKey::XRequest(v));
        let tcp_seq = self.tcp_seq.iter().map(|&v| AssocKey::TcpSeq(v));
        let otel_trace = self.otel_trace.iter().map(|&v| AssocKey::OtelTrace(v));
        systrace
            .chain(pseudo_thread)
            .chain(x_request)
            .chain(tcp_seq)
            .chain(otel_trace)
    }

    /// Total keys across all indexes.
    pub fn len(&self) -> usize {
        self.iter().count()
    }

    /// Whether the batch holds no keys.
    pub fn is_empty(&self) -> bool {
        self.iter().next().is_none()
    }
}

/// One remote candidate: the span plus its `(shard, row)` address, so the
/// coordinator can extend its global visited set exactly as a local probe
/// would.
#[derive(Debug, Clone, PartialEq)]
pub struct CandidateSpan {
    /// Global shard index the span lives in.
    pub shard: u16,
    /// Row within that shard.
    pub row: u32,
    /// The span itself.
    pub span: Span,
}

/// RPC message body.
#[derive(Debug, Clone, PartialEq)]
pub enum RpcBody {
    /// Ship a contiguous run of routed spans to the shard's owner. The
    /// spans travel as one DFW1 batch carried verbatim (the spans inside
    /// hold their already-assigned global ids); `start_row` is the row
    /// the first span must land on (idempotency anchor).
    SpanBatch {
        /// Global shard index.
        shard: u16,
        /// Row the first span lands on.
        start_row: u32,
        /// The DFW1-encoded batch, exactly as the sender produced it.
        /// Build with [`RpcBody::span_batch`], unpack with
        /// [`wire::decode_batch`]; [`wire::peek_span_count`] reads the
        /// span count without decoding.
        wire: Bytes,
    },
    /// Acknowledge a span batch (same coordinates as the batch).
    SpanBatchAck {
        /// Global shard index.
        shard: u16,
        /// Row the acknowledged batch started at.
        start_row: u32,
        /// Spans acknowledged.
        count: u32,
    },
    /// Probe the receiver's shards with one frontier round's key batch.
    CandidateRequest {
        /// Phase 1 round number (coordinator-local, monotone).
        round: u32,
        /// The round's keys.
        keys: CandidateKeys,
    },
    /// The receiver's new candidate rows for a probe round. On the wire
    /// the spans travel as one shared-dictionary DFW1 batch followed by a
    /// `(shard, row)` address pair per span, in batch order.
    CandidateResponse {
        /// Round this responds to.
        round: u32,
        /// Matching spans with their global addresses.
        candidates: Vec<CandidateSpan>,
    },
    /// Fetch one span by address (the query coordinator seeding Phase 1
    /// when the start span's shard lives on another node).
    SpanFetch {
        /// Global shard index.
        shard: u16,
        /// Row within the shard.
        row: u32,
    },
    /// Answer to a [`RpcBody::SpanFetch`]; `None` when the row does not
    /// exist (or is tombstoned) on the receiver. A present span travels
    /// as a single-span DFW1 batch.
    SpanFetchResponse {
        /// Echoed shard.
        shard: u16,
        /// Echoed row.
        row: u32,
        /// The span, if present and live.
        span: Option<Box<Span>>,
    },
    /// Primary → replica forward of an accepted span batch. Same body
    /// layout as [`RpcBody::SpanBatch`]; the distinct kind lets a replica
    /// know it must *not* forward further, and lets a tap tell ingest
    /// traffic from replication traffic.
    ReplicateBatch {
        /// Global shard index.
        shard: u16,
        /// Row the first span lands on.
        start_row: u32,
        /// The DFW1-encoded batch, forwarded verbatim — never re-encoded
        /// between the agent and the last replica.
        wire: Bytes,
    },
    /// Replica → primary acknowledgement of a [`RpcBody::ReplicateBatch`]
    /// (same coordinates as the forwarded batch).
    ReplicateAck {
        /// Global shard index.
        shard: u16,
        /// Row the acknowledged batch started at.
        start_row: u32,
        /// Spans acknowledged.
        count: u32,
    },
    /// Ask a peer replica for its per-shard anti-entropy summary.
    ShardSummaryRequest {
        /// Global shard index.
        shard: u16,
    },
    /// A replica's anti-entropy summary: its contiguous applied-row
    /// watermark and a content digest over those rows.
    ShardSummaryResponse {
        /// Echoed shard.
        shard: u16,
        /// Applied rows (the contiguous prefix; stashed out-of-order
        /// batches beyond the first gap do not count).
        rows: u32,
        /// FNV-1a digest folded over the applied rows' DFW1 encodings.
        digest: u64,
    },
    /// Pull a contiguous row range from a peer replica (anti-entropy
    /// backfill of rows the requester is missing).
    RowRangeRequest {
        /// Global shard index.
        shard: u16,
        /// First row wanted.
        start_row: u32,
        /// Upper bound on rows returned.
        max_rows: u32,
    },
    /// Answer to a [`RpcBody::RowRangeRequest`]: the rows the peer
    /// actually holds from `start_row`, as one DFW1 batch (possibly
    /// empty, possibly shorter than asked).
    RowRangeResponse {
        /// Echoed shard.
        shard: u16,
        /// Row the first returned span sits on.
        start_row: u32,
        /// The DFW1-encoded rows.
        wire: Bytes,
    },
}

impl RpcBody {
    /// The header kind byte for this body.
    pub fn kind(&self) -> u8 {
        match self {
            RpcBody::SpanBatch { .. } => 1,
            RpcBody::SpanBatchAck { .. } => 2,
            RpcBody::CandidateRequest { .. } => 3,
            RpcBody::CandidateResponse { .. } => 4,
            RpcBody::SpanFetch { .. } => 5,
            RpcBody::SpanFetchResponse { .. } => 6,
            RpcBody::ReplicateBatch { .. } => 7,
            RpcBody::ReplicateAck { .. } => 8,
            RpcBody::ShardSummaryRequest { .. } => 9,
            RpcBody::ShardSummaryResponse { .. } => 10,
            RpcBody::RowRangeRequest { .. } => 11,
            RpcBody::RowRangeResponse { .. } => 12,
        }
    }

    /// Build a [`RpcBody::SpanBatch`], encoding `spans` as one DFW1
    /// batch. The resulting bytes are what travels — retries and
    /// forwards reuse them verbatim.
    pub fn span_batch(shard: u16, start_row: u32, spans: &[Span]) -> RpcBody {
        RpcBody::SpanBatch {
            shard,
            start_row,
            wire: Bytes::from(wire::encode_batch(spans)),
        }
    }

    /// Build a [`RpcBody::RowRangeResponse`], encoding `spans` as one
    /// DFW1 batch.
    pub fn row_range_response(shard: u16, start_row: u32, spans: &[Span]) -> RpcBody {
        RpcBody::RowRangeResponse {
            shard,
            start_row,
            wire: Bytes::from(wire::encode_batch(spans)),
        }
    }

    /// Append this body's binary encoding to `out`.
    fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            RpcBody::SpanBatch {
                shard,
                start_row,
                wire,
            } => {
                out.extend_from_slice(&shard.to_le_bytes());
                out.extend_from_slice(&start_row.to_le_bytes());
                out.extend_from_slice(wire);
            }
            RpcBody::SpanBatchAck {
                shard,
                start_row,
                count,
            } => {
                out.extend_from_slice(&shard.to_le_bytes());
                out.extend_from_slice(&start_row.to_le_bytes());
                out.extend_from_slice(&count.to_le_bytes());
            }
            RpcBody::CandidateRequest { round, keys } => {
                out.extend_from_slice(&round.to_le_bytes());
                for kind in AssocKey::KINDS {
                    let of_kind = || keys.iter().filter(|key| key.kind() == kind);
                    put_varint_u64(out, of_kind().count() as u64);
                    for key in of_kind() {
                        put_varint_u128(out, key.value());
                    }
                }
            }
            RpcBody::CandidateResponse { round, candidates } => {
                out.extend_from_slice(&round.to_le_bytes());
                let mut enc = wire::WireEncoder::new();
                for c in candidates {
                    enc.push(&c.span);
                }
                let batch = enc.finish();
                put_varint_u64(out, batch.len() as u64);
                out.extend_from_slice(&batch);
                for c in candidates {
                    out.extend_from_slice(&c.shard.to_le_bytes());
                    out.extend_from_slice(&c.row.to_le_bytes());
                }
            }
            RpcBody::SpanFetch { shard, row } => {
                out.extend_from_slice(&shard.to_le_bytes());
                out.extend_from_slice(&row.to_le_bytes());
            }
            RpcBody::SpanFetchResponse { shard, row, span } => {
                out.extend_from_slice(&shard.to_le_bytes());
                out.extend_from_slice(&row.to_le_bytes());
                match span {
                    None => out.push(0),
                    Some(s) => {
                        out.push(1);
                        let batch = wire::encode_batch(std::slice::from_ref(s));
                        put_varint_u64(out, batch.len() as u64);
                        out.extend_from_slice(&batch);
                    }
                }
            }
            RpcBody::ReplicateBatch {
                shard,
                start_row,
                wire,
            }
            | RpcBody::RowRangeResponse {
                shard,
                start_row,
                wire,
            } => {
                out.extend_from_slice(&shard.to_le_bytes());
                out.extend_from_slice(&start_row.to_le_bytes());
                out.extend_from_slice(wire);
            }
            RpcBody::ReplicateAck {
                shard,
                start_row,
                count,
            } => {
                out.extend_from_slice(&shard.to_le_bytes());
                out.extend_from_slice(&start_row.to_le_bytes());
                out.extend_from_slice(&count.to_le_bytes());
            }
            RpcBody::ShardSummaryRequest { shard } => {
                out.extend_from_slice(&shard.to_le_bytes());
            }
            RpcBody::ShardSummaryResponse {
                shard,
                rows,
                digest,
            } => {
                out.extend_from_slice(&shard.to_le_bytes());
                out.extend_from_slice(&rows.to_le_bytes());
                out.extend_from_slice(&digest.to_le_bytes());
            }
            RpcBody::RowRangeRequest {
                shard,
                start_row,
                max_rows,
            } => {
                out.extend_from_slice(&shard.to_le_bytes());
                out.extend_from_slice(&start_row.to_le_bytes());
                out.extend_from_slice(&max_rows.to_le_bytes());
            }
        }
    }
}

/// A framed RPC message.
#[derive(Debug, Clone, PartialEq)]
pub struct RpcEnvelope {
    /// Caller-assigned id; the response echoes it, retries reuse it.
    pub rpc_id: u64,
    /// The message.
    pub body: RpcBody,
}

/// Why a payload failed to decode as an RPC envelope.
///
/// Decoding is total: any byte sequence maps to either an envelope or one
/// of these variants — never a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RpcDecodeError {
    /// Payload shorter than the fixed 17-byte header.
    Truncated,
    /// Magic bytes are not `DFR1` (not an RPC payload at all).
    BadMagic,
    /// Header body-length disagrees with the actual payload length.
    LengthMismatch {
        /// Length the header claimed.
        claimed: usize,
        /// Bytes actually present after the header.
        actual: usize,
    },
    /// The header kind byte names no message kind in this protocol
    /// version (valid kinds are 1–12).
    BadKind {
        /// The unassigned kind byte.
        kind: u8,
    },
    /// An embedded DFW1 span payload declares a wire-format version this
    /// decoder does not speak.
    BadVersion {
        /// The version byte the payload carried.
        found: u8,
    },
    /// The binary body failed to parse (truncated field, over-wide
    /// varint, bad discriminant, malformed embedded span batch...). The
    /// inner [`WireDecodeError`] names the failing field.
    Body(WireDecodeError),
    /// An embedded DFW1 batch holds a different number of spans than the
    /// body declares around it.
    BodyCountMismatch {
        /// Spans the body structure declares.
        declared: u64,
        /// Spans the embedded batch actually holds.
        got: u64,
    },
}

impl fmt::Display for RpcDecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RpcDecodeError::Truncated => write!(f, "payload shorter than RPC header"),
            RpcDecodeError::BadMagic => write!(f, "payload does not start with DFR1"),
            RpcDecodeError::LengthMismatch { claimed, actual } => {
                write!(f, "header claims {claimed}-byte body, got {actual}")
            }
            RpcDecodeError::BadKind { kind } => write!(f, "unknown RPC kind {kind}"),
            RpcDecodeError::BadVersion { found } => {
                write!(f, "embedded span payload speaks DFW1 version {found}")
            }
            RpcDecodeError::Body(e) => write!(f, "bad RPC body: {e}"),
            RpcDecodeError::BodyCountMismatch { declared, got } => {
                write!(f, "body declares {declared} spans, batch holds {got}")
            }
        }
    }
}

impl std::error::Error for RpcDecodeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RpcDecodeError::Body(e) => Some(e),
            _ => None,
        }
    }
}

impl From<WireDecodeError> for RpcDecodeError {
    /// Wrap a body-level error, hoisting an embedded batch's version
    /// mismatch to the envelope's own [`RpcDecodeError::BadVersion`].
    fn from(e: WireDecodeError) -> RpcDecodeError {
        match e {
            WireDecodeError::BadVersion { found } => RpcDecodeError::BadVersion { found },
            other => RpcDecodeError::Body(other),
        }
    }
}

fn read_u16_le(cur: &mut Cursor<'_>, ctx: &'static str) -> Result<u16, WireDecodeError> {
    let b: [u8; 2] = cur
        .take(2, ctx)?
        .try_into()
        .map_err(|_| WireDecodeError::Truncated { context: ctx })?;
    Ok(u16::from_le_bytes(b))
}

fn read_u32_le(cur: &mut Cursor<'_>, ctx: &'static str) -> Result<u32, WireDecodeError> {
    let b: [u8; 4] = cur
        .take(4, ctx)?
        .try_into()
        .map_err(|_| WireDecodeError::Truncated { context: ctx })?;
    Ok(u32::from_le_bytes(b))
}

fn read_u64_le(cur: &mut Cursor<'_>, ctx: &'static str) -> Result<u64, WireDecodeError> {
    let b: [u8; 8] = cur
        .take(8, ctx)?
        .try_into()
        .map_err(|_| WireDecodeError::Truncated { context: ctx })?;
    Ok(u64::from_le_bytes(b))
}

/// Read a `shard + start_row + verbatim DFW1 batch` body (the shared
/// shape of span-batch, replicate-batch, and row-range-response bodies),
/// validating the embedded batch header at the envelope boundary.
fn read_verbatim_batch(cur: &mut Cursor<'_>) -> Result<(u16, u32, Bytes), RpcDecodeError> {
    let shard = read_u16_le(cur, "shard")?;
    let start_row = read_u32_le(cur, "start_row")?;
    let raw = cur.take(cur.remaining(), "span_batch")?;
    wire::peek_span_count(raw)?;
    Ok((shard, start_row, Bytes::copy_from_slice(raw)))
}

/// Read a length-prefixed embedded DFW1 batch and decode it fully.
fn read_embedded_batch(cur: &mut Cursor<'_>) -> Result<Vec<Span>, RpcDecodeError> {
    let len = cur.varint_u64("batch_len")? as usize;
    let raw = cur.take(len, "batch")?;
    wire::decode_batch(raw).map_err(RpcDecodeError::from)
}

fn decode_body(kind: u8, body: &[u8]) -> Result<RpcBody, RpcDecodeError> {
    let mut cur = Cursor::new(body);
    let decoded = match kind {
        1 => {
            // The batch travels verbatim; validate the DFW1 header now so
            // a corrupt or foreign-version payload fails at the envelope
            // boundary, not deep inside ingest.
            let (shard, start_row, wire) = read_verbatim_batch(&mut cur)?;
            return Ok(RpcBody::SpanBatch {
                shard,
                start_row,
                wire,
            });
        }
        2 => RpcBody::SpanBatchAck {
            shard: read_u16_le(&mut cur, "shard")?,
            start_row: read_u32_le(&mut cur, "start_row")?,
            count: read_u32_le(&mut cur, "count")?,
        },
        3 => {
            let round = read_u32_le(&mut cur, "round")?;
            let mut keys = CandidateKeys::default();
            for kind in AssocKey::KINDS {
                for _ in 0..cur.varint_u64("candidate_key_count")? {
                    let value = cur.varint(kind.bits(), "candidate_key")?;
                    let key = kind.key(value).ok_or(WireDecodeError::BadVarint {
                        context: "candidate_key",
                    })?;
                    keys.push(key);
                }
            }
            RpcBody::CandidateRequest { round, keys }
        }
        4 => {
            let round = read_u32_le(&mut cur, "round")?;
            let spans = read_embedded_batch(&mut cur)?;
            let mut candidates = Vec::with_capacity(spans.len());
            for span in spans {
                let shard = read_u16_le(&mut cur, "candidate_shard")?;
                let row = read_u32_le(&mut cur, "candidate_row")?;
                candidates.push(CandidateSpan { shard, row, span });
            }
            RpcBody::CandidateResponse { round, candidates }
        }
        5 => RpcBody::SpanFetch {
            shard: read_u16_le(&mut cur, "shard")?,
            row: read_u32_le(&mut cur, "row")?,
        },
        6 => {
            let shard = read_u16_le(&mut cur, "shard")?;
            let row = read_u32_le(&mut cur, "row")?;
            let span = match cur.u8("span_present")? {
                0 => None,
                1 => {
                    let mut spans = read_embedded_batch(&mut cur)?;
                    if spans.len() != 1 {
                        return Err(RpcDecodeError::BodyCountMismatch {
                            declared: 1,
                            got: spans.len() as u64,
                        });
                    }
                    Some(Box::new(spans.remove(0)))
                }
                v => {
                    return Err(RpcDecodeError::Body(WireDecodeError::BadEnum {
                        field: "span_present",
                        value: v,
                    }))
                }
            };
            RpcBody::SpanFetchResponse { shard, row, span }
        }
        7 => {
            let (shard, start_row, wire) = read_verbatim_batch(&mut cur)?;
            return Ok(RpcBody::ReplicateBatch {
                shard,
                start_row,
                wire,
            });
        }
        8 => RpcBody::ReplicateAck {
            shard: read_u16_le(&mut cur, "shard")?,
            start_row: read_u32_le(&mut cur, "start_row")?,
            count: read_u32_le(&mut cur, "count")?,
        },
        9 => RpcBody::ShardSummaryRequest {
            shard: read_u16_le(&mut cur, "shard")?,
        },
        10 => RpcBody::ShardSummaryResponse {
            shard: read_u16_le(&mut cur, "shard")?,
            rows: read_u32_le(&mut cur, "rows")?,
            digest: read_u64_le(&mut cur, "digest")?,
        },
        11 => RpcBody::RowRangeRequest {
            shard: read_u16_le(&mut cur, "shard")?,
            start_row: read_u32_le(&mut cur, "start_row")?,
            max_rows: read_u32_le(&mut cur, "max_rows")?,
        },
        12 => {
            let (shard, start_row, wire) = read_verbatim_batch(&mut cur)?;
            return Ok(RpcBody::RowRangeResponse {
                shard,
                start_row,
                wire,
            });
        }
        other => return Err(RpcDecodeError::BadKind { kind: other }),
    };
    if cur.remaining() != 0 {
        return Err(RpcDecodeError::Body(WireDecodeError::TrailingBytes {
            extra: cur.remaining(),
        }));
    }
    Ok(decoded)
}

impl RpcEnvelope {
    /// Frame the envelope into a fabric-segment payload. Infallible by
    /// construction: every body value has exactly one encoding.
    pub fn encode(&self) -> Bytes {
        let mut body = Vec::with_capacity(64);
        self.body.encode_into(&mut body);
        let mut out = Vec::with_capacity(RPC_HEADER_LEN.saturating_add(body.len()));
        out.extend_from_slice(RPC_MAGIC);
        out.extend_from_slice(&self.rpc_id.to_le_bytes());
        out.push(self.body.kind());
        out.extend_from_slice(&(body.len() as u32).to_le_bytes());
        out.extend_from_slice(&body);
        Bytes::from(out)
    }

    /// Parse a fabric-segment payload back into an envelope.
    pub fn decode(payload: &[u8]) -> Result<RpcEnvelope, RpcDecodeError> {
        let (rpc_id, kind, claimed, rest) = split_header(payload)?;
        if rest.len() != claimed {
            return Err(RpcDecodeError::LengthMismatch {
                claimed,
                actual: rest.len(),
            });
        }
        let body = decode_body(kind, rest)?;
        Ok(RpcEnvelope { rpc_id, body })
    }

    /// Peek the rpc_id and kind byte without parsing the body (tap
    /// classification, dispatch).
    pub fn peek(payload: &[u8]) -> Result<(u64, u8), RpcDecodeError> {
        let (rpc_id, kind, _, _) = split_header(payload)?;
        Ok((rpc_id, kind))
    }
}

/// Split the fixed DFR1 header totally: `(rpc_id, kind, claimed body
/// length, body bytes)`. Truncation is checked once up front so the
/// field reads below cannot fail.
fn split_header(payload: &[u8]) -> Result<(u64, u8, usize, &[u8]), RpcDecodeError> {
    let rest = payload
        .get(RPC_HEADER_LEN..)
        .ok_or(RpcDecodeError::Truncated)?;
    if payload.get(..4) != Some(RPC_MAGIC.as_slice()) {
        return Err(RpcDecodeError::BadMagic);
    }
    let rpc_id_bytes: [u8; 8] = payload
        .get(4..12)
        .and_then(|s| s.try_into().ok())
        .ok_or(RpcDecodeError::Truncated)?;
    let kind = *payload.get(12).ok_or(RpcDecodeError::Truncated)?;
    let len_bytes: [u8; 4] = payload
        .get(13..17)
        .and_then(|s| s.try_into().ok())
        .ok_or(RpcDecodeError::Truncated)?;
    Ok((
        u64::from_le_bytes(rpc_id_bytes),
        kind,
        u32::from_le_bytes(len_bytes) as usize,
        rest,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::TapSide;

    fn sample_keys() -> CandidateKeys {
        CandidateKeys {
            systrace: vec![1, 2],
            pseudo_thread: vec![3],
            // Deliberately above u64::MAX: the wire must carry full u128s.
            x_request: vec![0xdead_beef_dead_beef_dead_beef_dead_beef],
            tcp_seq: vec![42],
            otel_trace: vec![u128::MAX - 1],
        }
    }

    #[test]
    fn candidate_keys_len_counts_every_index() {
        assert_eq!(sample_keys().len(), 6);
        assert!(CandidateKeys::default().is_empty());
    }

    #[test]
    fn envelope_round_trips_every_body_kind() {
        let span = Span::synthetic(TapSide::ServerProcess, 100, 900);
        let bodies = vec![
            RpcBody::span_batch(3, 17, std::slice::from_ref(&span)),
            RpcBody::SpanBatchAck {
                shard: 3,
                start_row: 17,
                count: 1,
            },
            RpcBody::CandidateRequest {
                round: 2,
                keys: sample_keys(),
            },
            RpcBody::CandidateResponse {
                round: 2,
                candidates: vec![
                    CandidateSpan {
                        shard: 1,
                        row: 9,
                        span: span.clone(),
                    },
                    CandidateSpan {
                        shard: 4,
                        row: 0,
                        span: span.clone(),
                    },
                ],
            },
            RpcBody::SpanFetch { shard: 0, row: 4 },
            RpcBody::SpanFetchResponse {
                shard: 0,
                row: 4,
                span: Some(Box::new(span.clone())),
            },
            RpcBody::SpanFetchResponse {
                shard: 0,
                row: 5,
                span: None,
            },
            RpcBody::CandidateResponse {
                round: 0,
                candidates: Vec::new(),
            },
            RpcBody::ReplicateBatch {
                shard: 3,
                start_row: 17,
                wire: Bytes::from(wire::encode_batch(std::slice::from_ref(&span))),
            },
            RpcBody::ReplicateAck {
                shard: 3,
                start_row: 17,
                count: 1,
            },
            RpcBody::ShardSummaryRequest { shard: 6 },
            RpcBody::ShardSummaryResponse {
                shard: 6,
                rows: 4096,
                digest: 0xfeed_face_cafe_beef,
            },
            RpcBody::RowRangeRequest {
                shard: 6,
                start_row: 128,
                max_rows: 512,
            },
            RpcBody::row_range_response(6, 128, std::slice::from_ref(&span)),
            RpcBody::row_range_response(6, 0, &[]),
        ];
        for body in bodies {
            let env = RpcEnvelope { rpc_id: 77, body };
            let wire = env.encode();
            let back = RpcEnvelope::decode(&wire).expect("decodes");
            assert_eq!(back, env);
            let (id, kind) = RpcEnvelope::peek(&wire).expect("peeks");
            assert_eq!(id, 77);
            assert_eq!(kind, env.body.kind());
        }
    }

    #[test]
    fn span_batch_body_carries_the_encoded_batch_verbatim() {
        let spans = vec![
            Span::synthetic(TapSide::ClientProcess, 1, 2),
            Span::synthetic(TapSide::ServerProcess, 3, 4),
        ];
        let raw = wire::encode_batch(&spans);
        let body = RpcBody::span_batch(7, 100, &spans);
        let RpcBody::SpanBatch { wire: carried, .. } = &body else {
            unreachable!()
        };
        assert_eq!(
            &carried[..],
            &raw[..],
            "no re-encode between batch and body"
        );
        let env = RpcEnvelope { rpc_id: 1, body };
        let payload = env.encode();
        // The batch bytes appear verbatim inside the framed payload.
        assert_eq!(&payload[RPC_HEADER_LEN + 6..], &raw[..]);
        let back = RpcEnvelope::decode(&payload).expect("decodes");
        let RpcBody::SpanBatch { wire: w, .. } = back.body else {
            panic!("wrong kind");
        };
        assert_eq!(wire::decode_batch(&w).expect("batch decodes"), spans);
    }

    #[test]
    fn replicate_batch_forwards_the_ingest_bytes_verbatim() {
        // A primary forwarding a batch to a replica reuses the exact bytes
        // the agent shipped — only the kind byte differs on the wire.
        let spans = vec![
            Span::synthetic(TapSide::ClientProcess, 1, 2),
            Span::synthetic(TapSide::ServerProcess, 3, 4),
        ];
        let ingest = RpcBody::span_batch(7, 100, &spans);
        let RpcBody::SpanBatch { wire: carried, .. } = &ingest else {
            unreachable!()
        };
        let forward = RpcBody::ReplicateBatch {
            shard: 7,
            start_row: 100,
            wire: carried.clone(),
        };
        assert_eq!(forward.kind(), 7);
        let payload = RpcEnvelope {
            rpc_id: 11,
            body: forward,
        }
        .encode();
        assert_eq!(&payload[RPC_HEADER_LEN + 6..], &carried[..]);
        let back = RpcEnvelope::decode(&payload).expect("decodes");
        let RpcBody::ReplicateBatch { wire: w, .. } = back.body else {
            panic!("wrong kind");
        };
        assert_eq!(wire::decode_batch(&w).expect("batch decodes"), spans);
    }

    #[test]
    fn u128_keys_survive_the_wire_exactly() {
        let env = RpcEnvelope {
            rpc_id: 1,
            body: RpcBody::CandidateRequest {
                round: 0,
                keys: CandidateKeys {
                    x_request: vec![u128::MAX, (u64::MAX as u128) + 1],
                    otel_trace: vec![u128::MAX],
                    ..CandidateKeys::default()
                },
            },
        };
        let back = RpcEnvelope::decode(&env.encode()).unwrap();
        assert_eq!(back, env);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert_eq!(
            RpcEnvelope::decode(b"short"),
            Err(RpcDecodeError::Truncated)
        );
        let mut wire = RpcEnvelope {
            rpc_id: 5,
            body: RpcBody::SpanBatchAck {
                shard: 0,
                start_row: 0,
                count: 0,
            },
        }
        .encode()
        .to_vec();
        // Corrupt the magic.
        let mut bad_magic = wire.clone();
        bad_magic[0] = b'X';
        assert_eq!(
            RpcEnvelope::decode(&bad_magic),
            Err(RpcDecodeError::BadMagic)
        );
        // Truncate the body.
        let cut = wire.len() - 2;
        assert!(matches!(
            RpcEnvelope::decode(&wire[..cut]),
            Err(RpcDecodeError::LengthMismatch { .. })
        ));
        // An unassigned kind byte.
        wire[12] = 99;
        assert_eq!(
            RpcEnvelope::decode(&wire),
            Err(RpcDecodeError::BadKind { kind: 99 })
        );
        // A kind whose body shape needs more bytes than an ack carries.
        wire[12] = 4;
        assert!(matches!(
            RpcEnvelope::decode(&wire),
            Err(RpcDecodeError::Body(_))
        ));
    }

    #[test]
    fn hostile_claimed_length_is_rejected_without_wrapping() {
        // The length field claims u32::MAX bytes against a tiny body: the
        // comparison must stay a plain equality, never header + claimed
        // arithmetic that could wrap under overflow-checks.
        let mut wire = RpcEnvelope {
            rpc_id: 7,
            body: RpcBody::SpanBatchAck {
                shard: 0,
                start_row: 0,
                count: 0,
            },
        }
        .encode()
        .to_vec();
        wire[13..17].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            RpcEnvelope::decode(&wire),
            Err(RpcDecodeError::LengthMismatch {
                claimed,
                actual
            }) if claimed == u32::MAX as usize && actual < claimed
        ));
    }

    #[test]
    fn peek_requires_the_full_header_and_nothing_more() {
        let wire = RpcEnvelope {
            rpc_id: 11,
            body: RpcBody::SpanBatchAck {
                shard: 3,
                start_row: 4,
                count: 5,
            },
        }
        .encode();
        // Exactly the fixed header is enough to classify the frame even
        // though the body is missing; one byte short is Truncated.
        assert_eq!(RpcEnvelope::peek(&wire[..RPC_HEADER_LEN]), Ok((11, 2)));
        assert_eq!(
            RpcEnvelope::peek(&wire[..RPC_HEADER_LEN - 1]),
            Err(RpcDecodeError::Truncated)
        );
        assert_eq!(RpcEnvelope::peek(&[]), Err(RpcDecodeError::Truncated));
    }

    #[test]
    fn span_batch_with_bumped_dfw1_version_is_rejected_at_the_envelope() {
        let span = Span::synthetic(TapSide::ClientProcess, 1, 2);
        let env = RpcEnvelope {
            rpc_id: 9,
            body: RpcBody::span_batch(0, 0, std::slice::from_ref(&span)),
        };
        let mut payload = env.encode().to_vec();
        // The DFW1 version byte sits right after the batch's magic, which
        // itself follows the 17-byte header + shard (2) + start_row (4).
        let version_off = RPC_HEADER_LEN + 6 + 4;
        assert_eq!(payload[version_off], wire::WIRE_VERSION);
        payload[version_off] = wire::WIRE_VERSION + 1;
        assert_eq!(
            RpcEnvelope::decode(&payload),
            Err(RpcDecodeError::BadVersion {
                found: wire::WIRE_VERSION + 1
            })
        );
    }

    #[test]
    fn trailing_body_bytes_are_rejected() {
        let env = RpcEnvelope {
            rpc_id: 2,
            body: RpcBody::SpanFetch { shard: 1, row: 2 },
        };
        let mut payload = env.encode().to_vec();
        payload.push(0xAA);
        // Fix up the claimed body length so the frame check passes and the
        // body-level trailing check has to catch it.
        let claimed = (payload.len() - RPC_HEADER_LEN) as u32;
        payload[13..17].copy_from_slice(&claimed.to_le_bytes());
        assert_eq!(
            RpcEnvelope::decode(&payload),
            Err(RpcDecodeError::Body(WireDecodeError::TrailingBytes {
                extra: 1
            }))
        );
    }
}
