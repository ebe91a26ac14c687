//! The DFW decoder: a bounds-checked cursor, [`WireBatch`] over one
//! frame, and the record parse behind [`WireBatch::spans`] and
//! [`WireBatch::decode_rows`].

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

use super::dict::Tables;
use super::*;
use crate::ids::{
    OtelSpanId, OtelTraceId, Pid, PseudoThreadId, SpanId, SysTraceId, Tid, XRequestId,
};
use crate::l7::L7Protocol;
use crate::span::{CapturePoint, Span, SpanKind, SpanStatus};
use crate::tags::{ResourceTags, TagSet};
use crate::time::TimeNs;
use std::sync::Arc;

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
                  add in this loop made DFW decode measurably slower"
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

/// A parsed DFW batch borrowing the input buffer: header validated, tag
/// dictionary indexed zero-copy (`&str` slices into the input), flow and
/// metrics tables decoded, span records still raw bytes. Iterate with [`WireBatch::spans`] or
/// materialise everything with [`WireBatch::decode_all`].
pub struct WireBatch<'a> {
    count: u64,
    pub(super) tables: Tables<'a>,
    pub(super) records: &'a [u8],
}

/// Spans [`WireBatch::decode_rows`] decodes into a reused buffer before
/// moving them into their rows: the rows' allocations come in runs, as
/// they did when a whole batch was decoded first, and not interleaved
/// with each span's strings (which slowed cache-hit trace queries later,
/// by where the allocator placed what they read).
const DECODE_GROUP: usize = 64;

impl<'a> WireBatch<'a> {
    /// Validate the magic, version and span count, and read the tag
    /// dictionary and the flow and metrics tables.
    /// Record bytes are not touched yet; per-span errors surface from the
    /// iterator.
    pub fn parse(bytes: &'a [u8]) -> Result<WireBatch<'a>, WireDecodeError> {
        let mut cur = Cursor::new(bytes);
        let count = header(&mut cur)?;
        let tables = Tables::parse(&mut cur)?;
        Ok(WireBatch {
            count,
            tables,
            records: cur.rest(),
        })
    }

    /// Number of span records the header declares.
    pub fn span_count(&self) -> u64 {
        self.count
    }

    /// The batch's interned strings, in dictionary order (zero-copy).
    pub fn dict(&self) -> impl ExactSizeIterator<Item = &'a str> + '_ {
        self.tables.strs()
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
        let mut out = Vec::with_capacity(self.capacity());
        let mut iter = self.spans();
        for span in iter.by_ref() {
            out.push(span?);
        }
        iter.finish()?;
        Ok(out)
    }

    /// Decode every record straight into the `Arc` a span store keeps as
    /// its row, handing each span to `prepare` (tag enrichment) on the
    /// way. Like [`WireBatch::decode_all`], a malformed batch yields an
    /// error and no row.
    pub fn decode_rows(
        &self,
        mut prepare: impl FnMut(&mut Span),
    ) -> Result<Vec<Arc<Span>>, WireDecodeError> {
        let mut rows = Vec::with_capacity(self.capacity());
        let mut group = Vec::with_capacity(DECODE_GROUP.min(rows.capacity()));
        let mut iter = self.spans();
        loop {
            for span in iter.by_ref().take(DECODE_GROUP) {
                let mut span = span?;
                prepare(&mut span);
                group.push(span);
            }
            if group.is_empty() {
                break;
            }
            rows.extend(group.drain(..).map(Arc::new));
        }
        iter.finish()?;
        Ok(rows)
    }

    /// The declared span count, capped by input size (a record is ≥14
    /// bytes) so a hostile count can't force a huge allocation.
    fn capacity(&self) -> usize {
        (self.count as usize).min((self.records.len() / 14).saturating_add(1))
    }

    fn decode_record(&self, cur: &mut Cursor<'a>) -> Result<Span, WireDecodeError> {
        let span_id = SpanId(cur.varint_u64("span_id")?);
        let flags = cur.varint_u32("flags")?;
        let has = |bit: u32| flags & bit != 0;
        // Unknown presence bits would desynchronise the parse: the fields
        // they announce have widths this version cannot know.
        let xreq = flags & (F_XREQ_REQ | F_XREQ_RESP | F_XREQ_RESP_SAME);
        if flags & !F_KNOWN != 0
            || (has(F_XREQ_RESP_SAME) && xreq != (F_XREQ_REQ | F_XREQ_RESP_SAME))
        {
            return Err(WireDecodeError::BadFlags { flags });
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
        let flow = *self.tables.flow(cur.varint_u32("flow")?)?;
        let interface = has(F_INTERFACE)
            .then(|| self.tables.shared_name(cur.varint_u32("interface")?))
            .transpose()?;
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
        let endpoint = self.tables.get(cur.varint_u32("endpoint")?)?.to_owned();
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
        let status_code = has(F_STATUS_CODE)
            .then(|| cur.varint_u16("status_code"))
            .transpose()?;
        let req_bytes = cur.varint_u64("req_bytes")?;
        let resp_bytes = cur.varint_u64("resp_bytes")?;
        let pid = has(F_PID)
            .then(|| cur.varint_u32("pid").map(Pid))
            .transpose()?;
        let tid = has(F_TID)
            .then(|| cur.varint_u32("tid").map(Tid))
            .transpose()?;
        let process_name = has(F_PROCESS_NAME)
            .then(|| self.tables.shared_name(cur.varint_u32("process_name")?))
            .transpose()?;
        let systrace_id_req = has(F_SYSTRACE_REQ)
            .then(|| cur.varint_u64("systrace_id_req").map(SysTraceId))
            .transpose()?;
        let systrace_id_resp = has(F_SYSTRACE_RESP)
            .then(|| cur.varint_u64("systrace_id_resp").map(SysTraceId))
            .transpose()?;
        let pseudo_thread_id = has(F_PSEUDO_THREAD)
            .then(|| cur.varint_u64("pseudo_thread_id").map(PseudoThreadId))
            .transpose()?;
        let x_request_id_req = has(F_XREQ_REQ)
            .then(|| cur.varint_u128("x_request_id_req").map(XRequestId))
            .transpose()?;
        let x_request_id_resp = match has(F_XREQ_RESP_SAME) {
            true => x_request_id_req,
            false => (has(F_XREQ_RESP))
                .then(|| cur.varint_u128("x_request_id_resp").map(XRequestId))
                .transpose()?,
        };
        let tcp_seq_req = has(F_TCP_SEQ_REQ)
            .then(|| cur.varint_u32("tcp_seq_req"))
            .transpose()?;
        let tcp_seq_resp = has(F_TCP_SEQ_RESP)
            .then(|| cur.varint_u32("tcp_seq_resp"))
            .transpose()?;
        let otel_trace_id = has(F_OTEL_TRACE)
            .then(|| cur.varint_u128("otel_trace_id").map(OtelTraceId))
            .transpose()?;
        let otel_span_id = has(F_OTEL_SPAN)
            .then(|| cur.varint_u64("otel_span_id").map(OtelSpanId))
            .transpose()?;
        let otel_parent_span_id = has(F_OTEL_PARENT)
            .then(|| cur.varint_u64("otel_parent_span_id").map(OtelSpanId))
            .transpose()?;

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
            let k = self.tables.get(cur.varint_u32("custom_tag_key")?)?;
            let v = self.tables.get(cur.varint_u32("custom_tag_value")?)?;
            custom.push((k.to_owned(), v.to_owned()));
        }

        let flow_metrics = (has(F_FLOW_METRICS))
            .then(|| {
                self.tables
                    .metrics(cur.varint_u32("flow_metrics")?)
                    .copied()
            })
            .transpose()?;

        Ok(Span {
            span_id,
            kind,
            capture: CapturePoint {
                node: flow.node,
                tap_side,
                interface,
            },
            agent: flow.agent,
            flow_id: flow.flow_id,
            five_tuple: flow.five_tuple,
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

/// Decode a whole DFW batch into spans. Convenience over
/// [`WireBatch::parse`] + [`WireBatch::decode_all`].
pub fn decode_batch(bytes: &[u8]) -> Result<Vec<Span>, WireDecodeError> {
    WireBatch::parse(bytes)?.decode_all()
}

/// Read the span count from a batch header without touching the
/// dictionary or records — how forwarding nodes account spans in a batch
/// they never decode.
pub fn peek_span_count(bytes: &[u8]) -> Result<u64, WireDecodeError> {
    header(&mut Cursor::new(bytes))
}

/// Check the magic and the version, and read the span count.
fn header(cur: &mut Cursor<'_>) -> Result<u64, WireDecodeError> {
    if cur.take(4, "magic").ok() != Some(WIRE_MAGIC.as_slice()) {
        return Err(WireDecodeError::BadMagic);
    }
    let version = cur.u8("version")?;
    if version != WIRE_VERSION {
        return Err(WireDecodeError::BadVersion { found: version });
    }
    cur.varint_u64("span_count")
}
