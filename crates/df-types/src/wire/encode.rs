//! The DFW encoder: span records behind the batch's tables.

use super::dict::{write_metrics, Flow, Table};
use super::*;
use crate::l7::L7Protocol;
use crate::metrics::FlowMetrics;
use crate::span::{Span, SpanKind, SpanStatus};
use std::borrow::Borrow;

/// Incremental DFW encoder: push spans one at a time, interning every
/// string, flow context and flow-metrics snapshot into the batch's
/// tables, then [`WireEncoder::finish`] to assemble the frame. Encoding
/// is infallible by construction — every `Span` value has exactly one
/// encoding.
///
/// For the common whole-slice case use [`encode_batch`].
#[derive(Debug, Default)]
pub struct WireEncoder {
    strings: Table<String>,
    flows: Table<Flow>,
    metrics: Table<FlowMetrics>,
    records: Vec<u8>,
    count: u64,
}

impl WireEncoder {
    /// An empty encoder.
    pub fn new() -> WireEncoder {
        WireEncoder::default()
    }

    /// An encoder with room for `spans` spans: 64 record bytes each, and a
    /// flow and a snapshot per two spans at 24 bytes each (an agent's batch
    /// holds one per 3.6), so a typical batch grows none of its tables.
    fn with_capacity(spans: usize) -> WireEncoder {
        let entries = spans.div_ceil(2);
        WireEncoder {
            strings: Table::default(),
            flows: Table::with_capacity(entries, entries.saturating_mul(24)),
            metrics: Table::with_capacity(entries, entries.saturating_mul(24)),
            records: Vec::with_capacity(spans.saturating_mul(64)),
            count: 0,
        }
    }

    /// Spans pushed so far.
    pub fn span_count(&self) -> u64 {
        self.count
    }

    /// Whether any span has been pushed.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Append one span record, interning its strings, its flow context and
    /// its flow-metrics snapshot.
    pub fn push(&mut self, span: &Span) {
        self.count = self.count.saturating_add(1);

        let resp_same =
            span.x_request_id_req.is_some() && span.x_request_id_resp == span.x_request_id_req;
        let flags = [
            (span.capture.interface.is_some(), F_INTERFACE),
            (span.status_code.is_some(), F_STATUS_CODE),
            (span.pid.is_some(), F_PID),
            (span.tid.is_some(), F_TID),
            (span.process_name.is_some(), F_PROCESS_NAME),
            (span.systrace_id_req.is_some(), F_SYSTRACE_REQ),
            (span.systrace_id_resp.is_some(), F_SYSTRACE_RESP),
            (span.pseudo_thread_id.is_some(), F_PSEUDO_THREAD),
            (span.x_request_id_req.is_some(), F_XREQ_REQ),
            (span.x_request_id_resp.is_some() && !resp_same, F_XREQ_RESP),
            (resp_same, F_XREQ_RESP_SAME),
            (span.tcp_seq_req.is_some(), F_TCP_SEQ_REQ),
            (span.tcp_seq_resp.is_some(), F_TCP_SEQ_RESP),
            (span.otel_trace_id.is_some(), F_OTEL_TRACE),
            (span.otel_span_id.is_some(), F_OTEL_SPAN),
            (span.otel_parent_span_id.is_some(), F_OTEL_PARENT),
            (span.flow_metrics.is_some(), F_FLOW_METRICS),
        ];
        let flags = (flags.iter()).fold(0u32, |all, &(set, bit)| if set { all | bit } else { all });

        // Interning must happen before borrowing `records` mutably below.
        let interface_id = span
            .capture
            .interface
            .as_deref()
            .map(|s| self.strings.intern(s));
        let endpoint_id = self.strings.intern(&span.endpoint);
        let process_name_id = span.process_name.as_deref().map(|s| self.strings.intern(s));
        let custom_ids: Vec<(u32, u32)> = span
            .tags
            .custom
            .iter()
            .map(|(k, v)| (self.strings.intern(k), self.strings.intern(v)))
            .collect();
        let flow = Flow {
            agent: span.agent,
            node: span.capture.node,
            flow_id: span.flow_id,
            five_tuple: span.five_tuple,
        };
        let flow_id = self.flows.id(&flow, |out| flow.write(out));
        let metrics_id = (span.flow_metrics.as_ref())
            .map(|fm| self.metrics.id(fm, |out| write_metrics(out, fm)));

        let out = &mut self.records;
        put_varint_u64(out, span.span_id.0);
        put_varint_u64(out, flags as u64);
        let kind_code = match span.kind {
            SpanKind::Sys => 0u8,
            SpanKind::Net => 1,
            SpanKind::App => 2,
        };
        out.push((kind_code << 4) | span.capture.tap_side.path_rank());
        put_varint_u64(out, flow_id as u64);
        if let Some(id) = interface_id {
            put_varint_u64(out, id as u64);
        }
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
        if let (Some(v), false) = (span.x_request_id_resp, resp_same) {
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

        if let Some(id) = metrics_id {
            put_varint_u64(out, id as u64);
        }
    }

    /// Assemble the frame: magic, version, span count, tag dictionary,
    /// the flow and metrics tables' counts and entries, then the
    /// accumulated records.
    pub fn finish(self) -> Vec<u8> {
        let tables = [&self.strings.bytes, &self.flows.bytes, &self.metrics.bytes];
        let size = (tables.iter().map(|t| t.len()))
            .fold(WIRE_PREFIX_LEN + 25, usize::saturating_add)
            .saturating_add(self.records.len());
        let mut out = Vec::with_capacity(size);
        out.extend_from_slice(WIRE_MAGIC);
        out.push(WIRE_VERSION);
        put_varint_u64(&mut out, self.count);
        put_varint_u64(&mut out, self.strings.len());
        out.extend_from_slice(&self.strings.bytes);
        put_varint_u64(&mut out, self.flows.len());
        put_varint_u64(&mut out, self.metrics.len());
        out.extend_from_slice(&self.flows.bytes);
        out.extend_from_slice(&self.metrics.bytes);
        out.extend_from_slice(&self.records);
        out
    }
}

/// Encode a slice of spans, owned or shared rows, as one DFW batch.
pub fn encode_batch<S: Borrow<Span>>(spans: &[S]) -> Vec<u8> {
    let mut enc = WireEncoder::with_capacity(spans.len());
    for span in spans {
        enc.push(span.borrow());
    }
    enc.finish()
}
