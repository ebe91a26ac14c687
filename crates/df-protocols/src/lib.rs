//! # df-protocols — application-layer protocol suite
//!
//! Paper §3.3.1, phase 2: "the DeepFlow Agent iterates through the common
//! protocol specifications ... executing a one-time protocol inference for
//! each newly established connection. Then, DeepFlow parses the payload to
//! determine the request/response type of the message."
//!
//! This crate provides, per protocol:
//!
//! * a **wire codec** — builders the mesh's simulated services use to emit
//!   honest byte payloads (so inference works on real bytes, not oracles);
//! * a **sniffer** — does this payload look like protocol X?
//! * a **parser** — message type (request/response), session key (order for
//!   pipelined protocols, embedded id for multiplexed ones), endpoint label,
//!   status, and tracing headers (W3C `traceparent`, Zipkin B3,
//!   `X-Request-ID`).
//!
//! The [`inference`] module drives the per-connection inference loop in the
//! order the paper's protocol list suggests, most-distinctive magic first.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Every parser here reads bytes a traced service chose: no indexing,
// unwrap, expect, panic, todo or unimplemented in product code (test code
// is exempt through clippy.toml's allow-*-in-tests).
#![deny(
    clippy::indexing_slicing,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::allow_attributes_without_reason
)]

pub mod amqp;
pub mod dns;
pub mod dubbo;
pub mod http1;
pub mod http2;
pub mod inference;
pub mod kafka;
pub mod mqtt;
pub mod mysql;
pub mod redis;

pub use inference::{infer_protocol, parse_message, InferenceEngine, ParsedMessage};

use df_types::{
    L7Protocol, MessageType, OtelSpanId, OtelTraceId, SessionKey, SpanStatus, XRequestId,
};
use std::borrow::Cow;

/// Tracing headers recoverable from a message (third-party span integration,
/// paper §3.3.2).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceHeaders {
    /// W3C / B3 trace id.
    pub trace_id: Option<OtelTraceId>,
    /// W3C / B3 span id.
    pub span_id: Option<OtelSpanId>,
    /// W3C / B3 parent span id (B3 only; traceparent carries it as span-id
    /// of the parent context).
    pub parent_span_id: Option<OtelSpanId>,
    /// Proxy-generated X-Request-ID.
    pub x_request_id: Option<XRequestId>,
}

impl TraceHeaders {
    /// Take the trace and span ids from a W3C `traceparent` value
    /// (`version-traceid-spanid-flags`); a value of any other shape sets
    /// nothing.
    pub(crate) fn set_traceparent(&mut self, value: &str) {
        let mut parts = value.split('-');
        if let (Some(_), Some(trace), Some(span), Some(_), None) = (
            parts.next(),
            parts.next(),
            parts.next(),
            parts.next(),
            parts.next(),
        ) {
            self.trace_id = OtelTraceId::from_hex(trace);
            self.span_id = OtelSpanId::from_hex(span);
        }
    }
}

/// Re-exported for codec implementations.
pub(crate) use df_types::l7::SessionKey as Key;

/// A parsed message's core classification, built by each codec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MessageSummary {
    /// Which protocol.
    pub protocol: L7Protocol,
    /// Request / response / one-way.
    pub msg_type: MessageType,
    /// Session aggregation key.
    pub session_key: SessionKey,
    /// Operation label (e.g. `GET /reviews`, `SELECT`, `PUBLISH`), read
    /// with [`Self::endpoint`]. `None` for an HTTP/1 or HTTP/2 response,
    /// whose label is its status code, written out only when asked for.
    endpoint: Option<String>,
    /// Protocol status code, when the message carries one.
    pub status_code: Option<u16>,
    /// Tracing headers found in the message.
    pub headers: TraceHeaders,
}

impl MessageSummary {
    /// A summary with no headers and no status.
    pub fn basic(
        protocol: L7Protocol,
        msg_type: MessageType,
        session_key: SessionKey,
        endpoint: impl Into<String>,
    ) -> Self {
        MessageSummary {
            protocol,
            msg_type,
            session_key,
            endpoint: Some(endpoint.into()),
            status_code: None,
            headers: TraceHeaders::default(),
        }
    }

    /// An HTTP response with status `code`, labelled by that code.
    pub(crate) fn http_response(protocol: L7Protocol, session_key: SessionKey, code: u16) -> Self {
        MessageSummary {
            endpoint: None,
            status_code: Some(code),
            ..Self::basic(protocol, MessageType::Response, session_key, String::new())
        }
    }

    /// The operation label: the endpoint, or an HTTP response's status code.
    pub fn endpoint(&self) -> Cow<'_, str> {
        match &self.endpoint {
            Some(label) => Cow::Borrowed(label),
            None => Cow::Owned(self.status_code.unwrap_or_default().to_string()),
        }
    }

    /// [`Self::endpoint`], moved out. Only a `ResponseOnly` span is
    /// labelled by a response, so only it pays for the code's string.
    pub fn into_endpoint(self) -> String {
        let code = self.status_code.unwrap_or_default();
        self.endpoint.unwrap_or_else(|| code.to_string())
    }

    /// The outcome this message, as a response, completes its exchange
    /// with ([`SpanStatus::of_response`] of its protocol and status code).
    pub fn status(&self) -> SpanStatus {
        SpanStatus::of_response(self.protocol, self.status_code)
    }
}
