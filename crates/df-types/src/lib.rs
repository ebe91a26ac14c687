//! # df-types — shared data model for the DeepFlow reproduction
//!
//! This crate defines the vocabulary every other crate speaks:
//!
//! * [`time`] — virtual nanosecond timestamps ([`TimeNs`]) used by the
//!   discrete-event substrate;
//! * [`hash`] — the keyed integer hasher ([`IntMap`], [`IntSet`]) the
//!   server's per-span and per-query tables use instead of SipHash;
//! * [`ids`] — strongly typed identifiers (processes, threads, coroutines,
//!   sockets, flows, spans, traces);
//! * [`net`] — five-tuples, directions, transport protocols;
//! * [`l7`] — application-layer protocol and message-type enums;
//! * [`message`] — [`MessageData`], the unit produced by associating the
//!   *enter* and *exit* halves of one instrumented syscall (paper §3.3.1,
//!   Figure 6 phase 1);
//! * [`span`] — [`Span`], one request/response session observed at one
//!   capture point, carrying every *implicit context* attribute Algorithm 1
//!   joins on (systrace ids, pseudo-thread ids, X-Request-IDs, TCP sequence
//!   numbers, third-party trace ids) — read as [`AssocKey`]s through
//!   [`Span::for_each_assoc_key`] — and [`SpanStatus::of_response`], the
//!   one reading of a protocol's status codes;
//! * [`trace`] — [`Trace`], an assembled span tree;
//! * [`rpc`] — the cluster RPC vocabulary ([`RpcEnvelope`], span-batch
//!   shipping and Phase 1 candidate-set probes) framed into fabric-segment
//!   payloads;
//! * [`wire`] — **DFW**, the binary span-batch wire format (normative
//!   spec in `docs/WIRE_FORMAT.md`): the interning encoder agents use and
//!   the zero-copy batch decoder the ingest path runs on;
//! * [`tags`] — the resource-tag model used by tag-based correlation and
//!   smart-encoding (paper §3.4, Figure 8);
//! * [`metrics`] — network flow metrics (TCP retransmissions, RTT, resets)
//!   that DeepFlow attaches to traces.
//!
//! The types are deliberately plain data: all behaviour lives in the
//! substrate (`df-kernel`, `df-net`), the agent (`df-agent`) and the server
//! (`df-server`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod hash;
pub mod ids;
pub mod l7;
pub mod message;
pub mod metrics;
pub mod net;
pub mod packet;
pub mod rpc;
pub mod span;
pub mod tags;
pub mod time;
pub mod trace;
pub mod wire;

pub use hash::{IntHasher, IntMap, IntSet};
pub use ids::*;
pub use l7::{L7Protocol, MessageType, SessionKey};
pub use message::MessageData;
pub use message::{CaptureSource, SyscallAbi};
pub use metrics::{FlowMetrics, L7Metrics};
pub use net::{Direction, FiveTuple, TcpFlags, TransportProtocol};
pub use packet::{ArpOp, CapturedFrame, Frame, Segment};
pub use rpc::{CandidateKeys, CandidateSpan, RpcBody, RpcDecodeError, RpcEnvelope};
pub use span::{AssocKey, AssocKind, CapturePoint, Span, SpanKind, SpanStatus, TapSide};
pub use tags::{
    NodeResource, PodResource, ResourceInventory, ResourceTags, TagKey, TagSet, TagValue,
};
pub use time::{DurationNs, TimeNs};
pub use trace::{AssembledSpan, Trace};
pub use wire::{WireBatch, WireDecodeError, WireEncoder};
