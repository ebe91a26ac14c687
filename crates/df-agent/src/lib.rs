//! # df-agent — the DeepFlow Agent
//!
//! One agent runs per node. It implements the paper's §3.2 tracing plane and
//! §3.3 phase (i) — turning raw kernel/packet observations into [`Span`]s —
//! as one pipeline (Fig. 5/6) fed by three capture sources:
//!
//! * [`ebpf`] — the enter/exit join: the syscall program on every Table 3
//!   ABI and the TLS uprobe program stash *enter* times in a per-(pid,tid)
//!   map and emit a combined [`MessageData`] at *exit* (Figure 6 phase 1);
//!   packets from cBPF/AF_PACKET taps are the third source;
//! * one-time protocol inference per flow (Figure 6 phase 2) by the single
//!   `df_protocols` engine the [`agent`] owns and lends to the packet path;
//! * [`systrace`] — implicit intra-component association (Figure 7): two
//!   consecutive messages of different direction on different sockets within
//!   one thread share a `systrace_id`; thread reuse partitions naturally;
//! * [`pseudo_thread`] — coroutine-chain tracking ("pseudo-thread
//!   structure", §3.3.1) from coroutine-creation events;
//! * [`session`] — session aggregation with the 60-second time-window array:
//!   pipelined protocols match by order, multiplexed ones by embedded id;
//! * `span_builder` — the one builder: a request, a response or both,
//!   from any source, become a span;
//! * [`net_spans`] — the packet source: per-interface sessions at every
//!   infrastructure hop, with tap-side resolution;
//! * [`flow_table`] — L4 flow metrics (retransmissions, RTT, resets,
//!   zero-windows) attached to spans for cross-layer correlation (§3.4);
//! * [`agent`] — the facade: install hooks, poll, ship spans.
//!
//! [`Span`]: df_types::Span
//! [`MessageData`]: df_types::MessageData

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// The agent runs beside every traced service and reads what it sends: no
// indexing, unwrap, expect, panic, todo or unimplemented in product code
// (test code is exempt through clippy.toml's allow-*-in-tests).
#![deny(
    clippy::indexing_slicing,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::allow_attributes_without_reason
)]

pub mod agent;
pub mod ebpf;
pub mod flow_table;
pub mod net_spans;
pub mod pseudo_thread;
pub mod session;
mod span_builder;
pub mod systrace;

pub use agent::{Agent, AgentConfig, AgentStats};
pub use ebpf::DeepFlowSyscallProgram;
pub use flow_table::FlowTable;
pub use session::{SessionAggregator, SessionOutcome};
pub use systrace::SystraceTracker;
