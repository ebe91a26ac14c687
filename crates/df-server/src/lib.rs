//! # df-server — the DeepFlow Server
//!
//! Cluster-level process (paper Fig. 4): "responsible for storing spans in
//! the database and assembling them into traces when users query". The
//! pieces:
//!
//! * [`dictionary`] — the resource-tag dictionary built from the
//!   orchestrator inventory (Fig. 8 ①–③). Implements smart-encoding
//!   **phase 2**: resolving each span's agent-written `(vpc, ip)` ints into
//!   the full integer resource-tag block (step ⑦), and **phase 3**: joining
//!   self-defined string labels at query time (step ⑧);
//! * [`assemble`] — **Algorithm 1**: iterative span search over the
//!   implicit-context indexes (one driver, [`assemble_with`], generic over
//!   where the shards are), then parent assignment under the 16 rules,
//!   then time/parent sorting;
//! * [`router`] — the one [`Router`] (global ids, shard pick, id →
//!   `(shard, row)` table, batch → per-shard split);
//! * [`sharded`] — the span corpus partitioned into
//!   [`SpanStore`](df_storage::SpanStore) shards per
//!   [`ShardPolicy`](df_storage::ShardPolicy), with
//!   [`assemble_trace_sharded`] running Algorithm 1 *across* the shards;
//! * [`trace_cache`] — incremental assembled-trace cache memoized by start
//!   span and exact: an entry is served at the corpus version it was
//!   stamped with, or re-stamped when the keys it joined on stand still;
//! * [`concurrent`] — the shard boundary taken across threads: one ingest
//!   worker per shard behind bounded queues that producers fill in row
//!   order under the route lock, trace queries through the same cache
//!   under the shard read locks;
//! * [`server`] — the facade: ingest (phase-2 enrichment + routed store
//!   insert), span-list queries, cached trace queries, coherent stats.
//!
//! ## Assembling a trace (sharded, end-to-end)
//!
//! ```
//! use df_server::{assemble_trace_sharded, AssembleConfig, ShardedSpanStore};
//! use df_storage::ShardPolicy;
//! use df_types::span::TapSide;
//! use df_types::Span;
//!
//! let mut store = ShardedSpanStore::new(ShardPolicy::with_shards(4));
//! // One exchange seen at two capture points: linked by TCP sequence.
//! let mut client = Span::synthetic(TapSide::ClientProcess, 1_000, 9_000);
//! client.tcp_seq_req = Some(42);
//! let mut server = Span::synthetic(TapSide::ServerProcess, 2_000, 8_000);
//! server.tcp_seq_req = Some(42);
//! let ids = store.insert_batch(vec![client, server]);
//!
//! let trace = assemble_trace_sharded(&store, ids[1], &AssembleConfig::default());
//! assert_eq!(trace.len(), 2);
//! // The client-side capture parents the server-side one (rules 1–8).
//! assert_eq!(trace.spans[0].span.span_id, ids[0]);
//! assert_eq!(trace.spans[1].parent, Some(ids[0]));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// A poisoned lock fails with an `expect` naming the invariant that died,
// never a bare unwrap; file IO stays in the storage IO modules
// (`disallowed-methods`/`-types` in clippy.toml, docs/LINTS.md).
#![deny(
    clippy::unwrap_used,
    clippy::disallowed_methods,
    clippy::disallowed_types
)]

pub mod assemble;
pub mod concurrent;
pub mod dictionary;
pub mod router;
pub mod server;
pub mod sharded;
pub mod trace_cache;

pub use assemble::{
    assemble_trace, assemble_with, probe_shard, AssembleConfig, JoinFacts, LocalShards, ShardProbe,
};
pub use concurrent::{ConcurrentConfig, ConcurrentShardedStore, WireIngestError, WorkerPanic};
pub use dictionary::TagDictionary;
pub use router::{Loc, Router, SubBatch};
pub use server::{Listed, Server, ServerStats};
pub use sharded::{assemble_trace_sharded, ShardedSpanStore};
pub use trace_cache::{CacheOutcome, TraceCache};
