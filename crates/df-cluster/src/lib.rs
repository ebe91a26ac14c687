//! # df-cluster — distributed trace assembly across simulated nodes
//!
//! The paper's trace assembly (Algorithm 1) runs inside *one* DeepFlow
//! server process in `df-server`. Real deployments run a cluster: agents
//! ship span batches to whichever server owns their shard, and a query
//! coordinator must probe shards it does not hold over the network. This
//! crate takes the sharded assembly across N simulated trace-server nodes
//! connected by the `df-net` fabric — same algorithm, same shard layout,
//! but every cross-shard probe is now an RPC that can be lost, delayed,
//! partitioned away, or answered by a node that has since crashed.
//!
//! Pieces:
//!
//! * [`Cluster`] — the node set, the fabric between them, a
//!   deterministic virtual-clock event loop, and the two protocol paths:
//!   ingest (span-batch shipping) and query (Phase 1 candidate-set RPCs
//!   batched per round, exactly the
//!   [`CandidateKeys`](df_types::rpc::CandidateKeys) discipline the
//!   in-process assembly uses);
//! * [`RoundTracker`] / [`BatchReorder`] / [`WriteQuorum`] — the pure
//!   coordination state machines (round-ordering of responses,
//!   row-ordering of batches, quorum-ack accounting), each unit-tested
//!   under every delivery order;
//! * [`ShardMap`] — shard → owner-list assignment (a primary plus
//!   `replication_factor − 1` replicas), updated by handoff;
//! * [`replication`] — the write-quorum state machine and the FNV-1a
//!   shard content digest anti-entropy summaries exchange.
//!
//! With `replication_factor ≥ 2` the cluster survives any single node
//! failure with zero data loss and zero degraded answers: ingest fails
//! over through each shard's owner list, queries consult whichever copy
//! answers, [`Cluster::anti_entropy_round`] converges lagging replicas
//! byte-identically, and [`Cluster::restart_node`] rebuilds a crashed
//! node's cold tier from its DFSPANS1 segment files.
//!
//! The single-process `ConcurrentShardedStore` is the differential
//! oracle: a fault-free cluster of any size must produce byte-identical
//! shard contents and traces (see `tests/distributed.rs`). Under faults
//! the cluster answers *degraded* — the partial trace plus an explicit
//! [`DistributedTrace::missing_shards`] — never hanging and never
//! silently dropping shards it could not reach.
//!
//! ```
//! use df_cluster::{Cluster, ClusterConfig};
//! use df_types::span::TapSide;
//! use df_types::Span;
//!
//! let mut cluster = Cluster::new(ClusterConfig::default()); // 2 nodes
//! let mut client = Span::synthetic(TapSide::ClientProcess, 1_000, 9_000);
//! client.tcp_seq_req = Some(42);
//! let mut server = Span::synthetic(TapSide::ServerProcess, 2_000, 8_000);
//! server.tcp_seq_req = Some(42);
//! let ids = cluster.ingest(vec![client, server]);
//!
//! let result = cluster.assemble(ids[1]);
//! assert!(result.is_complete());
//! assert_eq!(result.trace.len(), 2);
//! assert_eq!(result.trace.spans[1].parent, Some(ids[0]));
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

pub mod cluster;
pub mod membership;
pub mod replication;
pub mod tracker;

pub use cluster::{AntiEntropyReport, Cluster, ClusterConfig, ClusterStats, DistributedTrace};
pub use membership::ShardMap;
pub use replication::{shard_digest, WriteQuorum, EMPTY_DIGEST};
pub use tracker::{BatchReorder, RoundTracker};
