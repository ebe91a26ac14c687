//! # df-storage — embedded span store
//!
//! The paper stores traces in ClickHouse. This crate is the span store the
//! server runs Algorithm 1 against ([`store`]): a row store with hash
//! indexes over every implicit-context attribute and a time index for
//! span-list queries. (The three tag encodings of Fig. 14 are measured by
//! `df_bench::fig14`, next to the figure's harness.)
//!
//! At scale the corpus is partitioned: [`shard`] provides the routing
//! policy (hash of the canonical flow five-tuple, a time-bucketed routing
//! table, and the tombstone-eviction threshold) that `df-server`'s
//! `ShardedSpanStore` builds on, and [`store`] exposes the row-addressed
//! primitives (`insert_routed`, `tombstone_row`, `complete_span_row`,
//! `evict_tombstoned`) an embedded shard needs.
//!
//! Memory is bounded by **tiering**: cold time buckets spill to disk as
//! span segments — a DFW batch plus the spans' row numbers, nothing
//! else ([`persist`]) — and page back on demand through a bounded
//! buffer pool with LRU-K eviction that lends decoded segments as `Arc`s
//! ([`bufferpool`]), whose one segment loader also serves crash
//! recovery. Segment file IO runs on the calling thread
//! ([`persist::DiskIo`]): a page-in blocks its reader and a spill its
//! writer, each under the shard lock it holds.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// A poisoned lock fails with an `expect` naming the invariant that died,
// never a bare unwrap; file IO stays in `persist.rs`
// (`disallowed-methods`/`-types` in clippy.toml, docs/LINTS.md).
#![deny(
    clippy::unwrap_used,
    clippy::disallowed_methods,
    clippy::disallowed_types
)]

pub mod bufferpool;
pub mod persist;
mod posting;
pub mod shard;
pub mod store;

pub use bufferpool::{BufferPool, BufferPoolConfig, PoolStats, SegmentId};
pub use persist::{DiskIo, DiskStats};
pub use shard::{ShardPolicy, Tier, TierConfig};
pub use store::{RecoverStats, SpanQuery, SpanRef, SpanStore, SpillStats, StoreStats};
