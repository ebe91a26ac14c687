//! # df-storage — embedded columnar span store
//!
//! The paper stores traces in ClickHouse and evaluates three ways of storing
//! the up-to-100 tags a trace carries (§5.2, Fig. 14):
//!
//! * **direct** — tags as plain strings ("storing a tag as a string requires
//!   more bytes (one char per digit) and thus more calculation and hardware
//!   resources");
//! * **low-cardinality** — ClickHouse's per-column dictionary encoding;
//! * **smart-encoding** — DeepFlow's scheme: tags arrive already as global
//!   dictionary integers (the string→int mapping happened *once*, at tag
//!   collection time — §3.4), so the store just writes fixed-width ints.
//!
//! This crate reproduces the comparison with an honest implementation of all
//! three ([`tagtable`]), plus the span store the server runs Algorithm 1
//! against ([`store`]): a row store with hash indexes over every
//! implicit-context attribute and a time index for span-list queries.
//!
//! At scale the corpus is partitioned: [`shard`] provides the routing
//! policy (hash of the canonical flow five-tuple, a time-bucketed routing
//! table, and the tombstone-eviction threshold) that `df-server`'s
//! `ShardedSpanStore` builds on, and [`store`] exposes the row-addressed
//! primitives (`insert_routed`, `tombstone_row`, `complete_span_row`,
//! `evict_tombstoned`) an embedded shard needs.
//!
//! Memory is bounded by **tiering**: cold time buckets spill to disk as
//! span segments — a DFW1 batch plus the spans' row numbers, nothing
//! else ([`persist`]) — and page back on demand through a fixed-budget
//! buffer pool with LRU-K eviction ([`bufferpool`]), whose one segment
//! loader also serves crash recovery and whose file IO runs on a
//! background disk-scheduler thread ([`disk_sched`]) so ingest workers
//! never block on disk.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bufferpool;
pub mod column;
pub mod disk_sched;
pub mod persist;
mod posting;
pub mod shard;
pub mod store;
pub mod tagtable;

pub use bufferpool::{BufferPool, BufferPoolConfig, PoolStats, SegmentId};
pub use column::{Column, ColumnStats};
pub use disk_sched::DiskScheduler;
pub use shard::{ShardPolicy, Tier, TierConfig};
pub use store::{ColdRef, RecoverStats, SpanQuery, SpanStore, SpillStats, StoreStats};
pub use tagtable::{TagEncoding, TagTable};
