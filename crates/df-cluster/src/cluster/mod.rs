//! The simulated trace-server cluster: N nodes on a df-net fabric, with
//! node 0 acting as ingest front-end and query coordinator.
//!
//! Every cross-node interaction is a real RPC over the fabric, subject to
//! its fault table. The protocol on top is cut along its seams into child
//! modules — children, so that every field of [`Cluster`] stays private —
//! and each part is described at the head of its file:
//!
//! * this file: types, configuration, counters, the event loop and the
//!   accessors;
//! * `ladder`: request framing, the retry / timeout / backoff ladder,
//!   probation of unreachable owners, request dispatch on the receiver;
//! * `ingest`: shipping sub-batches down their owner lists, the
//!   row-ordered apply, replication and the quorum ack;
//! * `query`: [`Cluster::assemble`] and its remote prober, degraded
//!   answers;
//! * `repair`: anti-entropy, spill and crash recovery, join / leave /
//!   kill.
//!
//! Time is virtual: a binary-heap event loop orders fabric deliveries,
//! RPC timeouts, scheduled fault heals, and scheduled membership events
//! (kill/join) on one deterministic clock.

use std::collections::{BTreeMap, BinaryHeap, HashMap, HashSet};
use std::net::Ipv4Addr;
use std::path::PathBuf;

use df_net::fabric::{Delivery, Fabric, FabricConfig};
use df_net::faults::Fault;
use df_net::topology::{ElementId, Topology};
use df_server::{probe_shard, AssembleConfig, Loc, Router};
use df_storage::{ShardPolicy, SpanStore, Tier};
use df_types::rpc::CandidateKeys;
use df_types::{DurationNs, NodeId, Span, TimeNs, Trace};

use crate::membership::ShardMap;
use crate::replication;
use crate::tracker::BatchReorder;

mod ingest;
mod ladder;
mod query;
mod repair;

use ingest::{PendingWrite, Ship};
use ladder::{PendingRpc, RpcResult};

/// Base RPC timeout; attempt `n` waits `RPC_TIMEOUT << min(n, 6)`. Twice
/// the default fabric RTO, so one fabric-level retransmission finishes
/// before the cluster-level retry fires.
pub const RPC_TIMEOUT: DurationNs = DurationNs::from_millis(400);
/// Cluster-level retries per RPC before it is declared failed.
pub const MAX_RPC_RETRIES: u32 = 5;
/// How long an owner that exhausted a retry budget stays suspected. While
/// suspected, new RPCs to it fast-fail after a single base-timeout probe;
/// the probe succeeding (e.g. after a partition heals) clears the
/// suspicion immediately.
pub const SUSPECT_PROBATION: DurationNs = DurationNs::from_secs(60);
/// Upper bound on rows per anti-entropy
/// [`RowRangeRequest`](df_types::rpc::RpcBody::RowRangeRequest).
pub const ANTI_ENTROPY_PULL_MAX: u32 = 512;

/// Cluster tunables.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Trace-server nodes to simulate (node 0 is the coordinator).
    pub nodes: usize,
    /// Global shard layout and routing policy (mirrors the oracle's).
    pub policy: ShardPolicy,
    /// Algorithm 1 knobs for the coordinator-side assembly.
    pub assemble: AssembleConfig,
    /// Fabric tunables (fault-level retransmission underneath RPC retry).
    pub fabric: FabricConfig,
    /// Copies of every shard (primary + replicas), clamped to the node
    /// count. 1 reproduces the pre-replication single-owner protocol.
    pub replication_factor: usize,
    /// Copies (including the primary's local apply) that must have
    /// applied a batch before ingest is acknowledged. 0 means *all*
    /// owners; otherwise clamped to `[1, replication_factor]`.
    pub write_quorum: usize,
    /// Base directory for tiered (spill/recovery) segment files; each
    /// node uses the `node{idx}` subdirectory. Required by
    /// [`Cluster::spill_node`] and [`Cluster::restart_node`].
    pub tier_dir: Option<PathBuf>,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            nodes: 2,
            policy: ShardPolicy::with_shards(4),
            assemble: AssembleConfig::default(),
            fabric: FabricConfig::default(),
            replication_factor: 1,
            write_quorum: 0,
            tier_dir: None,
        }
    }
}

/// Counters for the distributed protocol (cluster layer only — fabric
/// counters live in [`Fabric::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClusterStats {
    /// RPCs issued (first attempts).
    pub rpcs_sent: u64,
    /// Cluster-level retransmissions after a timeout.
    pub rpc_retries: u64,
    /// RPCs that exhausted their retry budget.
    pub rpcs_failed: u64,
    /// Responses that arrived for an RPC no longer pending (late
    /// duplicates from earlier attempts).
    pub stale_responses: u64,
    /// Spans shipped to shard owners (local or remote).
    pub spans_shipped: u64,
    /// Spans whose batch failed permanently on *every* owner (never
    /// became visible anywhere).
    pub spans_lost: u64,
    /// Shards moved by join/leave handoff (owner slots rewritten).
    pub handoffs: u64,
    /// Queries answered with a non-empty `missing_shards`.
    pub degraded_queries: u64,
    /// RPCs issued on the compressed single-probe ladder because the
    /// destination was under suspicion.
    pub fast_fails: u64,
    /// Ingest batches re-targeted to the next owner after the previous
    /// owner exhausted its retry budget.
    pub failovers: u64,
    /// ReplicateBatch RPCs issued by primaries.
    pub replicated_batches: u64,
    /// Writes acknowledged below their configured quorum (every
    /// remaining replication RPC had failed).
    pub quorum_shortfalls: u64,
    /// Anti-entropy row-range pulls issued.
    pub anti_entropy_pulls: u64,
    /// Spans backfilled into lagging replicas by anti-entropy.
    pub backfilled_spans: u64,
    /// Segment files re-registered by [`Cluster::restart_node`].
    pub recovered_segments: u64,
    /// Segment files rejected (corrupt/torn) during restart recovery.
    pub recovered_rejects: u64,
}

/// The answer to a distributed trace query: possibly partial.
#[derive(Debug, Clone, PartialEq)]
pub struct DistributedTrace {
    /// The assembled (partial) trace.
    pub trace: Trace,
    /// Shards that could not be consulted (every owner unreachable, or
    /// the rows were lost in ingest). Sorted, deduplicated.
    pub missing_shards: Vec<u16>,
    /// Phase 1 rounds actually run.
    pub rounds: u32,
}

impl DistributedTrace {
    /// Whether every shard answered (the trace is not degraded).
    pub fn is_complete(&self) -> bool {
        self.missing_shards.is_empty()
    }
}

/// What one [`Cluster::anti_entropy_round`] did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AntiEntropyReport {
    /// Row-range pulls issued by lagging replicas.
    pub pulls: u64,
    /// Spans backfilled.
    pub spans: u64,
    /// Replica pairs that matched on row count but differed on content
    /// digest (should never happen; a detector, not a repair path).
    pub divergent: u64,
    /// Summary or pull RPCs that failed (peer unreachable).
    pub unreachable: u64,
}

/// One simulated trace-server node.
struct NodeState {
    topo_id: NodeId,
    ip: Ipv4Addr,
    alive: bool,
    shards: BTreeMap<u16, SpanStore>,
    reorder: HashMap<u16, BatchReorder<Span>>,
    /// Spill and recovery state, made on first use (see `repair`).
    tier: Option<Tier>,
}

impl NodeState {
    /// Probe every shard copy this node holds with a round's keys,
    /// capturing each candidate's span alongside its location.
    fn probe(&self, keys: &CandidateKeys, seen: &HashSet<Loc>) -> Vec<(Loc, Span)> {
        let mut found = Vec::new();
        for (&si, store) in &self.shards {
            probe_shard(si, store, keys, seen, &mut found);
        }
        found
            .into_iter()
            .map(|loc| {
                let span = self.shards[&loc.shard].span_at(loc.row);
                (loc, span.expect("probed row resident").into_owned())
            })
            .collect()
    }
}

#[derive(Debug)]
enum EventKind {
    Deliver(Delivery),
    RpcTimeout { rpc_id: u64, attempt: u32 },
    Heal(ElementId),
    Kill(usize),
    Join,
}

struct Event {
    at: TimeNs,
    seq: u64,
    kind: EventKind,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // BinaryHeap is a max-heap; reverse for earliest-first.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// The cluster. See the module docs for the protocol.
pub struct Cluster {
    /// The network between the nodes (public like
    /// [`Fabric::topology`]: tests inject faults and read taps/stats).
    pub fabric: Fabric,
    cfg: ClusterConfig,
    nodes: Vec<NodeState>,
    map: ShardMap,
    /// Coordinator routing state — the same router the oracle uses.
    router: Router,
    // Virtual time.
    clock: TimeNs,
    heap: BinaryHeap<Event>,
    next_event_seq: u64,
    // RPC layer.
    next_rpc_id: u64,
    next_tcp_seq: u32,
    pending: HashMap<u64, PendingRpc>,
    completed: HashMap<u64, RpcResult>,
    // Replication layer.
    ships: HashMap<u64, Ship>,
    next_ship_id: u64,
    pending_writes: HashMap<u64, PendingWrite>,
    next_write_id: u64,
    /// Nodes that exhausted a retry budget, with their probation
    /// deadline: until then new RPCs to them run the compressed ladder.
    suspected: HashMap<usize, TimeNs>,
    stats: ClusterStats,
}

impl Cluster {
    /// Build a cluster of `cfg.nodes` simple nodes (one pod each, one
    /// rack), shards spread round-robin with
    /// `cfg.replication_factor` copies each.
    pub fn new(mut cfg: ClusterConfig) -> Self {
        let router = Router::new(cfg.policy);
        cfg.policy = *router.policy(); // shard count clamped
        let n = cfg.nodes.clamp(1, 200);
        let mut topo = Topology::new();
        let mut nodes = Vec::with_capacity(n);
        for i in 0..n {
            let (topo_id, ip) = Self::add_node_to(&mut topo, i);
            nodes.push(NodeState {
                topo_id,
                ip,
                alive: true,
                shards: BTreeMap::new(),
                reorder: HashMap::new(),
                tier: None,
            });
        }
        let shards = cfg.policy.shards;
        let map = ShardMap::replicated(shards, n, cfg.replication_factor);
        for s in 0..shards as u16 {
            for &o in map.owners_of(s) {
                nodes[o].shards.insert(s, SpanStore::new());
            }
        }
        Cluster {
            fabric: Fabric::new(topo, cfg.fabric.clone()),
            nodes,
            map,
            router,
            clock: TimeNs(0),
            heap: BinaryHeap::new(),
            next_event_seq: 0,
            next_rpc_id: 1,
            next_tcp_seq: 1,
            pending: HashMap::new(),
            completed: HashMap::new(),
            ships: HashMap::new(),
            next_ship_id: 1,
            pending_writes: HashMap::new(),
            next_write_id: 1,
            suspected: HashMap::new(),
            stats: ClusterStats::default(),
            cfg,
        }
    }

    fn add_node_to(topo: &mut Topology, i: usize) -> (NodeId, Ipv4Addr) {
        let node_ip = Ipv4Addr::new(192, 168, 10, (i + 1) as u8);
        let pod_ip = Ipv4Addr::new(10, 50, i as u8, 1);
        let id = topo.add_simple_node(&format!("trace-server-{i}"), node_ip);
        topo.add_pod(
            id,
            &format!("df-server-{i}"),
            pod_ip,
            "deepflow",
            "df-server",
            "df-server-svc",
        );
        (id, pod_ip)
    }

    // ------------------------------------------------------------------
    // Event loop
    // ------------------------------------------------------------------

    fn push_event(&mut self, at: TimeNs, kind: EventKind) {
        let seq = self.next_event_seq;
        self.next_event_seq += 1;
        self.heap.push(Event { at, seq, kind });
    }

    fn step(&mut self) -> bool {
        let Some(ev) = self.heap.pop() else {
            return false;
        };
        self.clock = self.clock.max(ev.at);
        match ev.kind {
            EventKind::Deliver(d) => self.on_deliver(d),
            EventKind::RpcTimeout { rpc_id, attempt } => self.on_timeout(rpc_id, attempt),
            EventKind::Heal(el) => {
                self.fabric.faults.clear(&el);
            }
            EventKind::Kill(idx) => {
                if idx != 0 && idx < self.nodes.len() && self.nodes[idx].alive {
                    self.nodes[idx].alive = false;
                }
            }
            EventKind::Join => {
                self.join();
            }
        }
        true
    }

    /// Drain every scheduled event (deliveries, timeouts, heals,
    /// membership events).
    pub fn run_until_idle(&mut self) {
        while self.step() {}
    }

    // ------------------------------------------------------------------
    // Fault helpers
    // ------------------------------------------------------------------

    /// Cut node `idx` off from the coordinator: a [`Fault::Partition`]
    /// at the node's NIC black-holes both directions. Returns the faulted
    /// element so the caller can [`Cluster::schedule_heal`] it.
    pub fn partition_node(&mut self, idx: usize) -> ElementId {
        let el = ElementId::NodeNic(self.nodes[idx].topo_id);
        self.fabric.faults.inject(
            el.clone(),
            Fault::Partition {
                peers: vec![self.nodes[0].ip],
            },
        );
        el
    }

    /// Clear the fault on `element` after `after` of virtual time (the
    /// heal fires inside whatever retry loop is then running).
    pub fn schedule_heal(&mut self, element: ElementId, after: DurationNs) {
        let at = self.clock + after;
        self.push_event(at, EventKind::Heal(element));
    }

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------

    /// Protocol counters.
    pub fn stats(&self) -> ClusterStats {
        self.stats
    }

    /// Current virtual time.
    pub fn clock(&self) -> TimeNs {
        self.clock
    }

    /// The active configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }

    /// Nodes ever added (including departed/crashed ones).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Whether a node is still answering.
    pub fn is_alive(&self, idx: usize) -> bool {
        self.nodes[idx].alive
    }

    /// The node currently *primary* for `shard`.
    pub fn shard_owner(&self, shard: u16) -> usize {
        self.map.owner(shard)
    }

    /// Every node currently holding a copy of `shard`, primary first.
    pub fn shard_owners(&self, shard: u16) -> Vec<usize> {
        self.map.owners_of(shard).to_vec()
    }

    /// The shards node `idx` holds a copy of (primary or replica).
    pub fn shards_of_node(&self, idx: usize) -> Vec<u16> {
        self.map.shards_of(idx)
    }

    /// Content digest of node `idx`'s copy of `shard` (None if it holds
    /// no copy) — what the convergence tests compare across replicas.
    pub fn shard_digest_at(&self, idx: usize, shard: u16) -> Option<u64> {
        self.nodes
            .get(idx)?
            .shards
            .get(&shard)
            .map(replication::shard_digest)
    }

    /// Rows in node `idx`'s copy of `shard` (None if it holds no copy).
    pub fn shard_rows_at(&self, idx: usize, shard: u16) -> Option<usize> {
        self.nodes.get(idx)?.shards.get(&shard).map(|s| s.len())
    }

    /// Spans routed through ingest (whether or not their batch survived).
    pub fn len(&self) -> usize {
        self.router.len()
    }

    /// Whether nothing has been ingested.
    pub fn is_empty(&self) -> bool {
        self.router.is_empty()
    }

    /// Spans routed away from their preferred shard by the row cap.
    pub fn routing_clamped(&self) -> u64 {
        self.router.clamped()
    }

    /// Rows actually present per shard, ascending by shard — for
    /// differential tests against the oracle's `shard_sizes`. With
    /// replicas, a shard reports its best (most-caught-up) copy.
    pub fn shard_sizes(&self) -> Vec<usize> {
        (0..self.map.shard_count() as u16)
            .map(|s| {
                self.map
                    .owners_of(s)
                    .iter()
                    .map(|&o| self.nodes[o].shards.get(&s).map(|st| st.len()).unwrap_or(0))
                    .max()
                    .unwrap_or(0)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use df_types::span::TapSide;
    use df_types::SpanId;

    fn linked_pair() -> Vec<Span> {
        let mut client = Span::synthetic(TapSide::ClientProcess, 1_000, 9_000);
        client.tcp_seq_req = Some(42);
        let mut server = Span::synthetic(TapSide::ServerProcess, 2_000, 8_000);
        server.tcp_seq_req = Some(42);
        vec![client, server]
    }

    #[test]
    fn two_node_cluster_assembles_linked_spans() {
        let mut cluster = Cluster::new(ClusterConfig::default());
        let ids = cluster.ingest(linked_pair());
        let result = cluster.assemble(ids[1]);
        assert!(result.is_complete());
        assert_eq!(result.trace.len(), 2);
        assert_eq!(result.trace.spans[1].parent, Some(ids[0]));
        assert_eq!(cluster.stats().spans_lost, 0);
        assert!(cluster.stats().rpcs_sent > 0, "ingest or probe must RPC");
    }

    #[test]
    fn out_of_range_shard_counts_are_clamped_not_fatal() {
        // `ShardPolicy::route` is `hash % shards`: an unclamped 0 panics.
        for (asked, clamped) in [(0, 1), (100, 64)] {
            let mut cluster = Cluster::new(ClusterConfig {
                policy: ShardPolicy {
                    shards: asked,
                    ..ShardPolicy::default()
                },
                ..ClusterConfig::default()
            });
            assert_eq!(cluster.config().policy.shards, clamped);
            let ids = cluster.ingest(linked_pair());
            let result = cluster.assemble(ids[1]);
            assert!(result.is_complete());
            assert_eq!(result.trace.len(), 2, "{asked} shards");
        }
    }

    #[test]
    fn single_node_cluster_never_rpcs() {
        let mut cluster = Cluster::new(ClusterConfig {
            nodes: 1,
            ..ClusterConfig::default()
        });
        let ids = cluster.ingest(linked_pair());
        let result = cluster.assemble(ids[0]);
        assert!(result.is_complete());
        assert_eq!(result.trace.len(), 2);
        assert_eq!(cluster.stats().rpcs_sent, 0);
    }

    #[test]
    fn unknown_span_id_yields_empty_complete_trace() {
        let mut cluster = Cluster::new(ClusterConfig::default());
        let result = cluster.assemble(SpanId(99));
        assert!(result.is_complete());
        assert_eq!(result.trace.len(), 0);
    }

    #[test]
    fn leave_hands_shards_off_without_degrading() {
        let mut cluster = Cluster::new(ClusterConfig {
            nodes: 3,
            ..ClusterConfig::default()
        });
        let ids = cluster.ingest(linked_pair());
        let moved = cluster.leave(1);
        assert!(moved > 0);
        assert_eq!(cluster.stats().handoffs, moved as u64);
        let result = cluster.assemble(ids[1]);
        assert!(result.is_complete(), "handoff must not lose shards");
        assert_eq!(result.trace.len(), 2);
    }

    #[test]
    fn join_rebalances_shards_to_the_newcomer() {
        let mut cluster = Cluster::new(ClusterConfig {
            nodes: 2,
            policy: ShardPolicy::with_shards(6),
            ..ClusterConfig::default()
        });
        let ids = cluster.ingest(linked_pair());
        let idx = cluster.join();
        assert_eq!(idx, 2);
        assert!(
            !cluster.map.shards_of(idx).is_empty(),
            "newcomer owns shards"
        );
        let result = cluster.assemble(ids[0]);
        assert!(result.is_complete());
        assert_eq!(result.trace.len(), 2);
    }

    #[test]
    fn killed_node_degrades_queries_with_missing_shards() {
        let mut cluster = Cluster::new(ClusterConfig {
            nodes: 2,
            ..ClusterConfig::default()
        });
        let ids = cluster.ingest(linked_pair());
        cluster.kill(1);
        let result = cluster.assemble(ids[0]);
        assert_eq!(result.missing_shards, cluster.map.shards_of(1));
        assert!(cluster.stats().rpcs_failed > 0);
        assert!(cluster.stats().degraded_queries > 0);
    }

    #[test]
    fn replicated_ingest_reaches_every_owner() {
        let mut cluster = Cluster::new(ClusterConfig {
            nodes: 3,
            replication_factor: 2,
            ..ClusterConfig::default()
        });
        let ids = cluster.ingest(linked_pair());
        assert_eq!(cluster.stats().spans_lost, 0);
        assert!(cluster.stats().replicated_batches > 0);
        // Every copy of every touched shard holds the same rows.
        for s in 0..cluster.map.shard_count() as u16 {
            let rows: Vec<usize> = cluster
                .map
                .owners_of(s)
                .iter()
                .map(|&o| cluster.shard_rows_at(o, s).unwrap_or(0))
                .collect();
            assert!(
                rows.windows(2).all(|w| w[0] == w[1]),
                "shard {s} copies diverge: {rows:?}"
            );
        }
        let result = cluster.assemble(ids[1]);
        assert!(result.is_complete());
        assert_eq!(result.trace.len(), 2);
    }

    #[test]
    fn killed_replica_owner_degrades_nothing_at_rf2() {
        let mut cluster = Cluster::new(ClusterConfig {
            nodes: 2,
            replication_factor: 2,
            ..ClusterConfig::default()
        });
        let ids = cluster.ingest(linked_pair());
        cluster.kill(1);
        let result = cluster.assemble(ids[0]);
        assert!(
            result.is_complete(),
            "node 0 holds a copy of every shard at RF=2"
        );
        assert_eq!(result.trace.len(), 2);
    }
}
