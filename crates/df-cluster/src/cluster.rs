//! The simulated trace-server cluster: N nodes on a df-net fabric, with
//! node 0 acting as ingest front-end and query coordinator.
//!
//! Every cross-node interaction is a real RPC over the fabric: the request
//! is framed by [`RpcEnvelope`], carried in a TCP segment through
//! [`Fabric::transmit`], and subject to the fabric's fault table. On top
//! of the fabric's own eager retransmission cascade the cluster runs its
//! *own* retry loop — per-attempt timeout with exponential backoff — so a
//! black-holed path ([`Fault::Partition`]) or a sustained loss burst
//! surfaces as an RPC failure the protocol must absorb:
//!
//! * **Ingest** routes through the same [`Router`] as the single-process
//!   oracle, then ships each per-shard sub-batch to the shard's *primary*
//!   as a [`RpcBody::SpanBatch`]. The receiver applies batches through a
//!   [`BatchReorder`], so retried or reordered batches land in row order
//!   and every copy of the shard stays byte-identical to the oracle's.
//! * **Replication**: with `replication_factor ≥ 2` each shard has a
//!   primary plus R−1 replicas. The primary forwards the verbatim DFW1
//!   bytes to its co-owners as [`RpcBody::ReplicateBatch`] and
//!   acknowledges the ingest RPC only once a configurable write quorum
//!   of copies ([`WriteQuorum`]) has applied — or, to never hang, once
//!   every replication RPC has resolved (an under-quorum ack counted in
//!   [`ClusterStats::quorum_shortfalls`]). If a primary stays
//!   unreachable past the retry budget, ingest *fails over* to the next
//!   live owner instead of dropping the batch; spans are counted lost
//!   only when every owner is exhausted.
//! * **Anti-entropy**: [`Cluster::anti_entropy_round`] has each replica
//!   compare per-shard `(row_watermark, content_digest)` summaries with
//!   its co-owners ([`RpcBody::ShardSummaryRequest`]) and pull missing
//!   row ranges ([`RpcBody::RowRangeRequest`]) through the same reorder
//!   buffer as ingest, so a lagging copy converges byte-identically.
//! * **Assembly** is df-server's one Algorithm 1 driver
//!   ([`assemble_with`]) with the frontier on the coordinator and a remote
//!   prober against a *pinned ownership snapshot* (a concurrent
//!   join/leave cannot redirect a query mid-flight): each round's
//!   newly-discovered keys probe local shards in-process and every
//!   remote copy via [`RpcBody::CandidateRequest`]; a [`RoundTracker`]
//!   rejects late or duplicate responses. Point reads fail over from a
//!   dead primary to its live replicas.
//! * **Degraded mode**: a shard is reported in
//!   [`DistributedTrace::missing_shards`] only when *every* owner is
//!   unreachable or lost the rows — with RF ≥ 2 a single node failure
//!   degrades nothing. Owners that exhaust a retry budget enter a
//!   bounded probation ([`SUSPECT_PROBATION`]) during
//!   which new RPCs to them fast-fail after a single base-timeout probe
//!   instead of the full backoff ladder.
//! * **Crash recovery**: nodes spill cold time buckets to DFSPANS1
//!   segment files ([`Cluster::spill_node`]); a crashed node restarts
//!   via [`Cluster::restart_node`], which re-registers every valid
//!   segment file from its catalog scan (corrupt files counted, never
//!   panicked over) and serves cold spans without re-fetching them —
//!   anti-entropy then backfills only the hot tail.
//!
//! Time is virtual: a binary-heap event loop orders fabric deliveries,
//! RPC timeouts, scheduled fault heals, and scheduled membership events
//! (kill/join) on one deterministic clock.

use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap, HashMap, HashSet};
use std::io;
use std::net::Ipv4Addr;
use std::path::PathBuf;

use bytes::Bytes;
use df_check::sync::Arc;
use df_net::fabric::{Delivery, Fabric, FabricConfig};
use df_net::faults::Fault;
use df_net::topology::{ElementId, Topology};
use df_server::{assemble_with, probe_shard, AssembleConfig, Loc, Router, ShardProbe};
use df_storage::{
    persist, BufferPool, BufferPoolConfig, RecoverStats, ShardPolicy, SpanStore, SpillStats,
};
use df_types::rpc::{CandidateKeys, CandidateSpan, RpcBody, RpcEnvelope};
use df_types::wire::{self, WireDecodeError};
use df_types::{DurationNs, FiveTuple, NodeId, Segment, Span, SpanId, TcpFlags, TimeNs, Trace};

use crate::membership::ShardMap;
use crate::replication::{self, WriteQuorum};
use crate::tracker::{BatchReorder, RoundTracker};

/// Frame budget for each node's tier buffer pool.
const TIER_POOL_FRAMES: usize = 64;

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
/// Upper bound on rows per anti-entropy [`RpcBody::RowRangeRequest`].
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

/// A node's tiered-storage handle: the buffer pool caching its decoded
/// segments and the directory its segment files live in.
struct NodeTier {
    pool: Arc<BufferPool>,
    dir: PathBuf,
}

/// One simulated trace-server node.
struct NodeState {
    topo_id: NodeId,
    ip: Ipv4Addr,
    alive: bool,
    shards: BTreeMap<u16, SpanStore>,
    reorder: HashMap<u16, BatchReorder<Span>>,
    tier: Option<NodeTier>,
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

/// Why an RPC was issued — decides what happens when it resolves.
#[derive(Debug, Clone, Copy)]
enum RpcPurpose {
    /// A synchronous caller is waiting on the `completed` map
    /// (assembly probes, point fetches, anti-entropy).
    Driver,
    /// An ingest shipment; failure fails over to the next owner.
    Ship(u64),
    /// A primary→replica forward; resolution feeds the write's quorum.
    Replication(u64),
}

struct PendingRpc {
    from: usize,
    to: usize,
    /// The framed request, encoded exactly once at send time. Retries
    /// retransmit these bytes verbatim — a SpanBatch is never re-encoded.
    encoded: Bytes,
    attempt: u32,
    /// Total attempts allowed: the full ladder normally, a single
    /// base-timeout probe while the destination is under suspicion.
    max_attempts: u32,
    purpose: RpcPurpose,
}

enum RpcResult {
    Ok(RpcBody),
    Failed,
}

/// Who gets told when a replicated write reaches its quorum.
#[derive(Debug, Clone, Copy)]
enum WriteReply {
    /// A remote requester's SpanBatch RPC: send the deferred ack.
    Rpc { requester: usize, rpc_id: u64 },
    /// A coordinator-primary ingest shipment: mark the ship done.
    Ship(u64),
}

/// A replicated write in flight at its primary.
struct PendingWrite {
    /// The node that applied locally and is forwarding (must still be
    /// alive to ack — a crashed primary's writes die with it).
    node: usize,
    shard: u16,
    start_row: u32,
    count: u32,
    quorum: WriteQuorum,
    reply: WriteReply,
}

/// One per-shard ingest sub-batch working through the owner list.
struct Ship {
    shard: u16,
    start_row: u32,
    count: u32,
    /// The DFW1 batch bytes, encoded once; every owner attempt and
    /// every replication forward carries them verbatim.
    wire: Bytes,
    /// Owner snapshot at ingest time, primary first.
    owners: Vec<usize>,
    /// Owners attempted so far (`owners[..tried]`).
    tried: usize,
    done: bool,
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

    fn run_until_settled(&mut self, ids: &[u64]) {
        while ids.iter().any(|id| !self.completed.contains_key(id)) {
            if !self.step() {
                // Defensive: nothing left to happen — fail the leftovers
                // rather than spin (a settled cluster must never hang).
                for id in ids {
                    if !self.completed.contains_key(id) {
                        self.pending.remove(id);
                        self.completed.insert(*id, RpcResult::Failed);
                        self.stats.rpcs_failed += 1;
                    }
                }
                break;
            }
        }
    }

    fn run_until_ships_settled(&mut self, ids: &[u64]) {
        while ids
            .iter()
            .any(|id| self.ships.get(id).is_some_and(|s| !s.done))
        {
            if !self.step() {
                // Defensive, as above: a drained heap with undone ships
                // means nothing can resolve them — count the loss.
                for id in ids {
                    if let Some(s) = self.ships.get_mut(id) {
                        if !s.done {
                            s.done = true;
                            self.stats.spans_lost += s.count as u64;
                        }
                    }
                }
                break;
            }
        }
    }

    // ------------------------------------------------------------------
    // RPC layer
    // ------------------------------------------------------------------

    fn timeout_for(&self, attempt: u32) -> DurationNs {
        DurationNs(RPC_TIMEOUT.0 << attempt.min(6))
    }

    /// Whether `node` is currently under probation. Expired suspicions
    /// are cleared lazily here.
    fn suspect_active(&mut self, node: usize) -> bool {
        match self.suspected.get(&node) {
            Some(&until) if self.clock < until => true,
            Some(_) => {
                self.suspected.remove(&node);
                false
            }
            None => false,
        }
    }

    fn send_rpc(&mut self, from: usize, to: usize, body: RpcBody, purpose: RpcPurpose) -> u64 {
        let rpc_id = self.next_rpc_id;
        self.next_rpc_id += 1;
        self.stats.rpcs_sent += 1;
        let max_attempts = if self.suspect_active(to) {
            // Fast-fail: one base-timeout probe instead of the full
            // backoff ladder. Never zero attempts — a healed node must
            // get a real probe so it can clear its own suspicion.
            self.stats.fast_fails += 1;
            1
        } else {
            MAX_RPC_RETRIES + 1
        };
        let encoded = RpcEnvelope { rpc_id, body }.encode();
        self.pending.insert(
            rpc_id,
            PendingRpc {
                from,
                to,
                encoded,
                attempt: 0,
                max_attempts,
                purpose,
            },
        );
        self.transmit_rpc(rpc_id, 0);
        rpc_id
    }

    fn transmit_rpc(&mut self, rpc_id: u64, attempt: u32) {
        let (payload, src, dst) = {
            let p = &self.pending[&rpc_id];
            (
                p.encoded.clone(),
                self.nodes[p.from].ip,
                self.nodes[p.to].ip,
            )
        };
        self.transmit_segment(src, dst, payload, attempt > 0);
        let deadline = self.clock + self.timeout_for(attempt);
        self.push_event(deadline, EventKind::RpcTimeout { rpc_id, attempt });
    }

    fn transmit_segment(
        &mut self,
        src: Ipv4Addr,
        dst: Ipv4Addr,
        payload: Bytes,
        retransmission: bool,
    ) {
        let seq = self.next_tcp_seq;
        self.next_tcp_seq = self.next_tcp_seq.wrapping_add(payload.len().max(1) as u32);
        let seg = Segment {
            five_tuple: FiveTuple::tcp(src, 46000, dst, 7700),
            seq,
            ack: 0,
            flags: TcpFlags::PSH_ACK,
            window: 65535,
            payload,
            is_retransmission: retransmission,
        };
        let deliveries = self.fabric.transmit(seg, self.clock);
        for d in deliveries {
            self.push_event(d.at, EventKind::Deliver(d));
        }
    }

    fn on_timeout(&mut self, rpc_id: u64, attempt: u32) {
        let Some(p) = self.pending.get(&rpc_id) else {
            return; // already answered
        };
        if p.attempt != attempt {
            return; // superseded by a newer attempt's timer
        }
        if !self.nodes[p.from].alive {
            // The sender crashed with the RPC in flight: nothing will
            // retransmit it. Fail it without suspecting the target.
            self.fail_rpc(rpc_id, false);
            return;
        }
        if p.attempt + 1 >= p.max_attempts {
            self.fail_rpc(rpc_id, true);
            return;
        }
        let next_attempt = {
            let p = self.pending.get_mut(&rpc_id).expect("checked above");
            p.attempt += 1;
            p.attempt
        };
        self.stats.rpc_retries += 1;
        self.transmit_rpc(rpc_id, next_attempt);
    }

    /// Terminal failure of an RPC: updates suspicion, then dispatches on
    /// purpose — synchronous callers see `RpcResult::Failed`, ingest
    /// shipments fail over to the next owner, replication failures feed
    /// their write's quorum.
    fn fail_rpc(&mut self, rpc_id: u64, suspect: bool) {
        let Some(p) = self.pending.remove(&rpc_id) else {
            return;
        };
        self.stats.rpcs_failed += 1;
        if suspect {
            self.suspected.insert(p.to, self.clock + SUSPECT_PROBATION);
        }
        match p.purpose {
            RpcPurpose::Driver => {
                self.completed.insert(rpc_id, RpcResult::Failed);
            }
            RpcPurpose::Ship(ship_id) => self.start_ship_attempt(ship_id),
            RpcPurpose::Replication(write_id) => {
                if let Some(w) = self.pending_writes.get_mut(&write_id) {
                    w.quorum.record_failure();
                }
                self.maybe_ack_write(write_id);
            }
        }
    }

    fn on_deliver(&mut self, d: Delivery) {
        let Some(idx) = self.nodes.iter().position(|n| n.topo_id == d.node) else {
            return;
        };
        if !self.nodes[idx].alive || d.segment.flags.rst {
            return; // crashed node, or a fault-injected RST (not an RPC)
        }
        let Ok(env) = RpcEnvelope::decode(&d.segment.payload) else {
            return;
        };
        match env.body {
            RpcBody::SpanBatch { .. }
            | RpcBody::CandidateRequest { .. }
            | RpcBody::SpanFetch { .. }
            | RpcBody::ReplicateBatch { .. }
            | RpcBody::ShardSummaryRequest { .. }
            | RpcBody::RowRangeRequest { .. } => {
                let requester = self
                    .nodes
                    .iter()
                    .position(|n| n.ip == d.segment.five_tuple.src_ip)
                    .unwrap_or(0);
                if let Some(body) = self.handle_request(idx, requester, env.rpc_id, env.body) {
                    let payload = RpcEnvelope {
                        rpc_id: env.rpc_id,
                        body,
                    }
                    .encode();
                    let (src, dst) = (self.nodes[idx].ip, self.nodes[requester].ip);
                    self.transmit_segment(src, dst, payload, false);
                }
            }
            _ => {
                let Some(p) = self.pending.remove(&env.rpc_id) else {
                    self.stats.stale_responses += 1;
                    return;
                };
                // Any answer is proof of life: lift the probation.
                self.suspected.remove(&p.to);
                match p.purpose {
                    RpcPurpose::Driver => {
                        self.completed.insert(env.rpc_id, RpcResult::Ok(env.body));
                    }
                    RpcPurpose::Ship(ship_id) => {
                        if let Some(s) = self.ships.get_mut(&ship_id) {
                            s.done = true;
                        }
                    }
                    RpcPurpose::Replication(write_id) => {
                        if let Some(w) = self.pending_writes.get_mut(&write_id) {
                            w.quorum.record_ack();
                        }
                        self.maybe_ack_write(write_id);
                    }
                }
            }
        }
    }

    /// A node answers a request against its local shards. Requests are
    /// idempotent: batch applies are deduplicated by the reorder buffer,
    /// the reads are stateless — so a retried RPC handled twice is safe.
    /// Returns `None` when the ack is deferred (a replicated SpanBatch
    /// waits for its write quorum).
    fn handle_request(
        &mut self,
        idx: usize,
        requester: usize,
        rpc_id: u64,
        body: RpcBody,
    ) -> Option<RpcBody> {
        match body {
            RpcBody::SpanBatch {
                shard,
                start_row,
                wire: batch,
            } => {
                // The envelope decoder validated the DFW1 header; a batch
                // that still fails to decode here is dropped (and acked
                // with count 0) rather than crashing the node.
                let spans = wire::decode_batch(&batch).unwrap_or_default();
                let count = spans.len() as u32;
                Self::apply_batch(&mut self.nodes[idx], shard, start_row, spans);
                if self.begin_write(
                    idx,
                    shard,
                    start_row,
                    count,
                    batch,
                    WriteReply::Rpc { requester, rpc_id },
                ) {
                    return None; // ack deferred until the quorum is met
                }
                Some(RpcBody::SpanBatchAck {
                    shard,
                    start_row,
                    count,
                })
            }
            RpcBody::ReplicateBatch {
                shard,
                start_row,
                wire: batch,
            } => {
                let spans = wire::decode_batch(&batch).unwrap_or_default();
                let count = spans.len() as u32;
                Self::apply_batch(&mut self.nodes[idx], shard, start_row, spans);
                Some(RpcBody::ReplicateAck {
                    shard,
                    start_row,
                    count,
                })
            }
            RpcBody::CandidateRequest { round, keys } => {
                let candidates = self.nodes[idx]
                    .probe(&keys, &HashSet::new())
                    .into_iter()
                    .map(|(Loc { shard, row }, span)| CandidateSpan { shard, row, span })
                    .collect();
                Some(RpcBody::CandidateResponse { round, candidates })
            }
            RpcBody::SpanFetch { shard, row } => {
                let span = self.nodes[idx]
                    .shards
                    .get(&shard)
                    .and_then(|s| s.span_at(row))
                    .map(|s| Box::new(s.into_owned()));
                Some(RpcBody::SpanFetchResponse { shard, row, span })
            }
            RpcBody::ShardSummaryRequest { shard } => {
                let (rows, digest) = match self.nodes[idx].shards.get(&shard) {
                    Some(store) => (store.len() as u32, replication::shard_digest(store)),
                    None => (0, replication::EMPTY_DIGEST),
                };
                Some(RpcBody::ShardSummaryResponse {
                    shard,
                    rows,
                    digest,
                })
            }
            RpcBody::RowRangeRequest {
                shard,
                start_row,
                max_rows,
            } => {
                let mut spans = Vec::new();
                if let Some(store) = self.nodes[idx].shards.get(&shard) {
                    let end =
                        (u64::from(start_row) + u64::from(max_rows)).min(store.len() as u64) as u32;
                    for row in start_row..end {
                        match store.span_at(row) {
                            Some(s) => spans.push(s.into_owned()),
                            None => break, // the range must stay contiguous
                        }
                    }
                }
                Some(RpcBody::row_range_response(shard, start_row, &spans))
            }
            other => Some(other), // responses never reach handle_request
        }
    }

    fn apply_batch(node: &mut NodeState, shard: u16, start_row: u32, spans: Vec<Span>) {
        let Some(store) = node.shards.get_mut(&shard) else {
            return; // shard handed off; the stale batch is dropped
        };
        let runs =
            node.reorder
                .entry(shard)
                .or_default()
                .offer(store.len() as u32, start_row, spans);
        for run in runs {
            store.insert_routed_batch(run);
        }
    }

    // ------------------------------------------------------------------
    // Replication
    // ------------------------------------------------------------------

    /// The write quorum for a shard with `owners` copies.
    fn effective_quorum(&self, owners: usize) -> u32 {
        let q = if self.cfg.write_quorum == 0 {
            owners
        } else {
            self.cfg.write_quorum.min(owners)
        };
        q.max(1) as u32
    }

    /// Forward a just-applied batch from `node` to the shard's other
    /// owners and track the write quorum. Returns false (nothing to
    /// wait for) when the node is the shard's only owner.
    fn begin_write(
        &mut self,
        node: usize,
        shard: u16,
        start_row: u32,
        count: u32,
        batch: Bytes,
        reply: WriteReply,
    ) -> bool {
        let peers: Vec<usize> = self
            .map
            .owners_of(shard)
            .iter()
            .copied()
            .filter(|&o| o != node)
            .collect();
        if peers.is_empty() {
            return false;
        }
        let write_id = self.next_write_id;
        self.next_write_id += 1;
        let quorum = self.effective_quorum(peers.len() + 1);
        self.pending_writes.insert(
            write_id,
            PendingWrite {
                node,
                shard,
                start_row,
                count,
                quorum: WriteQuorum::new(quorum, peers.len() as u32),
                reply,
            },
        );
        for peer in peers {
            self.stats.replicated_batches += 1;
            self.send_rpc(
                node,
                peer,
                RpcBody::ReplicateBatch {
                    shard,
                    start_row,
                    wire: batch.clone(),
                },
                RpcPurpose::Replication(write_id),
            );
        }
        true
    }

    /// Acknowledge a write's requester if its quorum allows it, and
    /// retire the write once every replication RPC has resolved. A
    /// write whose primary crashed is dropped unacked — the requester's
    /// own RPC times out and fails over.
    fn maybe_ack_write(&mut self, write_id: u64) {
        let Some(w) = self.pending_writes.get(&write_id) else {
            return;
        };
        if !self.nodes[w.node].alive {
            self.pending_writes.remove(&write_id);
            return;
        }
        let acked_now = {
            let w = self.pending_writes.get_mut(&write_id).expect("checked");
            if w.quorum.ready() && !w.quorum.met() {
                self.stats.quorum_shortfalls += 1;
            }
            w.quorum.try_ack()
        };
        if acked_now {
            let (node, shard, start_row, count, reply) = {
                let w = &self.pending_writes[&write_id];
                (w.node, w.shard, w.start_row, w.count, w.reply)
            };
            match reply {
                WriteReply::Rpc { requester, rpc_id } => {
                    let payload = RpcEnvelope {
                        rpc_id,
                        body: RpcBody::SpanBatchAck {
                            shard,
                            start_row,
                            count,
                        },
                    }
                    .encode();
                    let (src, dst) = (self.nodes[node].ip, self.nodes[requester].ip);
                    self.transmit_segment(src, dst, payload, false);
                }
                WriteReply::Ship(ship_id) => {
                    if let Some(s) = self.ships.get_mut(&ship_id) {
                        s.done = true;
                    }
                }
            }
        }
        if let Some(w) = self.pending_writes.get(&write_id) {
            if w.quorum.acked() && w.quorum.settled() {
                self.pending_writes.remove(&write_id);
            }
        }
    }

    /// Try the ship's next untried owner; when none is left, the spans
    /// are lost (every copy's retry budget is exhausted).
    fn start_ship_attempt(&mut self, ship_id: u64) {
        let (owner, shard, start_row, batch, first) = {
            let Some(ship) = self.ships.get_mut(&ship_id) else {
                return;
            };
            if ship.done {
                return;
            }
            if ship.tried >= ship.owners.len() {
                ship.done = true;
                self.stats.spans_lost += ship.count as u64;
                return;
            }
            let owner = ship.owners[ship.tried];
            ship.tried += 1;
            (
                owner,
                ship.shard,
                ship.start_row,
                ship.wire.clone(),
                ship.tried == 1,
            )
        };
        if !first {
            self.stats.failovers += 1;
        }
        if owner == 0 {
            // The coordinator itself owns a copy: apply in-process, then
            // replicate to the co-owners before declaring the ship done.
            let spans = wire::decode_batch(&batch).unwrap_or_default();
            let count = spans.len() as u32;
            Self::apply_batch(&mut self.nodes[0], shard, start_row, spans);
            if !self.begin_write(0, shard, start_row, count, batch, WriteReply::Ship(ship_id)) {
                // Sole owner: the local apply is the whole write.
                self.ships.get_mut(&ship_id).expect("ship tracked").done = true;
            }
            return;
        }
        self.send_rpc(
            0,
            owner,
            RpcBody::SpanBatch {
                shard,
                start_row,
                wire: batch,
            },
            RpcPurpose::Ship(ship_id),
        );
    }

    // ------------------------------------------------------------------
    // Ingest
    // ------------------------------------------------------------------

    /// Route and store a batch of spans, shipping remote sub-batches over
    /// the fabric. Ids and rows come from the oracle's own [`Router`], so
    /// a fault-free cluster holds the same rows in the same shards. With
    /// replication, each sub-batch is acknowledged at its write quorum and
    /// fails over through the shard's owner list before any span is
    /// counted lost.
    pub fn ingest(&mut self, spans: Vec<Span>) -> Vec<SpanId> {
        if spans.is_empty() {
            return Vec::new();
        }
        let (ids, subs) = self.router.split(spans);
        let mut ship_ids = Vec::new();
        for sub in subs {
            self.stats.spans_shipped += sub.spans.len() as u64;
            let ship_id = self.next_ship_id;
            self.next_ship_id += 1;
            self.ships.insert(
                ship_id,
                Ship {
                    shard: sub.shard,
                    start_row: sub.start_row,
                    count: sub.spans.len() as u32,
                    // Encoded once here; owner failover and replication
                    // forwards all retransmit the same bytes.
                    wire: Bytes::from(wire::encode_batch(&sub.spans)),
                    owners: self.map.owners_of(sub.shard).to_vec(),
                    tried: 0,
                    done: false,
                },
            );
            self.start_ship_attempt(ship_id);
            ship_ids.push(ship_id);
        }
        self.run_until_ships_settled(&ship_ids);
        for id in &ship_ids {
            self.ships.remove(id);
        }
        ids
    }

    /// Ingest a DFW1-encoded batch as an agent would deliver it: decode,
    /// then route exactly like [`Cluster::ingest`]. Per-shard sub-batches
    /// bound for remote owners are re-framed (routing splits the batch),
    /// encoded once, and retried verbatim.
    pub fn ingest_wire(&mut self, batch: &[u8]) -> Result<Vec<SpanId>, WireDecodeError> {
        Ok(self.ingest(wire::decode_batch(batch)?))
    }

    // ------------------------------------------------------------------
    // Distributed assembly (Algorithm 1, Phase 1 over RPC)
    // ------------------------------------------------------------------

    /// Assemble the trace containing `start`, probing remote shards over
    /// the fabric. Never hangs: an unreachable owner fails after the
    /// retry budget, point reads fail over to replicas, and a shard is
    /// reported in `missing_shards` only when every copy is gone.
    ///
    /// Ownership is snapshotted once at entry: a join or leave that
    /// lands mid-assembly (scheduled membership events fire inside the
    /// per-round settle loops) cannot redirect later rounds, though a
    /// freshly-joined node holding stores is still probed.
    pub fn assemble(&mut self, start: SpanId) -> DistributedTrace {
        let Some(loc) = self.router.loc(start) else {
            return DistributedTrace {
                trace: Trace::default(),
                missing_shards: Vec::new(),
                rounds: 0,
            };
        };
        let cfg = self.cfg.assemble.clone();
        let mut probe = RemoteProbe {
            map: self.map.clone(),
            cluster: self,
            span_of: HashMap::new(),
            failed_nodes: HashSet::new(),
            missing: BTreeSet::new(),
            tracker: RoundTracker::new(),
        };
        let (trace, rounds) = match probe.fetch_span(loc) {
            Some(span) => {
                probe.span_of.insert(loc, span);
                assemble_with(&mut probe, loc, start, &cfg)
            }
            None => (Trace::default(), 0),
        };
        // A start span no copy could produce is itself a degraded answer.
        if trace.is_empty() || !probe.missing.is_empty() {
            probe.cluster.stats.degraded_queries += 1;
        }
        DistributedTrace {
            trace,
            missing_shards: probe.missing.into_iter().collect(),
            rounds,
        }
    }

    // ------------------------------------------------------------------
    // Anti-entropy
    // ------------------------------------------------------------------

    /// Issue a Driver RPC and wait for its resolution.
    fn call(&mut self, from: usize, to: usize, body: RpcBody) -> Option<RpcBody> {
        let id = self.send_rpc(from, to, body, RpcPurpose::Driver);
        self.run_until_settled(&[id]);
        match self.completed.remove(&id) {
            Some(RpcResult::Ok(b)) => Some(b),
            _ => None,
        }
    }

    /// One full anti-entropy sweep: every live owner of every replicated
    /// shard exchanges `(rows, digest)` summaries with its live
    /// co-owners and pulls the row ranges it is missing, applied through
    /// the same [`BatchReorder`] as ingest so the copies converge
    /// byte-identically. Pulls are bounded per RPC by
    /// [`ANTI_ENTROPY_PULL_MAX`] and never reach past a
    /// stashed out-of-order batch (which would strand it as a false
    /// duplicate).
    pub fn anti_entropy_round(&mut self) -> AntiEntropyReport {
        let mut report = AntiEntropyReport::default();
        let map = self.map.clone();
        for shard in 0..map.shard_count() as u16 {
            let owners = map.owners_of(shard).to_vec();
            if owners.len() < 2 {
                continue;
            }
            for &me in &owners {
                if !self.nodes[me].alive {
                    continue;
                }
                // An owner always has a store; make that true even for a
                // slot acquired without data (defensive — join inserts
                // empty stores already).
                self.nodes[me].shards.entry(shard).or_default();
                for &peer in &owners {
                    if peer == me || !self.nodes[peer].alive {
                        continue;
                    }
                    let Some(RpcBody::ShardSummaryResponse {
                        rows: peer_rows,
                        digest: peer_digest,
                        ..
                    }) = self.call(me, peer, RpcBody::ShardSummaryRequest { shard })
                    else {
                        report.unreachable += 1;
                        continue;
                    };
                    loop {
                        let my_rows = self.nodes[me].shards[&shard].len() as u32;
                        if my_rows >= peer_rows {
                            break;
                        }
                        let cap = self.nodes[me]
                            .reorder
                            .get(&shard)
                            .and_then(|r| r.first_pending_start())
                            .unwrap_or(u32::MAX);
                        let end = peer_rows
                            .min(cap)
                            .min(my_rows.saturating_add(ANTI_ENTROPY_PULL_MAX));
                        if end <= my_rows {
                            break;
                        }
                        let resp = self.call(
                            me,
                            peer,
                            RpcBody::RowRangeRequest {
                                shard,
                                start_row: my_rows,
                                max_rows: end - my_rows,
                            },
                        );
                        let Some(RpcBody::RowRangeResponse {
                            start_row, wire, ..
                        }) = resp
                        else {
                            report.unreachable += 1;
                            break;
                        };
                        let spans = wire::decode_batch(&wire).unwrap_or_default();
                        if spans.is_empty() {
                            break; // the peer had nothing servable there
                        }
                        report.pulls += 1;
                        self.stats.anti_entropy_pulls += 1;
                        let n = spans.len() as u64;
                        report.spans += n;
                        self.stats.backfilled_spans += n;
                        Self::apply_batch(&mut self.nodes[me], shard, start_row, spans);
                    }
                    let my_rows = self.nodes[me].shards[&shard].len() as u32;
                    if my_rows == peer_rows && peer_rows > 0 {
                        let my_digest = replication::shard_digest(&self.nodes[me].shards[&shard]);
                        if my_digest != peer_digest {
                            report.divergent += 1;
                        }
                    }
                }
            }
        }
        report
    }

    // ------------------------------------------------------------------
    // Tiered storage: spill and crash recovery
    // ------------------------------------------------------------------

    fn fresh_pool() -> Arc<BufferPool> {
        Arc::new(BufferPool::new(BufferPoolConfig {
            frames: TIER_POOL_FRAMES,
            ..BufferPoolConfig::default()
        }))
    }

    /// Create the node's tier handle (pool + per-node directory) if it
    /// does not exist yet. Requires [`ClusterConfig::tier_dir`].
    fn ensure_tier(&mut self, idx: usize) -> io::Result<()> {
        if self.nodes[idx].tier.is_some() {
            return Ok(());
        }
        let base = self
            .cfg
            .tier_dir
            .clone()
            .expect("tiered paths need ClusterConfig::tier_dir");
        let dir = base.join(format!("node{idx}"));
        persist::ensure_dir(&dir)?;
        self.nodes[idx].tier = Some(NodeTier {
            pool: Self::fresh_pool(),
            dir,
        });
        Ok(())
    }

    /// Spill every shard copy on node `idx` whose rows are older than
    /// `watermark` to DFSPANS1 segment files under the node's tier
    /// directory. Content-neutral: queries and probes see the same
    /// corpus, paged back on demand.
    pub fn spill_node(&mut self, idx: usize, watermark: TimeNs) -> io::Result<SpillStats> {
        self.ensure_tier(idx)?;
        let (pool, dir) = {
            let tier = self.nodes[idx].tier.as_ref().expect("just ensured");
            (Arc::clone(&tier.pool), tier.dir.clone())
        };
        let policy = self.cfg.policy;
        let mut total = SpillStats::default();
        let shards: Vec<u16> = self.nodes[idx].shards.keys().copied().collect();
        for s in shards {
            let store = self.nodes[idx].shards.get_mut(&s).expect("key just listed");
            total.merge(store.spill_before(&policy, watermark, &pool, &dir, s)?);
        }
        Ok(total)
    }

    /// Restart a crashed node: its in-memory shards, reorder buffers,
    /// page cache, and in-flight writes are gone (that *is* the crash);
    /// the DFSPANS1 segment files on disk are not. Every owned shard is
    /// rebuilt by re-registering its valid segment files (corrupt files
    /// are counted in [`RecoverStats::rejected_segments`], never
    /// panicked over), after which cold reads are served from disk
    /// without re-fetching from peers and an
    /// [`Cluster::anti_entropy_round`] backfills only the hot tail.
    pub fn restart_node(&mut self, idx: usize) -> io::Result<RecoverStats> {
        assert!(idx != 0, "coordinator cannot restart");
        assert!(
            !self.nodes[idx].alive,
            "restart requires a crashed node (kill it first)"
        );
        // Abandon the crashed process's protocol state: its outbound
        // RPCs can never be retransmitted and its unacked writes die
        // unacked (the requesters' own RPCs time out and fail over).
        let stale: Vec<u64> = self
            .pending
            .iter()
            .filter(|(_, p)| p.from == idx)
            .map(|(&id, _)| id)
            .collect();
        for id in stale {
            self.pending.remove(&id);
            self.stats.rpcs_failed += 1;
        }
        self.pending_writes.retain(|_, w| w.node != idx);
        self.nodes[idx].shards.clear();
        self.nodes[idx].reorder.clear();
        self.nodes[idx].tier = None; // fresh pool; segment files survive
        self.ensure_tier(idx)?;
        let (pool, dir) = {
            let tier = self.nodes[idx].tier.as_ref().expect("just ensured");
            (Arc::clone(&tier.pool), tier.dir.clone())
        };
        let mut total = RecoverStats::default();
        for s in self.map.shards_of(idx) {
            let mut store = SpanStore::new();
            total.merge(store.recover_cold_segments(&pool, &dir, s)?);
            self.nodes[idx].shards.insert(s, store);
        }
        self.stats.recovered_segments += total.segments as u64;
        self.stats.recovered_rejects += total.rejected_segments as u64;
        self.nodes[idx].alive = true;
        self.suspected.remove(&idx);
        Ok(total)
    }

    // ------------------------------------------------------------------
    // Membership: join / leave / kill
    // ------------------------------------------------------------------

    /// Gracefully remove a node: each of its owner slots (store and
    /// reorder state alongside) hands off to a live node that does not
    /// already hold a copy, preferring the least loaded; if every live
    /// node already holds one, the slot is dropped (the shard stays on
    /// its co-owners). Queries after a `leave` are *not* degraded.
    /// Returns the number of slots handed off. The coordinator (node 0)
    /// cannot leave.
    pub fn leave(&mut self, idx: usize) -> usize {
        assert!(idx != 0, "coordinator cannot leave");
        assert!(self.nodes[idx].alive, "node already offline");
        let shards = self.map.shards_of(idx);
        let mut moved = 0;
        for s in shards {
            let store = self.nodes[idx].shards.remove(&s).expect("map/store agree");
            let reorder = self.nodes[idx].reorder.remove(&s);
            let target = (0..self.nodes.len())
                .filter(|&i| i != idx && self.nodes[i].alive && !self.map.is_owner(s, i))
                .min_by_key(|&i| (self.nodes[i].shards.len(), i));
            match target {
                Some(t) => {
                    let replaced = self.map.replace_owner(s, idx, t);
                    debug_assert!(replaced, "target verified not an owner");
                    self.nodes[t].shards.insert(s, store);
                    if let Some(r) = reorder {
                        if r.pending() > 0 {
                            self.nodes[t].reorder.insert(s, r);
                        }
                    }
                    self.stats.handoffs += 1;
                    moved += 1;
                }
                None => {
                    // Every live node already holds a copy: drop the
                    // slot, accepting temporary under-replication.
                    self.map.remove_owner(s, idx);
                }
            }
        }
        self.nodes[idx].alive = false;
        moved
    }

    /// Add a node and rebalance in three passes: (1) take over dead
    /// owners' slots (the newcomer starts empty there — anti-entropy
    /// backfills from the surviving co-owners); (2) repair
    /// under-replicated shards; (3) move primaries (stores and reorder
    /// state alongside) from the most-loaded nodes until the newcomer
    /// holds its fair share. Returns the new node's index.
    pub fn join(&mut self) -> usize {
        let idx = self.nodes.len();
        let (topo_id, ip) = Self::add_node_to(&mut self.fabric.topology, idx);
        self.nodes.push(NodeState {
            topo_id,
            ip,
            alive: true,
            shards: BTreeMap::new(),
            reorder: HashMap::new(),
            tier: None,
        });
        // Pass 1: inherit dead owners' slots.
        for s in 0..self.map.shard_count() as u16 {
            let dead: Vec<usize> = self
                .map
                .owners_of(s)
                .iter()
                .copied()
                .filter(|&o| !self.nodes[o].alive)
                .collect();
            for d in dead {
                if self.map.replace_owner(s, d, idx) {
                    self.nodes[idx].shards.entry(s).or_default();
                    self.stats.handoffs += 1;
                    break; // at most one slot per shard for the newcomer
                }
            }
        }
        // Pass 2: repair under-replication left by departures.
        let alive = self.nodes.iter().filter(|n| n.alive).count();
        let rf = self.cfg.replication_factor.clamp(1, alive);
        for s in 0..self.map.shard_count() as u16 {
            if self.map.owners_of(s).len() < rf && self.map.add_owner(s, idx) {
                self.nodes[idx].shards.entry(s).or_default();
                self.stats.handoffs += 1;
            }
        }
        // Pass 3: primary rebalance.
        let target = self.map.shard_count() / alive;
        while self.map.primary_shards_of(idx).len() < target {
            let donor = (0..self.nodes.len())
                .filter(|&i| i != idx && self.nodes[i].alive)
                .max_by_key(|&i| (self.map.primary_shards_of(i).len(), usize::MAX - i))
                .filter(|&i| self.map.primary_shards_of(i).len() > target);
            let Some(donor) = donor else {
                break;
            };
            let Some(s) = self
                .map
                .primary_shards_of(donor)
                .into_iter()
                .rev()
                .find(|&s| !self.map.is_owner(s, idx))
            else {
                break;
            };
            let store = self.nodes[donor]
                .shards
                .remove(&s)
                .expect("primary holds store");
            let reorder = self.nodes[donor].reorder.remove(&s);
            self.map.reassign(s, idx);
            self.nodes[idx].shards.insert(s, store);
            if let Some(r) = reorder {
                self.nodes[idx].reorder.insert(s, r);
            }
            self.stats.handoffs += 1;
        }
        idx
    }

    /// Crash a node: it stops answering but its owner slots stay
    /// assigned, so queries fail over to its shards' replicas — or
    /// degrade, when it held the only copy. The coordinator (node 0)
    /// cannot be killed.
    pub fn kill(&mut self, idx: usize) {
        assert!(idx != 0, "coordinator cannot be killed");
        self.nodes[idx].alive = false;
    }

    /// Schedule a [`Cluster::kill`] of node `idx` after `after` of
    /// virtual time — the crash fires *inside* whatever ingest or
    /// assembly loop is then running, which is how the chaos tests kill
    /// nodes mid-protocol. A kill targeting a node already dead (or not
    /// yet joined) is a no-op.
    pub fn schedule_kill(&mut self, idx: usize, after: DurationNs) {
        assert!(idx != 0, "coordinator cannot be killed");
        let at = self.clock + after;
        self.push_event(at, EventKind::Kill(idx));
    }

    /// Schedule a [`Cluster::join`] after `after` of virtual time (fires
    /// mid-protocol like [`Cluster::schedule_kill`]).
    pub fn schedule_join(&mut self, after: DurationNs) {
        let at = self.clock + after;
        self.push_event(at, EventKind::Join);
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

/// The remote prober of [`assemble_with`]: one query's view of the
/// cluster from the coordinator. Local shard copies are probed in-process,
/// every other node over a `CandidateRequest` RPC; candidate spans travel
/// with the responses and are kept here, since the coordinator cannot
/// borrow rows it does not hold.
struct RemoteProbe<'a> {
    cluster: &'a mut Cluster,
    /// Ownership as of query entry.
    map: ShardMap,
    /// The start span plus every candidate any round returned.
    span_of: HashMap<Loc, Span>,
    /// Nodes that failed an RPC of this query (not asked again).
    failed_nodes: HashSet<usize>,
    /// Shards no live copy could answer for.
    missing: BTreeSet<u16>,
    tracker: RoundTracker,
}

impl RemoteProbe<'_> {
    /// Record as missing every shard whose *entire* owner list has
    /// failed — with replicas, one dead owner degrades nothing.
    fn note_missing(&mut self) {
        if self.failed_nodes.is_empty() {
            return;
        }
        for shard in 0..self.map.shard_count() as u16 {
            let owners = self.map.owners_of(shard);
            if owners.iter().all(|o| self.failed_nodes.contains(o)) {
                self.missing.insert(shard);
            }
        }
    }

    /// Point-read a row, trying each owner in slot order (the
    /// coordinator's own copy is read in-process). `Ok(None)` from one
    /// copy falls through to the next — a lagging replica must not hide
    /// a row its co-owner holds.
    fn fetch_span(&mut self, Loc { shard, row }: Loc) -> Option<Span> {
        let mut answered = false;
        for owner in self.map.owners_of(shard).to_vec() {
            if self.failed_nodes.contains(&owner) {
                continue;
            }
            if owner == 0 {
                let local = self.cluster.nodes[0].shards.get(&shard);
                match local.and_then(|s| s.span_at(row)) {
                    Some(s) => return Some(s.into_owned()),
                    None => {
                        answered = true;
                        continue;
                    }
                }
            }
            match self
                .cluster
                .call(0, owner, RpcBody::SpanFetch { shard, row })
            {
                Some(RpcBody::SpanFetchResponse { span: Some(s), .. }) => return Some(*s),
                Some(RpcBody::SpanFetchResponse { span: None, .. }) => answered = true,
                _ => {
                    self.failed_nodes.insert(owner);
                }
            }
        }
        // No copy produced the span. Attribute the degradation honestly:
        // shards all of whose owners failed, plus — if some owner did
        // answer — this shard, whose rows were lost in ingest.
        self.note_missing();
        if answered {
            self.missing.insert(shard);
        }
        None
    }
}

impl ShardProbe for RemoteProbe<'_> {
    fn span_at(&self, loc: Loc) -> Cow<'_, Span> {
        Cow::Borrowed(&self.span_of[&loc])
    }

    fn probe_round(&mut self, round: u32, keys: &CandidateKeys, seen: &HashSet<Loc>) -> Vec<Loc> {
        // Local probes: the coordinator's own shards, against the real
        // visited set. Spans are captured eagerly — a scheduled join
        // firing inside this round's settle loop may move the store
        // before the merge below runs.
        let mut candidates = self.cluster.nodes[0].probe(keys, seen);

        // Remote probes: every node that could hold a candidate — each
        // shard copy answers, so one dead owner costs nothing. A node
        // outside the snapshot that holds stores (it joined mid-assembly)
        // is probed too.
        let mut round_rpcs: Vec<(u64, usize)> = Vec::new();
        for idx in 1..self.cluster.nodes.len() {
            if self.failed_nodes.contains(&idx)
                || (self.map.shards_of(idx).is_empty() && self.cluster.nodes[idx].shards.is_empty())
            {
                continue;
            }
            let body = RpcBody::CandidateRequest {
                round,
                keys: keys.clone(),
            };
            let id = self.cluster.send_rpc(0, idx, body, RpcPurpose::Driver);
            round_rpcs.push((id, idx));
        }
        let ids: Vec<u64> = round_rpcs.iter().map(|&(id, _)| id).collect();
        self.tracker.begin_round(round, &ids);
        self.cluster.run_until_settled(&ids);
        for (id, idx) in round_rpcs {
            match self.cluster.completed.remove(&id) {
                Some(RpcResult::Ok(RpcBody::CandidateResponse {
                    round,
                    candidates: found,
                })) if self.tracker.accept(round, id) => {
                    candidates.extend(found.into_iter().map(|c| {
                        let (shard, row) = (c.shard, c.row);
                        (Loc { shard, row }, c.span)
                    }));
                }
                _ => {
                    // Timed out, wrong body, or a round-label the tracker
                    // refused: the node is out of this query. Its shards
                    // go missing only if no other copy can answer for
                    // them.
                    self.failed_nodes.insert(idx);
                }
            }
        }
        self.note_missing();

        // Merge in global shard order (stable: local before remote, remote
        // in node order) — the order the in-process prober produces, so
        // member sets match under caps. Replicated shards answer once per
        // copy; the first copy's span is kept and the driver dedups.
        candidates.sort_by_key(|(loc, _)| loc.shard);
        let mut found = Vec::with_capacity(candidates.len());
        for (loc, span) in candidates {
            if !seen.contains(&loc) {
                self.span_of.entry(loc).or_insert(span);
                found.push(loc);
            }
        }
        found
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use df_types::span::TapSide;

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
