//! Everything that brings copies back in line after a fault or a
//! membership change.
//!
//! * **Anti-entropy**: [`Cluster::anti_entropy_round`] has each replica
//!   compare per-shard `(row_watermark, content_digest)` summaries with
//!   its co-owners ([`RpcBody::ShardSummaryRequest`]) and pull missing
//!   row ranges ([`RpcBody::RowRangeRequest`]) through the same reorder
//!   buffer as ingest, so a lagging copy converges byte-identically.
//! * **Crash recovery**: nodes spill cold time buckets to DFSPANS1
//!   segment files ([`Cluster::spill_node`]) through a per-node [`Tier`];
//!   a crashed node restarts via [`Cluster::restart_node`], which
//!   re-registers every valid segment file from its catalog scan (corrupt
//!   files counted, never panicked over) and serves cold spans without
//!   re-fetching them — anti-entropy then backfills only the hot tail.
//! * **Membership**: join / leave / kill and the owner-slot handoff.

use std::collections::{BTreeMap, HashMap};
use std::io;

use df_storage::{RecoverStats, SpanStore, SpillStats, Tier, TierConfig};
use df_types::rpc::RpcBody;
use df_types::wire;
use df_types::{DurationNs, TimeNs};

use super::{AntiEntropyReport, Cluster, EventKind, NodeState, ANTI_ENTROPY_PULL_MAX};
use crate::replication;

impl Cluster {
    /// One full anti-entropy sweep: every live owner of every replicated
    /// shard exchanges `(rows, digest)` summaries with its live
    /// co-owners and pulls the row ranges it is missing, applied through
    /// the same [`BatchReorder`](crate::BatchReorder) as ingest so the
    /// copies converge byte-identically. Pulls are bounded per RPC by
    /// [`ANTI_ENTROPY_PULL_MAX`] and never reach past a stashed
    /// out-of-order batch (which would strand it as a false duplicate).
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

    /// A fresh tier (empty page cache) over node `idx`'s segment
    /// directory: `node{idx}` under `ClusterConfig::tier_dir`.
    fn node_tier(&self, idx: usize) -> io::Result<Tier> {
        let base = self.cfg.tier_dir.as_ref().ok_or_else(Tier::not_enabled)?;
        Ok(Tier::new(TierConfig::new(base.join(format!("node{idx}")))))
    }

    /// Spill every shard copy on node `idx` whose rows are older than
    /// `watermark` to DFSPANS1 segment files under the node's tier
    /// directory. Content-neutral: queries and probes see the same
    /// corpus, paged back on demand.
    pub fn spill_node(&mut self, idx: usize, watermark: TimeNs) -> io::Result<SpillStats> {
        if self.nodes[idx].tier.is_none() {
            self.nodes[idx].tier = Some(self.node_tier(idx)?);
        }
        let NodeState { tier, shards, .. } = &mut self.nodes[idx];
        let tier = tier.as_ref().expect("tier made above");
        let mut total = SpillStats::default();
        for (&s, store) in shards {
            total.merge(tier.spill(store, watermark, s)?);
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
        // Before any state is cleared: an untiered cluster has nothing to
        // restart from, and says so without losing what it holds.
        let tier = self.node_tier(idx)?;
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
        let node = &mut self.nodes[idx];
        node.shards.clear();
        node.reorder.clear();
        let tier = node.tier.insert(tier); // the old page cache died with the process
        let mut total = RecoverStats::default();
        for s in self.map.shards_of(idx) {
            let mut store = SpanStore::new();
            total.merge(tier.recover(&mut store, s)?);
            node.shards.insert(s, store);
        }
        node.alive = true;
        self.stats.recovered_segments += total.segments as u64;
        self.stats.recovered_rejects += total.rejected_segments as u64;
        self.suspected.remove(&idx);
        Ok(total)
    }

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
}
