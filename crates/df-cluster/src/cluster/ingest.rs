//! The write path.
//!
//! * **Ingest** routes through the same [`Router`](df_server::Router) as
//!   the single-process oracle, then ships each per-shard sub-batch
//!   ([`Ship`]) to the shard's *primary* as a [`RpcBody::SpanBatch`]. The
//!   receiver applies batches through a
//!   [`BatchReorder`](crate::BatchReorder), so retried or reordered
//!   batches land in row order and every copy of the shard stays
//!   byte-identical to the oracle's.
//! * **Replication**: with `replication_factor ≥ 2` each shard has a
//!   primary plus R−1 replicas. The primary forwards the verbatim DFW1
//!   bytes to its co-owners as [`RpcBody::ReplicateBatch`] and
//!   acknowledges the ingest RPC only once a configurable write quorum
//!   of copies ([`WriteQuorum`], tracked per [`PendingWrite`]) has
//!   applied — or, to never hang, once every replication RPC has resolved
//!   (an under-quorum ack counted in `ClusterStats::quorum_shortfalls`).
//!   If a primary stays unreachable past the retry budget, ingest *fails
//!   over* to the next live owner instead of dropping the batch; spans
//!   are counted lost only when every owner is exhausted.

use bytes::Bytes;
use df_types::rpc::{RpcBody, RpcEnvelope};
use df_types::wire::{self, WireDecodeError};
use df_types::{Span, SpanId};

use super::ladder::RpcPurpose;
use super::{Cluster, NodeState};
use crate::replication::WriteQuorum;

/// Who gets told when a replicated write reaches its quorum.
#[derive(Debug, Clone, Copy)]
pub(super) enum WriteReply {
    /// A remote requester's SpanBatch RPC: send the deferred ack.
    Rpc { requester: usize, rpc_id: u64 },
    /// A coordinator-primary ingest shipment: mark the ship done.
    Ship(u64),
}

/// A replicated write in flight at its primary.
pub(super) struct PendingWrite {
    /// The node that applied locally and is forwarding (must still be
    /// alive to ack — a crashed primary's writes die with it).
    pub(super) node: usize,
    shard: u16,
    start_row: u32,
    count: u32,
    pub(super) quorum: WriteQuorum,
    reply: WriteReply,
}

/// One per-shard ingest sub-batch working through the owner list.
pub(super) struct Ship {
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
    pub(super) done: bool,
}

impl Cluster {
    pub(super) fn apply_batch(node: &mut NodeState, shard: u16, start_row: u32, spans: Vec<Span>) {
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
    pub(super) fn begin_write(
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
    pub(super) fn maybe_ack_write(&mut self, write_id: u64) {
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
    pub(super) fn start_ship_attempt(&mut self, ship_id: u64) {
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

    /// Route and store a batch of spans, shipping remote sub-batches over
    /// the fabric. Ids and rows come from the oracle's own [`Router`](df_server::Router), so
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
}
