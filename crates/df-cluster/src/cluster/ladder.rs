//! The RPC layer. Every cross-node interaction is a real RPC over the
//! fabric: the request is framed by [`RpcEnvelope`] (once — retries
//! retransmit the bytes verbatim), carried in a TCP segment through
//! `Fabric::transmit`, and subject to the fabric's fault table. On top
//! of the fabric's own eager retransmission cascade the cluster runs its
//! *own* retry loop — per-attempt timeout with exponential backoff — so a
//! black-holed path (`Fault::Partition`) or a sustained loss burst
//! surfaces as an RPC failure the protocol must absorb. Owners that
//! exhaust a retry budget enter a bounded probation
//! ([`SUSPECT_PROBATION`]) during which new RPCs to them fast-fail after
//! a single base-timeout probe instead of the full backoff ladder. Also
//! here: request dispatch on the receiving node, and the synchronous
//! `call` the drivers (assembly, anti-entropy) wait on.

use std::net::Ipv4Addr;

use bytes::Bytes;
use df_net::fabric::Delivery;
use df_server::Loc;
use df_types::rpc::{CandidateSpan, RpcBody, RpcEnvelope};
use df_types::wire;
use df_types::{DurationNs, FiveTuple, IntSet, Segment, TcpFlags};

use super::ingest::WriteReply;
use super::{Cluster, EventKind, MAX_RPC_RETRIES, RPC_TIMEOUT, SUSPECT_PROBATION};
use crate::replication;

/// Why an RPC was issued — decides what happens when it resolves.
#[derive(Debug, Clone, Copy)]
pub(super) enum RpcPurpose {
    /// A synchronous caller is waiting on the `completed` map
    /// (assembly probes, point fetches, anti-entropy).
    Driver,
    /// An ingest shipment; failure fails over to the next owner.
    Ship(u64),
    /// A primary→replica forward; resolution feeds the write's quorum.
    Replication(u64),
}

pub(super) struct PendingRpc {
    pub(super) from: usize,
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

pub(super) enum RpcResult {
    Ok(RpcBody),
    Failed,
}

impl Cluster {
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

    pub(super) fn send_rpc(
        &mut self,
        from: usize,
        to: usize,
        body: RpcBody,
        purpose: RpcPurpose,
    ) -> u64 {
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

    pub(super) fn transmit_segment(
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

    pub(super) fn on_timeout(&mut self, rpc_id: u64, attempt: u32) {
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

    pub(super) fn on_deliver(&mut self, d: Delivery) {
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
                    .probe(&keys, &IntSet::default())
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

    /// Issue a Driver RPC and wait for its resolution.
    pub(super) fn call(&mut self, from: usize, to: usize, body: RpcBody) -> Option<RpcBody> {
        let id = self.send_rpc(from, to, body, RpcPurpose::Driver);
        self.run_until_settled(&[id]);
        match self.completed.remove(&id) {
            Some(RpcResult::Ok(b)) => Some(b),
            _ => None,
        }
    }

    pub(super) fn run_until_settled(&mut self, ids: &[u64]) {
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
}
