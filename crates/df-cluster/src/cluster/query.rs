//! Distributed assembly: df-server's one Algorithm 1 driver
//! ([`assemble_with`]) with the frontier on the coordinator and a remote
//! prober ([`RemoteProbe`]) against a *pinned ownership snapshot* (a
//! concurrent join/leave cannot redirect a query mid-flight): each
//! round's newly-discovered keys probe local shards in-process and every
//! remote copy via [`RpcBody::CandidateRequest`]; a [`RoundTracker`]
//! rejects late or duplicate responses. Point reads fail over from a dead
//! primary to its live replicas.
//!
//! **Degraded mode**: a shard is reported in
//! [`DistributedTrace::missing_shards`] only when *every* owner is
//! unreachable or lost the rows — with RF ≥ 2 a single node failure
//! degrades nothing.

use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::Arc;

use df_server::{assemble_with, Loc, ShardProbe};
use df_storage::SpanRef;
use df_types::rpc::{CandidateKeys, RpcBody};
use df_types::{IntSet, Span, SpanId, Trace};

use super::ladder::{RpcPurpose, RpcResult};
use super::{Cluster, DistributedTrace};
use crate::membership::ShardMap;
use crate::tracker::RoundTracker;

impl Cluster {
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
        let (trace, rounds, _) = match probe.fetch_span(loc) {
            Some(span) => {
                probe.span_of.insert(loc, span);
                assemble_with(&mut probe, loc, start, &cfg)
            }
            None => (Trace::default(), 0, None),
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
}

/// The remote prober of [`assemble_with`]: one query's view of the
/// cluster from the coordinator. Local shard copies are probed in-process,
/// every other node over a `CandidateRequest` RPC; candidate spans travel
/// with the responses and are kept here, shared, since the coordinator
/// cannot borrow rows it does not hold. The trace shares them in turn.
struct RemoteProbe<'a> {
    cluster: &'a mut Cluster,
    /// Ownership as of query entry.
    map: ShardMap,
    /// The start span plus every candidate any round returned.
    span_of: HashMap<Loc, Arc<Span>>,
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
    fn fetch_span(&mut self, Loc { shard, row }: Loc) -> Option<Arc<Span>> {
        let mut answered = false;
        for owner in self.map.owners_of(shard).to_vec() {
            if self.failed_nodes.contains(&owner) {
                continue;
            }
            if owner == 0 {
                let local = self.cluster.nodes[0].shards.get(&shard);
                match local.and_then(|s| s.shared_at(row)) {
                    Some(s) => return Some(s),
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
                Some(RpcBody::SpanFetchResponse { span: Some(s), .. }) => return Some(s.into()),
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
    fn span_at(&self, loc: Loc) -> SpanRef<'_> {
        SpanRef::Borrowed(&self.span_of[&loc])
    }

    fn shared_at(&self, loc: Loc) -> Arc<Span> {
        Arc::clone(&self.span_of[&loc])
    }

    fn probe_round(&mut self, round: u32, keys: &CandidateKeys, seen: &IntSet<Loc>) -> Vec<Loc> {
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
                        (Loc { shard, row }, Arc::new(c.span))
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
