//! Session aggregation (paper §3.3.1, Figure 6 phase 3).
//!
//! "DeepFlow will try to aggregate one request and one response from the
//! same flow into sessions." Pipelined protocols match in FIFO order;
//! multiplexed ("parallel") protocols match by the embedded distinguishing
//! attribute. A time-window array with 60-second slots bounds matching —
//! "when aggregating, only messages in the same time slot or next to it will
//! be queried"; anything farther apart is flagged for server-side
//! re-aggregation.

use df_types::{DurationNs, IntMap, MessageType, SessionKey, TimeNs};
use std::collections::VecDeque;

/// Default slot width — "DeepFlow presently sets the duration of each time
/// slot to 60 seconds".
pub const DEFAULT_SLOT: DurationNs = DurationNs(60 * 1_000_000_000);

#[derive(Debug)]
struct Pending<M> {
    item: M,
    ts: TimeNs,
}

/// A pipelined flow's pending requests, oldest first. A flow rarely has
/// more than one in flight, so the first waits inline and the `VecDeque`
/// (empty while the first slot is) allocates only for a second.
#[derive(Debug)]
struct Fifo<M>(Option<Pending<M>>, VecDeque<Pending<M>>);

impl<M> Fifo<M> {
    fn pop_front_if(&mut self, take: impl FnOnce(&Pending<M>) -> bool) -> Option<Pending<M>> {
        if !take(self.0.as_ref()?) {
            return None;
        }
        std::mem::replace(&mut self.0, self.1.pop_front())
    }
}

/// What happened when a message was offered.
#[derive(Debug, PartialEq)]
pub enum SessionOutcome<M> {
    /// A request was stored, awaiting its response.
    Stored,
    /// A response matched a request within the window: a session.
    Matched {
        /// The request message.
        request: M,
        /// The response message.
        response: M,
    },
    /// Matched, but request and response are more than one slot apart — the
    /// pair is still produced but flagged (the paper re-aggregates these at
    /// the server).
    OutOfWindow {
        /// The request message.
        request: M,
        /// The response message.
        response: M,
    },
    /// A multiplexed request reused the id of a request still pending on
    /// its flow (a DNS transaction id wrapping, an AMQP channel sending
    /// twice before its reply). The new request takes the slot; the one it
    /// displaced is returned, to leave as an Incomplete span.
    Displaced(M),
    /// A response with no pending request.
    OrphanResponse(M),
    /// One-way / unclassifiable message: not aggregated.
    Ignored(M),
}

/// The aggregator. `M` is whatever the caller wants carried through
/// (the agent uses `(MessageData, ParsedMessage)`).
#[derive(Debug)]
pub struct SessionAggregator<M> {
    slot: DurationNs,
    /// Multiplexed protocols: (flow, embedded id) → pending request.
    mux: IntMap<(u64, u64), Pending<M>>,
    /// Pipelined protocols: flow → FIFO of pending requests.
    fifo: IntMap<u64, Fifo<M>>,
    /// Sessions matched in-window.
    pub matched: u64,
    /// Sessions matched out-of-window.
    pub out_of_window: u64,
    /// Orphan responses seen.
    pub orphans: u64,
    /// Pending requests displaced by a request reusing their id.
    pub displaced: u64,
}

impl<M> Default for SessionAggregator<M> {
    fn default() -> Self {
        SessionAggregator::new(DEFAULT_SLOT)
    }
}

impl<M> SessionAggregator<M> {
    /// Aggregator with a custom slot width (the ablation bench sweeps this).
    pub fn new(slot: DurationNs) -> Self {
        assert!(slot.as_nanos() > 0, "slot width must be positive");
        SessionAggregator {
            slot,
            mux: IntMap::default(),
            fifo: IntMap::default(),
            matched: 0,
            out_of_window: 0,
            orphans: 0,
            displaced: 0,
        }
    }

    /// Offer one classified message.
    pub fn offer(
        &mut self,
        flow_key: u64,
        key: SessionKey,
        msg_type: MessageType,
        ts: TimeNs,
        item: M,
    ) -> SessionOutcome<M> {
        match msg_type {
            MessageType::Request => {
                let pending = Pending { item, ts };
                match key {
                    SessionKey::Multiplexed(id) => match self.mux.insert((flow_key, id), pending) {
                        Some(displaced) => {
                            self.displaced += 1;
                            SessionOutcome::Displaced(displaced.item)
                        }
                        None => SessionOutcome::Stored,
                    },
                    SessionKey::Ordered => {
                        let fifo = self.fifo.entry(flow_key);
                        match fifo.or_insert_with(|| Fifo(None, VecDeque::new())) {
                            Fifo(head @ None, _) => *head = Some(pending),
                            Fifo(Some(_), rest) => rest.push_back(pending),
                        }
                        SessionOutcome::Stored
                    }
                }
            }
            MessageType::Response => {
                let found = match key {
                    SessionKey::Multiplexed(id) => self.mux.remove(&(flow_key, id)),
                    SessionKey::Ordered => {
                        let fifo = self.fifo.get_mut(&flow_key);
                        fifo.and_then(|q| q.pop_front_if(|_| true))
                    }
                };
                match found {
                    Some(req) => {
                        let req_slot = req.ts.slot(self.slot);
                        let resp_slot = ts.slot(self.slot);
                        if resp_slot.saturating_sub(req_slot) <= 1 {
                            self.matched += 1;
                            SessionOutcome::Matched {
                                request: req.item,
                                response: item,
                            }
                        } else {
                            self.out_of_window += 1;
                            SessionOutcome::OutOfWindow {
                                request: req.item,
                                response: item,
                            }
                        }
                    }
                    None => {
                        self.orphans += 1;
                        SessionOutcome::OrphanResponse(item)
                    }
                }
            }
            MessageType::OneWay | MessageType::Unknown => SessionOutcome::Ignored(item),
        }
    }

    /// Expire requests older than two slots relative to `now` (they will
    /// never match in-window). Returned items become Incomplete spans —
    /// "DeepFlow considers any missing responses as outcomes resulting from
    /// unexpected execution terminations" (§3.3.1).
    pub fn expire(&mut self, now: TimeNs) -> Vec<M> {
        let (slot, cutoff_slot) = (self.slot, now.slot(self.slot).saturating_sub(2));
        self.take_pending(|ts| ts.slot(slot) < cutoff_slot)
    }

    /// Drain every pending request (end-of-run flush).
    pub fn drain_pending(&mut self) -> Vec<M> {
        self.take_pending(|_| true)
    }

    /// Remove the pending requests whose time is `stale`, ordered by
    /// (request time, flow key, session id) so that which Incomplete span
    /// gets which id does not depend on hash-map iteration order.
    fn take_pending(&mut self, stale: impl Fn(TimeNs) -> bool) -> Vec<M> {
        let mut taken: Vec<_> = self
            .mux
            .extract_if(|_, p| stale(p.ts))
            .map(|((flow, id), p)| ((p.ts, flow, Some(id)), p.item))
            .collect();
        for (&flow, q) in self.fifo.iter_mut() {
            while let Some(p) = q.pop_front_if(|p| stale(p.ts)) {
                taken.push(((p.ts, flow, None), p.item));
            }
        }
        self.fifo.retain(|_, q| q.0.is_some());
        taken.sort_by_key(|(order, _)| *order);
        taken.into_iter().map(|(_, item)| item).collect()
    }

    /// Requests currently pending.
    pub fn pending(&self) -> usize {
        let queued = |Fifo(head, rest): &Fifo<M>| head.iter().len() + rest.len();
        self.mux.len() + self.fifo.values().map(queued).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use df_types::MessageType::*;

    fn agg() -> SessionAggregator<&'static str> {
        SessionAggregator::default()
    }

    #[test]
    fn pipelined_matches_in_fifo_order() {
        let mut a = agg();
        assert_eq!(
            a.offer(1, SessionKey::Ordered, Request, TimeNs(10), "req1"),
            SessionOutcome::Stored
        );
        assert_eq!(
            a.offer(1, SessionKey::Ordered, Request, TimeNs(20), "req2"),
            SessionOutcome::Stored
        );
        let m1 = a.offer(1, SessionKey::Ordered, Response, TimeNs(30), "resp1");
        assert_eq!(
            m1,
            SessionOutcome::Matched {
                request: "req1",
                response: "resp1"
            }
        );
        let m2 = a.offer(1, SessionKey::Ordered, Response, TimeNs(40), "resp2");
        assert_eq!(
            m2,
            SessionOutcome::Matched {
                request: "req2",
                response: "resp2"
            }
        );
        assert_eq!(a.matched, 2);
    }

    #[test]
    fn multiplexed_matches_by_embedded_id_out_of_order() {
        let mut a = agg();
        a.offer(1, SessionKey::Multiplexed(100), Request, TimeNs(10), "reqA");
        a.offer(1, SessionKey::Multiplexed(200), Request, TimeNs(11), "reqB");
        // Responses arrive in reverse order — ids still pair correctly.
        let mb = a.offer(
            1,
            SessionKey::Multiplexed(200),
            Response,
            TimeNs(20),
            "respB",
        );
        assert_eq!(
            mb,
            SessionOutcome::Matched {
                request: "reqB",
                response: "respB"
            }
        );
        let ma = a.offer(
            1,
            SessionKey::Multiplexed(100),
            Response,
            TimeNs(21),
            "respA",
        );
        assert_eq!(
            ma,
            SessionOutcome::Matched {
                request: "reqA",
                response: "respA"
            }
        );
    }

    #[test]
    fn flows_are_isolated() {
        let mut a = agg();
        a.offer(1, SessionKey::Ordered, Request, TimeNs(10), "flow1-req");
        let r = a.offer(2, SessionKey::Ordered, Response, TimeNs(20), "flow2-resp");
        assert_eq!(r, SessionOutcome::OrphanResponse("flow2-resp"));
        assert_eq!(a.orphans, 1);
        assert_eq!(a.pending(), 1);
    }

    #[test]
    fn adjacent_slot_matches_but_distant_flags_out_of_window() {
        let mut a = agg();
        // Request at t=0; response 90s later (slot 0 → slot 1: adjacent, ok).
        a.offer(1, SessionKey::Ordered, Request, TimeNs::from_secs(0), "r");
        let ok = a.offer(
            1,
            SessionKey::Ordered,
            Response,
            TimeNs::from_secs(90),
            "late",
        );
        assert!(matches!(ok, SessionOutcome::Matched { .. }));

        // Request at t=0; response 150s later (slot 0 → slot 2: flagged).
        a.offer(2, SessionKey::Ordered, Request, TimeNs::from_secs(0), "r2");
        let late = a.offer(
            2,
            SessionKey::Ordered,
            Response,
            TimeNs::from_secs(150),
            "very-late",
        );
        assert!(matches!(late, SessionOutcome::OutOfWindow { .. }));
        assert_eq!(a.out_of_window, 1);
    }

    #[test]
    fn one_way_messages_are_ignored() {
        let mut a = agg();
        let r = a.offer(1, SessionKey::Ordered, OneWay, TimeNs(5), "fire-and-forget");
        assert_eq!(r, SessionOutcome::Ignored("fire-and-forget"));
        assert_eq!(a.pending(), 0);
    }

    #[test]
    fn expire_returns_stale_requests_as_incomplete() {
        let mut a = agg();
        a.offer(1, SessionKey::Ordered, Request, TimeNs::from_secs(0), "old");
        a.offer(
            1,
            SessionKey::Multiplexed(9),
            Request,
            TimeNs::from_secs(10),
            "old-mux",
        );
        a.offer(
            1,
            SessionKey::Ordered,
            Request,
            TimeNs::from_secs(179),
            "fresh",
        );
        // now = 240s → cutoff slot = 4-2 = 2 → slots 0,1 expire; 179s is
        // slot 2, kept.
        let expired = a.expire(TimeNs::from_secs(240));
        assert_eq!(expired.len(), 2);
        assert!(expired.contains(&"old"));
        assert!(expired.contains(&"old-mux"));
        assert_eq!(a.pending(), 1);
    }

    #[test]
    fn expiry_order_is_by_time_then_flow_then_session_id() {
        // Many flows, both kinds, shared timestamps: the order must not
        // depend on either map's (per-instance, randomly seeded) iteration.
        let feed = || {
            let mut a = SessionAggregator::default();
            for flow in (0..40u64).rev() {
                let ts = TimeNs::from_secs(flow % 4);
                a.offer(flow, SessionKey::Ordered, Request, ts, (ts, flow, None));
                let id = 100 - flow;
                let key = SessionKey::Multiplexed(id);
                a.offer(flow, key, Request, ts, (ts, flow, Some(id)));
            }
            a
        };
        let expired = feed().expire(TimeNs::from_secs(240));
        assert_eq!(expired.len(), 80);
        assert!(expired.is_sorted(), "ordered by (time, flow, id)");
        assert_eq!(expired, feed().expire(TimeNs::from_secs(240)));
        assert_eq!(expired, feed().drain_pending());
    }

    #[test]
    fn drain_pending_empties_everything() {
        let mut a = agg();
        a.offer(1, SessionKey::Ordered, Request, TimeNs(10), "x");
        a.offer(2, SessionKey::Multiplexed(1), Request, TimeNs(10), "y");
        let drained = a.drain_pending();
        assert_eq!(drained.len(), 2);
        assert_eq!(a.pending(), 0);
    }

    #[test]
    fn duplicate_multiplexed_id_replaces_request() {
        // A client reusing an id before the response (retry) replaces the
        // pending entry and gets the displaced request back, so nothing is
        // lost; the response pairs with the retry.
        let mut a = agg();
        let key = SessionKey::Multiplexed(5);
        assert_eq!(
            a.offer(1, key, Request, TimeNs(10), "try1"),
            SessionOutcome::Stored
        );
        assert_eq!(
            a.offer(1, key, Request, TimeNs(20), "try2"),
            SessionOutcome::Displaced("try1")
        );
        assert_eq!((a.pending(), a.displaced), (1, 1));
        // The same id on another flow displaces nothing.
        assert_eq!(
            a.offer(2, key, Request, TimeNs(20), "other-flow"),
            SessionOutcome::Stored
        );
        let m = a.offer(1, key, Response, TimeNs(30), "resp");
        assert_eq!(
            m,
            SessionOutcome::Matched {
                request: "try2",
                response: "resp"
            }
        );
    }
}
