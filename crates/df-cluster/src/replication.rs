//! Replication primitives of the cluster protocol.
//!
//! * [`WriteQuorum`] — the pure state machine a primary runs per
//!   replicated span-batch write. The primary's local apply counts as
//!   the first acknowledgement; replica acks and permanent failures
//!   drain `outstanding`; the batch may be acknowledged to the
//!   requester *exactly once* — as soon as `applied` reaches the
//!   quorum, or (so ingest never hangs on unreachable replicas) once no
//!   replication RPC is left outstanding. An ack taken below quorum is
//!   a *shortfall* the cluster counts and the caller can alarm on.
//! * [`shard_digest`] — an order-sensitive FNV-1a digest of a shard's
//!   wire-encoded rows. Anti-entropy summaries exchange
//!   `(row_count, digest)` pairs so replicas can verify byte-identical
//!   convergence without shipping shard contents.
//!
//! Both are free of I/O, clocks and threads, so the quorum invariant is a
//! property of the order responses reach [`WriteQuorum`], and its unit
//! tests run every order.

use df_storage::SpanStore;
use df_types::wire;

/// FNV-1a offset basis — the digest of an empty shard.
pub const EMPTY_DIGEST: u64 = 0xcbf2_9ce4_8422_2325;

const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over every row's single-span DFW1 encoding, in row order.
///
/// Two stores with equal digests and equal row counts hold
/// byte-identical span data: the digest folds the same bytes the wire
/// format ships, so it is exactly the "extensionally identical"
/// relation the differential tests assert. Cold rows are paged in
/// through the store's registered reader.
pub fn shard_digest(store: &SpanStore) -> u64 {
    let mut h = EMPTY_DIGEST;
    for row in 0..store.len() as u32 {
        if let Some(span) = store.span_at(row) {
            for &b in wire::encode_batch(std::slice::from_ref(&*span)).iter() {
                h ^= u64::from(b);
                h = h.wrapping_mul(FNV_PRIME);
            }
        }
    }
    h
}

/// Write-quorum accounting for one replicated span-batch write.
///
/// Created when the primary has already applied the batch locally
/// (`applied` starts at 1) and has `outstanding` replication RPCs in
/// flight to its co-owners. Every replica response feeds
/// [`WriteQuorum::record_ack`] or [`WriteQuorum::record_failure`]; the
/// driver calls [`WriteQuorum::try_ack`] after each to acknowledge the
/// requester at most once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteQuorum {
    quorum: u32,
    applied: u32,
    outstanding: u32,
    acked: bool,
}

impl WriteQuorum {
    /// A write already applied locally, awaiting `outstanding` replica
    /// acknowledgements. `quorum` is clamped to at least 1 — the local
    /// apply alone can satisfy a degenerate quorum.
    pub fn new(quorum: u32, outstanding: u32) -> Self {
        WriteQuorum {
            quorum: quorum.max(1),
            applied: 1,
            outstanding,
            acked: false,
        }
    }

    /// A replica acknowledged its apply.
    pub fn record_ack(&mut self) {
        self.applied += 1;
        self.outstanding = self.outstanding.saturating_sub(1);
    }

    /// A replication RPC failed past its retry budget.
    pub fn record_failure(&mut self) {
        self.outstanding = self.outstanding.saturating_sub(1);
    }

    /// Whether the requester may be acknowledged *now*: not acked yet,
    /// and either the quorum is met or nothing is left to wait for.
    pub fn ready(&self) -> bool {
        !self.acked && (self.applied >= self.quorum || self.outstanding == 0)
    }

    /// Whether the quorum is actually met. Acking while this is false
    /// (possible only when every remaining replication RPC failed) is a
    /// shortfall.
    pub fn met(&self) -> bool {
        self.applied >= self.quorum
    }

    /// Acknowledge the requester if [`WriteQuorum::ready`]. Returns
    /// whether *this call* acknowledged — at most one call ever returns
    /// true.
    pub fn try_ack(&mut self) -> bool {
        if self.ready() {
            self.acked = true;
            true
        } else {
            false
        }
    }

    /// Whether the requester has been acknowledged.
    pub fn acked(&self) -> bool {
        self.acked
    }

    /// Whether every replication RPC has resolved (ack or failure).
    pub fn settled(&self) -> bool {
        self.outstanding == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use df_types::span::TapSide;
    use df_types::Span;

    #[test]
    fn quorum_acks_exactly_once_when_met() {
        let mut q = WriteQuorum::new(2, 2);
        assert!(!q.ready(), "local apply alone is below quorum 2");
        assert!(!q.try_ack());
        q.record_ack();
        assert!(q.met());
        assert!(q.try_ack(), "quorum met: first try_ack acknowledges");
        assert!(!q.try_ack(), "second try_ack must be a no-op");
        assert!(!q.settled());
        q.record_ack();
        assert!(q.settled());
        assert_eq!(q.applied, 3);
    }

    #[test]
    fn exhausted_replicas_force_an_under_quorum_ack() {
        let mut q = WriteQuorum::new(3, 2);
        q.record_failure();
        assert!(!q.ready(), "one replica still outstanding");
        q.record_failure();
        assert!(q.ready(), "nothing left to wait for");
        assert!(!q.met(), "acking now is a shortfall");
        assert!(q.try_ack());
        assert!(q.settled());
    }

    #[test]
    fn degenerate_quorum_of_one_acks_immediately() {
        let mut q = WriteQuorum::new(0, 1);
        assert_eq!(q.quorum, 1, "quorum clamps to at least 1");
        assert!(q.try_ack(), "the local apply satisfies quorum 1");
    }

    /// Every outcome and order of two replica responses, under every
    /// quorum a primary with two co-owners can ask for: the requester is
    /// acked exactly once, by a call that saw the quorum met or nothing
    /// outstanding. The eager counter (ack whenever the applied count
    /// reaches the quorum, with no at-most-once guard) must double-ack in
    /// some run.
    #[test]
    fn every_response_order_acks_exactly_once() {
        let mut eager_double_acked = false;
        for quorum in 1..=3 {
            for acks in [[true, true], [true, false], [false, true], [false, false]] {
                let mut q = WriteQuorum::new(quorum, 2);
                let mut acked = usize::from(q.try_ack());
                for ok in acks {
                    if ok {
                        q.record_ack();
                    } else {
                        q.record_failure();
                    }
                    let (met, settled) = (q.met(), q.settled());
                    if q.try_ack() {
                        acked += 1;
                        assert!(met || settled, "acked early: {quorum} of {acks:?}");
                    }
                }
                assert_eq!(acked, 1, "quorum {quorum}, responses {acks:?}");
                assert!(q.settled() && q.acked());
                assert_eq!(
                    q.met(),
                    1 + acks.iter().filter(|&&ok| ok).count() >= quorum as usize
                );

                let mut applied = 1;
                let eager_acks = acks
                    .iter()
                    .filter(|&&ok| {
                        applied += u32::from(ok);
                        ok && applied >= quorum
                    })
                    .count();
                eager_double_acked |= eager_acks > 1;
            }
        }
        assert!(
            eager_double_acked,
            "the eager counter must double-ack in some run"
        );
    }

    #[test]
    fn digest_separates_content_and_tracks_convergence() {
        let mut a = SpanStore::new();
        let mut b = SpanStore::new();
        assert_eq!(shard_digest(&a), EMPTY_DIGEST);
        assert_eq!(shard_digest(&a), shard_digest(&b));

        let mut s1 = Span::synthetic(TapSide::ClientProcess, 1_000, 9_000);
        s1.span_id = df_types::SpanId(7);
        let mut s2 = Span::synthetic(TapSide::ServerProcess, 2_000, 8_000);
        s2.span_id = df_types::SpanId(8);

        a.insert_routed_batch(vec![s1.clone(), s2.clone()]);
        assert_ne!(shard_digest(&a), shard_digest(&b), "content must show");
        b.insert_routed_batch(vec![s1, s2.clone()]);
        assert_eq!(shard_digest(&a), shard_digest(&b), "same rows, same digest");

        b.insert_routed_batch(vec![s2]);
        assert_ne!(shard_digest(&a), shard_digest(&b), "extra row must show");
    }
}
