//! Systrace-id assignment — implicit intra-component association
//! (paper §3.3.2, Figure 7).
//!
//! The paper's insight: within one thread, *"computing does not (and should
//! not) yield to scheduling, whereas network communication does"* — so two
//! consecutive messages of **different types** (ingress vs egress) on
//! **different sockets** belong to the same causal chain and get the same
//! `systrace_id`. Everything else starts a fresh chain, which also handles
//! thread reuse (Figure 7(b)): a new request on the same socket flips the
//! direction on the *same* socket, breaking the chain.

use df_types::{Direction, IntMap, Pid, SocketId, SysTraceId, Tid, TimeNs};

#[derive(Debug, Clone, Copy)]
struct LastMessage {
    direction: Direction,
    socket: SocketId,
    id: SysTraceId,
    ts: TimeNs,
}

/// Per-thread systrace chain state.
#[derive(Debug, Default)]
pub struct SystraceTracker {
    last: IntMap<(Pid, Tid), LastMessage>,
    next_id: u64,
    /// Chains continued (diagnostics).
    pub chained: u64,
    /// Fresh chains started.
    pub fresh: u64,
    /// Optional inactivity cutoff: a gap longer than this always starts a
    /// fresh chain (time-sequence partition, Figure 7(b)).
    pub max_gap: Option<df_types::DurationNs>,
}

impl SystraceTracker {
    /// New tracker. Ids start at 1.
    pub fn new() -> Self {
        Self::with_namespace(0)
    }

    /// New tracker whose ids carry `namespace` in their high 24 bits —
    /// systrace ids are *global* identifiers (paper §3.3.2), so each
    /// agent namespaces its allocator with its node id to prevent
    /// cross-agent collisions.
    pub fn with_namespace(namespace: u32) -> Self {
        SystraceTracker {
            next_id: (u64::from(namespace) << 40) | 1,
            ..Default::default()
        }
    }

    /// Assign a systrace id to a message observed on `(pid, tid)`.
    pub fn assign(
        &mut self,
        pid: Pid,
        tid: Tid,
        direction: Direction,
        socket: SocketId,
        ts: TimeNs,
    ) -> SysTraceId {
        let key = (pid, tid);
        let id = match self.last.get(&key) {
            Some(prev)
                if prev.direction != direction
                    && prev.socket != socket
                    && self
                        .max_gap
                        .map(|g| ts.saturating_since(prev.ts) <= g)
                        .unwrap_or(true) =>
            {
                self.chained += 1;
                prev.id
            }
            _ => {
                self.fresh += 1;
                let id = SysTraceId(self.next_id);
                self.next_id += 1;
                id
            }
        };
        self.last.insert(
            key,
            LastMessage {
                direction,
                socket,
                id,
                ts,
            },
        );
        id
    }

    /// Forget a dead thread.
    pub fn evict_thread(&mut self, pid: Pid, tid: Tid) {
        self.last.remove(&(pid, tid));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const P: Pid = Pid(1);
    const T: Tid = Tid(1);
    const SOCK_A: SocketId = SocketId(10);
    const SOCK_B: SocketId = SocketId(20);

    #[test]
    fn server_relay_chain_matches_paper_figure7() {
        // Server thread: ingress req on A → egress call on B → ingress resp
        // on B → egress resp on A. Expect: (m1,m2) share T1; (m3,m4) share
        // T2; T1 != T2.
        let mut t = SystraceTracker::new();
        let m1 = t.assign(P, T, Direction::Ingress, SOCK_A, TimeNs(10));
        let m2 = t.assign(P, T, Direction::Egress, SOCK_B, TimeNs(20));
        let m3 = t.assign(P, T, Direction::Ingress, SOCK_B, TimeNs(30));
        let m4 = t.assign(P, T, Direction::Egress, SOCK_A, TimeNs(40));
        assert_eq!(m1, m2, "request chain shares a systrace id");
        assert_eq!(m3, m4, "response chain shares a systrace id");
        assert_ne!(m1, m3, "request and response chains are distinct");
        assert_eq!(t.chained, 2);
        assert_eq!(t.fresh, 2);
    }

    #[test]
    fn same_socket_flip_breaks_chain() {
        // Simple echo server: ingress then egress on the SAME socket —
        // session aggregation covers that pair; systrace must not chain it.
        let mut t = SystraceTracker::new();
        let m1 = t.assign(P, T, Direction::Ingress, SOCK_A, TimeNs(10));
        let m2 = t.assign(P, T, Direction::Egress, SOCK_A, TimeNs(20));
        assert_ne!(m1, m2);
    }

    #[test]
    fn same_direction_does_not_chain() {
        let mut t = SystraceTracker::new();
        let m1 = t.assign(P, T, Direction::Egress, SOCK_A, TimeNs(10));
        let m2 = t.assign(P, T, Direction::Egress, SOCK_B, TimeNs(20));
        assert_ne!(m1, m2, "two sends in a row are separate chains");
    }

    #[test]
    fn thread_reuse_partitions_by_sequence() {
        // Request 1 fully handled, then request 2 on the same sockets: the
        // fresh ingress on A must not inherit request 1's chain.
        let mut t = SystraceTracker::new();
        let r1_in = t.assign(P, T, Direction::Ingress, SOCK_A, TimeNs(10));
        let r1_out = t.assign(P, T, Direction::Egress, SOCK_A, TimeNs(20));
        let r2_in = t.assign(P, T, Direction::Ingress, SOCK_A, TimeNs(30));
        assert_ne!(r1_in, r2_in);
        assert_ne!(r1_out, r2_in);
    }

    #[test]
    fn threads_are_independent() {
        let mut t = SystraceTracker::new();
        let a = t.assign(P, Tid(1), Direction::Ingress, SOCK_A, TimeNs(10));
        let b = t.assign(P, Tid(2), Direction::Egress, SOCK_B, TimeNs(11));
        assert_ne!(a, b, "cross-thread messages never chain implicitly");
    }

    #[test]
    fn max_gap_partitions_long_idle_chains() {
        let mut t = SystraceTracker::new();
        t.max_gap = Some(df_types::DurationNs::from_secs(1));
        let m1 = t.assign(P, T, Direction::Ingress, SOCK_A, TimeNs(0));
        // Two seconds later — beyond the gap — even a chain-shaped message
        // starts fresh.
        let m2 = t.assign(P, T, Direction::Egress, SOCK_B, TimeNs::from_secs(2));
        assert_ne!(m1, m2);
    }

    #[test]
    fn evict_thread_forgets_state() {
        let mut t = SystraceTracker::new();
        let m1 = t.assign(P, T, Direction::Ingress, SOCK_A, TimeNs(10));
        t.evict_thread(P, T);
        let m2 = t.assign(P, T, Direction::Egress, SOCK_B, TimeNs(20));
        assert_ne!(m1, m2, "evicted thread cannot chain");
    }
}
