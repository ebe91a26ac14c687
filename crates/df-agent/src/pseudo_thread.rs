//! Pseudo-thread tracking for coroutine runtimes (paper §3.3.1).
//!
//! "For languages such as Golang, DeepFlow monitors the creation of
//! coroutines to save the parent-child coroutine relationship in a
//! pseudo-thread structure." All coroutines descending from one root belong
//! to the same logical execution; messages they emit share one
//! [`PseudoThreadId`], which Algorithm 1 joins on just like a thread id.

use df_kernel::process::CoroutineEvent;
use df_types::{CoroutineId, IntMap, Pid, PseudoThreadId};

/// Tracks coroutine ancestry per process and maps coroutines to
/// pseudo-thread ids.
#[derive(Debug, Default)]
pub struct PseudoThreadTracker {
    parent: IntMap<(Pid, CoroutineId), Option<CoroutineId>>,
    assigned: IntMap<(Pid, CoroutineId), PseudoThreadId>,
    next_id: u64,
}

impl PseudoThreadTracker {
    /// New tracker. Ids start at 1.
    pub fn new() -> Self {
        Self::with_namespace(0)
    }

    /// New tracker with node-namespaced ids (global uniqueness across
    /// agents, like systrace ids).
    pub fn with_namespace(namespace: u32) -> Self {
        PseudoThreadTracker {
            next_id: (u64::from(namespace) << 40) | 1,
            ..Default::default()
        }
    }

    /// Consume coroutine lifecycle events drained from the kernel.
    pub fn observe(&mut self, events: &[CoroutineEvent]) {
        for e in events {
            match e {
                CoroutineEvent::Created { pid, child, parent } => {
                    self.parent.insert((*pid, *child), *parent);
                }
                CoroutineEvent::Finished { pid, coroutine } => {
                    // Keep ancestry (late messages may still reference it);
                    // drop only the memoised assignment to bound memory.
                    self.assigned.remove(&(*pid, *coroutine));
                }
            }
        }
    }

    /// Pseudo-thread id for a coroutine: the id of its root ancestor's
    /// chain. Unknown coroutines get their own fresh chain (defensive).
    pub fn pseudo_thread(&mut self, pid: Pid, coroutine: CoroutineId) -> PseudoThreadId {
        if let Some(id) = self.assigned.get(&(pid, coroutine)) {
            return *id;
        }
        // Walk to the root.
        let mut cur = coroutine;
        let mut chain = vec![cur];
        let mut hops = 0usize;
        while let Some(Some(p)) = self.parent.get(&(pid, cur)) {
            cur = *p;
            chain.push(cur);
            hops += 1;
            if hops > 1_000_000 {
                break;
            }
            if let Some(id) = self.assigned.get(&(pid, cur)) {
                let id = *id;
                for c in chain {
                    self.assigned.insert((pid, c), id);
                }
                return id;
            }
        }
        let id = PseudoThreadId(self.next_id);
        self.next_id += 1;
        for c in chain {
            self.assigned.insert((pid, c), id);
        }
        id
    }

    /// Coroutines currently memoised.
    pub fn tracked(&self) -> usize {
        self.parent.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const P: Pid = Pid(1);

    fn created(child: u64, parent: Option<u64>) -> CoroutineEvent {
        CoroutineEvent::Created {
            pid: P,
            child: CoroutineId(child),
            parent: parent.map(CoroutineId),
        }
    }

    #[test]
    fn descendants_share_the_roots_pseudo_thread() {
        let mut t = PseudoThreadTracker::new();
        t.observe(&[created(1, None), created(2, Some(1)), created(3, Some(2))]);
        let root = t.pseudo_thread(P, CoroutineId(1));
        let mid = t.pseudo_thread(P, CoroutineId(2));
        let leaf = t.pseudo_thread(P, CoroutineId(3));
        assert_eq!(root, mid);
        assert_eq!(mid, leaf);
    }

    #[test]
    fn independent_roots_get_distinct_ids() {
        let mut t = PseudoThreadTracker::new();
        t.observe(&[created(1, None), created(2, None)]);
        assert_ne!(
            t.pseudo_thread(P, CoroutineId(1)),
            t.pseudo_thread(P, CoroutineId(2))
        );
    }

    #[test]
    fn memoisation_works_bottom_up() {
        let mut t = PseudoThreadTracker::new();
        t.observe(&[created(1, None), created(2, Some(1))]);
        // Resolve the leaf first, then the root: both map to the same chain.
        let leaf = t.pseudo_thread(P, CoroutineId(2));
        let root = t.pseudo_thread(P, CoroutineId(1));
        assert_eq!(leaf, root);
    }

    #[test]
    fn processes_are_isolated() {
        let mut t = PseudoThreadTracker::new();
        t.observe(&[created(1, None)]);
        t.observe(&[CoroutineEvent::Created {
            pid: Pid(2),
            child: CoroutineId(1),
            parent: None,
        }]);
        assert_ne!(
            t.pseudo_thread(P, CoroutineId(1)),
            t.pseudo_thread(Pid(2), CoroutineId(1))
        );
    }

    #[test]
    fn unknown_coroutine_is_defensively_assigned() {
        let mut t = PseudoThreadTracker::new();
        let id = t.pseudo_thread(P, CoroutineId(99));
        // Stable on re-query.
        assert_eq!(t.pseudo_thread(P, CoroutineId(99)), id);
    }
}
