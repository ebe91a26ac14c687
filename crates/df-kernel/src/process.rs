//! Process / thread / coroutine model.
//!
//! DeepFlow's span construction associates syscall enter/exit by
//! `(Pid, Tid)` (paper §3.3.1) and, for coroutine languages, tracks
//! coroutine creation to build a "pseudo-thread structure". The kernel
//! therefore must know, at every hook firing, which process, thread and
//! coroutine is on-CPU — that is what this module maintains.

use df_types::{CoroutineId, Pid, Tid};
use std::collections::HashMap;
use std::sync::Arc;

/// Scheduling state of a thread as the mesh event loop sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThreadState {
    /// Runnable or running.
    Running,
    /// Parked waiting for socket readability (blocking ingress syscall).
    BlockedOnRecv,
    /// Parked waiting for socket writability (flow-control stall).
    BlockedOnSend,
    /// Exited.
    Dead,
}

/// A thread.
#[derive(Debug, Clone)]
pub struct Thread {
    /// Thread id (unique within the node, like Linux).
    pub tid: Tid,
    /// Owning process.
    pub pid: Pid,
    /// Scheduling state.
    pub state: ThreadState,
    /// The coroutine currently scheduled on this thread, if the process
    /// runs a coroutine runtime.
    pub current_coroutine: Option<CoroutineId>,
}

/// A process.
#[derive(Debug, Clone)]
pub struct Process {
    /// Process id.
    pub pid: Pid,
    /// Executable name (`comm`), shared by every event the process's hooks
    /// emit.
    pub name: Arc<str>,
    /// Threads belonging to the process.
    pub threads: Vec<Tid>,
}

/// A coroutine-lifecycle event observable by the agent (uprobe on the
/// runtime's spawn function, paper §3.3.1: "DeepFlow monitors the creation
/// of coroutines to save the parent-child coroutine relationship").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoroutineEvent {
    /// A coroutine was created by another (or by the root of a thread).
    Created {
        /// The process whose runtime spawned it.
        pid: Pid,
        /// The new coroutine.
        child: CoroutineId,
        /// The spawning coroutine (None = spawned from thread main).
        parent: Option<CoroutineId>,
    },
    /// A coroutine finished.
    Finished {
        /// The process.
        pid: Pid,
        /// The coroutine.
        coroutine: CoroutineId,
    },
}

/// Table of processes and threads for one kernel.
#[derive(Debug, Default)]
pub struct ProcessTable {
    processes: HashMap<Pid, Process>,
    threads: HashMap<Tid, Thread>,
    next_pid: u32,
    next_tid: u32,
    next_coroutine: u64,
    /// Parent of each coroutine (None = thread-main spawned).
    coroutine_parent: HashMap<(Pid, CoroutineId), Option<CoroutineId>>,
    /// Coroutine lifecycle events pending agent consumption.
    pending_events: Vec<CoroutineEvent>,
}

impl ProcessTable {
    /// Empty table.
    pub fn new() -> Self {
        ProcessTable {
            next_pid: 1,
            next_tid: 1,
            next_coroutine: 1,
            ..Default::default()
        }
    }

    /// Spawn a process with one initial thread. Returns `(pid, main_tid)`.
    pub fn spawn_process(&mut self, name: &str) -> (Pid, Tid) {
        let pid = Pid(self.next_pid);
        self.next_pid += 1;
        let tid = Tid(self.next_tid);
        self.next_tid += 1;
        self.threads.insert(
            tid,
            Thread {
                tid,
                pid,
                state: ThreadState::Running,
                current_coroutine: None,
            },
        );
        self.processes.insert(
            pid,
            Process {
                pid,
                name: name.into(),
                threads: vec![tid],
            },
        );
        (pid, tid)
    }

    /// Spawn an additional thread in an existing process.
    pub fn spawn_thread(&mut self, pid: Pid) -> Option<Tid> {
        let proc = self.processes.get_mut(&pid)?;
        let tid = Tid(self.next_tid);
        self.next_tid += 1;
        proc.threads.push(tid);
        self.threads.insert(
            tid,
            Thread {
                tid,
                pid,
                state: ThreadState::Running,
                current_coroutine: None,
            },
        );
        Some(tid)
    }

    /// Create a coroutine in `pid`, spawned by `parent` (or thread-main).
    /// Records the lifecycle event for the agent.
    pub fn spawn_coroutine(&mut self, pid: Pid, parent: Option<CoroutineId>) -> CoroutineId {
        let cid = CoroutineId(self.next_coroutine);
        self.next_coroutine += 1;
        self.coroutine_parent.insert((pid, cid), parent);
        self.pending_events.push(CoroutineEvent::Created {
            pid,
            child: cid,
            parent,
        });
        cid
    }

    /// Mark a coroutine finished.
    pub fn finish_coroutine(&mut self, pid: Pid, coroutine: CoroutineId) {
        self.pending_events
            .push(CoroutineEvent::Finished { pid, coroutine });
    }

    /// Schedule `coroutine` (or none) onto `tid` — what the runtime's
    /// scheduler does between poll points.
    pub fn set_current_coroutine(
        &mut self,
        tid: Tid,
        coroutine: Option<CoroutineId>,
    ) -> Result<(), crate::KernelError> {
        let t = self
            .threads
            .get_mut(&tid)
            .ok_or(crate::KernelError::NoSuchThread)?;
        t.current_coroutine = coroutine;
        Ok(())
    }

    /// Look up the parent of a coroutine.
    pub fn coroutine_parent(&self, pid: Pid, coroutine: CoroutineId) -> Option<CoroutineId> {
        self.coroutine_parent
            .get(&(pid, coroutine))
            .copied()
            .flatten()
    }

    /// The root ancestor of a coroutine chain (follows parents until a
    /// thread-main-spawned coroutine). Used to derive pseudo-thread ids.
    pub fn coroutine_root(&self, pid: Pid, coroutine: CoroutineId) -> CoroutineId {
        let mut cur = coroutine;
        let mut hops = 0usize;
        while let Some(parent) = self.coroutine_parent(pid, cur) {
            cur = parent;
            hops += 1;
            if hops > 1_000_000 {
                break; // defensive: corrupted parent chain
            }
        }
        cur
    }

    /// Drain pending coroutine lifecycle events (agent consumption).
    pub fn drain_coroutine_events(&mut self) -> Vec<CoroutineEvent> {
        std::mem::take(&mut self.pending_events)
    }

    /// Thread lookup.
    pub fn thread(&self, tid: Tid) -> Option<&Thread> {
        self.threads.get(&tid)
    }

    /// Mutable thread lookup.
    pub fn thread_mut(&mut self, tid: Tid) -> Option<&mut Thread> {
        self.threads.get_mut(&tid)
    }

    /// Process lookup.
    pub fn process(&self, pid: Pid) -> Option<&Process> {
        self.processes.get(&pid)
    }

    /// Number of live processes.
    pub fn process_count(&self) -> usize {
        self.processes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spawn_process_allocates_distinct_ids() {
        let mut t = ProcessTable::new();
        let (p1, t1) = t.spawn_process("nginx");
        let (p2, t2) = t.spawn_process("redis");
        assert_ne!(p1, p2);
        assert_ne!(t1, t2);
        assert_eq!(&*t.process(p1).unwrap().name, "nginx");
        assert_eq!(t.thread(t1).unwrap().pid, p1);
        assert_eq!(t.process_count(), 2);
    }

    #[test]
    fn spawn_thread_joins_existing_process() {
        let mut t = ProcessTable::new();
        let (pid, main_tid) = t.spawn_process("worker");
        let extra = t.spawn_thread(pid).unwrap();
        assert_ne!(main_tid, extra);
        assert_eq!(t.process(pid).unwrap().threads.len(), 2);
        assert!(t.spawn_thread(Pid(999)).is_none());
    }

    #[test]
    fn coroutine_parent_chain_resolves_to_root() {
        let mut t = ProcessTable::new();
        let (pid, _) = t.spawn_process("go-svc");
        let root = t.spawn_coroutine(pid, None);
        let mid = t.spawn_coroutine(pid, Some(root));
        let leaf = t.spawn_coroutine(pid, Some(mid));
        assert_eq!(t.coroutine_root(pid, leaf), root);
        assert_eq!(t.coroutine_root(pid, root), root);
        assert_eq!(t.coroutine_parent(pid, mid), Some(root));
        assert_eq!(t.coroutine_parent(pid, root), None);
    }

    #[test]
    fn coroutine_events_are_recorded_and_drained() {
        let mut t = ProcessTable::new();
        let (pid, _) = t.spawn_process("go-svc");
        let c = t.spawn_coroutine(pid, None);
        t.finish_coroutine(pid, c);
        let events = t.drain_coroutine_events();
        assert_eq!(events.len(), 2);
        assert!(matches!(events[0], CoroutineEvent::Created { child, .. } if child == c));
        assert!(matches!(events[1], CoroutineEvent::Finished { coroutine, .. } if coroutine == c));
        assert!(t.drain_coroutine_events().is_empty());
    }

    #[test]
    fn set_current_coroutine_updates_thread() {
        let mut t = ProcessTable::new();
        let (pid, tid) = t.spawn_process("go-svc");
        let c = t.spawn_coroutine(pid, None);
        t.set_current_coroutine(tid, Some(c)).unwrap();
        assert_eq!(t.thread(tid).unwrap().current_coroutine, Some(c));
        t.set_current_coroutine(tid, None).unwrap();
        assert_eq!(t.thread(tid).unwrap().current_coroutine, None);
        assert!(t.set_current_coroutine(Tid(42), None).is_err());
    }
}
