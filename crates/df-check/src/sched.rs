//! The model-checking scheduler (compiled only under `checked`/`df_check`).
//!
//! One execution ("run") explores exactly one schedule: every sync op in
//! [`crate::sync`] is a cooperative yield point, and at each yield the
//! scheduler makes one *decision* — which thread advances next, chosen
//! among the threads whose pending op is enabled. Model threads are real
//! OS threads, but at most one executes model code at a time; the rest are
//! parked on the scheduler's condvar, so everything between two yield
//! points runs exclusively and the whole run is deterministic given the
//! decision vector.
//!
//! Exploration is depth-first over decision vectors: a run replays a
//! `target` prefix, extends it with default choices (prefer the thread
//! that was already running — zero preemptions), and the explorer then
//! backtracks to the deepest decision with an untried alternative within
//! the preemption bound. States are deduplicated by a hash built from
//! per-thread operation-history hashes and per-object access-history
//! hashes: two interleavings of operations on disjoint objects fold to
//! the same hash, which prunes commuting schedules (a cheap cousin of
//! partial-order reduction). Dedup is sound for closures whose behaviour
//! depends only on what they observe through the shims, which the
//! `df-audit` import ban makes the norm.
//!
//! Layered on the same instrumentation is a **lock-order graph**:
//! acquiring `B` while holding `A` records the edge `A → B` with both hold
//! modes; a cycle whose edges are not all shared/shared is a potential
//! deadlock and is reported even when every explored schedule happens to
//! pass.

use crate::model::{payload_msg, Failure, FailureKind, MAX_STEPS};
use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::panic::Location;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Model thread id (0 is the closure's main thread).
pub type Tid = usize;
/// Per-run sync object id (registration order, deterministic per schedule).
pub type ObjId = usize;

const NO_OBJ: usize = usize::MAX;

/// Global instance counter for shim objects (stable identity handle; the
/// per-run [`ObjId`] is assigned at first use inside a run).
static INSTANCES: AtomicU64 = AtomicU64::new(1);

pub fn next_instance() -> u64 {
    INSTANCES.fetch_add(1, Ordering::Relaxed)
}

/// What kind of shim object an [`ObjId`] refers to (for reports).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObjKind {
    Mutex,
    RwLock,
    Condvar,
    Channel,
    Atomic,
}

/// One yield-point operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    Begin,
    MutexLock,
    MutexUnlock,
    RwRead,
    RwWrite,
    RwUnlockRead,
    RwUnlockWrite,
    CvWait,
    CvNotifyAll,
    ChanSend,
    ChanRecv,
    AtomicLoad,
    AtomicStore,
    AtomicRmw,
    Spawn,
    Join,
    Finish,
}

/// An operation a thread is about to perform: kind, object (or [`NO_OBJ`])
/// and an auxiliary operand (the mutex for `CvWait`, the target thread for
/// `Join`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    pub kind: OpKind,
    pub obj: usize,
    pub aux: usize,
}

impl Op {
    pub fn new(kind: OpKind) -> Self {
        Op {
            kind,
            obj: NO_OBJ,
            aux: NO_OBJ,
        }
    }
    pub fn on(kind: OpKind, obj: ObjId) -> Self {
        Op {
            kind,
            obj,
            aux: NO_OBJ,
        }
    }
    pub fn cv_wait(cv: ObjId, mutex: ObjId) -> Self {
        Op {
            kind: OpKind::CvWait,
            obj: cv,
            aux: mutex,
        }
    }
    pub fn join(target: Tid) -> Self {
        Op {
            kind: OpKind::Join,
            obj: NO_OBJ,
            aux: target,
        }
    }
}

/// What a granted operation resolved to (channel ops can resolve to a
/// disconnect, spawn returns the new thread id).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Grant {
    Ok,
    SendDisconnected,
    RecvDisconnected,
    Spawned(Tid),
}

/// One entry of the interleaving trace.
#[derive(Debug, Clone)]
pub struct Event {
    pub tid: Tid,
    pub op: Op,
    pub site: &'static Location<'static>,
    pub obj_kind: Option<ObjKind>,
    pub obj_site: Option<&'static Location<'static>>,
}

impl Event {
    pub fn render(&self) -> String {
        let what = match (self.obj_kind, self.obj_site) {
            (Some(k), Some(loc)) => format!(" {:?}#{} (created {})", k, self.op.obj, loc),
            _ => String::new(),
        };
        format!("T{} {:?}{} at {}", self.tid, self.op.kind, what, self.site)
    }
}

// ---------------------------------------------------------------------
// Internal state
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    Ready,
    Running,
    SleepCv,
    Finished,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Excl,
    Shared,
}

#[derive(Debug)]
struct ThreadRec {
    status: Status,
    pending: Option<(Op, &'static Location<'static>)>,
    grant: Option<Grant>,
    hist: u64,
    held: Vec<(ObjId, Mode)>,
    /// The mutex to reacquire when this thread is woken from a condvar.
    wait_mutex: Option<ObjId>,
}

impl ThreadRec {
    fn new(begin_site: &'static Location<'static>) -> Self {
        ThreadRec {
            status: Status::Ready,
            pending: Some((Op::new(OpKind::Begin), begin_site)),
            grant: None,
            hist: 0x9e3779b97f4a7c15,
            held: Vec::new(),
            wait_mutex: None,
        }
    }
}

#[derive(Debug)]
struct ObjRec {
    kind: ObjKind,
    created: &'static Location<'static>,
    sig: u64,
    /// Mutex owner / RwLock writer.
    owner: Option<Tid>,
    /// RwLock readers (with multiplicity).
    readers: Vec<Tid>,
    /// Condvar waiters, FIFO.
    waiters: Vec<Tid>,
    /// Channel state.
    cap: usize,
    len: usize,
    senders: usize,
    rx_alive: bool,
}

impl ObjRec {
    fn new(kind: ObjKind, cap: usize, created: &'static Location<'static>) -> Self {
        ObjRec {
            kind,
            created,
            sig: 0x517cc1b727220a95,
            owner: None,
            readers: Vec::new(),
            waiters: Vec::new(),
            cap,
            len: 0,
            senders: 1,
            rx_alive: true,
        }
    }
}

/// One scheduling decision, kept for backtracking.
#[derive(Debug, Clone)]
pub struct Decision {
    pub(crate) order: Vec<Tid>,
    pub(crate) chosen: usize,
    pub(crate) preemptions_before: usize,
    pub(crate) last_running: Option<Tid>,
    pub(crate) last_in_order: bool,
    pub(crate) can_increment: bool,
}

struct SchedInner {
    target: Vec<usize>,
    threads: Vec<ThreadRec>,
    objs: Vec<ObjRec>,
    obj_ids: HashMap<u64, ObjId>,
    decisions: Vec<Decision>,
    trace: Vec<Event>,
    last_running: Option<Tid>,
    preemptions: usize,
    live: usize,
    failure: Option<Failure>,
    aborting: bool,
    exec_done: bool,
    suppressed: bool,
    pruned: usize,
    seen: HashSet<u64>,
    /// Lock-order edges of this run: (held, acquired) → (hold mode, acquire mode).
    lock_edges: HashMap<(ObjId, ObjId), (Mode, Mode)>,
    os_unfinished: usize,
    handles: Vec<std::thread::JoinHandle<()>>,
}

/// The per-run scheduler shared by every model thread of one execution.
pub struct Scheduler {
    inner: Mutex<SchedInner>,
    cv: Condvar,
}

/// Everything the explorer needs from a finished run.
pub struct RunOutcome {
    pub failure: Option<Failure>,
    pub decisions: Vec<Decision>,
    pub seen: HashSet<u64>,
    pub pruned: usize,
    pub lock_cycles: Vec<String>,
}

/// Panic payload used to tear model threads down after a failure; filtered
/// out by the thread wrapper so it is never reported as a model panic.
pub struct AbortPanic;

// ---------------------------------------------------------------------
// Thread-local model context
// ---------------------------------------------------------------------

#[derive(Clone)]
pub struct Ctx {
    pub sched: Arc<Scheduler>,
    pub tid: Tid,
}

thread_local! {
    static CTX: RefCell<Option<Ctx>> = const { RefCell::new(None) };
}

/// The calling thread's model context, if it belongs to a model execution.
pub fn current() -> Option<Ctx> {
    CTX.with(|c| c.borrow().clone())
}

fn mix(h: u64, v: u64) -> u64 {
    (h ^ v)
        .wrapping_mul(0x0001_0000_0000_01b3)
        .rotate_left(23)
        .wrapping_add(0x9e37_79b9)
}

fn op_hash(op: &Op) -> u64 {
    mix(mix(op.kind as u64 + 1, op.obj as u64), op.aux as u64)
}

impl Scheduler {
    pub fn new(target: Vec<usize>, seen: HashSet<u64>) -> Arc<Self> {
        Arc::new(Scheduler {
            inner: Mutex::new(SchedInner {
                target,
                threads: vec![ThreadRec::new(Location::caller())],
                objs: Vec::new(),
                obj_ids: HashMap::new(),
                decisions: Vec::new(),
                trace: Vec::new(),
                last_running: None,
                preemptions: 0,
                live: 1,
                failure: None,
                aborting: false,
                exec_done: false,
                suppressed: false,
                pruned: 0,
                seen,
                lock_edges: HashMap::new(),
                os_unfinished: 1,
                handles: Vec::new(),
            }),
            cv: Condvar::new(),
        })
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, SchedInner> {
        // The scheduler's own mutex can only be poisoned by a bug in this
        // module; recover so teardown paths still work.
        match self.inner.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }

    /// Register (or look up) the per-run object id for a shim instance.
    pub fn obj(
        &self,
        instance: u64,
        kind: ObjKind,
        cap: usize,
        created: &'static Location<'static>,
    ) -> ObjId {
        let mut g = self.lock();
        if let Some(&id) = g.obj_ids.get(&instance) {
            return id;
        }
        let id = g.objs.len();
        g.objs.push(ObjRec::new(kind, cap, created));
        g.obj_ids.insert(instance, id);
        id
    }

    // -- silent (non-scheduling) state updates ------------------------

    /// Release a lock without a yield point (guard dropped during panic
    /// unwinding — the run is being torn down anyway).
    pub fn silent_release(&self, tid: Tid, obj: ObjId, shared: bool) {
        let mut g = self.lock();
        release_obj(
            &mut g,
            tid,
            obj,
            if shared { Mode::Shared } else { Mode::Excl },
        );
    }

    pub fn chan_sender_cloned(&self, obj: ObjId) {
        self.lock().objs[obj].senders += 1;
    }

    pub fn chan_sender_dropped(&self, obj: ObjId) {
        let mut g = self.lock();
        g.objs[obj].senders = g.objs[obj].senders.saturating_sub(1);
    }

    pub fn chan_rx_dropped(&self, obj: ObjId) {
        self.lock().objs[obj].rx_alive = false;
    }

    // -- model-thread lifecycle ---------------------------------------

    /// First call from a model OS thread: wait until the scheduler grants
    /// our `Begin`. The main thread (tid 0) kicks the very first decision.
    /// Returns `false` if the run aborted before we ever ran.
    pub fn begin(&self, tid: Tid) -> bool {
        let mut g = self.lock();
        if tid == 0 && !g.aborting {
            self.schedule(&mut g);
        }
        loop {
            if g.threads[tid].status == Status::Running {
                return true;
            }
            if g.aborting {
                return false;
            }
            g = match self.cv.wait(g) {
                Ok(g) => g,
                Err(p) => p.into_inner(),
            };
        }
    }

    /// Yield point: register the pending op, schedule, block until granted.
    pub fn yield_op(&self, tid: Tid, op: Op, site: &'static Location<'static>) -> Grant {
        let mut g = self.lock();
        if g.aborting {
            drop(g);
            return abort_now();
        }
        g.threads[tid].status = Status::Ready;
        g.threads[tid].pending = Some((op, site));
        g.threads[tid].grant = None;
        self.schedule(&mut g);
        loop {
            match g.threads[tid].status {
                Status::Running | Status::Finished => break,
                _ => {}
            }
            if g.aborting {
                drop(g);
                return abort_now();
            }
            g = match self.cv.wait(g) {
                Ok(g) => g,
                Err(p) => p.into_inner(),
            };
        }
        g.threads[tid].grant.take().unwrap_or(Grant::Ok)
    }

    /// Clean finish: the thread's closure returned.
    pub fn finish(&self, tid: Tid, site: &'static Location<'static>) {
        let _ = self.yield_op(tid, Op::new(OpKind::Finish), site);
    }

    /// Teardown finish: the thread's closure unwound (abort or panic).
    pub fn finish_aborted(&self, tid: Tid) {
        let mut g = self.lock();
        if g.threads[tid].status != Status::Finished {
            g.threads[tid].status = Status::Finished;
            g.live = g.live.saturating_sub(1);
        }
        if g.live == 0 {
            g.exec_done = true;
        }
        self.cv.notify_all();
    }

    /// A model thread panicked with a real (non-abort) payload.
    pub fn record_panic(&self, tid: Tid, msg: String) {
        let mut g = self.lock();
        if g.failure.is_none() {
            fail(
                &mut g,
                FailureKind::Panic,
                format!("model thread T{tid} panicked: {msg}"),
            );
        } else {
            g.aborting = true;
        }
        self.cv.notify_all();
    }

    /// The OS thread backing a model thread exited.
    pub fn os_thread_exited(&self) {
        let mut g = self.lock();
        g.os_unfinished = g.os_unfinished.saturating_sub(1);
        self.cv.notify_all();
    }

    pub fn os_thread_spawned(&self, handle: std::thread::JoinHandle<()>) {
        let mut g = self.lock();
        g.os_unfinished += 1;
        g.handles.push(handle);
    }

    /// Wait for the run to finish, join every model OS thread, and return
    /// the run outcome (failure, decisions, dedup set, lock cycles).
    pub fn finish_run(&self, main: std::thread::JoinHandle<()>) -> RunOutcome {
        let handles = {
            let mut g = self.lock();
            while g.os_unfinished > 0 {
                g = match self.cv.wait(g) {
                    Ok(g) => g,
                    Err(p) => p.into_inner(),
                };
            }
            std::mem::take(&mut g.handles)
        };
        let _ = main.join();
        for h in handles {
            let _ = h.join();
        }
        let mut g = self.lock();
        let lock_cycles = lock_cycles(&g);
        RunOutcome {
            failure: g.failure.take(),
            decisions: std::mem::take(&mut g.decisions),
            seen: std::mem::take(&mut g.seen),
            pruned: g.pruned,
            lock_cycles,
        }
    }

    // -- the scheduling loop ------------------------------------------

    fn schedule(&self, g: &mut SchedInner) {
        loop {
            if g.aborting || g.exec_done {
                self.cv.notify_all();
                return;
            }
            if g.live == 0 {
                g.exec_done = true;
                self.cv.notify_all();
                return;
            }
            let enabled: Vec<Tid> = (0..g.threads.len())
                .filter(|&t| g.threads[t].status == Status::Ready && op_enabled(g, t))
                .collect();
            if enabled.is_empty() {
                let blocked: Vec<String> = (0..g.threads.len())
                    .filter(|&t| g.threads[t].status != Status::Finished)
                    .map(|t| describe_blocked(g, t))
                    .collect();
                fail(
                    g,
                    FailureKind::Deadlock,
                    format!(
                        "deadlock: every live thread is blocked [{}]",
                        blocked.join("; ")
                    ),
                );
                self.cv.notify_all();
                return;
            }
            if g.decisions.len() >= MAX_STEPS {
                fail(
                    g,
                    FailureKind::StepLimit,
                    format!("run exceeded {MAX_STEPS} decisions (livelock?)"),
                );
                self.cv.notify_all();
                return;
            }
            let preferred = g
                .last_running
                .filter(|t| enabled.contains(t))
                .unwrap_or(enabled[0]);
            let mut order = vec![preferred];
            order.extend(enabled.iter().copied().filter(|&t| t != preferred));
            let last_in_order = g.last_running.is_some_and(|lr| order.contains(&lr));
            let depth = g.decisions.len();
            let chosen = if depth < g.target.len() {
                g.target[depth].min(order.len() - 1)
            } else {
                if !g.suppressed {
                    let sig = state_sig(g);
                    if !g.seen.insert(sig) {
                        g.suppressed = true;
                        g.pruned += 1;
                    }
                }
                0
            };
            let t = order[chosen];
            let preempt = last_in_order && g.last_running != Some(t);
            let preemptions_before = g.preemptions;
            if preempt {
                g.preemptions += 1;
            }
            g.decisions.push(Decision {
                order: order.clone(),
                chosen,
                preemptions_before,
                last_running: g.last_running,
                last_in_order,
                can_increment: !g.suppressed,
            });
            grant(g, t);
            if g.threads[t].status == Status::Running {
                g.last_running = Some(t);
                self.cv.notify_all();
                return;
            }
            // CvWait put the thread to sleep, or Finish retired it — the
            // effect is applied but nobody is running: decide again.
            g.last_running = Some(t);
        }
    }
}

fn abort_now() -> Grant {
    if std::thread::panicking() {
        // A guard being dropped during unwinding must not double-panic.
        return Grant::Ok;
    }
    std::panic::panic_any(AbortPanic);
}

fn fail(g: &mut SchedInner, kind: FailureKind, message: String) {
    if g.failure.is_none() {
        g.failure = Some(Failure {
            kind,
            message,
            trace: g.trace.iter().map(Event::render).collect(),
            schedule: g.decisions.iter().map(|d| d.chosen).collect(),
        });
    }
    g.aborting = true;
    g.exec_done = true;
}

fn describe_blocked(g: &SchedInner, t: Tid) -> String {
    let rec = &g.threads[t];
    match rec.status {
        Status::SleepCv => format!("T{t} asleep on condvar"),
        _ => match rec.pending {
            Some((op, site)) => format!("T{t} blocked on {:?} at {site}", op.kind),
            None => format!("T{t} running"),
        },
    }
}

fn op_enabled(g: &SchedInner, t: Tid) -> bool {
    let Some((op, _)) = g.threads[t].pending else {
        return false;
    };
    match op.kind {
        OpKind::MutexLock => g.objs[op.obj].owner.is_none(),
        OpKind::RwRead => g.objs[op.obj].owner.is_none(),
        OpKind::RwWrite => {
            let o = &g.objs[op.obj];
            o.owner.is_none() && o.readers.is_empty()
        }
        OpKind::ChanSend => {
            let o = &g.objs[op.obj];
            o.len < o.cap || !o.rx_alive
        }
        OpKind::ChanRecv => {
            let o = &g.objs[op.obj];
            o.len > 0 || o.senders == 0
        }
        OpKind::Join => g.threads[op.aux].status == Status::Finished,
        _ => true,
    }
}

fn release_obj(g: &mut SchedInner, tid: Tid, obj: ObjId, mode: Mode) {
    let o = &mut g.objs[obj];
    match mode {
        Mode::Excl => o.owner = None,
        Mode::Shared => {
            if let Some(pos) = o.readers.iter().position(|&r| r == tid) {
                o.readers.remove(pos);
            }
        }
    }
    let held = &mut g.threads[tid].held;
    if let Some(pos) = held.iter().position(|&(h, _)| h == obj) {
        held.remove(pos);
    }
}

fn acquire_obj(g: &mut SchedInner, tid: Tid, obj: ObjId, mode: Mode) {
    // Lock-order edges from everything currently held to the new lock.
    for &(h, hm) in &g.threads[tid].held {
        if h != obj {
            g.lock_edges.entry((h, obj)).or_insert((hm, mode));
        }
    }
    match mode {
        Mode::Excl => g.objs[obj].owner = Some(tid),
        Mode::Shared => g.objs[obj].readers.push(tid),
    }
    g.threads[tid].held.push((obj, mode));
}

/// Apply the effect of thread `t`'s pending op (it has been chosen).
fn grant(g: &mut SchedInner, t: Tid) {
    let (op, site) = g.threads[t]
        .pending
        .take()
        .expect("granted thread has a pending op");
    let (obj_kind, obj_site) = if op.obj != NO_OBJ {
        (Some(g.objs[op.obj].kind), Some(g.objs[op.obj].created))
    } else {
        (None, None)
    };
    g.trace.push(Event {
        tid: t,
        op,
        site,
        obj_kind,
        obj_site,
    });
    let mut next_status = Status::Running;
    match op.kind {
        // Atomics and joins only order the schedule; `Join` is enabled
        // once its target has finished.
        OpKind::Begin
        | OpKind::Join
        | OpKind::AtomicLoad
        | OpKind::AtomicStore
        | OpKind::AtomicRmw => {}
        OpKind::MutexLock | OpKind::RwWrite => acquire_obj(g, t, op.obj, Mode::Excl),
        OpKind::RwRead => acquire_obj(g, t, op.obj, Mode::Shared),
        OpKind::MutexUnlock | OpKind::RwUnlockWrite => release_obj(g, t, op.obj, Mode::Excl),
        OpKind::RwUnlockRead => release_obj(g, t, op.obj, Mode::Shared),
        OpKind::CvWait => {
            release_obj(g, t, op.aux, Mode::Excl);
            g.objs[op.obj].waiters.push(t);
            g.threads[t].wait_mutex = Some(op.aux);
            next_status = Status::SleepCv;
        }
        OpKind::CvNotifyAll => {
            for w in std::mem::take(&mut g.objs[op.obj].waiters) {
                let m = g.threads[w]
                    .wait_mutex
                    .take()
                    .expect("sleeper has a wait mutex");
                g.threads[w].status = Status::Ready;
                g.threads[w].pending = Some((Op::on(OpKind::MutexLock, m), site));
            }
        }
        OpKind::ChanSend => {
            let o = &mut g.objs[op.obj];
            let grant = if o.rx_alive {
                o.len += 1;
                Grant::Ok
            } else {
                Grant::SendDisconnected
            };
            g.threads[t].grant = Some(grant);
        }
        OpKind::ChanRecv => {
            let o = &mut g.objs[op.obj];
            let grant = if o.len > 0 {
                o.len -= 1;
                Grant::Ok
            } else {
                Grant::RecvDisconnected
            };
            g.threads[t].grant = Some(grant);
        }
        OpKind::Spawn => {
            let child = g.threads.len();
            g.threads.push(ThreadRec::new(site));
            g.live += 1;
            g.threads[t].grant = Some(Grant::Spawned(child));
        }
        OpKind::Finish => {
            next_status = Status::Finished;
            g.live -= 1;
            if g.live == 0 {
                g.exec_done = true;
            }
        }
    }
    // History hashes for state dedup: thread and object histories are
    // intertwined so that equal hashes imply equal observable histories.
    if op.obj != NO_OBJ {
        let th = g.threads[t].hist;
        let o = &mut g.objs[op.obj];
        o.sig = mix(o.sig, mix(th, op_hash(&op)));
        let osig = o.sig;
        g.threads[t].hist = mix(th, osig);
    } else {
        g.threads[t].hist = mix(g.threads[t].hist, op_hash(&op));
    }
    g.threads[t].status = next_status;
}

/// Hash of the scheduler-visible state at a decision point. Equal hashes
/// mean (w.h.p.) equal per-thread/per-object observable histories, which
/// for closures that communicate only through the shims means equal
/// continuations — safe to prune.
fn state_sig(g: &SchedInner) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for t in &g.threads {
        h = mix(h, t.status as u64);
        h = mix(h, t.hist);
        if let Some((op, _)) = t.pending {
            h = mix(h, op_hash(&op));
        }
    }
    for o in &g.objs {
        h = mix(h, o.sig);
        h = mix(h, o.owner.map_or(u64::MAX, |t| t as u64));
        h = mix(h, o.readers.len() as u64);
        h = mix(h, o.waiters.len() as u64);
        h = mix(h, o.len as u64);
        h = mix(h, o.senders as u64);
        h = mix(h, u64::from(o.rx_alive));
    }
    h
}

/// Cycles in the run's lock-order graph that could actually block (at
/// least one edge involves an exclusive mode), rendered for the report.
fn lock_cycles(g: &SchedInner) -> Vec<String> {
    let mut adj: HashMap<ObjId, Vec<ObjId>> = HashMap::new();
    for &(a, b) in g.lock_edges.keys() {
        adj.entry(a).or_default().push(b);
    }
    let mut cycles = Vec::new();
    let nodes: Vec<ObjId> = adj.keys().copied().collect();
    for &start in &nodes {
        // DFS from each node looking for a path back to it.
        let mut stack = vec![(start, vec![start])];
        let mut visited: HashSet<ObjId> = HashSet::new();
        while let Some((node, path)) = stack.pop() {
            for &nxt in adj.get(&node).into_iter().flatten() {
                if nxt == start {
                    let mut full = path.clone();
                    full.push(start);
                    let all_shared = full.windows(2).all(|w| {
                        matches!(
                            g.lock_edges.get(&(w[0], w[1])),
                            Some((Mode::Shared, Mode::Shared))
                        )
                    });
                    if !all_shared
                        && start == *full[..full.len() - 1].iter().min().expect("nonempty")
                    {
                        let chain: Vec<String> = full
                            .iter()
                            .map(|&o| {
                                format!(
                                    "{:?}#{} (created {})",
                                    g.objs[o].kind, o, g.objs[o].created
                                )
                            })
                            .collect();
                        let rendered = chain.join(" -> ");
                        if !cycles.contains(&rendered) {
                            cycles.push(rendered);
                        }
                    }
                } else if visited.insert(nxt) {
                    let mut p = path.clone();
                    p.push(nxt);
                    stack.push((nxt, p));
                }
            }
        }
    }
    cycles
}

/// The explorer's backtracking step: deepest decision with an untried
/// alternative within the preemption bound, or `None` when the (bounded,
/// deduplicated) schedule space is exhausted.
pub fn next_target(decisions: &[Decision], bound: usize) -> Option<Vec<usize>> {
    for i in (0..decisions.len()).rev() {
        let d = &decisions[i];
        if !d.can_increment {
            continue;
        }
        for c in (d.chosen + 1)..d.order.len() {
            let preempt = d.last_in_order && d.last_running != Some(d.order[c]);
            if d.preemptions_before + usize::from(preempt) <= bound {
                let mut t: Vec<usize> = decisions[..i].iter().map(|d| d.chosen).collect();
                t.push(c);
                return Some(t);
            }
        }
    }
    None
}

// ---------------------------------------------------------------------
// Model-thread wrapper
// ---------------------------------------------------------------------

/// Install (once) a panic-hook filter that silences expected model-thread
/// panics — both real assertion failures (which the checker reports
/// itself, with the schedule) and `AbortPanic` teardowns.
fn quiet_model_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let name = std::thread::current().name().map(str::to_string);
            if name.as_deref().is_some_and(|n| n.starts_with("df-check-")) {
                return;
            }
            prev(info);
        }));
    });
}

/// Body of every model OS thread: gate on `Begin`, run the closure under
/// the thread-local model context, then finish (cleanly or aborted).
pub fn run_model_thread(sched: Arc<Scheduler>, tid: Tid, f: Box<dyn FnOnce() + Send>) {
    quiet_model_panics();
    if !sched.begin(tid) {
        sched.finish_aborted(tid);
        sched.os_thread_exited();
        return;
    }
    CTX.with(|c| {
        *c.borrow_mut() = Some(Ctx {
            sched: Arc::clone(&sched),
            tid,
        })
    });
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
    CTX.with(|c| c.borrow_mut().take());
    match result {
        Ok(()) => sched.finish(tid, Location::caller()),
        Err(payload) => {
            if payload.downcast_ref::<AbortPanic>().is_none() {
                sched.record_panic(tid, payload_msg(payload));
            }
            sched.finish_aborted(tid);
        }
    }
    sched.os_thread_exited();
}
