//! The eBPF-style hook engine (paper Figure 5).
//!
//! Programs attach to [`AttachPoint`]s — syscall enter/exit (as kprobes or
//! tracepoints) and user-space function enter/exit (uprobes/uretprobes).
//! When the kernel executes an instrumented operation it builds a
//! [`HookContext`] and [`HookEngine::fire`]s it; every matching program runs
//! synchronously (eBPF programs run on the calling CPU) and may publish
//! events into the shared perf ring buffer.
//!
//! The engine accounts two costs:
//!
//! * **virtual overhead** — an [`HookOverheadModel`] charges each firing a
//!   per-probe-kind latency which the kernel adds to the syscall's virtual
//!   duration. This is how instrumentation overhead propagates into the
//!   end-to-end experiments (Figures 16 and 19);
//! * **real cost** — the `fig13_report` harness in `df-bench` measures the
//!   actual wall-clock cost of this dispatch machinery.

use crate::ringbuf::PerfRingBuffer;
use crate::verifier::{self, ProgramSpec, VerifierError};
use df_types::message::MessageData;
use df_types::time::{DurationNs, TimeNs};
use df_types::{CoroutineId, Direction, FiveTuple, NodeId, Pid, SocketId, SyscallAbi, Tid};

/// How a program is attached (determines base overhead; Figure 13(a)
/// contrasts kprobe and tracepoint costs, 13(b) adds uprobes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProbeKind {
    /// Dynamic kernel probe (int3/ftrace patching) — slower.
    Kprobe,
    /// Static tracepoint — cheaper.
    Tracepoint,
    /// User-space probe (uprobe) — most expensive (trap into kernel).
    Uprobe,
    /// User-space return probe.
    Uretprobe,
    /// Classic BPF socket filter (cBPF path, per-packet).
    SocketFilter,
}

/// Where a program is attached.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum AttachPoint {
    /// Fire when a Table 3 syscall enters the kernel.
    SyscallEnter(SyscallAbi),
    /// Fire when it exits.
    SyscallExit(SyscallAbi),
    /// Fire on entry of a user-space function (e.g. `ssl_read`).
    UserFnEnter(&'static str),
    /// Fire on return of a user-space function.
    UserFnExit(&'static str),
}

/// Phase of the firing (mirrors enter/exit).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HookPhase {
    /// Entering the kernel (arguments available).
    Enter,
    /// Leaving the kernel (return value available).
    Exit,
}

/// Everything a program can observe at a firing — the four §3.2.1
/// information categories.
#[derive(Debug, Clone)]
pub struct HookContext<'a> {
    /// Enter or exit.
    pub phase: HookPhase,
    /// Which syscall, for syscall probes.
    pub abi: Option<SyscallAbi>,
    /// Which user function, for uprobes.
    pub symbol: Option<&'static str>,
    /// Firing timestamp.
    pub ts: TimeNs,
    /// Process id.
    pub pid: Pid,
    /// Thread id.
    pub tid: Tid,
    /// Current coroutine on the thread, if any.
    pub coroutine: Option<CoroutineId>,
    /// Process name.
    pub process_name: &'a str,
    /// Node id (for the agent's capture metadata).
    pub node: NodeId,
    /// Globally unique socket id, when the operation touches a socket.
    pub socket_id: Option<SocketId>,
    /// Socket five-tuple.
    pub five_tuple: Option<FiveTuple>,
    /// TCP sequence of the first byte moved by this operation.
    pub tcp_seq: Option<u32>,
    /// Table 3 direction, when applicable.
    pub direction: Option<Direction>,
    /// Requested length (enter) or transferred length (exit).
    pub byte_len: usize,
    /// Payload prefix (bounded by the kernel's snap length).
    pub payload: Option<&'a [u8]>,
    /// Whether this is the first syscall of a message (paper §3.3.1 —
    /// continuations are counted but not captured).
    pub first_syscall: bool,
}

/// Events crossing the kernel→user-space boundary through the perf ring.
// Message records dominate real rings; boxing them would add a pointer
// chase on the hot path for no space win in practice.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum KernelEvent {
    /// A fully combined enter+exit message record (what DeepFlow's syscall
    /// programs emit after their in-kernel hashmap join).
    Message(MessageData),
    /// Anything else a custom program wants to report.
    Custom {
        /// Emitting program name.
        program: String,
        /// Opaque payload.
        payload: Vec<u8>,
    },
}

/// A BPF program: verified spec + run body. Programs keep their own state
/// ("maps") in `self`.
pub trait BpfProgram: Send {
    /// Static properties checked by the verifier at attach time.
    fn spec(&self) -> &ProgramSpec;
    /// Execute on a firing. May publish into the perf ring.
    fn run(&mut self, ctx: &HookContext<'_>, ring: &mut PerfRingBuffer<KernelEvent>);
}

/// Per-probe-kind virtual latency model. Defaults are calibrated to the
/// paper's Figure 13: each syscall hook pair adds a few hundred ns; uprobes
/// cost microseconds.
#[derive(Debug, Clone)]
pub struct HookOverheadModel {
    /// Base cost of a kprobe firing.
    pub kprobe_ns: u64,
    /// Base cost of a tracepoint firing.
    pub tracepoint_ns: u64,
    /// Base cost of a uprobe firing (includes the user→kernel trap).
    pub uprobe_ns: u64,
    /// Base cost of a uretprobe firing.
    pub uretprobe_ns: u64,
    /// Base cost of a socket-filter evaluation.
    pub socket_filter_ns: u64,
    /// Added cost per program executed at the point.
    pub per_program_ns: u64,
    /// Added cost per 64 bytes of payload copied to the ring.
    pub per_64b_copied_ns: u64,
}

impl Default for HookOverheadModel {
    fn default() -> Self {
        // Calibrated so an instrumented ABI pays ~280–590 ns per enter+exit
        // pair with one program attached (paper §5.1: 277–889 ns per event
        // including the inherent probe overhead; ≤588 ns added by DeepFlow).
        HookOverheadModel {
            kprobe_ns: 160,
            tracepoint_ns: 90,
            uprobe_ns: 2900,
            uretprobe_ns: 3200,
            socket_filter_ns: 60,
            per_program_ns: 120,
            per_64b_copied_ns: 10,
        }
    }
}

impl HookOverheadModel {
    /// Virtual cost of one firing of `kind` running `programs` programs over
    /// `copied_bytes` of captured payload.
    pub fn cost(&self, kind: ProbeKind, programs: usize, copied_bytes: usize) -> DurationNs {
        if programs == 0 {
            return DurationNs::ZERO;
        }
        let base = match kind {
            ProbeKind::Kprobe => self.kprobe_ns,
            ProbeKind::Tracepoint => self.tracepoint_ns,
            ProbeKind::Uprobe => self.uprobe_ns,
            ProbeKind::Uretprobe => self.uretprobe_ns,
            ProbeKind::SocketFilter => self.socket_filter_ns,
        };
        let copy = (copied_bytes as u64).div_ceil(64) * self.per_64b_copied_ns;
        DurationNs(base + programs as u64 * self.per_program_ns + copy)
    }
}

struct Attachment {
    point: AttachPoint,
    kind: ProbeKind,
    program: Box<dyn BpfProgram>,
}

/// The per-kernel hook engine: attachments plus the shared perf ring.
pub struct HookEngine {
    attachments: Vec<Attachment>,
    /// The perf ring buffer the agent drains.
    pub ring: PerfRingBuffer<KernelEvent>,
    overhead: HookOverheadModel,
    total_virtual_overhead: DurationNs,
    total_firings: u64,
}

impl HookEngine {
    /// New engine with a ring of `ring_capacity` events.
    pub fn new(ring_capacity: usize, overhead: HookOverheadModel) -> Self {
        HookEngine {
            attachments: Vec::new(),
            ring: PerfRingBuffer::new(ring_capacity),
            overhead,
            total_virtual_overhead: DurationNs::ZERO,
            total_firings: 0,
        }
    }

    /// Attach a program after verification. Rejected programs never attach —
    /// the eBPF safety contract (§2.3.1).
    pub fn attach(
        &mut self,
        point: AttachPoint,
        kind: ProbeKind,
        program: Box<dyn BpfProgram>,
    ) -> Result<(), VerifierError> {
        verifier::verify(program.spec())?;
        self.attachments.push(Attachment {
            point,
            kind,
            program,
        });
        Ok(())
    }

    /// Detach every program at a point. Returns how many were removed.
    /// (eBPF detachment is in-flight — no process restarts, §3.2.2.)
    pub fn detach_all(&mut self, point: &AttachPoint) -> usize {
        let before = self.attachments.len();
        self.attachments.retain(|a| &a.point != point);
        before - self.attachments.len()
    }

    /// Number of attachments.
    pub fn attachment_count(&self) -> usize {
        self.attachments.len()
    }

    /// Whether anything is attached at `point` (lets the kernel skip context
    /// construction entirely when uninstrumented — the "no agent" baseline).
    pub fn is_attached(&self, point: &AttachPoint) -> bool {
        self.attachments.iter().any(|a| &a.point == point)
    }

    /// Whether any syscall probe is attached at all.
    pub fn any_syscall_probes(&self) -> bool {
        self.attachments.iter().any(|a| {
            matches!(
                a.point,
                AttachPoint::SyscallEnter(_) | AttachPoint::SyscallExit(_)
            )
        })
    }

    /// Fire all programs attached at `point`. Returns the modelled virtual
    /// overhead of the firing (zero when nothing is attached).
    pub fn fire(&mut self, point: &AttachPoint, ctx: &HookContext<'_>) -> DurationNs {
        let mut total = DurationNs::ZERO;
        let mut matched: Option<ProbeKind> = None;
        let mut programs = 0usize;
        for a in &mut self.attachments {
            if &a.point == point {
                a.program.run(ctx, &mut self.ring);
                programs += 1;
                matched = Some(a.kind);
            }
        }
        if let Some(kind) = matched {
            let copied = ctx.payload.map(<[u8]>::len).unwrap_or(0);
            total = self.overhead.cost(kind, programs, copied);
            self.total_virtual_overhead += total;
            self.total_firings += 1;
        }
        total
    }

    /// Total virtual overhead charged so far.
    pub fn total_virtual_overhead(&self) -> DurationNs {
        self.total_virtual_overhead
    }

    /// Total firings with at least one program.
    pub fn total_firings(&self) -> u64 {
        self.total_firings
    }
}

impl std::fmt::Debug for HookEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HookEngine")
            .field("attachments", &self.attachments.len())
            .field("ring_len", &self.ring.len())
            .field("total_firings", &self.total_firings)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Counts its own firings; the simplest useful program.
    struct Counter {
        spec: ProgramSpec,
        count: u64,
    }

    impl Counter {
        fn new() -> Self {
            Counter {
                spec: ProgramSpec::small("counter"),
                count: 0,
            }
        }
    }

    impl BpfProgram for Counter {
        fn spec(&self) -> &ProgramSpec {
            &self.spec
        }
        fn run(&mut self, _ctx: &HookContext<'_>, ring: &mut PerfRingBuffer<KernelEvent>) {
            self.count += 1;
            ring.push(KernelEvent::Custom {
                program: "counter".into(),
                payload: vec![],
            });
        }
    }

    fn ctx(phase: HookPhase) -> HookContext<'static> {
        HookContext {
            phase,
            abi: Some(SyscallAbi::Read),
            symbol: None,
            ts: TimeNs(100),
            pid: Pid(1),
            tid: Tid(1),
            coroutine: None,
            process_name: "test",
            node: NodeId(1),
            socket_id: Some(SocketId(1)),
            five_tuple: None,
            tcp_seq: Some(0),
            direction: Some(Direction::Ingress),
            byte_len: 128,
            payload: None,
            first_syscall: true,
        }
    }

    #[test]
    fn fire_runs_attached_programs_and_charges_overhead() {
        let mut eng = HookEngine::new(64, HookOverheadModel::default());
        eng.attach(
            AttachPoint::SyscallEnter(SyscallAbi::Read),
            ProbeKind::Kprobe,
            Box::new(Counter::new()),
        )
        .unwrap();
        let cost = eng.fire(
            &AttachPoint::SyscallEnter(SyscallAbi::Read),
            &ctx(HookPhase::Enter),
        );
        assert!(cost > DurationNs::ZERO);
        assert_eq!(eng.ring.len(), 1);
        assert_eq!(eng.total_firings(), 1);
        // No program at exit point → zero cost, nothing emitted.
        let cost2 = eng.fire(
            &AttachPoint::SyscallExit(SyscallAbi::Read),
            &ctx(HookPhase::Exit),
        );
        assert_eq!(cost2, DurationNs::ZERO);
        assert_eq!(eng.ring.len(), 1);
    }

    #[test]
    fn tracepoint_cheaper_than_kprobe_cheaper_than_uprobe() {
        let m = HookOverheadModel::default();
        let tp = m.cost(ProbeKind::Tracepoint, 1, 0);
        let kp = m.cost(ProbeKind::Kprobe, 1, 0);
        let up = m.cost(ProbeKind::Uprobe, 1, 0);
        assert!(tp < kp, "{tp} < {kp}");
        assert!(kp < up, "{kp} < {up}");
    }

    #[test]
    fn payload_copy_adds_cost() {
        let m = HookOverheadModel::default();
        let none = m.cost(ProbeKind::Kprobe, 1, 0);
        let some = m.cost(ProbeKind::Kprobe, 1, 1024);
        assert!(some > none);
        // zero programs: free (nothing attached)
        assert_eq!(m.cost(ProbeKind::Kprobe, 0, 1024), DurationNs::ZERO);
    }

    #[test]
    fn unverifiable_program_cannot_attach() {
        let mut eng = HookEngine::new(8, HookOverheadModel::default());
        struct Bad(ProgramSpec);
        impl BpfProgram for Bad {
            fn spec(&self) -> &ProgramSpec {
                &self.0
            }
            fn run(&mut self, _: &HookContext<'_>, _: &mut PerfRingBuffer<KernelEvent>) {}
        }
        let mut spec = ProgramSpec::small("bad");
        spec.unchecked_memory_access = true;
        let err = eng
            .attach(
                AttachPoint::SyscallEnter(SyscallAbi::Read),
                ProbeKind::Kprobe,
                Box::new(Bad(spec)),
            )
            .unwrap_err();
        assert_eq!(err, VerifierError::UncheckedMemoryAccess);
        assert_eq!(eng.attachment_count(), 0);
    }

    #[test]
    fn detach_is_scoped_to_point() {
        let mut eng = HookEngine::new(8, HookOverheadModel::default());
        eng.attach(
            AttachPoint::SyscallEnter(SyscallAbi::Read),
            ProbeKind::Kprobe,
            Box::new(Counter::new()),
        )
        .unwrap();
        eng.attach(
            AttachPoint::SyscallExit(SyscallAbi::Read),
            ProbeKind::Kprobe,
            Box::new(Counter::new()),
        )
        .unwrap();
        assert!(eng.any_syscall_probes());
        assert_eq!(
            eng.detach_all(&AttachPoint::SyscallEnter(SyscallAbi::Read)),
            1
        );
        assert!(!eng.is_attached(&AttachPoint::SyscallEnter(SyscallAbi::Read)));
        assert!(eng.is_attached(&AttachPoint::SyscallExit(SyscallAbi::Read)));
    }
}
