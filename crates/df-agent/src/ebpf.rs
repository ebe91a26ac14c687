//! The DeepFlow eBPF programs (paper Figure 5 / Figure 6 phase 1).
//!
//! Both programs are the same enter/exit join. One instance attaches to the
//! enter and the exit point of its hooks. At *enter* it records the
//! timestamp in a BPF-map analogue keyed by `(Pid, Tid)` — sound because
//! "the kernel can simultaneously handle only one selected system call for
//! a given (Process_ID, Thread_ID)" (§3.3.1). At *exit* it joins the stashed
//! enter with the results and emits a combined [`MessageData`] into the
//! perf ring (`emit_message`). [`DeepFlowSyscallProgram`] hooks the ten
//! Table 3 ABIs, [`DeepFlowTlsProgram`] the `ssl_read`/`ssl_write` uprobes;
//! they differ only in where direction, capture source and `first_syscall`
//! come from, and in what an exit without an enter means.

use bytes::Bytes;
use df_kernel::hooks::{BpfProgram, HookContext, HookPhase, KernelEvent};
use df_kernel::ringbuf::PerfRingBuffer;
use df_kernel::verifier::{Helper, ProgramSpec};
use df_types::message::{
    CaptureSource, MessageContext, NetworkInfo, ProgramInfo, SyscallInfo, TracingInfo,
};
use df_types::{Direction, MessageData, Pid, Tid, TimeNs};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, PoisonError};

/// The exit half of the join, shared by both programs: combine the stashed
/// enter time with the exit context into one [`MessageData`] and push it.
/// Returns whether a message reached the ring.
fn emit_message(
    ctx: &HookContext<'_>,
    ring: &mut PerfRingBuffer<KernelEvent>,
    snap_len: usize,
    enter_ns: TimeNs,
    direction: Direction,
    source: CaptureSource,
    first_syscall: bool,
) -> bool {
    let (Some(socket_id), Some(five_tuple)) = (ctx.socket_id, ctx.five_tuple) else {
        return false; // not a socket operation — nothing to trace
    };
    // Skip zero-byte transfers (EOF reads) — no message.
    if ctx.byte_len == 0 {
        return false;
    }
    let payload = ctx
        .payload
        .map(|p| Bytes::copy_from_slice(p.get(..snap_len).unwrap_or(p)))
        .unwrap_or_default();
    ring.push(KernelEvent::Message(MessageData {
        program: ProgramInfo {
            pid: ctx.pid,
            tid: ctx.tid,
            coroutine: ctx.coroutine,
            process_name: ctx.process_name.to_string(),
        },
        network: NetworkInfo {
            socket_id,
            five_tuple,
            tcp_seq: ctx.tcp_seq.unwrap_or(0),
        },
        tracing: TracingInfo {
            enter_ns,
            exit_ns: ctx.ts,
            direction,
            source,
            node: ctx.node,
        },
        syscall: SyscallInfo {
            byte_len: ctx.byte_len,
            payload,
            first_syscall,
        },
        context: MessageContext::default(),
    }))
}

/// The syscall-tracing program.
pub struct DeepFlowSyscallProgram {
    spec: ProgramSpec,
    /// The BPF-map analogue: (pid, tid) → stashed enter time.
    enter_map: HashMap<(Pid, Tid), TimeNs>,
    /// Messages emitted.
    pub emitted: u64,
    /// Exits with no matching enter (should stay zero; counted defensively).
    pub orphan_exits: u64,
    /// Payload snap length copied into events.
    pub snap_len: usize,
}

impl DeepFlowSyscallProgram {
    /// Create the program. `snap_len` bounds payload copies, like the real
    /// program's bounded `bpf_probe_read`.
    pub fn new(snap_len: usize) -> Self {
        DeepFlowSyscallProgram {
            spec: ProgramSpec {
                name: "df_syscall_trace".to_string(),
                instructions: 1800,
                max_loop_bound: Some(8),
                stack_bytes: 480,
                helpers: vec![
                    Helper::MapLookup,
                    Helper::MapUpdate,
                    Helper::MapDelete,
                    Helper::ProbeRead,
                    Helper::GetCurrentPidTgid,
                    Helper::GetCurrentComm,
                    Helper::KtimeGetNs,
                    Helper::PerfEventOutput,
                ],
                unchecked_memory_access: false,
            },
            enter_map: HashMap::new(),
            emitted: 0,
            orphan_exits: 0,
            snap_len,
        }
    }

    /// Entries currently stashed (threads inside a syscall).
    pub fn in_flight(&self) -> usize {
        self.enter_map.len()
    }
}

impl BpfProgram for DeepFlowSyscallProgram {
    fn spec(&self) -> &ProgramSpec {
        &self.spec
    }

    fn run(&mut self, ctx: &HookContext<'_>, ring: &mut PerfRingBuffer<KernelEvent>) {
        let key = (ctx.pid, ctx.tid);
        match ctx.phase {
            HookPhase::Enter => {
                self.enter_map.insert(key, ctx.ts);
            }
            HookPhase::Exit => {
                // An exit without a stashed enter means the program was
                // attached while the thread was already blocked inside the
                // syscall (in-flight attachment, §3.2.2). The message is
                // still valuable: synthesize the enter at the exit time,
                // exactly as the real agent does when it races a blocking
                // recv.
                let enter_ns = self.enter_map.remove(&key).unwrap_or_else(|| {
                    self.orphan_exits += 1;
                    ctx.ts
                });
                let (Some(abi), Some(direction)) = (ctx.abi, ctx.direction) else {
                    return; // not a socket operation — nothing to trace
                };
                let source = CaptureSource::Ebpf(abi);
                let first = ctx.first_syscall;
                if emit_message(ctx, ring, self.snap_len, enter_ns, direction, source, first) {
                    self.emitted += 1;
                }
            }
        }
    }
}

/// Uprobe/uretprobe program for TLS plaintext capture (`ssl_read` /
/// `ssl_write`, §3.2.1: "easy access to important information, such as the
/// original payload prior to TLS encryption").
pub struct DeepFlowTlsProgram {
    spec: ProgramSpec,
    enter_map: HashMap<(Pid, Tid), TimeNs>,
    snap_len: usize,
    /// Messages emitted.
    pub emitted: u64,
}

impl DeepFlowTlsProgram {
    /// Create the TLS uprobe program.
    pub fn new(snap_len: usize) -> Self {
        DeepFlowTlsProgram {
            spec: ProgramSpec {
                name: "df_tls_uprobe".to_string(),
                instructions: 900,
                max_loop_bound: Some(4),
                stack_bytes: 384,
                helpers: vec![
                    Helper::MapLookup,
                    Helper::MapUpdate,
                    Helper::ProbeRead,
                    Helper::PerfEventOutput,
                ],
                unchecked_memory_access: false,
            },
            enter_map: HashMap::new(),
            snap_len,
            emitted: 0,
        }
    }
}

impl BpfProgram for DeepFlowTlsProgram {
    fn spec(&self) -> &ProgramSpec {
        &self.spec
    }

    fn run(&mut self, ctx: &HookContext<'_>, ring: &mut PerfRingBuffer<KernelEvent>) {
        let key = (ctx.pid, ctx.tid);
        match ctx.phase {
            HookPhase::Enter => {
                self.enter_map.insert(key, ctx.ts);
            }
            HookPhase::Exit => {
                // A uretprobe with no stashed uprobe (attached mid-call) is
                // dropped, not synthesized.
                let Some(enter_ns) = self.enter_map.remove(&key) else {
                    return;
                };
                let direction = match ctx.symbol {
                    Some("ssl_read") => Direction::Ingress,
                    Some("ssl_write") => Direction::Egress,
                    _ => return,
                };
                let source = CaptureSource::Uprobe;
                if emit_message(ctx, ring, self.snap_len, enter_ns, direction, source, true) {
                    self.emitted += 1;
                }
            }
        }
    }
}

/// A handle sharing one program between its enter and exit attach points —
/// the analogue of enter/exit eBPF programs sharing one BPF map. The
/// simulation is single-threaded per node; the mutex exists only to satisfy
/// the `Send` bound and is never contended.
pub struct SharedProgram<P> {
    inner: Arc<Mutex<P>>,
    spec: ProgramSpec,
}

impl<P: BpfProgram> SharedProgram<P> {
    /// Wrap a program for shared attachment.
    pub fn new(prog: P) -> Self {
        let spec = prog.spec().clone();
        SharedProgram {
            inner: Arc::new(Mutex::new(prog)),
            spec,
        }
    }
}

impl<P> Clone for SharedProgram<P> {
    fn clone(&self) -> Self {
        SharedProgram {
            inner: self.inner.clone(),
            spec: self.spec.clone(),
        }
    }
}

impl<P: BpfProgram> BpfProgram for SharedProgram<P> {
    fn spec(&self) -> &ProgramSpec {
        &self.spec
    }

    fn run(&mut self, ctx: &HookContext<'_>, ring: &mut PerfRingBuffer<KernelEvent>) {
        // A panic inside one run leaves the program's maps as that run
        // left them; the next hook carries on with them.
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .run(ctx, ring);
    }
}

/// The empty program used as the Fig. 13 baseline ("we begin by deploying an
/// empty eBPF program to get the theoretical minimum system overhead").
pub struct EmptyProgram {
    spec: ProgramSpec,
}

impl EmptyProgram {
    /// Create the empty program.
    pub fn new() -> Self {
        EmptyProgram {
            spec: ProgramSpec {
                name: "empty_baseline".to_string(),
                instructions: 2,
                max_loop_bound: None,
                stack_bytes: 0,
                helpers: vec![],
                unchecked_memory_access: false,
            },
        }
    }
}

impl Default for EmptyProgram {
    fn default() -> Self {
        Self::new()
    }
}

impl BpfProgram for EmptyProgram {
    fn spec(&self) -> &ProgramSpec {
        &self.spec
    }
    fn run(&mut self, _ctx: &HookContext<'_>, _ring: &mut PerfRingBuffer<KernelEvent>) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use df_types::{FiveTuple, NodeId, SocketId, SyscallAbi};
    use std::net::Ipv4Addr;

    fn ctx<'a>(
        phase: HookPhase,
        ts: u64,
        payload: Option<&'a [u8]>,
        byte_len: usize,
    ) -> HookContext<'a> {
        HookContext {
            phase,
            abi: Some(SyscallAbi::Read),
            symbol: None,
            ts: TimeNs(ts),
            pid: Pid(1),
            tid: Tid(2),
            coroutine: None,
            process_name: "svc",
            node: NodeId(1),
            socket_id: Some(SocketId(5)),
            five_tuple: Some(FiveTuple::tcp(
                Ipv4Addr::new(10, 0, 0, 1),
                80,
                Ipv4Addr::new(10, 0, 0, 2),
                40000,
            )),
            tcp_seq: Some(999),
            direction: Some(Direction::Ingress),
            byte_len,
            payload,
            first_syscall: true,
        }
    }

    #[test]
    fn enter_exit_join_produces_message_data() {
        let mut prog = DeepFlowSyscallProgram::new(1024);
        let mut ring = PerfRingBuffer::new(16);
        prog.run(&ctx(HookPhase::Enter, 100, None, 4096), &mut ring);
        assert_eq!(prog.in_flight(), 1);
        assert!(ring.is_empty(), "enter alone emits nothing");
        prog.run(&ctx(HookPhase::Exit, 250, Some(b"hello"), 5), &mut ring);
        assert_eq!(prog.in_flight(), 0);
        let events = ring.drain_all();
        assert_eq!(events.len(), 1);
        let KernelEvent::Message(m) = &events[0] else {
            panic!("expected message event");
        };
        assert_eq!(m.tracing.enter_ns, TimeNs(100));
        assert_eq!(m.tracing.exit_ns, TimeNs(250));
        assert_eq!(m.network.tcp_seq, 999);
        assert_eq!(&m.syscall.payload[..], b"hello");
        assert_eq!(prog.emitted, 1);
    }

    #[test]
    fn orphan_exit_synthesizes_the_enter_for_in_flight_attachment() {
        // The agent attached while a thread was blocked in recv: the exit
        // fires without a stashed enter. The message is still emitted, with
        // a zero-length kernel residence.
        let mut prog = DeepFlowSyscallProgram::new(1024);
        let mut ring = PerfRingBuffer::new(16);
        prog.run(&ctx(HookPhase::Exit, 250, Some(b"x"), 1), &mut ring);
        assert_eq!(prog.orphan_exits, 1);
        let events = ring.drain_all();
        assert_eq!(events.len(), 1);
        let KernelEvent::Message(m) = &events[0] else {
            panic!()
        };
        assert_eq!(m.tracing.enter_ns, m.tracing.exit_ns);
        assert_eq!(&m.syscall.payload[..], b"x");
    }

    #[test]
    fn zero_byte_exit_is_skipped() {
        let mut prog = DeepFlowSyscallProgram::new(1024);
        let mut ring = PerfRingBuffer::new(16);
        prog.run(&ctx(HookPhase::Enter, 1, None, 4096), &mut ring);
        prog.run(&ctx(HookPhase::Exit, 2, None, 0), &mut ring);
        assert!(ring.is_empty());
        assert_eq!(prog.emitted, 0);
    }

    #[test]
    fn snap_len_truncates_payload() {
        let mut prog = DeepFlowSyscallProgram::new(4);
        let mut ring = PerfRingBuffer::new(16);
        prog.run(&ctx(HookPhase::Enter, 1, None, 4096), &mut ring);
        prog.run(&ctx(HookPhase::Exit, 2, Some(b"abcdefgh"), 8), &mut ring);
        let KernelEvent::Message(m) = &ring.drain_all()[0] else {
            panic!()
        };
        assert_eq!(&m.syscall.payload[..], b"abcd");
        assert_eq!(m.syscall.byte_len, 8, "byte_len reports the full size");
    }

    #[test]
    fn concurrent_threads_do_not_collide() {
        let mut prog = DeepFlowSyscallProgram::new(64);
        let mut ring = PerfRingBuffer::new(16);
        let mut c1 = ctx(HookPhase::Enter, 10, None, 100);
        let mut c2 = ctx(HookPhase::Enter, 20, None, 100);
        c2.tid = Tid(3);
        prog.run(&c1, &mut ring);
        prog.run(&c2, &mut ring);
        assert_eq!(prog.in_flight(), 2);
        c1.phase = HookPhase::Exit;
        c1.ts = TimeNs(30);
        c1.payload = Some(b"t1");
        c1.byte_len = 2;
        c2.phase = HookPhase::Exit;
        c2.ts = TimeNs(40);
        c2.payload = Some(b"t2");
        c2.byte_len = 2;
        prog.run(&c1, &mut ring);
        prog.run(&c2, &mut ring);
        let msgs = ring.drain_all();
        assert_eq!(msgs.len(), 2);
        let KernelEvent::Message(m1) = &msgs[0] else {
            panic!()
        };
        assert_eq!(m1.tracing.enter_ns, TimeNs(10));
        let KernelEvent::Message(m2) = &msgs[1] else {
            panic!()
        };
        assert_eq!(m2.tracing.enter_ns, TimeNs(20));
    }

    #[test]
    fn program_passes_verifier() {
        assert!(df_kernel::verifier::verify(DeepFlowSyscallProgram::new(64).spec()).is_ok());
        assert!(df_kernel::verifier::verify(EmptyProgram::new().spec()).is_ok());
    }
}
