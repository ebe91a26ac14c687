//! # df-kernel — the simulated kernel substrate
//!
//! The DeepFlow paper instruments a real Linux kernel with eBPF. This crate
//! is the substitution (DESIGN.md §1): a deterministic, discrete-event,
//! Linux-*shaped* kernel that exposes exactly the surface DeepFlow's agent
//! needs:
//!
//! * a **process model** ([`process`]) with processes, threads and
//!   Go-style coroutines (whose creation the agent observes to build
//!   pseudo-threads, paper §3.3.1);
//! * **TCP sockets** ([`socket`]) with real sequence-number accounting —
//!   the invariant that L2/3/4 forwarding preserves `tcp_seq` is what makes
//!   implicit inter-component association work (paper §3.3.2);
//! * the **ten syscall ABIs of Table 3** ([`syscalls`]), each firing *enter*
//!   and *exit* hooks;
//! * an **eBPF-style hook engine** ([`hooks`]) with kprobe / tracepoint /
//!   uprobe / uretprobe attach points, per-attach-type overhead accounting
//!   (reproducing Figure 13), a **verifier** ([`verifier`]) that admits or
//!   rejects programs, and a bounded **perf ring buffer** ([`ringbuf`])
//!   carrying events to user space.
//!
//! One [`Kernel`] instance models one node (VM / container host / physical
//! machine). The kernel is *synchronous*: callers (the `df-mesh` event loop)
//! own the virtual clock and hand the current [`df_types::TimeNs`] into every call;
//! the kernel replies with outbound segments and thread wake-ups, never
//! blocking.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod hooks;
pub mod kernel;
pub mod process;
pub mod ringbuf;
pub mod socket;
pub mod syscalls;
pub mod verifier;

pub use error::KernelError;
pub use hooks::{AttachPoint, BpfProgram, HookContext, HookEngine, HookOverheadModel, ProbeKind};
pub use kernel::{Fd, Kernel, KernelConfig, RecvResult, SyscallOutcome, Wakeup, WakeupKind};
pub use process::{CoroutineEvent, ProcessTable, ThreadState};
pub use ringbuf::PerfRingBuffer;
pub use socket::{ReadOutcome, RecvChunk, Socket, SocketState, MSS};
pub use verifier::{ProgramSpec, VerifierError};
