//! [`MessageData`] — the unit of trace data produced by the agent.
//!
//! Paper §3.3.1 / Figure 6, phase 1: the enter and exit halves of one
//! instrumented syscall are associated by `(Pid, Tid)` and combined into
//! *message data*. Phase 2 (protocol inference) and the association passes
//! (§3.3.2) then tag it: the agent carries what they derive beside the
//! message as it is aggregated into a session.

use crate::ids::{CoroutineId, NodeId, Pid, SocketId, Tid};
use crate::net::{Direction, FiveTuple};
use crate::time::TimeNs;
use bytes::Bytes;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// The ten system call ABIs DeepFlow instruments (paper Table 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[allow(missing_docs)] // names are the syscall names themselves
pub enum SyscallAbi {
    Read,
    Readv,
    Recvfrom,
    Recvmsg,
    Recvmmsg,
    Write,
    Writev,
    Sendto,
    Sendmsg,
    Sendmmsg,
}

impl SyscallAbi {
    /// Classification per Table 3: read/recv* are ingress, write/send* egress.
    pub fn direction(self) -> Direction {
        match self {
            SyscallAbi::Read
            | SyscallAbi::Readv
            | SyscallAbi::Recvfrom
            | SyscallAbi::Recvmsg
            | SyscallAbi::Recvmmsg => Direction::Ingress,
            SyscallAbi::Write
            | SyscallAbi::Writev
            | SyscallAbi::Sendto
            | SyscallAbi::Sendmsg
            | SyscallAbi::Sendmmsg => Direction::Egress,
        }
    }

    /// All ten ABIs, ingress first (Table 3 order).
    pub const ALL: [SyscallAbi; 10] = [
        SyscallAbi::Recvmsg,
        SyscallAbi::Recvmmsg,
        SyscallAbi::Readv,
        SyscallAbi::Read,
        SyscallAbi::Recvfrom,
        SyscallAbi::Sendmsg,
        SyscallAbi::Sendmmsg,
        SyscallAbi::Writev,
        SyscallAbi::Write,
        SyscallAbi::Sendto,
    ];

    /// The syscall's name as it appears in the kernel symbol table.
    pub fn name(self) -> &'static str {
        match self {
            SyscallAbi::Read => "read",
            SyscallAbi::Readv => "readv",
            SyscallAbi::Recvfrom => "recvfrom",
            SyscallAbi::Recvmsg => "recvmsg",
            SyscallAbi::Recvmmsg => "recvmmsg",
            SyscallAbi::Write => "write",
            SyscallAbi::Writev => "writev",
            SyscallAbi::Sendto => "sendto",
            SyscallAbi::Sendmsg => "sendmsg",
            SyscallAbi::Sendmmsg => "sendmmsg",
        }
    }
}

impl fmt::Display for SyscallAbi {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// Where a message was captured (paper §3.2.1 "tracing information" plus the
/// instrumentation extensions).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CaptureSource {
    /// eBPF kprobe/tracepoint on a syscall ABI.
    Ebpf(SyscallAbi),
    /// uprobe/uretprobe on a user-space function (e.g. `ssl_read`), used to
    /// see plaintext before TLS encryption.
    Uprobe,
    /// cBPF / AF_PACKET capture on a network interface.
    Packet,
}

/// §3.2.1 category (i): program information.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProgramInfo {
    /// Process id.
    pub pid: Pid,
    /// Thread id.
    pub tid: Tid,
    /// Coroutine id, when the component runs a coroutine scheduler the agent
    /// tracks (Go-style).
    pub coroutine: Option<CoroutineId>,
    /// Executable name (`comm`), the kernel's one shared copy for the
    /// process.
    pub process_name: Arc<str>,
}

/// §3.2.1 category (ii): network information.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct NetworkInfo {
    /// DeepFlow-assigned globally unique socket id.
    pub socket_id: SocketId,
    /// Five-tuple from the capturing component's local perspective.
    pub five_tuple: FiveTuple,
    /// TCP sequence number of the first byte of this message. Preserved by
    /// L2/3/4 forwarding, hence usable for inter-component association
    /// (paper §3.3.2).
    pub tcp_seq: u32,
}

/// §3.2.1 category (iii): tracing information.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TracingInfo {
    /// Timestamp of the syscall *enter* (start of the message I/O).
    pub enter_ns: TimeNs,
    /// Timestamp of the syscall *exit*.
    pub exit_ns: TimeNs,
    /// Ingress or egress, per Table 3.
    pub direction: Direction,
    /// Which instrumentation mechanism captured the message.
    pub source: CaptureSource,
    /// The node whose agent captured it.
    pub node: NodeId,
}

/// §3.2.1 category (iv): system call information.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SyscallInfo {
    /// Total length of the read/written data, in bytes.
    pub byte_len: usize,
    /// Payload prefix handed to the agent for protocol inference. DeepFlow
    /// truncates — deep inspection stops at headers (§3.3.1).
    pub payload: Bytes,
    /// True if this was the first syscall for the message; subsequent
    /// continuation syscalls are counted but not payload-captured (§3.3.1:
    /// "we only process the first system call for a message").
    pub first_syscall: bool,
}

/// One message observed at one capture point: the combined enter+exit record
/// of Figure 6 phase 1.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MessageData {
    /// Program information.
    pub program: ProgramInfo,
    /// Network information.
    pub network: NetworkInfo,
    /// Tracing information.
    pub tracing: TracingInfo,
    /// System call information.
    pub syscall: SyscallInfo,
}

impl MessageData {
    /// Duration the syscall spent in the kernel.
    pub fn syscall_latency(&self) -> crate::time::DurationNs {
        self.tracing.exit_ns.saturating_since(self.tracing.enter_ns)
    }

    /// The capture timestamp used for time-window slotting: the exit time,
    /// i.e. when the message was fully handed over.
    pub fn capture_ns(&self) -> TimeNs {
        self.tracing.exit_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn sample() -> MessageData {
        MessageData {
            program: ProgramInfo {
                pid: Pid(100),
                tid: Tid(101),
                coroutine: None,
                process_name: "productpage".into(),
            },
            network: NetworkInfo {
                socket_id: SocketId(7),
                five_tuple: FiveTuple::tcp(
                    Ipv4Addr::new(10, 1, 0, 5),
                    40000,
                    Ipv4Addr::new(10, 1, 0, 9),
                    9080,
                ),
                tcp_seq: 1000,
            },
            tracing: TracingInfo {
                enter_ns: TimeNs(1_000),
                exit_ns: TimeNs(3_500),
                direction: Direction::Egress,
                source: CaptureSource::Ebpf(SyscallAbi::Write),
                node: NodeId(1),
            },
            syscall: SyscallInfo {
                byte_len: 512,
                payload: Bytes::from_static(b"GET / HTTP/1.1\r\n"),
                first_syscall: true,
            },
        }
    }

    #[test]
    fn syscall_direction_classification_covers_table3() {
        use SyscallAbi::*;
        for abi in [Read, Readv, Recvfrom, Recvmsg, Recvmmsg] {
            assert_eq!(abi.direction(), Direction::Ingress, "{abi}");
        }
        for abi in [Write, Writev, Sendto, Sendmsg, Sendmmsg] {
            assert_eq!(abi.direction(), Direction::Egress, "{abi}");
        }
        assert_eq!(SyscallAbi::ALL.len(), 10);
    }

    #[test]
    fn latency_and_capture_time() {
        let m = sample();
        assert_eq!(m.syscall_latency().as_nanos(), 2_500);
        assert_eq!(m.capture_ns(), TimeNs(3_500));
    }
}
