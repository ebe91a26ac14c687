//! The [`Kernel`]: one simulated node's kernel.
//!
//! Synchronous discrete-event design: the caller owns the virtual clock and
//! passes `now` into every operation; the kernel never blocks. A blocking
//! syscall returns [`SyscallOutcome::WouldBlock`], the caller parks the
//! thread, and a later [`Kernel::deliver`] returns [`Wakeup`]s telling the
//! caller which threads to resume (they then *retry* the syscall — at which
//! point the exit hook fires with the original enter timestamp association,
//! exactly the (pid, tid) hashmap join described in paper §3.3.1).

use crate::error::KernelError;
use crate::hooks::{AttachPoint, HookContext, HookEngine, HookOverheadModel, HookPhase};
use crate::process::{ProcessTable, ThreadState};
use crate::socket::{ReadOutcome, Socket, SocketState};
use bytes::Bytes;
use df_types::net::{FiveTuple, TcpFlags, TransportProtocol};
use df_types::packet::Segment;
use df_types::time::{DurationNs, TimeNs};
use df_types::{Direction, NodeId, Pid, SocketId, SyscallAbi, Tid};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::sync::Arc;

/// File descriptor.
pub type Fd = u32;

/// Inherent (uninstrumented) virtual cost of one syscall.
const BASE_SYSCALL: DurationNs = DurationNs(450);

/// Kernel construction parameters.
#[derive(Debug, Clone)]
pub struct KernelConfig {
    /// Node identity (stamped into every hook context).
    pub node: NodeId,
    /// Hostname, for diagnostics.
    pub hostname: String,
    /// Payload snap length copied into hook contexts (like eBPF's bounded
    /// `bpf_probe_read`).
    pub snap_len: usize,
    /// Perf ring capacity in events.
    pub ring_capacity: usize,
    /// Hook overhead model.
    pub overhead: HookOverheadModel,
    /// RNG seed (initial sequence numbers).
    pub seed: u64,
}

impl Default for KernelConfig {
    fn default() -> Self {
        KernelConfig {
            node: NodeId(0),
            hostname: "node".into(),
            snap_len: 1024,
            ring_capacity: 1 << 16,
            overhead: HookOverheadModel::default(),
            seed: 0x5eed,
        }
    }
}

/// Result of a (possibly blocking) syscall attempt.
#[derive(Debug)]
pub enum SyscallOutcome<T> {
    /// Completed; `duration` is the virtual time spent in the kernel
    /// (inherent cost + instrumentation overhead).
    Complete {
        /// Return value.
        value: T,
        /// Virtual kernel time consumed.
        duration: DurationNs,
    },
    /// The thread must park and retry after a matching [`Wakeup`].
    WouldBlock,
    /// Failed.
    Error {
        /// The errno-shaped failure.
        err: KernelError,
        /// Virtual kernel time consumed discovering it.
        duration: DurationNs,
    },
}

impl<T> SyscallOutcome<T> {
    /// Unwrap a completion (test helper).
    pub fn unwrap_complete(self) -> (T, DurationNs) {
        match self {
            SyscallOutcome::Complete { value, duration } => (value, duration),
            SyscallOutcome::WouldBlock => panic!("syscall would block"),
            SyscallOutcome::Error { err, .. } => panic!("syscall failed: {err}"),
        }
    }
}

/// Why a parked thread should be resumed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WakeupKind {
    /// Data (or EOF) is readable on the socket the thread was blocked on.
    Readable,
    /// `connect` completed.
    Connected,
    /// `connect` failed (RST / refused).
    ConnectFailed,
    /// A connection is ready to `accept`.
    Acceptable,
    /// The connection was reset while blocked.
    Reset,
}

/// A thread to resume after packet delivery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Wakeup {
    /// The thread to resume.
    pub tid: Tid,
    /// Why.
    pub kind: WakeupKind,
    /// The socket involved.
    pub socket: SocketId,
}

#[derive(Debug, Clone, Copy)]
struct PendingEnter {
    /// ABI of the blocked syscall — a retry must use the same one.
    abi: SyscallAbi,
}

/// Data returned by a completed ingress syscall.
#[derive(Debug, Clone)]
pub struct RecvResult {
    /// Bytes delivered (empty = orderly EOF).
    pub data: Bytes,
    /// TCP sequence of the first byte.
    pub tcp_seq: u32,
    /// Whether this read began a new application message.
    pub msg_start: bool,
    /// Datagram peer (UDP).
    pub peer: Option<(Ipv4Addr, u16)>,
}

#[derive(Default)]
struct FdTable {
    next: Fd,
    map: HashMap<Fd, SocketId>,
}

/// One node's kernel.
pub struct Kernel {
    cfg: KernelConfig,
    /// Process/thread/coroutine table.
    pub procs: ProcessTable,
    /// Hook engine (eBPF substrate) and its perf ring.
    pub hooks: HookEngine,
    sockets: HashMap<SocketId, Socket>,
    socket_owner: HashMap<SocketId, Pid>,
    fd_tables: HashMap<Pid, FdTable>,
    by_tuple: HashMap<FiveTuple, SocketId>,
    tcp_listeners: HashMap<(Ipv4Addr, u16), SocketId>,
    udp_bound: HashMap<(Ipv4Addr, u16), SocketId>,
    parked_readers: HashMap<SocketId, Vec<Tid>>,
    parked_accepters: HashMap<SocketId, Vec<Tid>>,
    parked_connecters: HashMap<SocketId, Tid>,
    pending_enter: HashMap<Tid, PendingEnter>,
    outbox: Vec<Segment>,
    next_socket_local: u64,
    next_ephemeral: u16,
    rng: SmallRng,
}

impl Kernel {
    /// Build a kernel.
    pub fn new(cfg: KernelConfig) -> Self {
        let hooks = HookEngine::new(cfg.ring_capacity, cfg.overhead.clone());
        let rng = SmallRng::seed_from_u64(cfg.seed ^ u64::from(cfg.node.raw()));
        Kernel {
            cfg,
            procs: ProcessTable::new(),
            hooks,
            sockets: HashMap::new(),
            socket_owner: HashMap::new(),
            fd_tables: HashMap::new(),
            by_tuple: HashMap::new(),
            tcp_listeners: HashMap::new(),
            udp_bound: HashMap::new(),
            parked_readers: HashMap::new(),
            parked_accepters: HashMap::new(),
            parked_connecters: HashMap::new(),
            pending_enter: HashMap::new(),
            outbox: Vec::new(),
            next_socket_local: 1,
            next_ephemeral: 32768,
            rng,
        }
    }

    /// This kernel's node id.
    pub fn node(&self) -> NodeId {
        self.cfg.node
    }

    /// Hostname.
    pub fn hostname(&self) -> &str {
        &self.cfg.hostname
    }

    fn alloc_socket_id(&mut self) -> SocketId {
        let id = SocketId((u64::from(self.cfg.node.raw()) << 32) | self.next_socket_local);
        self.next_socket_local += 1;
        id
    }

    fn alloc_fd(&mut self, pid: Pid, sid: SocketId) -> Fd {
        let table = self.fd_tables.entry(pid).or_default();
        table.next += 1;
        let fd = table.next + 2; // 0/1/2 are stdio
        table.map.insert(fd, sid);
        fd
    }

    /// `socket(2)`: create a socket for `pid`.
    pub fn socket(&mut self, pid: Pid, protocol: TransportProtocol) -> Result<Fd, KernelError> {
        if self.procs.process(pid).is_none() {
            return Err(KernelError::NoSuchProcess);
        }
        let sid = self.alloc_socket_id();
        let iss = self.rng.gen::<u32>();
        let sock = Socket::new(sid, protocol, (Ipv4Addr::UNSPECIFIED, 0), iss);
        self.sockets.insert(sid, sock);
        self.socket_owner.insert(sid, pid);
        Ok(self.alloc_fd(pid, sid))
    }

    /// `bind(2)`.
    pub fn bind(&mut self, pid: Pid, fd: Fd, ip: Ipv4Addr, port: u16) -> Result<(), KernelError> {
        let sid = self.sid(pid, fd)?;
        let proto = self.sockets[&sid].protocol;
        match proto {
            TransportProtocol::Tcp => {
                if self.tcp_listeners.contains_key(&(ip, port)) {
                    return Err(KernelError::AddrInUse);
                }
            }
            TransportProtocol::Udp => {
                if self.udp_bound.contains_key(&(ip, port)) {
                    return Err(KernelError::AddrInUse);
                }
                self.udp_bound.insert((ip, port), sid);
            }
        }
        let sock = self.sockets.get_mut(&sid).expect("sid resolved");
        sock.local = (ip, port);
        Ok(())
    }

    /// `listen(2)`.
    pub fn listen(&mut self, pid: Pid, fd: Fd, backlog: usize) -> Result<(), KernelError> {
        let sid = self.sid(pid, fd)?;
        let sock = self.sockets.get_mut(&sid).ok_or(KernelError::BadFd)?;
        if sock.protocol != TransportProtocol::Tcp {
            return Err(KernelError::Invalid("listen on non-TCP socket"));
        }
        if sock.local.1 == 0 {
            return Err(KernelError::Invalid("listen before bind"));
        }
        sock.state = SocketState::Listen;
        sock.backlog = backlog;
        self.tcp_listeners.insert(sock.local, sid);
        Ok(())
    }

    /// `connect(2)`. For TCP this sends a SYN and parks the thread
    /// ([`SyscallOutcome::WouldBlock`]); a [`WakeupKind::Connected`] follows
    /// when the SYN+ACK arrives. For UDP it just sets the peer.
    pub fn connect(
        &mut self,
        tid: Tid,
        pid: Pid,
        fd: Fd,
        local_ip: Ipv4Addr,
        dst: (Ipv4Addr, u16),
    ) -> SyscallOutcome<()> {
        let sid = match self.sid(pid, fd) {
            Ok(s) => s,
            Err(err) => {
                return SyscallOutcome::Error {
                    err,
                    duration: BASE_SYSCALL,
                }
            }
        };
        let eph = self.next_ephemeral;
        self.next_ephemeral = self.next_ephemeral.checked_add(1).unwrap_or(32768);
        let sock = self.sockets.get_mut(&sid).expect("sid resolved");
        if sock.remote.is_some() {
            return SyscallOutcome::Error {
                err: KernelError::AlreadyConnected,
                duration: BASE_SYSCALL,
            };
        }
        if sock.local.1 == 0 {
            sock.local = (local_ip, eph);
        }
        sock.remote = Some(dst);
        match sock.protocol {
            TransportProtocol::Udp => {
                let tuple = sock.five_tuple().expect("remote just set");
                self.by_tuple.insert(tuple, sid);
                SyscallOutcome::Complete {
                    value: (),
                    duration: BASE_SYSCALL,
                }
            }
            TransportProtocol::Tcp => {
                sock.state = SocketState::SynSent;
                let tuple = sock.five_tuple().expect("remote just set");
                let seg = Segment {
                    five_tuple: tuple,
                    seq: sock.iss,
                    ack: 0,
                    flags: TcpFlags::SYN,
                    window: sock.window(),
                    payload: Bytes::new(),
                    is_retransmission: false,
                };
                sock.snd_nxt = sock.iss.wrapping_add(1);
                self.by_tuple.insert(tuple, sid);
                self.outbox.push(seg);
                self.parked_connecters.insert(sid, tid);
                self.set_thread_state(tid, ThreadState::BlockedOnRecv);
                SyscallOutcome::WouldBlock
            }
        }
    }

    /// `accept(2)`: pop an established connection or park.
    pub fn accept(&mut self, tid: Tid, pid: Pid, fd: Fd) -> SyscallOutcome<Fd> {
        let sid = match self.sid(pid, fd) {
            Ok(s) => s,
            Err(err) => {
                return SyscallOutcome::Error {
                    err,
                    duration: BASE_SYSCALL,
                }
            }
        };
        let Some(listener) = self.sockets.get_mut(&sid) else {
            return SyscallOutcome::Error {
                err: KernelError::BadFd,
                duration: BASE_SYSCALL,
            };
        };
        if listener.state != SocketState::Listen {
            return SyscallOutcome::Error {
                err: KernelError::Invalid("accept on non-listening socket"),
                duration: BASE_SYSCALL,
            };
        }
        if let Some(child) = listener.accept_queue.pop_front() {
            let child_fd = self.alloc_fd(pid, child);
            self.socket_owner.insert(child, pid);
            SyscallOutcome::Complete {
                value: child_fd,
                duration: BASE_SYSCALL,
            }
        } else {
            self.parked_accepters.entry(sid).or_default().push(tid);
            self.set_thread_state(tid, ThreadState::BlockedOnRecv);
            SyscallOutcome::WouldBlock
        }
    }

    /// An egress (Table 3 send-family) syscall. Fires enter/exit hooks,
    /// segmentizes onto the outbox, returns bytes written.
    ///
    /// `dst` carries the explicit destination for unconnected `sendto`.
    // Mirrors the syscall ABI surface; bundling into a struct would only
    // move the argument list one call up.
    #[allow(clippy::too_many_arguments)]
    pub fn syscall_send(
        &mut self,
        tid: Tid,
        pid: Pid,
        fd: Fd,
        payload: Bytes,
        abi: SyscallAbi,
        dst: Option<(Ipv4Addr, u16)>,
        now: TimeNs,
    ) -> SyscallOutcome<usize> {
        debug_assert_eq!(abi.direction(), Direction::Egress, "send with recv ABI");
        let sid = match self.sid(pid, fd) {
            Ok(s) => s,
            Err(err) => {
                return SyscallOutcome::Error {
                    err,
                    duration: BASE_SYSCALL,
                }
            }
        };
        // Unconnected UDP sendto: the destination is per-datagram; it must
        // NOT bind the socket (a DNS server answers many peers through one
        // bound socket).
        let (tuple, tcp_seq, proto) = {
            let sock = &self.sockets[&sid];
            let tuple = match (sock.protocol, dst) {
                (TransportProtocol::Udp, Some(d)) if sock.remote.is_none() => Some(FiveTuple {
                    src_ip: sock.local.0,
                    src_port: sock.local.1,
                    dst_ip: d.0,
                    dst_port: d.1,
                    protocol: TransportProtocol::Udp,
                }),
                _ => sock.five_tuple(),
            };
            (tuple, sock.snd_nxt, sock.protocol)
        };
        let tcp_seq = if proto == TransportProtocol::Udp {
            0
        } else {
            tcp_seq
        };
        // --- enter hook ---
        let enter_cost = self.fire_syscall_hook(
            HookPhase::Enter,
            abi,
            now,
            pid,
            tid,
            sid,
            tuple,
            Some(tcp_seq),
            payload.len(),
            Some(&payload),
            true,
        );
        // --- kernel work ---
        let n = payload.len();
        if proto == TransportProtocol::Udp {
            // Datagram path: one segment, no sequence machinery.
            let Some(t) = tuple else {
                return SyscallOutcome::Error {
                    err: KernelError::NotConnected,
                    duration: BASE_SYSCALL + enter_cost,
                };
            };
            self.outbox.push(Segment {
                five_tuple: t,
                seq: 0,
                ack: 0,
                flags: TcpFlags::default(),
                window: 0,
                payload: payload.clone(),
                is_retransmission: false,
            });
        } else {
            let result = {
                let sock = self.sockets.get_mut(&sid).expect("sid resolved");
                sock.segmentize(payload.clone())
            };
            let segments = match result {
                Ok(s) => s,
                Err(err) => {
                    return SyscallOutcome::Error {
                        err,
                        duration: BASE_SYSCALL + enter_cost,
                    }
                }
            };
            self.outbox.extend(segments);
        }
        // --- exit hook ---
        let exit_now = now + BASE_SYSCALL + enter_cost;
        let exit_cost = self.fire_syscall_hook(
            HookPhase::Exit,
            abi,
            exit_now,
            pid,
            tid,
            sid,
            tuple,
            Some(tcp_seq),
            n,
            Some(&payload),
            true,
        );
        SyscallOutcome::Complete {
            value: n,
            duration: BASE_SYSCALL + enter_cost + exit_cost,
        }
    }

    /// An ingress (Table 3 recv-family) syscall. On first attempt fires the
    /// enter hook; if no data, parks ([`SyscallOutcome::WouldBlock`]) and the
    /// caller retries after a [`WakeupKind::Readable`] — at which point the
    /// exit hook fires.
    pub fn syscall_recv(
        &mut self,
        tid: Tid,
        pid: Pid,
        fd: Fd,
        max: usize,
        abi: SyscallAbi,
        now: TimeNs,
    ) -> SyscallOutcome<RecvResult> {
        debug_assert_eq!(abi.direction(), Direction::Ingress, "recv with send ABI");
        let sid = match self.sid(pid, fd) {
            Ok(s) => s,
            Err(err) => {
                return SyscallOutcome::Error {
                    err,
                    duration: BASE_SYSCALL,
                }
            }
        };
        let tuple = self.sockets[&sid].five_tuple();
        // --- enter hook: once per logical syscall, not per retry ---
        let mut enter_cost = DurationNs::ZERO;
        if let Some(pending) = self.pending_enter.get(&tid) {
            debug_assert_eq!(pending.abi, abi, "retry must reuse the blocked ABI");
        } else {
            enter_cost = self.fire_syscall_hook(
                HookPhase::Enter,
                abi,
                now,
                pid,
                tid,
                sid,
                tuple,
                None,
                max,
                None,
                false,
            );
            self.pending_enter.insert(tid, PendingEnter { abi });
        }
        // --- kernel work ---
        let read = {
            let sock = self.sockets.get_mut(&sid).expect("sid resolved");
            sock.read(max)
        };
        match read {
            Ok(ReadOutcome {
                data,
                seq,
                msg_start,
                peer,
            }) => {
                self.pending_enter.remove(&tid);
                // Unconnected UDP sockets have no bound five-tuple; derive
                // the per-datagram one from the recorded peer so the hook
                // context is complete (the agent keys flows on it).
                let exit_tuple = tuple.or_else(|| {
                    let sock = &self.sockets[&sid];
                    peer.map(|p| FiveTuple {
                        src_ip: sock.local.0,
                        src_port: sock.local.1,
                        dst_ip: p.0,
                        dst_port: p.1,
                        protocol: sock.protocol,
                    })
                });
                let exit_cost = self.fire_syscall_hook(
                    HookPhase::Exit,
                    abi,
                    now + BASE_SYSCALL + enter_cost,
                    pid,
                    tid,
                    sid,
                    exit_tuple,
                    Some(seq),
                    data.len(),
                    Some(&data),
                    msg_start,
                );
                SyscallOutcome::Complete {
                    value: RecvResult {
                        data,
                        tcp_seq: seq,
                        msg_start,
                        peer,
                    },
                    duration: BASE_SYSCALL + enter_cost + exit_cost,
                }
            }
            Err(KernelError::WouldBlock) => {
                self.parked_readers.entry(sid).or_default().push(tid);
                self.set_thread_state(tid, ThreadState::BlockedOnRecv);
                SyscallOutcome::WouldBlock
            }
            Err(err) => {
                self.pending_enter.remove(&tid);
                SyscallOutcome::Error {
                    err,
                    duration: BASE_SYSCALL + enter_cost,
                }
            }
        }
    }

    /// Invoke a user-space function, firing any uprobe/uretprobe attached to
    /// `symbol` (instrumentation extension, §3.2.1 — e.g. `ssl_read` to see
    /// plaintext before TLS). Returns the virtual instrumentation overhead.
    pub fn invoke_user_fn(
        &mut self,
        tid: Tid,
        pid: Pid,
        symbol: &'static str,
        payload: &[u8],
        fd: Option<Fd>,
        now: TimeNs,
    ) -> DurationNs {
        let (socket_id, tuple, tcp_seq) = match fd.and_then(|f| self.sid(pid, f).ok()) {
            Some(sid) => {
                let s = &self.sockets[&sid];
                (Some(sid), s.five_tuple(), Some(s.snd_nxt))
            }
            None => (None, None, None),
        };
        let name = self.process_name(pid);
        let coroutine = self.procs.thread(tid).and_then(|t| t.current_coroutine);
        let snap = payload.len().min(self.cfg.snap_len);
        let mut total = DurationNs::ZERO;
        for (point, phase) in [
            (AttachPoint::UserFnEnter(symbol), HookPhase::Enter),
            (AttachPoint::UserFnExit(symbol), HookPhase::Exit),
        ] {
            if !self.hooks.is_attached(&point) {
                continue;
            }
            let ctx = HookContext {
                phase,
                abi: None,
                symbol: Some(symbol),
                ts: now + total,
                pid,
                tid,
                coroutine,
                process_name: &name,
                node: self.cfg.node,
                socket_id,
                five_tuple: tuple,
                tcp_seq,
                direction: None,
                byte_len: payload.len(),
                payload: Some(&payload[..snap]),
                first_syscall: true,
            };
            total += self.hooks.fire(&point, &ctx);
        }
        total
    }

    /// `close(2)`: orderly shutdown (FIN).
    pub fn close(&mut self, pid: Pid, fd: Fd) -> Result<(), KernelError> {
        let sid = self.sid(pid, fd)?;
        if let Some(table) = self.fd_tables.get_mut(&pid) {
            table.map.remove(&fd);
        }
        // Release any listener/bind registrations so the address becomes
        // reusable.
        {
            let sock = self.sockets.get(&sid).ok_or(KernelError::BadFd)?;
            match sock.protocol {
                TransportProtocol::Tcp => {
                    if sock.state == SocketState::Listen {
                        self.tcp_listeners.remove(&sock.local);
                    }
                }
                TransportProtocol::Udp => {
                    if self.udp_bound.get(&sock.local) == Some(&sid) {
                        self.udp_bound.remove(&sock.local);
                    }
                }
            }
        }
        let sock = self.sockets.get_mut(&sid).ok_or(KernelError::BadFd)?;
        if sock.protocol == TransportProtocol::Tcp
            && matches!(
                sock.state,
                SocketState::Established | SocketState::CloseWait
            )
        {
            let tuple = sock.five_tuple().expect("established socket");
            let seg = Segment {
                five_tuple: tuple,
                seq: sock.snd_nxt,
                ack: sock.rcv_nxt,
                flags: TcpFlags::FIN_ACK,
                window: sock.window(),
                payload: Bytes::new(),
                is_retransmission: false,
            };
            sock.snd_nxt = sock.snd_nxt.wrapping_add(1);
            sock.state = SocketState::FinWait;
            self.outbox.push(seg);
        }
        Ok(())
    }

    /// Abort a connection (RST), e.g. a broker shedding load.
    pub fn abort(&mut self, pid: Pid, fd: Fd) -> Result<(), KernelError> {
        let sid = self.sid(pid, fd)?;
        let sock = self.sockets.get_mut(&sid).ok_or(KernelError::BadFd)?;
        if let Some(tuple) = sock.five_tuple() {
            self.outbox.push(Segment {
                five_tuple: tuple,
                seq: sock.snd_nxt,
                ack: sock.rcv_nxt,
                flags: TcpFlags::RST,
                window: 0,
                payload: Bytes::new(),
                is_retransmission: false,
            });
        }
        sock.state = SocketState::Reset;
        Ok(())
    }

    /// Deliver an inbound segment. Returns the threads to resume.
    pub fn deliver(&mut self, seg: &Segment, _now: TimeNs) -> Vec<Wakeup> {
        let mut wakeups = Vec::new();
        let local_tuple = seg.five_tuple.reversed();
        let f = seg.flags;

        if f.syn && !f.ack {
            self.handle_syn(seg, local_tuple);
            return wakeups;
        }

        // Route to an existing socket.
        let sid = match self.by_tuple.get(&local_tuple).copied() {
            Some(s) => s,
            None => {
                // UDP to a bound socket.
                if seg.five_tuple.protocol == TransportProtocol::Udp {
                    if let Some(&usid) = self
                        .udp_bound
                        .get(&(local_tuple.src_ip, local_tuple.src_port))
                    {
                        usid
                    } else {
                        return wakeups;
                    }
                } else {
                    // Unknown TCP flow: answer data with RST (unless this IS a RST).
                    if !f.rst && !seg.payload.is_empty() {
                        self.outbox.push(Segment {
                            five_tuple: local_tuple,
                            seq: seg.ack,
                            ack: seg.end_seq(),
                            flags: TcpFlags::RST,
                            window: 0,
                            payload: Bytes::new(),
                            is_retransmission: false,
                        });
                    }
                    return wakeups;
                }
            }
        };

        if f.rst {
            let sock = self.sockets.get_mut(&sid).expect("routed socket");
            sock.state = SocketState::Reset;
            for tid in self.parked_readers.remove(&sid).unwrap_or_default() {
                self.set_thread_state(tid, ThreadState::Running);
                wakeups.push(Wakeup {
                    tid,
                    kind: WakeupKind::Reset,
                    socket: sid,
                });
            }
            if let Some(tid) = self.parked_connecters.remove(&sid) {
                self.set_thread_state(tid, ThreadState::Running);
                wakeups.push(Wakeup {
                    tid,
                    kind: WakeupKind::ConnectFailed,
                    socket: sid,
                });
            }
            return wakeups;
        }

        if f.syn && f.ack {
            // SYN+ACK completing an active open.
            let sock = self.sockets.get_mut(&sid).expect("routed socket");
            if sock.state == SocketState::SynSent {
                sock.state = SocketState::Established;
                sock.rcv_nxt = seg.seq.wrapping_add(1);
                let tuple = sock.five_tuple().expect("connected");
                let ack = Segment {
                    five_tuple: tuple,
                    seq: sock.snd_nxt,
                    ack: sock.rcv_nxt,
                    flags: TcpFlags::ACK,
                    window: sock.window(),
                    payload: Bytes::new(),
                    is_retransmission: false,
                };
                self.outbox.push(ack);
                if let Some(tid) = self.parked_connecters.remove(&sid) {
                    self.set_thread_state(tid, ThreadState::Running);
                    wakeups.push(Wakeup {
                        tid,
                        kind: WakeupKind::Connected,
                        socket: sid,
                    });
                }
            }
            return wakeups;
        }

        if f.fin {
            let sock = self.sockets.get_mut(&sid).expect("routed socket");
            if matches!(sock.state, SocketState::Established) {
                sock.state = SocketState::CloseWait;
            } else if matches!(sock.state, SocketState::FinWait) {
                sock.state = SocketState::Closed;
            }
            sock.rcv_nxt = sock.rcv_nxt.wrapping_add(1);
            for tid in self.parked_readers.remove(&sid).unwrap_or_default() {
                self.set_thread_state(tid, ThreadState::Running);
                wakeups.push(Wakeup {
                    tid,
                    kind: WakeupKind::Readable,
                    socket: sid,
                });
            }
            return wakeups;
        }

        if seg.payload.is_empty() {
            // Pure ACK: may complete a passive open.
            let (became_established, parent) = {
                let sock = self.sockets.get_mut(&sid).expect("routed socket");
                if sock.state == SocketState::SynReceived {
                    sock.state = SocketState::Established;
                    (true, sock.parent_listener)
                } else {
                    (false, None)
                }
            };
            if became_established {
                if let Some(lsid) = parent {
                    if let Some(listener) = self.sockets.get_mut(&lsid) {
                        listener.accept_queue.push_back(sid);
                    }
                    if let Some(tids) = self.parked_accepters.get_mut(&lsid) {
                        if !tids.is_empty() {
                            let tid = tids.remove(0);
                            self.set_thread_state(tid, ThreadState::Running);
                            wakeups.push(Wakeup {
                                tid,
                                kind: WakeupKind::Acceptable,
                                socket: lsid,
                            });
                        }
                    }
                }
            }
            return wakeups;
        }

        // Data segment.
        let peer = Some((seg.five_tuple.src_ip, seg.five_tuple.src_port));
        let (readable, window_zero, hard_overflow) = {
            let sock = self.sockets.get_mut(&sid).expect("routed socket");
            // Implicitly complete a passive open on first data (piggybacked ACK).
            let mut completed_open = None;
            if sock.state == SocketState::SynReceived {
                sock.state = SocketState::Established;
                completed_open = sock.parent_listener;
            }
            let readable = sock.receive_data_from(seg, peer);
            let wz = sock.window() == 0;
            let hard = sock.recv_buffered > sock.recv_capacity.saturating_mul(4);
            if let Some(lsid) = completed_open {
                if let Some(listener) = self.sockets.get_mut(&lsid) {
                    listener.accept_queue.push_back(sid);
                }
                if let Some(tids) = self.parked_accepters.get_mut(&lsid) {
                    if !tids.is_empty() {
                        let tid = tids.remove(0);
                        wakeups.push(Wakeup {
                            tid,
                            kind: WakeupKind::Acceptable,
                            socket: lsid,
                        });
                    }
                }
            }
            (readable, wz, hard)
        };
        for w in &wakeups {
            self.set_thread_state(w.tid, ThreadState::Running);
        }
        if hard_overflow {
            // Receiver hopelessly backlogged: abort the connection. This is
            // the RabbitMQ-style failure of Fig. 12 (queue backlog → RST).
            let sock = self.sockets.get_mut(&sid).expect("routed socket");
            sock.state = SocketState::Reset;
            let tuple = sock.five_tuple().expect("established");
            let rst = Segment {
                five_tuple: tuple,
                seq: sock.snd_nxt,
                ack: sock.rcv_nxt,
                flags: TcpFlags::RST,
                window: 0,
                payload: Bytes::new(),
                is_retransmission: false,
            };
            self.outbox.push(rst);
            for tid in self.parked_readers.remove(&sid).unwrap_or_default() {
                self.set_thread_state(tid, ThreadState::Running);
                wakeups.push(Wakeup {
                    tid,
                    kind: WakeupKind::Reset,
                    socket: sid,
                });
            }
            return wakeups;
        }
        if window_zero {
            // Advertise the stall so taps can observe it.
            let sock = &self.sockets[&sid];
            if let Some(tuple) = sock.five_tuple() {
                self.outbox.push(Segment {
                    five_tuple: tuple,
                    seq: sock.snd_nxt,
                    ack: sock.rcv_nxt,
                    flags: TcpFlags::ACK,
                    window: 0,
                    payload: Bytes::new(),
                    is_retransmission: false,
                });
            }
        }
        if readable {
            for tid in self.parked_readers.remove(&sid).unwrap_or_default() {
                self.set_thread_state(tid, ThreadState::Running);
                wakeups.push(Wakeup {
                    tid,
                    kind: WakeupKind::Readable,
                    socket: sid,
                });
            }
        }
        wakeups
    }

    fn handle_syn(&mut self, seg: &Segment, local_tuple: FiveTuple) {
        // Retransmitted SYN for an in-progress handshake?
        if let Some(&sid) = self.by_tuple.get(&local_tuple) {
            let sock = &self.sockets[&sid];
            if sock.state == SocketState::SynReceived {
                let tuple = sock.five_tuple().expect("syn-received socket");
                self.outbox.push(Segment {
                    five_tuple: tuple,
                    seq: sock.iss,
                    ack: sock.rcv_nxt,
                    flags: TcpFlags::SYN_ACK,
                    window: sock.window(),
                    payload: Bytes::new(),
                    is_retransmission: true,
                });
            }
            return;
        }
        let dst = (local_tuple.src_ip, local_tuple.src_port);
        let listener_sid = self
            .tcp_listeners
            .get(&dst)
            .or_else(|| self.tcp_listeners.get(&(Ipv4Addr::UNSPECIFIED, dst.1)))
            .copied();
        let Some(lsid) = listener_sid else {
            // Nothing listening: refuse.
            self.outbox.push(Segment {
                five_tuple: local_tuple,
                seq: 0,
                ack: seg.seq.wrapping_add(1),
                flags: TcpFlags::RST,
                window: 0,
                payload: Bytes::new(),
                is_retransmission: false,
            });
            return;
        };
        // Backlog full: drop the SYN (client will retry — SYN retries are a
        // flow metric).
        let backlog_full = {
            let l = &self.sockets[&lsid];
            l.accept_queue.len() >= l.backlog
        };
        if backlog_full {
            return;
        }
        let child_id = self.alloc_socket_id();
        let iss = self.rng.gen::<u32>();
        let mut child = Socket::new(child_id, TransportProtocol::Tcp, dst, iss);
        // Children inherit the listener's receive capacity (apps shrink it
        // to model backlogged consumers, e.g. the Fig. 12 broker).
        child.recv_capacity = self.sockets[&lsid].recv_capacity;
        child.remote = Some((seg.five_tuple.src_ip, seg.five_tuple.src_port));
        child.state = SocketState::SynReceived;
        child.rcv_nxt = seg.seq.wrapping_add(1);
        child.snd_nxt = iss.wrapping_add(1);
        child.parent_listener = Some(lsid);
        let tuple = child.five_tuple().expect("remote set");
        self.outbox.push(Segment {
            five_tuple: tuple,
            seq: iss,
            ack: child.rcv_nxt,
            flags: TcpFlags::SYN_ACK,
            window: child.window(),
            payload: Bytes::new(),
            is_retransmission: false,
        });
        if let Some(owner) = self.socket_owner.get(&lsid).copied() {
            self.socket_owner.insert(child_id, owner);
        }
        self.by_tuple.insert(tuple, child_id);
        self.sockets.insert(child_id, child);
    }

    /// Take all outbound segments produced since the last drain.
    pub fn drain_outbox(&mut self) -> Vec<Segment> {
        std::mem::take(&mut self.outbox)
    }

    /// Resolve an fd to its socket id.
    pub fn sid(&self, pid: Pid, fd: Fd) -> Result<SocketId, KernelError> {
        self.fd_tables
            .get(&pid)
            .and_then(|t| t.map.get(&fd))
            .copied()
            .ok_or(KernelError::BadFd)
    }

    /// Inspect a socket.
    pub fn socket_ref(&self, sid: SocketId) -> Option<&Socket> {
        self.sockets.get(&sid)
    }

    /// The configured payload snap length.
    pub fn snap_len(&self) -> usize {
        self.cfg.snap_len
    }

    /// Shrink/grow a socket's receive buffer (SO_RCVBUF). Listener children
    /// inherit it.
    pub fn set_recv_capacity(
        &mut self,
        pid: Pid,
        fd: Fd,
        capacity: usize,
    ) -> Result<(), KernelError> {
        let sid = self.sid(pid, fd)?;
        let sock = self.sockets.get_mut(&sid).ok_or(KernelError::BadFd)?;
        sock.recv_capacity = capacity.max(1);
        Ok(())
    }

    /// The process's shared name: a reference count, not a copy.
    fn process_name(&self, pid: Pid) -> Arc<str> {
        self.procs
            .process(pid)
            .map_or_else(|| "?".into(), |p| Arc::clone(&p.name))
    }

    fn set_thread_state(&mut self, tid: Tid, state: ThreadState) {
        if let Some(t) = self.procs.thread_mut(tid) {
            t.state = state;
        }
    }

    /// Fire enter or exit hooks for a syscall ABI; returns virtual overhead.
    #[allow(clippy::too_many_arguments)]
    fn fire_syscall_hook(
        &mut self,
        phase: HookPhase,
        abi: SyscallAbi,
        ts: TimeNs,
        pid: Pid,
        tid: Tid,
        sid: SocketId,
        tuple: Option<FiveTuple>,
        tcp_seq: Option<u32>,
        byte_len: usize,
        payload: Option<&Bytes>,
        first_syscall: bool,
    ) -> DurationNs {
        let point = match phase {
            HookPhase::Enter => AttachPoint::SyscallEnter(abi),
            HookPhase::Exit => AttachPoint::SyscallExit(abi),
        };
        if !self.hooks.is_attached(&point) {
            return DurationNs::ZERO;
        }
        let name = self.process_name(pid);
        let coroutine = self.procs.thread(tid).and_then(|t| t.current_coroutine);
        let snapped = payload.map(|p| {
            let n = p.len().min(self.cfg.snap_len);
            &p[..n]
        });
        let ctx = HookContext {
            phase,
            abi: Some(abi),
            symbol: None,
            ts,
            pid,
            tid,
            coroutine,
            process_name: &name,
            node: self.cfg.node,
            socket_id: Some(sid),
            five_tuple: tuple,
            tcp_seq,
            direction: Some(abi.direction()),
            byte_len,
            payload: snapped,
            first_syscall,
        };
        self.hooks.fire(&point, &ctx)
    }
}

impl std::fmt::Debug for Kernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Kernel")
            .field("node", &self.cfg.node)
            .field("hostname", &self.cfg.hostname)
            .field("sockets", &self.sockets.len())
            .field("processes", &self.procs.process_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Shuttle segments between two kernels until quiescent, collecting
    /// wakeups. A miniature fabric for kernel-level tests.
    fn pump(a: &mut Kernel, b: &mut Kernel, now: TimeNs) -> Vec<Wakeup> {
        let mut wakeups = Vec::new();
        loop {
            let out_a = a.drain_outbox();
            let out_b = b.drain_outbox();
            if out_a.is_empty() && out_b.is_empty() {
                break;
            }
            for seg in out_a {
                wakeups.extend(b.deliver(&seg, now));
            }
            for seg in out_b {
                wakeups.extend(a.deliver(&seg, now));
            }
        }
        wakeups
    }

    fn two_kernels() -> (Kernel, Kernel) {
        let ca = KernelConfig {
            node: NodeId(1),
            ..Default::default()
        };
        let cb = KernelConfig {
            node: NodeId(2),
            ..Default::default()
        };
        (Kernel::new(ca), Kernel::new(cb))
    }

    const IP_A: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    const IP_B: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

    /// Establish a client(A)→server(B) connection; returns
    /// (client pid/tid/fd, server pid/tid/server_fd).
    fn establish(a: &mut Kernel, b: &mut Kernel) -> ((Pid, Tid, Fd), (Pid, Tid, Fd)) {
        let (spid, stid) = b.procs.spawn_process("server");
        let lfd = b.socket(spid, TransportProtocol::Tcp).unwrap();
        b.bind(spid, lfd, IP_B, 80).unwrap();
        b.listen(spid, lfd, 128).unwrap();
        assert!(matches!(
            b.accept(stid, spid, lfd),
            SyscallOutcome::WouldBlock
        ));

        let (cpid, ctid) = a.procs.spawn_process("client");
        let cfd = a.socket(cpid, TransportProtocol::Tcp).unwrap();
        assert!(matches!(
            a.connect(ctid, cpid, cfd, IP_A, (IP_B, 80)),
            SyscallOutcome::WouldBlock
        ));
        let wakeups = pump(a, b, TimeNs(0));
        assert!(wakeups
            .iter()
            .any(|w| w.kind == WakeupKind::Connected && w.tid == ctid));
        assert!(wakeups
            .iter()
            .any(|w| w.kind == WakeupKind::Acceptable && w.tid == stid));
        let (sfd, _) = b.accept(stid, spid, lfd).unwrap_complete();
        ((cpid, ctid, cfd), (spid, stid, sfd))
    }

    #[test]
    fn three_way_handshake_establishes_both_ends() {
        let (mut a, mut b) = two_kernels();
        let ((cpid, _, cfd), (spid, _, sfd)) = establish(&mut a, &mut b);
        let csid = a.sid(cpid, cfd).unwrap();
        let ssid = b.sid(spid, sfd).unwrap();
        assert_eq!(a.socket_ref(csid).unwrap().state, SocketState::Established);
        assert_eq!(b.socket_ref(ssid).unwrap().state, SocketState::Established);
        // socket ids are globally unique across nodes
        assert_ne!(csid, ssid);
        assert_eq!(csid.raw() >> 32, 1);
        assert_eq!(ssid.raw() >> 32, 2);
    }

    #[test]
    fn data_round_trip_with_sequence_continuity() {
        let (mut a, mut b) = two_kernels();
        let ((cpid, ctid, cfd), (spid, stid, sfd)) = establish(&mut a, &mut b);
        // client sends a request
        let (n, _) = a
            .syscall_send(
                ctid,
                cpid,
                cfd,
                Bytes::from_static(b"GET / HTTP/1.1\r\n\r\n"),
                SyscallAbi::Write,
                None,
                TimeNs(1000),
            )
            .unwrap_complete();
        assert_eq!(n, 18);
        // server blocks on read, then data arrives
        assert!(matches!(
            b.syscall_recv(stid, spid, sfd, 4096, SyscallAbi::Read, TimeNs(1100)),
            SyscallOutcome::WouldBlock
        ));
        let wk = pump(&mut a, &mut b, TimeNs(1200));
        assert!(wk
            .iter()
            .any(|w| w.kind == WakeupKind::Readable && w.tid == stid));
        let (req, _) = b
            .syscall_recv(stid, spid, sfd, 4096, SyscallAbi::Read, TimeNs(1300))
            .unwrap_complete();
        assert_eq!(&req.data[..], b"GET / HTTP/1.1\r\n\r\n");
        assert!(req.msg_start);
        // server replies
        b.syscall_send(
            stid,
            spid,
            sfd,
            Bytes::from_static(b"HTTP/1.1 200 OK\r\n\r\n"),
            SyscallAbi::Write,
            None,
            TimeNs(1400),
        )
        .unwrap_complete();
        assert!(matches!(
            a.syscall_recv(ctid, cpid, cfd, 4096, SyscallAbi::Read, TimeNs(1500)),
            SyscallOutcome::WouldBlock
        ));
        pump(&mut a, &mut b, TimeNs(1600));
        let (resp, _) = a
            .syscall_recv(ctid, cpid, cfd, 4096, SyscallAbi::Read, TimeNs(1700))
            .unwrap_complete();
        assert_eq!(&resp.data[..], b"HTTP/1.1 200 OK\r\n\r\n");
    }

    #[test]
    fn tcp_seq_is_preserved_sender_to_receiver() {
        let (mut a, mut b) = two_kernels();
        let ((cpid, ctid, cfd), (spid, stid, sfd)) = establish(&mut a, &mut b);
        let csid = a.sid(cpid, cfd).unwrap();
        let send_seq = a.socket_ref(csid).unwrap().snd_nxt;
        a.syscall_send(
            ctid,
            cpid,
            cfd,
            Bytes::from_static(b"payload"),
            SyscallAbi::Sendto,
            None,
            TimeNs(0),
        )
        .unwrap_complete();
        b.syscall_recv(stid, spid, sfd, 4096, SyscallAbi::Recvfrom, TimeNs(0));
        pump(&mut a, &mut b, TimeNs(0));
        let (got, _) = b
            .syscall_recv(stid, spid, sfd, 4096, SyscallAbi::Recvfrom, TimeNs(0))
            .unwrap_complete();
        // The receiver observes the same TCP sequence the sender assigned —
        // the §3.3.2 inter-component association invariant.
        assert_eq!(got.tcp_seq, send_seq);
    }

    #[test]
    fn connect_to_closed_port_is_refused() {
        let (mut a, mut b) = two_kernels();
        let (cpid, ctid) = a.procs.spawn_process("client");
        let cfd = a.socket(cpid, TransportProtocol::Tcp).unwrap();
        assert!(matches!(
            a.connect(ctid, cpid, cfd, IP_A, (IP_B, 9999)),
            SyscallOutcome::WouldBlock
        ));
        let wk = pump(&mut a, &mut b, TimeNs(0));
        assert!(wk
            .iter()
            .any(|w| w.kind == WakeupKind::ConnectFailed && w.tid == ctid));
    }

    #[test]
    fn fin_close_yields_eof_read() {
        let (mut a, mut b) = two_kernels();
        let ((cpid, _ctid, cfd), (spid, stid, sfd)) = establish(&mut a, &mut b);
        // server parks reading; client closes.
        assert!(matches!(
            b.syscall_recv(stid, spid, sfd, 4096, SyscallAbi::Read, TimeNs(0)),
            SyscallOutcome::WouldBlock
        ));
        a.close(cpid, cfd).unwrap();
        let wk = pump(&mut a, &mut b, TimeNs(0));
        assert!(wk
            .iter()
            .any(|w| w.kind == WakeupKind::Readable && w.tid == stid));
        let (eof, _) = b
            .syscall_recv(stid, spid, sfd, 4096, SyscallAbi::Read, TimeNs(0))
            .unwrap_complete();
        assert!(eof.data.is_empty());
    }

    #[test]
    fn abort_resets_peer_reader() {
        let (mut a, mut b) = two_kernels();
        let ((cpid, _ctid, cfd), (spid, stid, sfd)) = establish(&mut a, &mut b);
        assert!(matches!(
            b.syscall_recv(stid, spid, sfd, 4096, SyscallAbi::Read, TimeNs(0)),
            SyscallOutcome::WouldBlock
        ));
        a.abort(cpid, cfd).unwrap();
        let wk = pump(&mut a, &mut b, TimeNs(0));
        assert!(wk
            .iter()
            .any(|w| w.kind == WakeupKind::Reset && w.tid == stid));
        assert!(matches!(
            b.syscall_recv(stid, spid, sfd, 4096, SyscallAbi::Read, TimeNs(0)),
            SyscallOutcome::Error {
                err: KernelError::ConnectionReset,
                ..
            }
        ));
    }

    #[test]
    fn udp_bound_socket_receives_datagrams_with_peer() {
        let (mut a, mut b) = two_kernels();
        let (spid, stid) = b.procs.spawn_process("dns");
        let sfd = b.socket(spid, TransportProtocol::Udp).unwrap();
        b.bind(spid, sfd, IP_B, 53).unwrap();

        let (cpid, ctid) = a.procs.spawn_process("client");
        let cfd = a.socket(cpid, TransportProtocol::Udp).unwrap();
        a.connect(ctid, cpid, cfd, IP_A, (IP_B, 53))
            .unwrap_complete();
        a.syscall_send(
            ctid,
            cpid,
            cfd,
            Bytes::from_static(b"dns-query"),
            SyscallAbi::Sendto,
            None,
            TimeNs(0),
        )
        .unwrap_complete();
        pump(&mut a, &mut b, TimeNs(0));
        let (dgram, _) = b
            .syscall_recv(stid, spid, sfd, 512, SyscallAbi::Recvfrom, TimeNs(0))
            .unwrap_complete();
        assert_eq!(&dgram.data[..], b"dns-query");
        let peer = dgram.peer.expect("datagram peer recorded");
        assert_eq!(peer.0, IP_A);
    }

    #[test]
    fn send_on_bad_fd_errors() {
        let (mut a, _b) = two_kernels();
        let (pid, tid) = a.procs.spawn_process("x");
        assert!(matches!(
            a.syscall_send(
                tid,
                pid,
                99,
                Bytes::from_static(b"x"),
                SyscallAbi::Write,
                None,
                TimeNs(0)
            ),
            SyscallOutcome::Error {
                err: KernelError::BadFd,
                ..
            }
        ));
    }

    #[test]
    fn full_backlog_drops_syns() {
        let (mut a, mut b) = two_kernels();
        let (spid, _stid) = b.procs.spawn_process("busy-server");
        let lfd = b.socket(spid, TransportProtocol::Tcp).unwrap();
        b.bind(spid, lfd, IP_B, 80).unwrap();
        b.listen(spid, lfd, 1).unwrap(); // backlog of one, never accepted

        let (cpid, _) = a.procs.spawn_process("clients");
        let mut connected = 0;
        for i in 0..3 {
            let tid = if i == 0 {
                a.procs.process(cpid).unwrap().threads[0]
            } else {
                a.procs.spawn_thread(cpid).unwrap()
            };
            let fd = a.socket(cpid, TransportProtocol::Tcp).unwrap();
            a.connect(tid, cpid, fd, IP_A, (IP_B, 80));
            let wk = pump(&mut a, &mut b, TimeNs(0));
            connected += wk
                .iter()
                .filter(|w| w.kind == WakeupKind::Connected)
                .count();
        }
        // Only the first connection fits the backlog; later SYNs are
        // dropped silently (the client would retry — a syn_retries signal
        // at the taps).
        assert_eq!(connected, 1, "backlog of 1 admits exactly one connect");
    }

    #[test]
    fn close_is_idempotent_and_frees_the_fd() {
        let (mut a, mut b) = two_kernels();
        let ((cpid, _ctid, cfd), _) = establish(&mut a, &mut b);
        a.close(cpid, cfd).unwrap();
        // fd is gone: closing again is BadFd, as is writing.
        assert_eq!(a.close(cpid, cfd), Err(KernelError::BadFd));
        assert!(matches!(
            a.syscall_send(
                Tid(999),
                cpid,
                cfd,
                Bytes::from_static(b"x"),
                SyscallAbi::Write,
                None,
                TimeNs(0)
            ),
            SyscallOutcome::Error {
                err: KernelError::BadFd,
                ..
            }
        ));
    }

    #[test]
    fn bind_conflicts_are_rejected() {
        let (_a, mut b) = two_kernels();
        let (pid, _tid) = b.procs.spawn_process("srv");
        let fd1 = b.socket(pid, TransportProtocol::Tcp).unwrap();
        b.bind(pid, fd1, IP_B, 80).unwrap();
        b.listen(pid, fd1, 16).unwrap();
        let fd2 = b.socket(pid, TransportProtocol::Tcp).unwrap();
        assert_eq!(b.bind(pid, fd2, IP_B, 80), Err(KernelError::AddrInUse));
        // Closing the listener frees the address for rebinding.
        b.close(pid, fd1).unwrap();
        let fd3 = b.socket(pid, TransportProtocol::Tcp).unwrap();
        b.bind(pid, fd3, IP_B, 80).unwrap();
        b.listen(pid, fd3, 16).unwrap();
    }
}
