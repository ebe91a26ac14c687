//! The Table 3 syscall surface, with ABI-faithful shapes.
//!
//! [`Kernel::syscall_send`]/[`Kernel::syscall_recv`] implement the shared
//! machinery; this module exposes each of the ten ABIs with its own calling
//! convention (scatter/gather for `readv`/`writev`, multi-message for
//! `recvmmsg`/`sendmmsg`, explicit peer for `sendto`/`recvfrom`) so the mesh
//! layer — and the Figure 13 bench, which must exercise *every* ABI — calls
//! exactly the interface an application would.

use crate::kernel::{Fd, Kernel, RecvResult, SyscallOutcome};
use bytes::Bytes;
use df_types::time::{DurationNs, TimeNs};
use df_types::{Pid, SyscallAbi, Tid};
use std::net::Ipv4Addr;

/// The ten ABIs, each under its own calling convention.
impl Kernel {
    /// `read(2)`.
    pub fn sys_read(
        &mut self,
        tid: Tid,
        pid: Pid,
        fd: Fd,
        max: usize,
        now: TimeNs,
    ) -> SyscallOutcome<RecvResult> {
        self.syscall_recv(tid, pid, fd, max, SyscallAbi::Read, now)
    }

    /// `readv(2)`: scatter read into `iov_sizes`-shaped buffers; the result
    /// is the concatenation (we return it whole, plus per-iov split points).
    pub fn sys_readv(
        &mut self,
        tid: Tid,
        pid: Pid,
        fd: Fd,
        iov_sizes: &[usize],
        now: TimeNs,
    ) -> SyscallOutcome<RecvResult> {
        let total: usize = iov_sizes.iter().sum();
        self.syscall_recv(tid, pid, fd, total, SyscallAbi::Readv, now)
    }

    /// `recvfrom(2)`.
    pub fn sys_recvfrom(
        &mut self,
        tid: Tid,
        pid: Pid,
        fd: Fd,
        max: usize,
        now: TimeNs,
    ) -> SyscallOutcome<RecvResult> {
        self.syscall_recv(tid, pid, fd, max, SyscallAbi::Recvfrom, now)
    }

    /// `recvmsg(2)`.
    pub fn sys_recvmsg(
        &mut self,
        tid: Tid,
        pid: Pid,
        fd: Fd,
        max: usize,
        now: TimeNs,
    ) -> SyscallOutcome<RecvResult> {
        self.syscall_recv(tid, pid, fd, max, SyscallAbi::Recvmsg, now)
    }

    /// `recvmmsg(2)`: receive up to `max_msgs` messages in one call.
    pub fn sys_recvmmsg(
        &mut self,
        tid: Tid,
        pid: Pid,
        fd: Fd,
        max_msgs: usize,
        max_bytes_each: usize,
        now: TimeNs,
    ) -> SyscallOutcome<Vec<RecvResult>> {
        // First message may block; subsequent ones are best-effort (like the
        // real ABI, which returns however many are immediately available).
        let mut out = Vec::new();
        let mut duration = DurationNs::ZERO;
        let mut t = now;
        for i in 0..max_msgs.max(1) {
            match self.syscall_recv(tid, pid, fd, max_bytes_each, SyscallAbi::Recvmmsg, t) {
                SyscallOutcome::Complete { value, duration: d } => {
                    duration += d;
                    t += d;
                    let eof = value.data.is_empty();
                    out.push(value);
                    if eof {
                        break;
                    }
                }
                SyscallOutcome::WouldBlock => {
                    if i == 0 {
                        return SyscallOutcome::WouldBlock;
                    }
                    break;
                }
                SyscallOutcome::Error { err, duration: d } => {
                    if out.is_empty() {
                        return SyscallOutcome::Error {
                            err,
                            duration: duration + d,
                        };
                    }
                    break;
                }
            }
        }
        SyscallOutcome::Complete {
            value: out,
            duration,
        }
    }

    /// `write(2)`.
    pub fn sys_write(
        &mut self,
        tid: Tid,
        pid: Pid,
        fd: Fd,
        data: Bytes,
        now: TimeNs,
    ) -> SyscallOutcome<usize> {
        self.syscall_send(tid, pid, fd, data, SyscallAbi::Write, None, now)
    }

    /// `writev(2)`: gather write.
    pub fn sys_writev(
        &mut self,
        tid: Tid,
        pid: Pid,
        fd: Fd,
        iovs: &[Bytes],
        now: TimeNs,
    ) -> SyscallOutcome<usize> {
        // Gather: one message from all iovecs (one hook firing, like the
        // kernel's single vfs_writev path).
        let mut buf = Vec::with_capacity(iovs.iter().map(Bytes::len).sum());
        for iov in iovs {
            buf.extend_from_slice(iov);
        }
        self.syscall_send(
            tid,
            pid,
            fd,
            Bytes::from(buf),
            SyscallAbi::Writev,
            None,
            now,
        )
    }

    /// `sendto(2)` with optional explicit destination (UDP).
    pub fn sys_sendto(
        &mut self,
        tid: Tid,
        pid: Pid,
        fd: Fd,
        data: Bytes,
        dst: Option<(Ipv4Addr, u16)>,
        now: TimeNs,
    ) -> SyscallOutcome<usize> {
        self.syscall_send(tid, pid, fd, data, SyscallAbi::Sendto, dst, now)
    }

    /// `sendmsg(2)`.
    pub fn sys_sendmsg(
        &mut self,
        tid: Tid,
        pid: Pid,
        fd: Fd,
        data: Bytes,
        now: TimeNs,
    ) -> SyscallOutcome<usize> {
        self.syscall_send(tid, pid, fd, data, SyscallAbi::Sendmsg, None, now)
    }

    /// `sendmmsg(2)`: send multiple messages in one call. Each message gets
    /// its own hook firing (each is a distinct L7 message).
    pub fn sys_sendmmsg(
        &mut self,
        tid: Tid,
        pid: Pid,
        fd: Fd,
        msgs: &[Bytes],
        now: TimeNs,
    ) -> SyscallOutcome<usize> {
        let mut total = 0usize;
        let mut duration = DurationNs::ZERO;
        let mut t = now;
        for m in msgs {
            match self.syscall_send(tid, pid, fd, m.clone(), SyscallAbi::Sendmmsg, None, t) {
                SyscallOutcome::Complete { value, duration: d } => {
                    total += value;
                    duration += d;
                    t += d;
                }
                SyscallOutcome::WouldBlock => return SyscallOutcome::WouldBlock,
                SyscallOutcome::Error { err, duration: d } => {
                    if total == 0 {
                        return SyscallOutcome::Error {
                            err,
                            duration: duration + d,
                        };
                    }
                    break;
                }
            }
        }
        SyscallOutcome::Complete {
            value: total,
            duration,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{KernelConfig, Wakeup};
    use df_types::net::TransportProtocol;
    use df_types::NodeId;

    const IP_A: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    const IP_B: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

    fn pump(a: &mut Kernel, b: &mut Kernel) -> Vec<Wakeup> {
        let mut wk = Vec::new();
        loop {
            let oa = a.drain_outbox();
            let ob = b.drain_outbox();
            if oa.is_empty() && ob.is_empty() {
                break;
            }
            for s in oa {
                wk.extend(b.deliver(&s, TimeNs(0)));
            }
            for s in ob {
                wk.extend(a.deliver(&s, TimeNs(0)));
            }
        }
        wk
    }

    type Endpoint = (Pid, Tid, Fd);

    fn connected_pair() -> (Kernel, Kernel, Endpoint, Endpoint) {
        let mut a = Kernel::new(KernelConfig {
            node: NodeId(1),
            ..Default::default()
        });
        let mut b = Kernel::new(KernelConfig {
            node: NodeId(2),
            ..Default::default()
        });
        let (spid, stid) = b.procs.spawn_process("server");
        let lfd = b.socket(spid, TransportProtocol::Tcp).unwrap();
        b.bind(spid, lfd, IP_B, 80).unwrap();
        b.listen(spid, lfd, 16).unwrap();
        b.accept(stid, spid, lfd);
        let (cpid, ctid) = a.procs.spawn_process("client");
        let cfd = a.socket(cpid, TransportProtocol::Tcp).unwrap();
        a.connect(ctid, cpid, cfd, IP_A, (IP_B, 80));
        pump(&mut a, &mut b);
        let (sfd, _) = b.accept(stid, spid, lfd).unwrap_complete();
        (a, b, (cpid, ctid, cfd), (spid, stid, sfd))
    }

    #[test]
    fn writev_gathers_iovecs_into_one_message() {
        let (mut a, mut b, (cpid, ctid, cfd), (spid, stid, sfd)) = connected_pair();
        let iovs = [
            Bytes::from_static(b"GET / "),
            Bytes::from_static(b"HTTP/1.1"),
            Bytes::from_static(b"\r\n\r\n"),
        ];
        let (n, _) = a
            .sys_writev(ctid, cpid, cfd, &iovs, TimeNs(0))
            .unwrap_complete();
        assert_eq!(n, 18);
        b.sys_read(stid, spid, sfd, 4096, TimeNs(0));
        pump(&mut a, &mut b);
        let (r, _) = b
            .sys_read(stid, spid, sfd, 4096, TimeNs(0))
            .unwrap_complete();
        assert_eq!(&r.data[..], b"GET / HTTP/1.1\r\n\r\n");
        assert!(r.msg_start, "gathered write is one message");
    }

    #[test]
    fn sendmmsg_sends_each_message_separately() {
        let (mut a, mut b, (cpid, ctid, cfd), (spid, stid, sfd)) = connected_pair();
        let msgs = [Bytes::from_static(b"one"), Bytes::from_static(b"two")];
        let (n, _) = a
            .sys_sendmmsg(ctid, cpid, cfd, &msgs, TimeNs(0))
            .unwrap_complete();
        assert_eq!(n, 6);
        b.sys_recvmsg(stid, spid, sfd, 4096, TimeNs(0));
        pump(&mut a, &mut b);
        // Two distinct messages: reads stop at boundaries.
        let (r1, _) = b
            .sys_recvmsg(stid, spid, sfd, 4096, TimeNs(0))
            .unwrap_complete();
        assert_eq!(&r1.data[..], b"one");
        let (r2, _) = b
            .sys_recvmsg(stid, spid, sfd, 4096, TimeNs(0))
            .unwrap_complete();
        assert_eq!(&r2.data[..], b"two");
        assert!(r2.msg_start);
    }

    #[test]
    fn recvmmsg_batches_available_messages() {
        let (mut a, mut b, (cpid, ctid, cfd), (spid, stid, sfd)) = connected_pair();
        let msgs = [
            Bytes::from_static(b"alpha"),
            Bytes::from_static(b"beta"),
            Bytes::from_static(b"gamma"),
        ];
        a.sys_sendmmsg(ctid, cpid, cfd, &msgs, TimeNs(0))
            .unwrap_complete();
        // Park, deliver, retry: recvmmsg picks up everything available.
        assert!(matches!(
            b.sys_recvmmsg(stid, spid, sfd, 8, 4096, TimeNs(0)),
            SyscallOutcome::WouldBlock
        ));
        pump(&mut a, &mut b);
        let (batch, _) = b
            .sys_recvmmsg(stid, spid, sfd, 8, 4096, TimeNs(0))
            .unwrap_complete();
        assert_eq!(batch.len(), 3);
        assert_eq!(&batch[0].data[..], b"alpha");
        assert_eq!(&batch[2].data[..], b"gamma");
    }

    #[test]
    fn readv_reads_up_to_total_iov_capacity() {
        let (mut a, mut b, (cpid, ctid, cfd), (spid, stid, sfd)) = connected_pair();
        a.sys_write(ctid, cpid, cfd, Bytes::from_static(b"abcdefgh"), TimeNs(0))
            .unwrap_complete();
        b.sys_readv(stid, spid, sfd, &[4, 2], TimeNs(0));
        pump(&mut a, &mut b);
        let (r, _) = b
            .sys_readv(stid, spid, sfd, &[4, 2], TimeNs(0))
            .unwrap_complete();
        assert_eq!(&r.data[..], b"abcdef"); // capped at 6 = 4+2
    }
}
