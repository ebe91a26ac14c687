//! Wire-level packet vocabulary shared by the kernel (which emits segments),
//! the virtual network (which forwards them) and capture taps (which observe
//! them).
//!
//! The model is deliberately L4-centric: DeepFlow's inter-component
//! association needs exactly the properties modelled here — five-tuple, TCP
//! sequence number (preserved by L2/3/4 forwarding), flags, window and
//! payload bytes. ARP frames get their own variant because the §4.1.2 case
//! study (faulty physical NIC generating extra ARP requests) is about
//! observing them per infrastructure hop.

use crate::net::{FiveTuple, TcpFlags};
use crate::time::TimeNs;
use bytes::Bytes;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::net::Ipv4Addr;
use std::sync::Arc;

/// A TCP segment (or UDP datagram — `flags` all-false, `seq` 0) on the wire.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Segment {
    /// Flow five-tuple from the sender's perspective.
    pub five_tuple: FiveTuple,
    /// Sequence number of the first payload byte (TCP). Preserved end-to-end
    /// through L2/3/4 forwarding — the invariant inter-component association
    /// relies on (paper §3.3.2).
    pub seq: u32,
    /// Acknowledgement number.
    pub ack: u32,
    /// TCP flags.
    pub flags: TcpFlags,
    /// Advertised receive window (0 signals a stalled receiver).
    pub window: u16,
    /// Payload bytes.
    pub payload: Bytes,
    /// Set when this segment is a link/transport-level retransmission of an
    /// earlier one. Capture taps use it (together with duplicate-seq
    /// detection) to count retransmissions.
    pub is_retransmission: bool,
}

impl Segment {
    /// Payload length in bytes.
    pub fn len(&self) -> usize {
        self.payload.len()
    }

    /// Whether the segment carries no payload (pure control segment).
    pub fn is_empty(&self) -> bool {
        self.payload.is_empty()
    }

    /// The sequence number just past this segment's payload.
    pub fn end_seq(&self) -> u32 {
        // SYN and FIN each consume one sequence number, like real TCP.
        let ctl = (self.flags.syn as u32) + (self.flags.fin as u32);
        self.seq
            .wrapping_add(self.payload.len() as u32)
            .wrapping_add(ctl)
    }
}

impl fmt::Display for Segment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} seq={} ack={} [{}] len={}{}",
            self.five_tuple,
            self.seq,
            self.ack,
            self.flags,
            self.payload.len(),
            if self.is_retransmission { " RETX" } else { "" }
        )
    }
}

/// ARP operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ArpOp {
    /// Who-has request.
    Request,
    /// Is-at reply.
    Reply,
}

/// A frame on the wire: either an IP segment or an ARP frame.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Frame {
    /// TCP/UDP segment.
    Segment(Segment),
    /// ARP frame (request/reply for a target IP).
    Arp {
        /// Operation.
        op: ArpOp,
        /// Sender protocol address.
        sender: Ipv4Addr,
        /// Target protocol address being resolved.
        target: Ipv4Addr,
    },
}

impl Frame {
    /// Byte size estimate used for link accounting.
    pub fn wire_len(&self) -> usize {
        match self {
            Frame::Segment(s) => 54 + s.payload.len(), // eth + ip + tcp headers
            Frame::Arp { .. } => 42,
        }
    }
}

/// A packet observation recorded by a capture tap (cBPF / AF_PACKET / port
/// mirror). This is what NIC-side net spans are built from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CapturedFrame {
    /// Virtual time of the observation.
    pub ts: TimeNs,
    /// Interface label where the tap sits (`"eth0"`, `"veth-x"`,
    /// `"tor-mirror"`), the one name the fabric shares for that interface.
    pub interface: Arc<str>,
    /// The observed frame.
    pub frame: Frame,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seg(payload: &'static [u8], flags: TcpFlags) -> Segment {
        Segment {
            five_tuple: FiveTuple::tcp(
                Ipv4Addr::new(10, 0, 0, 1),
                1234,
                Ipv4Addr::new(10, 0, 0, 2),
                80,
            ),
            seq: 100,
            ack: 0,
            flags,
            window: 65535,
            payload: Bytes::from_static(payload),
            is_retransmission: false,
        }
    }

    #[test]
    fn end_seq_counts_payload_and_ctl_flags() {
        assert_eq!(seg(b"hello", TcpFlags::PSH_ACK).end_seq(), 105);
        assert_eq!(seg(b"", TcpFlags::SYN).end_seq(), 101);
        assert_eq!(seg(b"", TcpFlags::FIN_ACK).end_seq(), 101);
        assert_eq!(seg(b"", TcpFlags::ACK).end_seq(), 100);
    }

    #[test]
    fn end_seq_wraps() {
        let mut s = seg(b"abc", TcpFlags::PSH_ACK);
        s.seq = u32::MAX - 1;
        assert_eq!(s.end_seq(), 1);
    }

    #[test]
    fn wire_len_estimates() {
        assert_eq!(
            Frame::Segment(seg(b"hello", TcpFlags::PSH_ACK)).wire_len(),
            59
        );
        assert_eq!(
            Frame::Arp {
                op: ArpOp::Request,
                sender: Ipv4Addr::new(10, 0, 0, 1),
                target: Ipv4Addr::new(10, 0, 0, 2),
            }
            .wire_len(),
            42
        );
    }
}
