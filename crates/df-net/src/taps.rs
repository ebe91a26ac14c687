//! Capture taps — the cBPF / AF_PACKET analogue (paper §3.2.1,
//! "instrumentation extensions": "DeepFlow integrates network data from the
//! classic Berkeley Packet Filter (cBPF) and AF_PACKET to derive NIC-side
//! information").
//!
//! A tap sits on one topology element and records every frame the fabric
//! pushes through it (optionally filtered). Each tap belongs to a node —
//! that node's agent drains it and builds net spans.

use df_types::packet::{CapturedFrame, Frame};
use df_types::{NodeId, TimeNs, TransportProtocol};
use std::collections::HashMap;
use std::sync::Arc;

use crate::topology::ElementId;

/// Where the tap sits, semantically (the agent maps this + flow orientation
/// to a `TapSide`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TapKind {
    /// Pod veth.
    PodVeth,
    /// Node NIC.
    NodeNic,
    /// Physical NIC / hypervisor uplink.
    PhysNic,
    /// ToR mirror port.
    TorMirror,
    /// Gateway interface.
    Gateway,
}

/// A cBPF-style capture filter. Empty filter captures everything.
#[derive(Debug, Clone, Default)]
pub struct TapFilter {
    /// Restrict to a transport protocol.
    pub protocol: Option<TransportProtocol>,
    /// Restrict to segments touching this port (src or dst).
    pub port: Option<u16>,
    /// Capture ARP frames too (on by default — the §4.1.2 case needs them).
    pub drop_arp: bool,
    /// Payload snap length (0 = headers only).
    pub snap_len: usize,
}

impl TapFilter {
    /// Capture-everything filter with a generous snap length.
    pub fn all() -> Self {
        TapFilter {
            protocol: None,
            port: None,
            drop_arp: false,
            snap_len: 256,
        }
    }

    /// Whether a frame passes the filter.
    pub fn matches(&self, frame: &Frame) -> bool {
        match frame {
            Frame::Arp { .. } => !self.drop_arp,
            Frame::Segment(seg) => {
                if let Some(p) = self.protocol {
                    if seg.five_tuple.protocol != p {
                        return false;
                    }
                }
                if let Some(port) = self.port {
                    if seg.five_tuple.src_port != port && seg.five_tuple.dst_port != port {
                        return false;
                    }
                }
                true
            }
        }
    }

    /// Apply the snap length to a frame (truncating segment payloads).
    pub fn snap(&self, frame: &Frame) -> Frame {
        match frame {
            Frame::Segment(seg) if seg.payload.len() > self.snap_len => {
                let mut s = seg.clone();
                s.payload = s.payload.slice(..self.snap_len);
                Frame::Segment(s)
            }
            other => other.clone(),
        }
    }
}

#[derive(Debug)]
struct Tap {
    node: NodeId,
    kind: TapKind,
    filter: TapFilter,
    captured: Vec<CapturedFrame>,
    observed: u64,
    matched: u64,
}

/// Registry of taps, keyed by topology element.
#[derive(Debug, Default)]
pub struct TapRegistry {
    taps: HashMap<ElementId, Tap>,
}

impl TapRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        TapRegistry::default()
    }

    /// Install (or replace) a tap on an element, owned by `node`'s agent.
    pub fn install(&mut self, element: ElementId, node: NodeId, kind: TapKind, filter: TapFilter) {
        self.taps.insert(
            element,
            Tap {
                node,
                kind,
                filter,
                captured: Vec::new(),
                observed: 0,
                matched: 0,
            },
        );
    }

    /// Remove a tap.
    pub fn remove(&mut self, element: &ElementId) -> bool {
        self.taps.remove(element).is_some()
    }

    /// Offer a frame traversing `element` at `ts` on the interface `name`,
    /// whose shared `Arc` a capture keeps.
    pub fn observe(&mut self, element: &ElementId, name: &Arc<str>, frame: &Frame, ts: TimeNs) {
        if let Some(tap) = self.taps.get_mut(element) {
            tap.observed += 1;
            if tap.filter.matches(frame) {
                tap.matched += 1;
                tap.captured.push(CapturedFrame {
                    ts,
                    interface: Arc::clone(name),
                    frame: tap.filter.snap(frame),
                });
            }
        }
    }

    /// Drain all captures destined for `node`'s agent, tagged with the tap
    /// kind they came from. Frames come out time-sorted.
    pub fn drain_for_node(&mut self, node: NodeId) -> Vec<(TapKind, CapturedFrame)> {
        let mut out = Vec::new();
        for tap in self.taps.values_mut() {
            if tap.node == node {
                out.extend(tap.captured.drain(..).map(|c| (tap.kind, c)));
            }
        }
        out.sort_by_key(|(_, c)| c.ts);
        out
    }

    /// Capture statistics for an element: `(observed, matched)`.
    pub fn stats(&self, element: &ElementId) -> Option<(u64, u64)> {
        self.taps.get(element).map(|t| (t.observed, t.matched))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use df_types::net::{FiveTuple, TcpFlags};
    use df_types::packet::{ArpOp, Segment};
    use std::net::Ipv4Addr;

    fn seg_frame(port: u16, payload: &'static [u8]) -> Frame {
        Frame::Segment(Segment {
            five_tuple: FiveTuple::tcp(
                Ipv4Addr::new(10, 0, 0, 1),
                40000,
                Ipv4Addr::new(10, 0, 0, 2),
                port,
            ),
            seq: 1,
            ack: 0,
            flags: TcpFlags::PSH_ACK,
            window: 65535,
            payload: Bytes::from_static(payload),
            is_retransmission: false,
        })
    }

    fn arp_frame() -> Frame {
        Frame::Arp {
            op: ArpOp::Request,
            sender: Ipv4Addr::new(10, 0, 0, 1),
            target: Ipv4Addr::new(10, 0, 0, 2),
        }
    }

    #[test]
    fn tap_records_matching_frames_for_its_node() {
        let mut reg = TapRegistry::new();
        let el = ElementId::NodeNic(NodeId(1));
        reg.install(el.clone(), NodeId(1), TapKind::NodeNic, TapFilter::all());
        reg.observe(&el, &"eth0".into(), &seg_frame(80, b"hello"), TimeNs(5));
        reg.observe(&el, &"eth0".into(), &arp_frame(), TimeNs(6));
        // untapped element: ignored
        reg.observe(
            &ElementId::NodeNic(NodeId(9)),
            &"eth0".into(),
            &seg_frame(80, b"x"),
            TimeNs(7),
        );
        let got = reg.drain_for_node(NodeId(1));
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].1.ts, TimeNs(5));
        assert!(matches!(got[1].1.frame, Frame::Arp { .. }));
        // drained
        assert!(reg.drain_for_node(NodeId(1)).is_empty());
        assert_eq!(reg.stats(&el), Some((2, 2)));
    }

    #[test]
    fn port_filter_excludes_other_flows() {
        let mut reg = TapRegistry::new();
        let el = ElementId::Tor("rack-1".into());
        let filter = TapFilter {
            port: Some(80),
            ..TapFilter::all()
        };
        reg.install(el.clone(), NodeId(2), TapKind::TorMirror, filter);
        reg.observe(&el, &"tor".into(), &seg_frame(80, b"in"), TimeNs(1));
        reg.observe(&el, &"tor".into(), &seg_frame(443, b"out"), TimeNs(2));
        let got = reg.drain_for_node(NodeId(2));
        assert_eq!(got.len(), 1);
        assert_eq!(reg.stats(&el), Some((2, 1)));
    }

    #[test]
    fn snap_len_truncates_payload() {
        let mut reg = TapRegistry::new();
        let el = ElementId::PodVeth(Ipv4Addr::new(10, 0, 0, 1));
        let filter = TapFilter {
            snap_len: 4,
            ..TapFilter::all()
        };
        reg.install(el.clone(), NodeId(1), TapKind::PodVeth, filter);
        reg.observe(&el, &"veth".into(), &seg_frame(80, b"abcdefgh"), TimeNs(1));
        let got = reg.drain_for_node(NodeId(1));
        match &got[0].1.frame {
            Frame::Segment(s) => assert_eq!(&s.payload[..], b"abcd"),
            _ => panic!("expected segment"),
        }
    }

    #[test]
    fn drop_arp_filter() {
        let mut reg = TapRegistry::new();
        let el = ElementId::PhysNic(NodeId(3));
        let filter = TapFilter {
            drop_arp: true,
            ..TapFilter::all()
        };
        reg.install(el.clone(), NodeId(3), TapKind::PhysNic, filter);
        reg.observe(&el, &"phys0".into(), &arp_frame(), TimeNs(1));
        assert!(reg.drain_for_node(NodeId(3)).is_empty());
    }

    #[test]
    fn drain_is_time_sorted_across_taps() {
        let mut reg = TapRegistry::new();
        let e1 = ElementId::NodeNic(NodeId(1));
        let e2 = ElementId::PhysNic(NodeId(1));
        reg.install(e1.clone(), NodeId(1), TapKind::NodeNic, TapFilter::all());
        reg.install(e2.clone(), NodeId(1), TapKind::PhysNic, TapFilter::all());
        reg.observe(&e2, &"phys0".into(), &seg_frame(80, b"b"), TimeNs(20));
        reg.observe(&e1, &"eth0".into(), &seg_frame(80, b"a"), TimeNs(10));
        let got = reg.drain_for_node(NodeId(1));
        assert_eq!(got[0].1.ts, TimeNs(10));
        assert_eq!(got[1].1.ts, TimeNs(20));
    }
}
