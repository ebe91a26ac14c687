//! L4 flow metrics from packet observations.
//!
//! DeepFlow's differentiator (§1, §4.1.3): network metrics are collected
//! alongside traces and correlated with them, so "queue backlog of RabbitMQ
//! was causing the TCP connection resets" falls out of one view. This table
//! accumulates [`FlowMetrics`] per (interface, flow) from the frames a
//! capture tap sees.

use df_types::net::TcpFlags;
use df_types::packet::{ArpOp, Frame, Segment};
use df_types::{DurationNs, FiveTuple, FlowMetrics, IntHasher, IntMap, TimeNs};
use std::collections::HashMap;
use std::sync::Arc;

#[derive(Debug, Default)]
struct FlowState {
    metrics: FlowMetrics,
    syn_seen: u32,
    syn_ts: Option<TimeNs>,
    client: Option<(std::net::Ipv4Addr, u16)>,
}

/// One tapped interface: its flows and its ARP counters.
#[derive(Debug, Default)]
struct Interface {
    flows: IntMap<FiveTuple, FlowState>,
    arp_requests: u64,
    arp_replies: u64,
}

/// Per-interface, per-flow metric accumulation. One table per agent.
/// Interface first, each under the name the capture source shares, so a
/// frame on a known interface finds its flow with one short probe and
/// allocates nothing.
#[derive(Debug, Default)]
pub struct FlowTable {
    interfaces: NameMap<Interface>,
}

/// A map keyed by a shared name. [`IntHasher`] reads the text eight bytes
/// a round, a few multiplies where SipHash runs its rounds, and a new key
/// clones the `Arc`, not the text.
pub(crate) type NameMap<V> = HashMap<Arc<str>, V, IntHasher>;

/// `f(&mut map[key])`, the slot inserted as `V::default()` the first
/// time, with the key copied only then. A closure rather than a returned
/// `&mut V`: the borrow checker does not let a function return the hit
/// of `get_mut` and insert on the miss.
pub(crate) fn with_slot<V: Default, R>(
    map: &mut HashMap<String, V>,
    key: &str,
    f: impl FnOnce(&mut V) -> R,
) -> R {
    if let Some(v) = map.get_mut(key) {
        return f(v);
    }
    f(map.entry(key.to_owned()).or_default())
}

impl FlowTable {
    /// Empty table.
    pub fn new() -> Self {
        FlowTable::default()
    }

    /// Account one captured frame.
    pub fn observe(&mut self, interface: &Arc<str>, frame: &Frame, ts: TimeNs) {
        let iface = self.interfaces.entry(Arc::clone(interface)).or_default();
        match frame {
            Frame::Arp { op, .. } => match op {
                ArpOp::Request => iface.arp_requests += 1,
                ArpOp::Reply => iface.arp_replies += 1,
            },
            Frame::Segment(seg) => Self::observe_segment(iface, seg, ts),
        }
    }

    fn observe_segment(iface: &mut Interface, seg: &Segment, ts: TimeNs) {
        let st = iface.flows.entry(seg.five_tuple.canonical()).or_default();
        // Client = whoever sent the SYN (or, failing that, the first frame).
        if st.client.is_none() && !(seg.flags.syn && seg.flags.ack) {
            st.client = Some((seg.five_tuple.src_ip, seg.five_tuple.src_port));
        }
        let from_client = st.client == Some((seg.five_tuple.src_ip, seg.five_tuple.src_port));
        if from_client {
            st.metrics.packets_tx += 1;
            st.metrics.bytes_tx += seg.payload.len() as u64;
        } else {
            st.metrics.packets_rx += 1;
            st.metrics.bytes_rx += seg.payload.len() as u64;
        }
        if seg.is_retransmission {
            st.metrics.retransmissions += 1;
        }
        if seg.flags.rst {
            st.metrics.resets += 1;
        }
        if seg.flags == TcpFlags::SYN {
            st.syn_seen += 1;
            if st.syn_seen > 1 {
                st.metrics.syn_retries += 1;
            }
            st.syn_ts = Some(ts);
        }
        if seg.flags == TcpFlags::SYN_ACK {
            st.metrics.established = true;
            if let Some(syn_ts) = st.syn_ts {
                let rtt = ts.saturating_since(syn_ts);
                if st.metrics.rtt == DurationNs::ZERO || rtt < st.metrics.rtt {
                    st.metrics.rtt = rtt;
                }
            }
        }
        // Zero-window advertisement: pure ACK with window 0.
        if seg.window == 0
            && seg.flags.ack
            && !seg.flags.rst
            && !seg.flags.syn
            && seg.payload.is_empty()
        {
            st.metrics.zero_windows += 1;
        }
    }

    /// Metrics snapshot for a flow on an interface.
    pub fn metrics(&self, interface: &str, tuple: &FiveTuple) -> Option<FlowMetrics> {
        let iface = self.interfaces.get(interface)?;
        iface.flows.get(&tuple.canonical()).map(|s| s.metrics)
    }

    /// Merged metrics for a flow across every interface this agent taps.
    pub fn metrics_any_interface(&self, tuple: &FiveTuple) -> Option<FlowMetrics> {
        let canon = tuple.canonical();
        let mut found = self.interfaces.values().filter_map(|i| i.flows.get(&canon));
        let mut out = found.next()?.metrics;
        for st in found {
            out.merge(&st.metrics);
        }
        Some(out)
    }

    /// Flows tracked, counted once per interface that saw them.
    pub fn len(&self) -> usize {
        self.interfaces.values().map(|i| i.flows.len()).sum()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total ARP requests on one interface.
    pub fn arp_requests_on(&self, interface: &str) -> u64 {
        self.interfaces.get(interface).map_or(0, |i| i.arp_requests)
    }

    /// ARP requests per interface that saw any frame (the §4.1.2 signal).
    pub fn arp_requests(&self) -> impl Iterator<Item = (&str, u64)> {
        self.interfaces
            .iter()
            .map(|(name, i)| (&**name, i.arp_requests))
    }

    /// Total ARP replies on one interface.
    pub fn arp_replies_on(&self, interface: &str) -> u64 {
        self.interfaces.get(interface).map_or(0, |i| i.arp_replies)
    }

    /// Aggregate metrics across every tracked flow (troubleshooting
    /// dashboards sum per-flow counters exactly like this).
    pub fn totals(&self) -> FlowMetrics {
        let mut out = FlowMetrics::default();
        for st in self.interfaces.values().flat_map(|i| i.flows.values()) {
            out.merge(&st.metrics);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use std::net::Ipv4Addr;

    const C: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    const S: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

    fn seg(src_c: bool, flags: TcpFlags, payload: &'static [u8], window: u16) -> Segment {
        let ft = if src_c {
            FiveTuple::tcp(C, 40000, S, 80)
        } else {
            FiveTuple::tcp(S, 80, C, 40000)
        };
        Segment {
            five_tuple: ft,
            seq: 1,
            ack: 0,
            flags,
            window,
            payload: Bytes::from_static(payload),
            is_retransmission: false,
        }
    }

    #[test]
    fn handshake_yields_rtt_and_direction_split() {
        let mut ft = FlowTable::new();
        ft.observe(
            &"eth0".into(),
            &Frame::Segment(seg(true, TcpFlags::SYN, b"", 100)),
            TimeNs(0),
        );
        ft.observe(
            &"eth0".into(),
            &Frame::Segment(seg(false, TcpFlags::SYN_ACK, b"", 100)),
            TimeNs(500_000),
        );
        ft.observe(
            &"eth0".into(),
            &Frame::Segment(seg(true, TcpFlags::PSH_ACK, b"req", 100)),
            TimeNs(600_000),
        );
        ft.observe(
            &"eth0".into(),
            &Frame::Segment(seg(false, TcpFlags::PSH_ACK, b"response", 100)),
            TimeNs(900_000),
        );
        let m = ft
            .metrics("eth0", &FiveTuple::tcp(C, 40000, S, 80))
            .unwrap();
        assert_eq!(m.rtt, DurationNs(500_000));
        assert!(m.established);
        assert_eq!(m.packets_tx, 2); // SYN + req
        assert_eq!(m.packets_rx, 2); // SYN_ACK + resp
        assert_eq!(m.bytes_tx, 3);
        assert_eq!(m.bytes_rx, 8);
        assert!(!m.is_anomalous());
    }

    #[test]
    fn retransmissions_and_resets_counted() {
        let mut ft = FlowTable::new();
        let mut retx = seg(true, TcpFlags::PSH_ACK, b"data", 100);
        retx.is_retransmission = true;
        ft.observe(
            &"eth0".into(),
            &Frame::Segment(seg(true, TcpFlags::PSH_ACK, b"data", 100)),
            TimeNs(0),
        );
        ft.observe(&"eth0".into(), &Frame::Segment(retx), TimeNs(1));
        ft.observe(
            &"eth0".into(),
            &Frame::Segment(seg(false, TcpFlags::RST, b"", 0)),
            TimeNs(2),
        );
        let m = ft
            .metrics("eth0", &FiveTuple::tcp(C, 40000, S, 80))
            .unwrap();
        assert_eq!(m.retransmissions, 1);
        assert_eq!(m.resets, 1);
        assert!(m.is_anomalous());
    }

    #[test]
    fn syn_retries_counted() {
        let mut ft = FlowTable::new();
        for t in [0u64, 1_000_000, 3_000_000] {
            ft.observe(
                &"eth0".into(),
                &Frame::Segment(seg(true, TcpFlags::SYN, b"", 100)),
                TimeNs(t),
            );
        }
        let m = ft
            .metrics("eth0", &FiveTuple::tcp(C, 40000, S, 80))
            .unwrap();
        assert_eq!(m.syn_retries, 2);
    }

    #[test]
    fn zero_window_advertisements_counted() {
        let mut ft = FlowTable::new();
        ft.observe(
            &"eth0".into(),
            &Frame::Segment(seg(true, TcpFlags::PSH_ACK, b"x", 100)),
            TimeNs(0),
        );
        // Receiver advertises zero window (backlogged consumer).
        ft.observe(
            &"eth0".into(),
            &Frame::Segment(seg(false, TcpFlags::ACK, b"", 0)),
            TimeNs(1),
        );
        ft.observe(
            &"eth0".into(),
            &Frame::Segment(seg(false, TcpFlags::ACK, b"", 0)),
            TimeNs(2),
        );
        let m = ft
            .metrics("eth0", &FiveTuple::tcp(C, 40000, S, 80))
            .unwrap();
        assert_eq!(m.zero_windows, 2);
        assert!(m.is_anomalous());
    }

    #[test]
    fn arp_counters_per_interface() {
        let mut ft = FlowTable::new();
        let req = Frame::Arp {
            op: ArpOp::Request,
            sender: C,
            target: S,
        };
        ft.observe(&"phys0".into(), &req, TimeNs(0));
        ft.observe(&"phys0".into(), &req, TimeNs(1));
        ft.observe(&"eth0".into(), &req, TimeNs(2));
        assert_eq!(ft.arp_requests_on("phys0"), 2);
        assert_eq!(ft.arp_requests_on("eth0"), 1);
        assert_eq!(ft.arp_requests_on("veth-x"), 0);
        ft.observe(
            &"eth0".into(),
            &Frame::Arp {
                op: ArpOp::Reply,
                sender: S,
                target: C,
            },
            TimeNs(3),
        );
        assert_eq!(ft.arp_replies_on("eth0"), 1);
        assert_eq!(ft.arp_replies_on("phys0"), 0);
    }

    #[test]
    fn interfaces_keep_separate_flow_entries_but_merge_on_demand() {
        let mut ft = FlowTable::new();
        ft.observe(
            &"eth0".into(),
            &Frame::Segment(seg(true, TcpFlags::PSH_ACK, b"ab", 100)),
            TimeNs(0),
        );
        ft.observe(
            &"phys0".into(),
            &Frame::Segment(seg(true, TcpFlags::PSH_ACK, b"ab", 100)),
            TimeNs(1),
        );
        assert_eq!(ft.len(), 2);
        let merged = ft
            .metrics_any_interface(&FiveTuple::tcp(C, 40000, S, 80))
            .unwrap();
        assert_eq!(merged.packets_tx, 2);
    }

    #[test]
    fn both_orientations_hit_the_same_flow() {
        let mut ft = FlowTable::new();
        ft.observe(
            &"eth0".into(),
            &Frame::Segment(seg(true, TcpFlags::PSH_ACK, b"req", 100)),
            TimeNs(0),
        );
        ft.observe(
            &"eth0".into(),
            &Frame::Segment(seg(false, TcpFlags::PSH_ACK, b"resp", 100)),
            TimeNs(1),
        );
        assert_eq!(ft.len(), 1);
        // Query with the server-side orientation: same flow.
        let m = ft
            .metrics("eth0", &FiveTuple::tcp(S, 80, C, 40000))
            .unwrap();
        assert_eq!(m.packets_tx + m.packets_rx, 2);
    }
}
