//! The network fabric: synchronous frame forwarding over the topology.
//!
//! [`Fabric::transmit`] walks the route between the segment's endpoints,
//! feeding every capture tap, applying per-element faults, resolving ARP on
//! first contact, and passing through L4 gateways. It returns time-stamped
//! [`Delivery`] records; the caller (the mesh event loop) schedules
//! `Kernel::deliver` at those times. Because the fault model is
//! probabilistic-but-stateless, retransmission cascades are resolved
//! *eagerly* at transmit time — taps record the retransmitted copies with
//! their future timestamps, which is exactly what an offline observer of the
//! packet stream would have seen.

use df_types::net::TcpFlags;
use df_types::packet::{ArpOp, Frame, Segment};
use df_types::{DurationNs, NodeId, TimeNs};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::net::Ipv4Addr;

use crate::faults::Fault;
use crate::faults::FaultTable;
use crate::gateway::{GatewayAction, L4Gateway};
use crate::taps::TapRegistry;
use crate::topology::{ElementId, Hop, HopKind, Topology};

/// Fabric tunables.
#[derive(Debug, Clone)]
pub struct FabricConfig {
    /// Retransmission timeout after a lost segment.
    pub rto: DurationNs,
    /// Retransmission attempts before giving up.
    pub max_retransmits: u32,
    /// Base ARP resolution round-trip.
    pub arp_rtt: DurationNs,
    /// RNG seed.
    pub seed: u64,
}

impl Default for FabricConfig {
    fn default() -> Self {
        FabricConfig {
            rto: DurationNs::from_millis(200),
            max_retransmits: 5,
            arp_rtt: DurationNs::from_micros(100),
            seed: 0xfab,
        }
    }
}

/// A segment arriving at a node's kernel at a future instant.
#[derive(Debug, Clone)]
pub struct Delivery {
    /// Arrival time.
    pub at: TimeNs,
    /// Destination node (whose kernel should `deliver` the segment).
    pub node: NodeId,
    /// The segment.
    pub segment: Segment,
}

/// Forwarding statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FabricStats {
    /// Segments successfully delivered.
    pub delivered: u64,
    /// Segments dropped by faults (after exhausting retransmits, or
    /// black-holed).
    pub dropped: u64,
    /// Segments black-holed specifically by a [`Fault::Partition`] cut
    /// (subset of `dropped`).
    pub partitioned: u64,
    /// Retransmitted copies put on the wire.
    pub retransmissions: u64,
    /// RSTs injected by faults.
    pub resets_injected: u64,
    /// ARP resolutions performed.
    pub arp_resolutions: u64,
    /// ARP requests emitted (> resolutions under an ARP storm).
    pub arp_requests: u64,
}

/// The fabric.
pub struct Fabric {
    /// Topology (public: the mesh builds it, agents read it).
    pub topology: Topology,
    /// Capture taps.
    pub taps: TapRegistry,
    /// Fault table.
    pub faults: FaultTable,
    gateways: Vec<L4Gateway>,
    arp_resolved: HashSet<(Ipv4Addr, Ipv4Addr)>,
    rng: SmallRng,
    cfg: FabricConfig,
    stats: FabricStats,
}

impl Fabric {
    /// Build a fabric over a topology.
    pub fn new(topology: Topology, cfg: FabricConfig) -> Self {
        let rng = SmallRng::seed_from_u64(cfg.seed);
        Fabric {
            topology,
            taps: TapRegistry::new(),
            faults: FaultTable::new(),
            gateways: Vec::new(),
            arp_resolved: HashSet::new(),
            rng,
            cfg,
            stats: FabricStats::default(),
        }
    }

    /// Register an L4 gateway.
    pub fn add_l4_gateway(&mut self, gw: L4Gateway) {
        self.gateways.push(gw);
    }

    /// Forwarding statistics so far.
    pub fn stats(&self) -> FabricStats {
        self.stats
    }

    /// Transmit a segment, returning its delivery (and any fault-generated
    /// extra deliveries, e.g. injected RSTs).
    pub fn transmit(&mut self, seg: Segment, now: TimeNs) -> Vec<Delivery> {
        // The physical origin: where the frame actually entered the fabric
        // (before any gateway SNAT masks the source as a VIP).
        let origin = seg.five_tuple.src_ip;
        let original = seg.clone();
        // L4 gateway NAT (VIP → backend, backend → VIP).
        let (seg, gw_name) = self.apply_gateways(seg);
        let Some(seg) = seg else {
            self.stats.dropped += 1;
            return Vec::new();
        };
        // The gateway's own capture point always observes the VIP-side form
        // of the flow (forward: pre-DNAT; reverse: post-SNAT) so both
        // directions of a session share one five-tuple there.
        let gw_view = if gw_name.is_some() {
            if original.five_tuple.dst_ip != seg.five_tuple.dst_ip {
                Some(Frame::Segment(original.clone())) // forward: pre-DNAT
            } else {
                Some(Frame::Segment(seg.clone())) // reverse: post-SNAT
            }
        } else {
            None
        };

        // Route anchored on the physical origin and the post-DNAT
        // destination. (Simplification vs. real NAT: taps along the whole
        // path observe the post-rewrite header; the TCP sequence — the
        // association invariant — is identical either way.)
        let src = origin;
        let dst = seg.five_tuple.dst_ip;
        let Some(mut hops) = self.topology.route(src, dst) else {
            self.stats.dropped += 1;
            return Vec::new();
        };
        if let Some(name) = gw_name {
            insert_gateway_hop(&mut hops, name);
        }
        let Some(dst_node) = self.topology.node_of_ip(dst) else {
            self.stats.dropped += 1;
            return Vec::new();
        };

        // ARP on first contact between this IP pair.
        let mut start = now;
        if !self.arp_resolved.contains(&arp_key(src, dst)) {
            start += self.resolve_arp(src, dst, &hops, now);
            self.arp_resolved.insert(arp_key(src, dst));
        }

        let mut deliveries = Vec::new();
        let mut attempt: u32 = 0;
        // Each attempt (re)starts at the *source*: attempt n leaves the
        // sender at `start + n * rto`, regardless of how deep in the path
        // the previous copy died. Accumulated hop latency belongs to the
        // copy that was lost, not to the retransmission.
        let mut send_time = start;
        'attempts: loop {
            let mut frame_seg = seg.clone();
            if attempt > 0 {
                frame_seg.is_retransmission = true;
                self.stats.retransmissions += 1;
            }
            let frame = Frame::Segment(frame_seg.clone());
            let mut t = send_time;
            for (hop_idx, hop) in hops.iter().enumerate() {
                // The frame reaches the element: taps see it even if the
                // element then misbehaves. Gateways observe the VIP-side
                // form of the flow.
                if hop.kind == HopKind::L4Gateway {
                    if let Some(view) = &gw_view {
                        self.taps.observe(&hop.element, &hop.interface, view, t);
                    }
                } else {
                    self.taps.observe(&hop.element, &hop.interface, &frame, t);
                }
                match self.faults.get(&hop.element).cloned() {
                    Some(Fault::ExtraLatency(d)) => {
                        t += d;
                    }
                    Some(Fault::BlackHole) => {
                        self.stats.dropped += 1;
                        return deliveries;
                    }
                    Some(fault @ Fault::Partition { .. }) => {
                        if fault.partitions(seg.five_tuple.src_ip, seg.five_tuple.dst_ip) {
                            // The cut is a silent black hole: no RST, no
                            // retransmission cascade — the sender's own
                            // timeout machinery (e.g. RPC retry) must
                            // notice.
                            self.stats.partitioned += 1;
                            self.stats.dropped += 1;
                            return deliveries;
                        }
                    }
                    Some(Fault::ResetInjection { p }) => {
                        if self.rng.gen::<f64>() < p {
                            self.stats.resets_injected += 1;
                            if let Some(reply) = reset_for(&frame_seg) {
                                if let Some(src_node) = self.topology.node_of_ip(src) {
                                    let rst_frame = Frame::Segment(reply.clone());
                                    // The RST travels back over the hops
                                    // already traversed, in reverse order:
                                    // the tap nearest the injection point
                                    // sees it first, the source-side tap
                                    // last.
                                    let mut rt = t;
                                    for back in hops[..hop_idx].iter().rev() {
                                        rt += Topology::default_hop_latency(back.kind);
                                        self.taps.observe(
                                            &back.element,
                                            &back.interface,
                                            &rst_frame,
                                            rt,
                                        );
                                    }
                                    deliveries.push(Delivery {
                                        at: rt,
                                        node: src_node,
                                        segment: reply,
                                    });
                                }
                            }
                            self.stats.dropped += 1;
                            return deliveries;
                        }
                    }
                    Some(Fault::Loss { p }) => {
                        if self.rng.gen::<f64>() < p {
                            // Lost here; the source retransmits one RTO
                            // after it sent this copy.
                            if attempt >= self.cfg.max_retransmits {
                                self.stats.dropped += 1;
                                return deliveries;
                            }
                            attempt += 1;
                            send_time += self.cfg.rto;
                            continue 'attempts;
                        }
                    }
                    Some(Fault::ArpStorm { .. }) | None => {}
                }
                t += Topology::default_hop_latency(hop.kind);
            }
            // Traversed every hop: delivered.
            self.stats.delivered += 1;
            deliveries.push(Delivery {
                at: t,
                node: dst_node,
                segment: frame_seg,
            });
            return deliveries;
        }
    }

    /// Run ARP resolution, emitting request/reply frames at the src-side
    /// taps and honouring any [`Fault::ArpStorm`] on the path (§4.1.2).
    /// Returns the added latency.
    fn resolve_arp(
        &mut self,
        src: Ipv4Addr,
        dst: Ipv4Addr,
        hops: &[Hop],
        now: TimeNs,
    ) -> DurationNs {
        self.stats.arp_resolutions += 1;
        let mut extra_requests = 0u32;
        let mut extra_delay = DurationNs::ZERO;
        for hop in hops {
            if let Some(Fault::ArpStorm {
                extra_requests: n,
                resolution_delay,
            }) = self.faults.get(&hop.element)
            {
                extra_requests += n;
                extra_delay += *resolution_delay;
            }
        }
        let request = Frame::Arp {
            op: ArpOp::Request,
            sender: src,
            target: dst,
        };
        let reply = Frame::Arp {
            op: ArpOp::Reply,
            sender: dst,
            target: src,
        };
        // The original request is visible at every hop on the source's L2
        // side (up to and including the ToR); storm duplicates are
        // *generated by* the faulty element, so only hops at or beyond it
        // observe them — which is exactly how §4.1.2's operators localised
        // the broken NIC.
        let l2_hops: Vec<&Hop> = hops
            .iter()
            .take_while(|h| {
                matches!(
                    h.kind,
                    HopKind::SrcPodVeth | HopKind::SrcNodeNic | HopKind::SrcPhysNic | HopKind::Tor
                )
            })
            .collect();
        let storm_origin = l2_hops
            .iter()
            .position(|h| matches!(self.faults.get(&h.element), Some(Fault::ArpStorm { .. })));
        let total_requests = 1 + extra_requests;
        self.stats.arp_requests += u64::from(total_requests);
        let mut t = now;
        for i in 0..total_requests {
            for (hi, hop) in l2_hops.iter().enumerate() {
                let sees_duplicate = match storm_origin {
                    Some(origin) => hi >= origin,
                    None => false,
                };
                if i == 0 || sees_duplicate {
                    self.taps.observe(&hop.element, &hop.interface, &request, t);
                }
            }
            // Storm duplicates are spaced a little apart.
            if i + 1 < total_requests {
                t += DurationNs::from_micros(50);
            }
        }
        let resolution = self.cfg.arp_rtt + extra_delay;
        let reply_t = now + resolution;
        for hop in l2_hops.iter().rev() {
            self.taps
                .observe(&hop.element, &hop.interface, &reply, reply_t);
        }
        resolution
    }

    fn apply_gateways(&mut self, seg: Segment) -> (Option<Segment>, Option<String>) {
        for gw in &mut self.gateways {
            match gw.process(&seg) {
                GatewayAction::Pass => continue,
                GatewayAction::Rewritten(out) => {
                    let name = gw.name.clone();
                    return (Some(out), Some(name));
                }
                GatewayAction::NoBackend => return (None, None),
            }
        }
        (Some(seg), None)
    }
}

fn arp_key(a: Ipv4Addr, b: Ipv4Addr) -> (Ipv4Addr, Ipv4Addr) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

/// Insert the gateway hop between the source-side and destination-side
/// halves of a route (after the last Src*/Tor hop).
fn insert_gateway_hop(hops: &mut Vec<Hop>, name: String) {
    let pos = hops
        .iter()
        .position(|h| {
            matches!(
                h.kind,
                HopKind::DstPhysNic | HopKind::DstNodeNic | HopKind::DstPodVeth
            )
        })
        .unwrap_or(hops.len());
    hops.insert(
        pos,
        Hop {
            element: ElementId::L4Gw(name.clone()),
            kind: HopKind::L4Gateway,
            node: None,
            interface: format!("gw-{name}").into(),
        },
    );
}

fn reset_for(seg: &Segment) -> Option<Segment> {
    if seg.flags.rst {
        return None; // don't RST a RST
    }
    let mut rst = seg.clone();
    rst.five_tuple = seg.five_tuple.reversed();
    rst.seq = seg.ack;
    rst.ack = seg.end_seq();
    rst.flags = TcpFlags::RST;
    rst.payload = bytes::Bytes::new();
    rst.window = 0;
    rst.is_retransmission = false;
    Some(rst)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::taps::{TapFilter, TapKind};
    use bytes::Bytes;
    use df_types::net::FiveTuple;

    const POD_A: Ipv4Addr = Ipv4Addr::new(10, 1, 0, 1);
    const POD_B: Ipv4Addr = Ipv4Addr::new(10, 1, 1, 1);

    fn fabric() -> (Fabric, NodeId, NodeId) {
        let mut topo = Topology::new();
        let n1 = topo.add_simple_node("node-1", Ipv4Addr::new(192, 168, 0, 1));
        let n2 = topo.add_simple_node("node-2", Ipv4Addr::new(192, 168, 0, 2));
        topo.add_pod(n1, "a", POD_A, "default", "a", "a-svc");
        topo.add_pod(n2, "b", POD_B, "default", "b", "b-svc");
        (Fabric::new(topo, FabricConfig::default()), n1, n2)
    }

    fn data_seg(seq: u32) -> Segment {
        Segment {
            five_tuple: FiveTuple::tcp(POD_A, 40000, POD_B, 80),
            seq,
            ack: 0,
            flags: TcpFlags::PSH_ACK,
            window: 65535,
            payload: Bytes::from_static(b"hello"),
            is_retransmission: false,
        }
    }

    #[test]
    fn delivery_arrives_at_destination_node_after_path_latency() {
        let (mut f, _n1, n2) = fabric();
        let d = f.transmit(data_seg(1), TimeNs(1000));
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].node, n2);
        assert!(d[0].at > TimeNs(1000), "path latency accrued");
        assert_eq!(f.stats().delivered, 1);
        // first contact did ARP
        assert_eq!(f.stats().arp_resolutions, 1);
        // second segment: no new ARP
        f.transmit(data_seg(2), TimeNs(2000));
        assert_eq!(f.stats().arp_resolutions, 1);
    }

    #[test]
    fn taps_see_the_frame_at_each_hop_with_same_seq() {
        let (mut f, n1, n2) = fabric();
        f.taps.install(
            ElementId::NodeNic(n1),
            n1,
            TapKind::NodeNic,
            TapFilter::all(),
        );
        f.taps.install(
            ElementId::NodeNic(n2),
            n2,
            TapKind::NodeNic,
            TapFilter::all(),
        );
        f.transmit(data_seg(42), TimeNs(0));
        let at1 = f.taps.drain_for_node(n1);
        let at2 = f.taps.drain_for_node(n2);
        let seqs = |v: &[(TapKind, df_types::CapturedFrame)]| -> Vec<u32> {
            v.iter()
                .filter_map(|(_, c)| match &c.frame {
                    Frame::Segment(s) => Some(s.seq),
                    _ => None,
                })
                .collect()
        };
        assert_eq!(seqs(&at1), vec![42], "client node NIC sees seq 42");
        assert_eq!(seqs(&at2), vec![42], "server node NIC sees the SAME seq");
    }

    #[test]
    fn loss_fault_produces_observable_retransmissions() {
        let (mut f, n1, _n2) = fabric();
        f.taps.install(
            ElementId::NodeNic(n1),
            n1,
            TapKind::NodeNic,
            TapFilter::all(),
        );
        f.faults
            .inject(ElementId::Tor("rack-1".into()), Fault::Loss { p: 1.0 });
        let d = f.transmit(data_seg(1), TimeNs(0));
        // p=1.0: every attempt lost; gives up after max_retransmits.
        assert!(d.is_empty());
        assert_eq!(f.stats().retransmissions, 5);
        assert_eq!(f.stats().dropped, 1);
        // The node NIC saw the original + 5 retransmitted copies.
        let caps = f.taps.drain_for_node(n1);
        let data_frames: Vec<_> = caps
            .iter()
            .filter(|(_, c)| matches!(c.frame, Frame::Segment(_)))
            .collect();
        assert_eq!(data_frames.len(), 6);
        let retx = data_frames
            .iter()
            .filter(|(_, c)| matches!(&c.frame, Frame::Segment(s) if s.is_retransmission))
            .count();
        assert_eq!(retx, 5);
    }

    #[test]
    fn partial_loss_eventually_delivers() {
        let (mut f, _n1, n2) = fabric();
        f.faults
            .inject(ElementId::Tor("rack-1".into()), Fault::Loss { p: 0.5 });
        let mut delivered = 0;
        for i in 0..50 {
            let d = f.transmit(data_seg(i), TimeNs(u64::from(i) * 1_000_000));
            delivered += d.iter().filter(|d| d.node == n2).count();
        }
        assert!(delivered >= 45, "only {delivered}/50 delivered");
        assert!(f.stats().retransmissions > 0);
    }

    #[test]
    fn extra_latency_fault_delays_delivery() {
        let (mut f, _n1, _n2) = fabric();
        let base = f.transmit(data_seg(1), TimeNs(0))[0].at;
        f.faults.inject(
            ElementId::Tor("rack-1".into()),
            Fault::ExtraLatency(DurationNs::from_millis(30)),
        );
        let slow = f.transmit(data_seg(2), TimeNs(0))[0].at;
        let added = slow.saturating_since(base);
        // `base` paid one-time ARP (~100us) that `slow` did not, so the
        // observable delta is just under the injected 30ms.
        assert!(added >= DurationNs::from_millis(29), "added {added} < 29ms");
    }

    #[test]
    fn blackhole_drops_silently() {
        let (mut f, _n1, n2) = fabric();
        f.faults.inject(ElementId::NodeNic(n2), Fault::BlackHole);
        let d = f.transmit(data_seg(1), TimeNs(0));
        assert!(d.is_empty());
        assert_eq!(f.stats().dropped, 1);
        assert_eq!(f.stats().retransmissions, 0, "blackhole is not loss");
    }

    #[test]
    fn reset_injection_returns_rst_to_sender() {
        let (mut f, n1, _n2) = fabric();
        f.faults.inject(
            ElementId::Tor("rack-1".into()),
            Fault::ResetInjection { p: 1.0 },
        );
        let d = f.transmit(data_seg(7), TimeNs(0));
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].node, n1, "RST goes back to the sender");
        assert!(d[0].segment.flags.rst);
        assert_eq!(d[0].segment.five_tuple.src_ip, POD_B);
        assert_eq!(f.stats().resets_injected, 1);
    }

    #[test]
    fn injected_rst_travels_backpath_in_reverse_with_monotone_timestamps() {
        let (mut f, n1, _n2) = fabric();
        // Taps along the source side of the path, nearest-the-source first.
        f.taps.install(
            ElementId::PodVeth(POD_A),
            n1,
            TapKind::PodVeth,
            TapFilter::all(),
        );
        f.taps.install(
            ElementId::NodeNic(n1),
            n1,
            TapKind::NodeNic,
            TapFilter::all(),
        );
        f.taps.install(
            ElementId::PhysNic(n1),
            n1,
            TapKind::PhysNic,
            TapFilter::all(),
        );
        // RST injected at the ToR — four hops from the pod.
        f.faults.inject(
            ElementId::Tor("rack-1".into()),
            Fault::ResetInjection { p: 1.0 },
        );
        let d = f.transmit(data_seg(9), TimeNs(0));
        assert_eq!(d.len(), 1);
        assert!(d[0].segment.flags.rst);
        let caps = f.taps.drain_for_node(n1);
        // Timestamp of the RST at each tap kind.
        let rst_ts = |kind: TapKind| -> TimeNs {
            caps.iter()
                .find(|(k, c)| *k == kind && matches!(&c.frame, Frame::Segment(s) if s.flags.rst))
                .map(|(_, c)| c.ts)
                .expect("tap saw the RST")
        };
        let at_phys = rst_ts(TapKind::PhysNic);
        let at_node = rst_ts(TapKind::NodeNic);
        let at_veth = rst_ts(TapKind::PodVeth);
        // Travelling back from the injection point toward the source: the
        // phys NIC (nearest the ToR) sees it first, the pod veth last.
        assert!(
            at_phys < at_node && at_node < at_veth,
            "RST timestamps not monotone along the backpath: \
             phys={at_phys:?} node={at_node:?} veth={at_veth:?}"
        );
        // And the sender-side delivery happens after the last tap.
        assert!(d[0].at >= at_veth);
    }

    #[test]
    fn loss_retransmits_anchor_rto_at_source_send_time() {
        let (mut f, n1, _n2) = fabric();
        f.taps.install(
            ElementId::NodeNic(n1),
            n1,
            TapKind::NodeNic,
            TapFilter::all(),
        );
        // Lossy *final* hop: the frame traverses the whole path (accruing
        // every hop's latency) before dying each time.
        f.faults
            .inject(ElementId::PodVeth(POD_B), Fault::Loss { p: 1.0 });
        let d = f.transmit(data_seg(3), TimeNs(0));
        assert!(d.is_empty());
        let rto = FabricConfig::default().rto;
        let caps = f.taps.drain_for_node(n1);
        let ts: Vec<TimeNs> = caps
            .iter()
            .filter(|(_, c)| matches!(c.frame, Frame::Segment(_)))
            .map(|(_, c)| c.ts)
            .collect();
        assert_eq!(ts.len(), 6, "original + 5 retransmitted copies");
        // Attempt n leaves the source at start + n*rto, so the source-side
        // tap must see copies exactly one RTO apart — NOT one RTO plus the
        // latency the previous copy accrued before dying at the far end.
        for (n, t) in ts.iter().enumerate() {
            let expect = ts[0] + DurationNs(rto.0 * n as u64);
            assert_eq!(
                *t, expect,
                "attempt {n} tapped at {t:?}, expected {expect:?}"
            );
        }
    }

    #[test]
    fn partition_fault_blackholes_both_directions_and_counts() {
        let (mut f, n1, _n2) = fabric();
        f.faults.inject(
            ElementId::NodeNic(n1),
            Fault::Partition { peers: vec![POD_B] },
        );
        // Forward: POD_A -> POD_B dies at node-1's NIC.
        let d = f.transmit(data_seg(1), TimeNs(0));
        assert!(d.is_empty());
        // Reverse: POD_B -> POD_A also dies there (bidirectional cut).
        let mut rev = data_seg(2);
        rev.five_tuple = rev.five_tuple.reversed();
        let d = f.transmit(rev, TimeNs(1000));
        assert!(d.is_empty());
        assert_eq!(f.stats().partitioned, 2);
        assert_eq!(f.stats().dropped, 2, "partition drops count as drops too");
        assert_eq!(
            f.stats().retransmissions,
            0,
            "a partition is silent: no retransmission cascade"
        );
        // A flow not involving the partitioned peers passes through.
        f.faults.clear_all();
        f.faults.inject(
            ElementId::NodeNic(n1),
            Fault::Partition {
                peers: vec![Ipv4Addr::new(10, 9, 9, 9)],
            },
        );
        let d = f.transmit(data_seg(3), TimeNs(2000));
        assert_eq!(d.len(), 1, "unrelated flow unaffected by the cut");
        assert_eq!(f.stats().partitioned, 2, "no new partition drops");
    }

    #[test]
    fn arp_storm_fault_emits_extra_requests_and_delays() {
        let (mut f, n1, _n2) = fabric();
        f.taps.install(
            ElementId::PhysNic(n1),
            n1,
            TapKind::PhysNic,
            TapFilter::all(),
        );
        f.faults.inject(
            ElementId::PhysNic(n1),
            Fault::ArpStorm {
                extra_requests: 3,
                resolution_delay: DurationNs::from_secs(2),
            },
        );
        let healthy_at = {
            // A healthy reference fabric for latency comparison.
            let (mut f2, _, _) = fabric();
            f2.transmit(data_seg(1), TimeNs(0))[0].at
        };
        let d = f.transmit(data_seg(1), TimeNs(0));
        assert_eq!(f.stats().arp_requests, 4, "1 normal + 3 storm requests");
        assert!(
            d[0].at.saturating_since(healthy_at) >= DurationNs::from_secs(2),
            "storm delayed connection setup"
        );
        // The faulty NIC's tap shows the redundant ARP requests — exactly
        // how §4.1.2's operators localised the problem.
        let caps = f.taps.drain_for_node(n1);
        let arp_reqs = caps
            .iter()
            .filter(|(_, c)| {
                matches!(
                    c.frame,
                    Frame::Arp {
                        op: ArpOp::Request,
                        ..
                    }
                )
            })
            .count();
        assert_eq!(arp_reqs, 4);
    }

    #[test]
    fn l4_gateway_path_preserves_seq_and_inserts_gateway_hop() {
        let mut topo = Topology::new();
        let n1 = topo.add_simple_node("node-1", Ipv4Addr::new(192, 168, 0, 1));
        let n2 = topo.add_simple_node("node-2", Ipv4Addr::new(192, 168, 0, 2));
        topo.add_pod(n1, "client", POD_A, "default", "c", "c-svc");
        topo.add_pod(n2, "backend", POD_B, "default", "b", "b-svc");
        let mut f = Fabric::new(topo, FabricConfig::default());
        let vip = Ipv4Addr::new(10, 99, 0, 1);
        f.add_l4_gateway(L4Gateway::new("slb", vip, 80, vec![POD_B]));
        f.taps.install(
            ElementId::L4Gw("slb".into()),
            n1,
            TapKind::Gateway,
            TapFilter::all(),
        );
        let mut seg = data_seg(1234);
        seg.five_tuple.dst_ip = vip;
        let d = f.transmit(seg, TimeNs(0));
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].node, n2);
        assert_eq!(d[0].segment.five_tuple.dst_ip, POD_B, "DNATed");
        assert_eq!(d[0].segment.seq, 1234, "seq preserved across gateway");
        let caps = f.taps.drain_for_node(n1);
        assert!(
            caps.iter().any(|(k, _)| *k == TapKind::Gateway),
            "gateway tap observed the flow"
        );
    }
}
