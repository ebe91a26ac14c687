//! Datacenter topology: which elements a frame traverses between two IPs.
//!
//! The model mirrors the capture-point ladder of Appendix A (Fig. 17/18):
//!
//! ```text
//! client process ⇄ [sidecar] ⇄ pod veth ⇄ node NIC ⇄ physical NIC/hypervisor
//!    ⇄ ToR switch (mirrorable) ⇄ [L4 gateway] ⇄ ... ⇄ server process
//! ```
//!
//! [`Topology::route`] computes the ordered hop list for a (src, dst) pair;
//! the fabric walks it, applying per-element latency and faults and feeding
//! every tap along the way.

use df_types::tags::{NodeResource, PodResource, ResourceInventory};
use df_types::{DurationNs, NodeId};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::sync::{Arc, LazyLock};

/// The node-NIC and physical-NIC labels, one shared name each for every
/// route and capture.
static ETH0: LazyLock<Arc<str>> = LazyLock::new(|| "eth0".into());
static PHYS0: LazyLock<Arc<str>> = LazyLock::new(|| "phys0".into());

/// Identifies a fault-injectable / tappable infrastructure element.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ElementId {
    /// A pod's veth interface.
    PodVeth(Ipv4Addr),
    /// A node's primary NIC.
    NodeNic(NodeId),
    /// The physical NIC / hypervisor uplink of a node.
    PhysNic(NodeId),
    /// A top-of-rack switch, by rack name.
    Tor(String),
    /// An L4 gateway, by name.
    L4Gw(String),
}

/// What kind of hop a route step is (maps onto `TapSide` at the agent).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum HopKind {
    /// Source pod veth.
    SrcPodVeth,
    /// Source node NIC.
    SrcNodeNic,
    /// Source physical NIC / hypervisor.
    SrcPhysNic,
    /// A ToR switch.
    Tor,
    /// An L4 gateway.
    L4Gateway,
    /// Destination physical NIC / hypervisor.
    DstPhysNic,
    /// Destination node NIC.
    DstNodeNic,
    /// Destination pod veth.
    DstPodVeth,
}

/// One step of a route.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hop {
    /// The element traversed.
    pub element: ElementId,
    /// Step kind relative to this frame's direction.
    pub kind: HopKind,
    /// Node whose agent can tap this hop (ToR mirrors are assigned to a
    /// dedicated capture node, Fig. 18).
    pub node: Option<NodeId>,
    /// Interface label for captures, shared by every route through it.
    pub interface: Arc<str>,
}

#[derive(Debug, Clone)]
struct Pod {
    name: String,
    /// `veth-<name>`, the label of the pod's veth hops.
    veth: Arc<str>,
    node: NodeId,
    namespace: String,
    workload: String,
    service: String,
    labels: Vec<(String, String)>,
}

#[derive(Debug, Clone)]
struct Node {
    name: String,
    ip: Ipv4Addr,
    rack: String,
    region: String,
    az: String,
    vpc: String,
    subnet: String,
    cluster: String,
    /// Whether frames to/from this node traverse a modelled physical NIC /
    /// hypervisor hop (VMs on shared hosts do; bare-metal depends on config).
    has_phys_nic: bool,
}

#[derive(Debug, Clone)]
struct Rack {
    /// `tor-<rack>`, the label of the rack's ToR hops.
    tor: Arc<str>,
    /// Node hosting the ToR mirror tap, if mirroring is enabled (Fig. 18).
    mirror_node: Option<NodeId>,
}

/// The datacenter topology.
#[derive(Debug, Default)]
pub struct Topology {
    nodes: HashMap<NodeId, Node>,
    pods: HashMap<Ipv4Addr, Pod>,
    node_by_ip: HashMap<Ipv4Addr, NodeId>,
    racks: HashMap<String, Rack>,
    next_node: u32,
}

impl Topology {
    /// Empty topology.
    pub fn new() -> Self {
        Topology::default()
    }

    /// Add a node (VM / host). Returns its id.
    #[allow(clippy::too_many_arguments)]
    pub fn add_node(
        &mut self,
        name: &str,
        ip: Ipv4Addr,
        rack: &str,
        region: &str,
        az: &str,
        vpc: &str,
        subnet: &str,
        cluster: &str,
    ) -> NodeId {
        self.next_node += 1;
        let id = NodeId(self.next_node);
        self.nodes.insert(
            id,
            Node {
                name: name.to_string(),
                ip,
                rack: rack.to_string(),
                region: region.to_string(),
                az: az.to_string(),
                vpc: vpc.to_string(),
                subnet: subnet.to_string(),
                cluster: cluster.to_string(),
                has_phys_nic: true,
            },
        );
        self.node_by_ip.insert(ip, id);
        self.racks.entry(rack.to_string()).or_insert_with(|| Rack {
            tor: format!("tor-{rack}").into(),
            mirror_node: None,
        });
        id
    }

    /// Convenience: a node with default locality names.
    pub fn add_simple_node(&mut self, name: &str, ip: Ipv4Addr) -> NodeId {
        self.add_node(
            name,
            ip,
            "rack-1",
            "region-1",
            "az-1",
            "vpc-1",
            "subnet-1",
            "cluster-1",
        )
    }

    /// Add a pod on a node.
    pub fn add_pod(
        &mut self,
        node: NodeId,
        name: &str,
        ip: Ipv4Addr,
        namespace: &str,
        workload: &str,
        service: &str,
    ) {
        self.pods.insert(
            ip,
            Pod {
                name: name.to_string(),
                veth: format!("veth-{name}").into(),
                node,
                namespace: namespace.to_string(),
                workload: workload.to_string(),
                service: service.to_string(),
                labels: Vec::new(),
            },
        );
    }

    /// Attach a self-defined label to a pod (version, commit-id...).
    pub fn add_pod_label(&mut self, ip: Ipv4Addr, key: &str, value: &str) {
        if let Some(pod) = self.pods.get_mut(&ip) {
            pod.labels.push((key.to_string(), value.to_string()));
        }
    }

    /// Enable ToR traffic mirroring for a rack, delivering mirrored frames
    /// to `capture_node`'s agent (Fig. 18: "mirror the traffic on the
    /// top-of-rack switch to a physical machine dedicated to DeepFlow").
    pub fn set_tor_mirror(&mut self, rack: &str, capture_node: NodeId) {
        if let Some(r) = self.racks.get_mut(rack) {
            r.mirror_node = Some(capture_node);
        }
    }

    /// The node hosting an IP (pod IP or node IP).
    pub fn node_of_ip(&self, ip: Ipv4Addr) -> Option<NodeId> {
        self.pods
            .get(&ip)
            .map(|p| p.node)
            .or_else(|| self.node_by_ip.get(&ip).copied())
    }

    /// Whether this IP is a pod (vs a node/host address).
    pub fn is_pod_ip(&self, ip: Ipv4Addr) -> bool {
        self.pods.contains_key(&ip)
    }

    /// Pod name for an IP.
    pub fn pod_name(&self, ip: Ipv4Addr) -> Option<&str> {
        self.pods.get(&ip).map(|p| p.name.as_str())
    }

    /// Node name.
    pub fn node_name(&self, id: NodeId) -> Option<&str> {
        self.nodes.get(&id).map(|n| n.name.as_str())
    }

    /// Rack of a node.
    pub fn rack_of(&self, id: NodeId) -> Option<&str> {
        self.nodes.get(&id).map(|n| n.rack.as_str())
    }

    /// All node ids.
    pub fn node_ids(&self) -> Vec<NodeId> {
        let mut v: Vec<NodeId> = self.nodes.keys().copied().collect();
        v.sort();
        v
    }

    /// Compute the hop list between two IPs. Both must be known.
    ///
    /// Same-node pod↔pod traffic stays on the node bridge (two veth hops);
    /// cross-node traffic climbs the full ladder. Gateways are inserted by
    /// the fabric (they are route *policies*, not topology edges).
    pub fn route(&self, src: Ipv4Addr, dst: Ipv4Addr) -> Option<Vec<Hop>> {
        let src_node = self.node_of_ip(src)?;
        let dst_node = self.node_of_ip(dst)?;
        let mut hops = Vec::new();

        if self.is_pod_ip(src) {
            hops.push(Hop {
                element: ElementId::PodVeth(src),
                kind: HopKind::SrcPodVeth,
                node: Some(src_node),
                interface: Arc::clone(&self.pods[&src].veth),
            });
        }
        if src_node == dst_node {
            // Same node: bridge-local.
            if self.is_pod_ip(dst) {
                hops.push(Hop {
                    element: ElementId::PodVeth(dst),
                    kind: HopKind::DstPodVeth,
                    node: Some(dst_node),
                    interface: Arc::clone(&self.pods[&dst].veth),
                });
            }
            return Some(hops);
        }

        hops.push(Hop {
            element: ElementId::NodeNic(src_node),
            kind: HopKind::SrcNodeNic,
            node: Some(src_node),
            interface: Arc::clone(&ETH0),
        });
        if self.nodes[&src_node].has_phys_nic {
            hops.push(Hop {
                element: ElementId::PhysNic(src_node),
                kind: HopKind::SrcPhysNic,
                node: Some(src_node),
                interface: Arc::clone(&PHYS0),
            });
        }
        // ToR hop(s): src rack, then dst rack if different.
        let src_rack = &self.nodes[&src_node].rack;
        let dst_rack = &self.nodes[&dst_node].rack;
        hops.push(self.tor_hop(src_rack));
        if dst_rack != src_rack {
            hops.push(self.tor_hop(dst_rack));
        }
        if self.nodes[&dst_node].has_phys_nic {
            hops.push(Hop {
                element: ElementId::PhysNic(dst_node),
                kind: HopKind::DstPhysNic,
                node: Some(dst_node),
                interface: Arc::clone(&PHYS0),
            });
        }
        hops.push(Hop {
            element: ElementId::NodeNic(dst_node),
            kind: HopKind::DstNodeNic,
            node: Some(dst_node),
            interface: Arc::clone(&ETH0),
        });
        if self.is_pod_ip(dst) {
            hops.push(Hop {
                element: ElementId::PodVeth(dst),
                kind: HopKind::DstPodVeth,
                node: Some(dst_node),
                interface: Arc::clone(&self.pods[&dst].veth),
            });
        }
        Some(hops)
    }

    fn tor_hop(&self, rack: &str) -> Hop {
        let known = self.racks.get(rack);
        Hop {
            element: ElementId::Tor(rack.to_string()),
            kind: HopKind::Tor,
            node: known.and_then(|r| r.mirror_node),
            interface: known.map_or_else(|| format!("tor-{rack}").into(), |r| Arc::clone(&r.tor)),
        }
    }

    /// Export the resource inventory for the server's tag dictionary
    /// (paper Fig. 8 ①–③).
    pub fn resource_inventory(&self) -> ResourceInventory {
        let mut pods: Vec<PodResource> = self
            .pods
            .iter()
            .map(|(ip, p)| PodResource {
                name: p.name.clone(),
                ip: u32::from(*ip),
                node: self
                    .nodes
                    .get(&p.node)
                    .map(|n| n.name.clone())
                    .unwrap_or_default(),
                namespace: p.namespace.clone(),
                workload: p.workload.clone(),
                service: p.service.clone(),
                labels: p.labels.clone(),
            })
            .collect();
        pods.sort_by_key(|a| a.ip);
        let mut nodes: Vec<NodeResource> = self
            .nodes
            .values()
            .map(|n| NodeResource {
                name: n.name.clone(),
                ip: u32::from(n.ip),
                region: n.region.clone(),
                az: n.az.clone(),
                vpc: n.vpc.clone(),
                subnet: n.subnet.clone(),
                cluster: n.cluster.clone(),
            })
            .collect();
        nodes.sort_by_key(|a| a.ip);
        ResourceInventory { pods, nodes }
    }

    /// Default per-hop-kind propagation latency.
    pub fn default_hop_latency(kind: HopKind) -> DurationNs {
        match kind {
            HopKind::SrcPodVeth | HopKind::DstPodVeth => DurationNs::from_micros(5),
            HopKind::SrcNodeNic | HopKind::DstNodeNic => DurationNs::from_micros(10),
            HopKind::SrcPhysNic | HopKind::DstPhysNic => DurationNs::from_micros(15),
            HopKind::Tor => DurationNs::from_micros(25),
            HopKind::L4Gateway => DurationNs::from_micros(40),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn three_node_cluster() -> (Topology, NodeId, NodeId, NodeId) {
        let mut t = Topology::new();
        let n1 = t.add_simple_node("node-1", Ipv4Addr::new(192, 168, 0, 1));
        let n2 = t.add_simple_node("node-2", Ipv4Addr::new(192, 168, 0, 2));
        let n3 = t.add_node(
            "node-3",
            Ipv4Addr::new(192, 168, 1, 3),
            "rack-2",
            "region-1",
            "az-1",
            "vpc-1",
            "subnet-2",
            "cluster-1",
        );
        t.add_pod(
            n1,
            "web-0",
            Ipv4Addr::new(10, 1, 0, 1),
            "default",
            "web",
            "web-svc",
        );
        t.add_pod(
            n1,
            "web-1",
            Ipv4Addr::new(10, 1, 0, 2),
            "default",
            "web",
            "web-svc",
        );
        t.add_pod(
            n2,
            "db-0",
            Ipv4Addr::new(10, 1, 1, 1),
            "default",
            "db",
            "db-svc",
        );
        t.add_pod(
            n3,
            "cache-0",
            Ipv4Addr::new(10, 1, 2, 1),
            "default",
            "cache",
            "cache-svc",
        );
        (t, n1, n2, n3)
    }

    #[test]
    fn same_node_route_stays_on_bridge() {
        let (t, _, _, _) = three_node_cluster();
        let hops = t
            .route(Ipv4Addr::new(10, 1, 0, 1), Ipv4Addr::new(10, 1, 0, 2))
            .unwrap();
        assert_eq!(hops.len(), 2);
        assert_eq!(hops[0].kind, HopKind::SrcPodVeth);
        assert_eq!(hops[1].kind, HopKind::DstPodVeth);
    }

    #[test]
    fn cross_node_route_climbs_the_full_ladder() {
        let (t, _, _, _) = three_node_cluster();
        let hops = t
            .route(Ipv4Addr::new(10, 1, 0, 1), Ipv4Addr::new(10, 1, 1, 1))
            .unwrap();
        let kinds: Vec<HopKind> = hops.iter().map(|h| h.kind).collect();
        assert_eq!(
            kinds,
            vec![
                HopKind::SrcPodVeth,
                HopKind::SrcNodeNic,
                HopKind::SrcPhysNic,
                HopKind::Tor,
                HopKind::DstPhysNic,
                HopKind::DstNodeNic,
                HopKind::DstPodVeth,
            ]
        );
    }

    #[test]
    fn cross_rack_route_traverses_both_tors() {
        let (t, _, _, _) = three_node_cluster();
        let hops = t
            .route(Ipv4Addr::new(10, 1, 0, 1), Ipv4Addr::new(10, 1, 2, 1))
            .unwrap();
        let tors: Vec<&Hop> = hops.iter().filter(|h| h.kind == HopKind::Tor).collect();
        assert_eq!(tors.len(), 2);
        assert_eq!(tors[0].element, ElementId::Tor("rack-1".into()));
        assert_eq!(tors[1].element, ElementId::Tor("rack-2".into()));
    }

    #[test]
    fn node_to_node_route_has_no_veth_hops() {
        let (t, _, _, _) = three_node_cluster();
        let hops = t
            .route(Ipv4Addr::new(192, 168, 0, 1), Ipv4Addr::new(192, 168, 0, 2))
            .unwrap();
        assert!(hops
            .iter()
            .all(|h| !matches!(h.kind, HopKind::SrcPodVeth | HopKind::DstPodVeth)));
    }

    #[test]
    fn unknown_ip_routes_to_none() {
        let (t, _, _, _) = three_node_cluster();
        assert!(t
            .route(Ipv4Addr::new(10, 1, 0, 1), Ipv4Addr::new(1, 2, 3, 4))
            .is_none());
    }

    #[test]
    fn tor_mirror_assigns_capture_node() {
        let (mut t, n1, _, _) = three_node_cluster();
        t.set_tor_mirror("rack-1", n1);
        let hops = t
            .route(Ipv4Addr::new(10, 1, 0, 1), Ipv4Addr::new(10, 1, 1, 1))
            .unwrap();
        let tor = hops.iter().find(|h| h.kind == HopKind::Tor).unwrap();
        assert_eq!(tor.node, Some(n1));
    }

    #[test]
    fn resource_inventory_exports_pods_and_nodes() {
        let (mut t, _, _, _) = three_node_cluster();
        t.add_pod_label(Ipv4Addr::new(10, 1, 0, 1), "version", "v2");
        let inv = t.resource_inventory();
        assert_eq!(inv.pods.len(), 4);
        assert_eq!(inv.nodes.len(), 3);
        let web0 = inv
            .pods
            .iter()
            .find(|p| p.name == "web-0")
            .expect("web-0 present");
        assert_eq!(web0.node, "node-1");
        assert_eq!(web0.labels, vec![("version".to_string(), "v2".to_string())]);
    }
}
