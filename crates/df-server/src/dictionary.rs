//! The resource-tag dictionary (paper §3.4, Figure 8).
//!
//! Built once from the orchestrator/cloud inventory; every tag family gets
//! its own integer id space (an interner). Phase 2 of smart-encoding looks
//! up a span's agent-written IP and fills in the remaining resource ints;
//! phase 3 joins free-form labels only when a query returns.

use df_types::tags::{ResourceInventory, ResourceTags};
use df_types::IntMap;
use std::collections::HashMap;

/// A string interner: one per tag family.
#[derive(Debug, Default, Clone)]
pub struct Interner {
    by_name: HashMap<String, u32>,
    names: Vec<String>,
}

impl Interner {
    /// Intern a name, returning its stable id (ids start at 1; 0 = unset).
    pub fn intern(&mut self, name: &str) -> u32 {
        if let Some(id) = self.by_name.get(name) {
            return *id;
        }
        let id = self.names.len() as u32 + 1;
        self.names.push(name.to_string());
        self.by_name.insert(name.to_string(), id);
        id
    }

    /// Resolve an id back to the name.
    pub fn name(&self, id: u32) -> Option<&str> {
        self.names
            .get(id.checked_sub(1)? as usize)
            .map(String::as_str)
    }

    /// Look up an existing name.
    pub fn get(&self, name: &str) -> Option<u32> {
        self.by_name.get(name).copied()
    }

    /// Number of interned values.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether empty.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

#[derive(Debug, Clone, Default)]
struct IpEntry {
    pod_id: Option<u32>,
    namespace_id: Option<u32>,
    workload_id: Option<u32>,
    service_id: Option<u32>,
    k8s_node_id: Option<u32>,
    host_id: Option<u32>,
    region_id: Option<u32>,
    az_id: Option<u32>,
    vpc_id: Option<u32>,
    subnet_id: Option<u32>,
    cluster_id: Option<u32>,
    labels: Vec<(String, String)>,
}

/// The dictionary.
#[derive(Debug, Default)]
pub struct TagDictionary {
    /// Per-family interners (public for display/query tooling).
    pub regions: Interner,
    /// Availability zones.
    pub azs: Interner,
    /// VPCs.
    pub vpcs: Interner,
    /// Subnets.
    pub subnets: Interner,
    /// Hosts.
    pub hosts: Interner,
    /// Clusters.
    pub clusters: Interner,
    /// K8s nodes.
    pub k8s_nodes: Interner,
    /// Namespaces.
    pub namespaces: Interner,
    /// Workloads.
    pub workloads: Interner,
    /// Services.
    pub services: Interner,
    /// Pods.
    pub pods: Interner,
    by_ip: IntMap<u32, IpEntry>,
}

impl TagDictionary {
    /// Build from the inventory (Fig. 8 ①–③).
    pub fn build(inventory: &ResourceInventory) -> Self {
        let mut d = TagDictionary::default();
        // Nodes first: pods reference their node's locality.
        let mut node_locality: HashMap<String, IpEntry> = HashMap::new();
        for n in &inventory.nodes {
            let entry = IpEntry {
                k8s_node_id: Some(d.k8s_nodes.intern(&n.name)),
                host_id: Some(d.hosts.intern(&n.name)),
                region_id: Some(d.regions.intern(&n.region)),
                az_id: Some(d.azs.intern(&n.az)),
                vpc_id: Some(d.vpcs.intern(&n.vpc)),
                subnet_id: Some(d.subnets.intern(&n.subnet)),
                cluster_id: Some(d.clusters.intern(&n.cluster)),
                ..Default::default()
            };
            node_locality.insert(n.name.clone(), entry.clone());
            d.by_ip.insert(n.ip, entry);
        }
        for p in &inventory.pods {
            let mut entry = node_locality.get(&p.node).cloned().unwrap_or_default();
            entry.pod_id = Some(d.pods.intern(&p.name));
            entry.namespace_id = Some(d.namespaces.intern(&p.namespace));
            entry.workload_id = Some(d.workloads.intern(&p.workload));
            entry.service_id = Some(d.services.intern(&p.service));
            entry.labels = p.labels.clone();
            d.by_ip.insert(p.ip, entry);
        }
        d
    }

    /// Phase 2 (Fig. 8 ⑦): resolve resource ints from the agent-written IP.
    /// Unknown IPs are left untouched (bare-metal externals).
    pub fn enrich(&self, tags: &mut ResourceTags) {
        let Some(ip) = tags.ip else { return };
        let Some(e) = self.by_ip.get(&ip) else { return };
        tags.pod_id = e.pod_id;
        tags.namespace_id = e.namespace_id;
        tags.workload_id = e.workload_id;
        tags.service_id = e.service_id;
        tags.k8s_node_id = e.k8s_node_id;
        tags.host_id = e.host_id;
        tags.region_id = e.region_id;
        tags.az_id = e.az_id;
        tags.subnet_id = e.subnet_id;
        tags.cluster_id = e.cluster_id;
        if tags.vpc_id.is_none() {
            tags.vpc_id = e.vpc_id;
        }
    }

    /// Phase 3 (Fig. 8 ⑧): self-defined labels for an IP, joined only at
    /// query time.
    pub fn labels_for_ip(&self, ip: u32) -> &[(String, String)] {
        self.by_ip
            .get(&ip)
            .map(|e| e.labels.as_slice())
            .unwrap_or(&[])
    }

    /// Pod name for a smart-encoded pod id (display).
    pub fn pod_name(&self, pod_id: u32) -> Option<&str> {
        self.pods.name(pod_id)
    }

    /// Pod id for a name (query filters like "only pod X").
    pub fn pod_id(&self, name: &str) -> Option<u32> {
        self.pods.get(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use df_types::tags::{NodeResource, PodResource};

    fn inventory() -> ResourceInventory {
        ResourceInventory {
            pods: vec![
                PodResource {
                    name: "productpage-v1-abc".into(),
                    ip: 0x0a010001,
                    node: "node-1".into(),
                    namespace: "default".into(),
                    workload: "productpage-v1".into(),
                    service: "productpage".into(),
                    labels: vec![("version".into(), "v1".into())],
                },
                PodResource {
                    name: "reviews-v2-def".into(),
                    ip: 0x0a010002,
                    node: "node-2".into(),
                    namespace: "default".into(),
                    workload: "reviews-v2".into(),
                    service: "reviews".into(),
                    labels: vec![],
                },
            ],
            nodes: vec![
                NodeResource {
                    name: "node-1".into(),
                    ip: 0xc0a80001,
                    region: "cn-north".into(),
                    az: "az-1".into(),
                    vpc: "vpc-prod".into(),
                    subnet: "subnet-a".into(),
                    cluster: "k8s-prod".into(),
                },
                NodeResource {
                    name: "node-2".into(),
                    ip: 0xc0a80002,
                    region: "cn-north".into(),
                    az: "az-2".into(),
                    vpc: "vpc-prod".into(),
                    subnet: "subnet-b".into(),
                    cluster: "k8s-prod".into(),
                },
            ],
        }
    }

    #[test]
    fn interner_is_stable_and_reversible() {
        let mut i = Interner::default();
        let a = i.intern("alpha");
        let b = i.intern("beta");
        assert_ne!(a, b);
        assert_eq!(i.intern("alpha"), a);
        assert_eq!(i.name(a), Some("alpha"));
        assert_eq!(i.get("beta"), Some(b));
        assert_eq!(i.name(0), None, "0 means unset");
        assert_eq!(i.len(), 2);
    }

    #[test]
    fn pod_ip_enrichment_fills_all_families() {
        let d = TagDictionary::build(&inventory());
        let mut tags = ResourceTags {
            vpc_id: Some(7), // agent-written, preserved
            ip: Some(0x0a010001),
            ..Default::default()
        };
        d.enrich(&mut tags);
        assert!(tags.is_enriched());
        assert_eq!(d.pod_name(tags.pod_id.unwrap()), Some("productpage-v1-abc"));
        assert_eq!(
            d.namespaces.name(tags.namespace_id.unwrap()),
            Some("default")
        );
        assert_eq!(
            d.services.name(tags.service_id.unwrap()),
            Some("productpage")
        );
        // Locality inherited from the hosting node.
        assert_eq!(d.regions.name(tags.region_id.unwrap()), Some("cn-north"));
        assert_eq!(d.azs.name(tags.az_id.unwrap()), Some("az-1"));
        assert_eq!(tags.vpc_id, Some(7), "agent-written vpc kept");
    }

    #[test]
    fn node_ip_enrichment_has_no_pod_tags() {
        let d = TagDictionary::build(&inventory());
        let mut tags = ResourceTags {
            ip: Some(0xc0a80002),
            ..Default::default()
        };
        d.enrich(&mut tags);
        assert!(tags.pod_id.is_none());
        assert_eq!(d.azs.name(tags.az_id.unwrap()), Some("az-2"));
        assert_eq!(d.vpcs.name(tags.vpc_id.unwrap()), Some("vpc-prod"));
    }

    #[test]
    fn unknown_ip_is_left_untouched() {
        let d = TagDictionary::build(&inventory());
        let mut tags = ResourceTags {
            ip: Some(0x08080808),
            ..Default::default()
        };
        d.enrich(&mut tags);
        assert!(!tags.is_enriched());
    }

    #[test]
    fn labels_join_at_query_time_only() {
        let d = TagDictionary::build(&inventory());
        assert_eq!(
            d.labels_for_ip(0x0a010001),
            &[("version".to_string(), "v1".to_string())]
        );
        assert!(d.labels_for_ip(0x0a010002).is_empty());
        assert!(d.labels_for_ip(0x01020304).is_empty());
    }

    #[test]
    fn shared_names_share_dictionary_ids() {
        let d = TagDictionary::build(&inventory());
        // Both pods are in namespace "default": one interned id.
        assert_eq!(d.namespaces.len(), 1);
        assert_eq!(d.clusters.len(), 1);
        assert_eq!(d.regions.len(), 1);
        assert_eq!(d.azs.len(), 2);
        assert_eq!(d.pods.len(), 2);
        assert_eq!(d.pod_id("reviews-v2-def"), Some(2));
    }
}
