//! Tag model for tag-based correlation (paper §3.4, Figure 8).
//!
//! DeepFlow injects three families of tags into spans:
//!
//! 1. **Kubernetes resource tags** — node, namespace, workload, service, pod;
//! 2. **Cloud resource tags** — region, availability zone, VPC, subnet, host;
//! 3. **Self-defined labels** — `version`, `commit-id`, anything the user set.
//!
//! Smart-encoding stores families 1–2 as integers resolved against a
//! dictionary ([`ResourceTags`]); the agent only ever writes the VPC id and
//! IP (phase 1), the server resolves the remaining resource ints (phase 2),
//! and self-defined string labels are joined at query time (phase 3).

use serde::{Deserialize, Serialize};

/// The smart-encoded (integer) resource tag block attached to every span.
///
/// `None` means "not applicable / unknown" (e.g. a bare-metal flow has no pod
/// id). `vpc_id` and `ip` are the only fields written by the *agent*
/// (Figure 8 steps ④–⑥); everything else is injected by the *server* from
/// its resource dictionary (step ⑦).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct ResourceTags {
    /// VPC dictionary id — agent-written (phase 1).
    pub vpc_id: Option<u32>,
    /// Endpoint IPv4 as a raw u32 — agent-written (phase 1).
    pub ip: Option<u32>,
    /// Region dictionary id.
    pub region_id: Option<u32>,
    /// Availability-zone dictionary id.
    pub az_id: Option<u32>,
    /// Subnet dictionary id.
    pub subnet_id: Option<u32>,
    /// Host dictionary id.
    pub host_id: Option<u32>,
    /// Cluster dictionary id.
    pub cluster_id: Option<u32>,
    /// K8s node dictionary id.
    pub k8s_node_id: Option<u32>,
    /// Namespace dictionary id.
    pub namespace_id: Option<u32>,
    /// Workload dictionary id.
    pub workload_id: Option<u32>,
    /// Service dictionary id.
    pub service_id: Option<u32>,
    /// Pod dictionary id.
    pub pod_id: Option<u32>,
}

impl ResourceTags {
    /// Count of populated resource fields.
    pub fn populated(&self) -> usize {
        [
            self.vpc_id,
            self.ip,
            self.region_id,
            self.az_id,
            self.subnet_id,
            self.host_id,
            self.cluster_id,
            self.k8s_node_id,
            self.namespace_id,
            self.workload_id,
            self.service_id,
            self.pod_id,
        ]
        .iter()
        .filter(|v| v.is_some())
        .count()
    }

    /// Whether the server-side enrichment (phase 2) has run: any field beyond
    /// the agent-written `vpc_id`/`ip` is populated.
    pub fn is_enriched(&self) -> bool {
        self.populated() > self.vpc_id.is_some() as usize + self.ip.is_some() as usize
    }
}

/// The complete tag payload of a span: smart-encoded resource ints plus
/// (query-time-joined) custom labels.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct TagSet {
    /// Smart-encoded resource block.
    pub resource: ResourceTags,
    /// Self-defined labels the span itself carries. The dictionary's
    /// labels (phase 3) are never copied in: a query result carries them
    /// beside the stored span, read with [`TagSet::label_joined`].
    pub custom: Vec<(String, String)>,
}

impl TagSet {
    /// Attach a custom label.
    pub fn with_label(mut self, key: &str, value: &str) -> Self {
        self.custom.push((key.to_string(), value.to_string()));
        self
    }

    /// Look up a custom label value.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.custom
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// The label under `key` on a query result: the span's own value
    /// first, then the one in `joined` — the labels the dictionary holds
    /// for the span's IP, joined at query time (phase 3, Fig. 8 ⑧).
    pub fn label_joined<'a>(
        &'a self,
        joined: &'a [(String, String)],
        key: &str,
    ) -> Option<&'a str> {
        let joined = || joined.iter().find(|(k, _)| k == key);
        (self.label(key)).or_else(|| joined().map(|(_, v)| v.as_str()))
    }
}

/// Metadata for one pod, as discovered from the orchestrator (Figure 8 ①:
/// "DeepFlow Agents inside the cluster will collect Kubernetes tags").
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PodResource {
    /// Pod name.
    pub name: String,
    /// Pod IP as a raw u32 (network byte order semantics are irrelevant in
    /// the simulation; it is a dictionary key).
    pub ip: u32,
    /// Hosting node name.
    pub node: String,
    /// Namespace.
    pub namespace: String,
    /// Owning workload (Deployment/StatefulSet).
    pub workload: String,
    /// Fronting service.
    pub service: String,
    /// Self-defined labels (version, commit-id, ... — resolved at query
    /// time, Figure 8 ⑧).
    pub labels: Vec<(String, String)>,
}

/// Metadata for one node / VM / physical machine.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct NodeResource {
    /// Node name.
    pub name: String,
    /// Node primary IP.
    pub ip: u32,
    /// Cloud region.
    pub region: String,
    /// Availability zone.
    pub az: String,
    /// VPC name.
    pub vpc: String,
    /// Subnet name.
    pub subnet: String,
    /// Cluster name.
    pub cluster: String,
}

/// The full resource inventory the server builds its tag dictionary from:
/// K8s tags collected by agents (①→②) plus cloud tags gathered directly by
/// the server (③).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ResourceInventory {
    /// All pods.
    pub pods: Vec<PodResource>,
    /// All nodes.
    pub nodes: Vec<NodeResource>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resource_tags_populated_count() {
        let mut t = ResourceTags::default();
        assert_eq!(t.populated(), 0);
        assert!(!t.is_enriched());
        t.vpc_id = Some(1);
        t.ip = Some(0x0a000001);
        assert_eq!(t.populated(), 2);
        assert!(!t.is_enriched(), "agent-written fields alone != enriched");
        t.pod_id = Some(42);
        assert!(t.is_enriched());
    }

    #[test]
    fn custom_labels() {
        let t = TagSet::default()
            .with_label("version", "v1.2.3")
            .with_label("commit", "abc123");
        assert_eq!(t.label("version"), Some("v1.2.3"));
        assert_eq!(t.label("missing"), None);
        let joined = [("version".into(), "v9".into()), ("team".into(), "a".into())];
        assert_eq!(t.label_joined(&joined, "version"), Some("v1.2.3"));
        assert_eq!(t.label_joined(&joined, "team"), Some("a"), "then joined");
        assert_eq!(t.label_joined(&joined, "missing"), None);
    }
}
