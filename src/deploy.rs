//! One-call DeepFlow deployment over a simulated world.
//!
//! Mirrors the paper's §4.1 deployment story ("operators deploy DeepFlow
//! while the service is active"): [`Deployment::install`] attaches the
//! verified eBPF programs to every kernel *in-flight* — no service restarts
//! — installs the standard capture taps, builds the server's resource
//! dictionary from the cluster inventory, and returns a handle that polls
//! agents and ships spans as the world runs.

use df_agent::net_spans::TapContext;
use df_agent::{Agent, AgentConfig, AgentStats};
use df_kernel::{Kernel, VerifierError};
use df_mesh::apps::{install_taps, standard_taps};
use df_mesh::World;
use df_net::fabric::Fabric;
use df_server::Server;
use df_types::{DurationNs, NodeId, Span, TimeNs};
use std::collections::BTreeMap;

/// A running DeepFlow deployment: one agent per node plus the cluster
/// server.
pub struct Deployment {
    /// Agents by node.
    pub agents: BTreeMap<NodeId, Agent>,
    /// The cluster server.
    pub server: Server,
    /// Spans shipped so far.
    pub shipped: u64,
}

impl Deployment {
    /// Deploy on every node of the world: verify + attach hook programs,
    /// install standard taps (pod veths + node NICs), build the tag
    /// dictionary from the topology inventory.
    pub fn install(world: &mut World) -> Result<Deployment, VerifierError> {
        Self::install_with(world, AgentConfig::for_node)
    }

    /// Deploy with a custom per-node agent configuration (e.g. tracepoints
    /// instead of kprobes, different snap lengths).
    pub fn install_with(
        world: &mut World,
        mut config: impl FnMut(NodeId) -> AgentConfig,
    ) -> Result<Deployment, VerifierError> {
        let inventory = world.fabric.topology.resource_inventory();
        let server = Server::new(&inventory);
        let taps = standard_taps(world);
        install_taps(world, &taps);
        let mut agents = BTreeMap::new();
        let nodes: Vec<NodeId> = world.kernels.keys().copied().collect();
        for node in nodes {
            let cfg = config(node);
            world.cpu_tax.insert(node, cfg.cpu_share);
            let kernel = world.kernels.get_mut(&node).expect("node kernel");
            let mut agent = Agent::new(cfg);
            agent.install(kernel)?;
            for (tap_node, interface, kind, local_ips) in &taps {
                if *tap_node == node {
                    agent.register_tap(
                        interface,
                        TapContext {
                            kind: *kind,
                            local_ips: local_ips.clone(),
                        },
                    );
                }
            }
            agents.insert(node, agent);
        }
        Ok(Deployment {
            agents,
            server,
            shipped: 0,
        })
    }

    /// The one per-agent loop: hand `f` each agent with its node's kernel,
    /// the fabric and the server.
    fn each_agent(
        &mut self,
        world: &mut World,
        mut f: impl FnMut(&mut Agent, &mut Kernel, &mut Fabric, &mut Server),
    ) {
        for (node, agent) in self.agents.iter_mut() {
            let kernel = world.kernels.get_mut(node).expect("agent node");
            f(agent, kernel, &mut world.fabric, &mut self.server);
        }
    }

    /// Poll every agent once and ship the spans to the server over the
    /// DFW1 wire path: each agent encodes its batch ([`Agent::poll_wire`])
    /// and the server decodes it ([`Server::ingest_wire`]) — the bytes that
    /// would cross the network in a real deployment. Returns how many spans
    /// were shipped.
    pub fn poll(&mut self, world: &mut World, now: TimeNs) -> usize {
        let mut total = 0;
        self.each_agent(world, |agent, kernel, fabric, server| {
            if let Some(batch) = agent.poll_wire(kernel, fabric, now) {
                let ids = server.ingest_wire(&batch);
                total += ids.expect("agent-encoded batch decodes").len();
            }
        });
        self.shipped += total as u64;
        total
    }

    /// Poll every agent but keep the spans instead of shipping (benches
    /// that want the raw stream).
    pub fn poll_collect(&mut self, world: &mut World, now: TimeNs) -> Vec<Span> {
        let mut out = Vec::new();
        self.each_agent(world, |agent, kernel, fabric, _| {
            out.extend(agent.poll(kernel, fabric, now));
        });
        out
    }

    /// Run the world until `until`, polling agents every `interval` of
    /// virtual time, with a final poll at the end.
    pub fn run(&mut self, world: &mut World, until: TimeNs, interval: DurationNs) {
        let mut next = world.now() + interval;
        while next < until {
            world.run_until(next);
            self.poll(world, next);
            next += interval;
        }
        world.run_until(until);
        self.poll(world, until);
    }

    /// Aggregate agent statistics. The sum is an exhaustive struct literal,
    /// so a counter added to [`AgentStats`] fails to compile until it is
    /// summed here.
    pub fn agent_stats(&self) -> AgentStats {
        let stats = self.agents.values().map(Agent::stats);
        stats.fold(AgentStats::default(), |t, s| AgentStats {
            messages: t.messages + s.messages,
            sys_spans: t.sys_spans + s.sys_spans,
            net_spans: t.net_spans + s.net_spans,
            incomplete_spans: t.incomplete_spans + s.incomplete_spans,
            response_only_spans: t.response_only_spans + s.response_only_spans,
            unclassified: t.unclassified + s.unclassified,
            out_of_window: t.out_of_window + s.out_of_window,
        })
    }
}
