//! The §4.1.2 case study: newly scheduled pods suffer 20–120 minutes of
//! network inaccessibility. The paper's operators spent months discovering
//! "an extra ARP request had been generated during the connection" — and
//! still couldn't tell WHERE from. DeepFlow's per-hop network coverage
//! answers it: the redundant ARPs appear only at one faulty physical NIC.
//!
//! ```sh
//! cargo run --release --example arp_storm_nic
//! ```

use deepflow::agent::net_spans::TapContext;
use deepflow::mesh::apps;
use deepflow::net::faults::Fault;
use deepflow::net::taps::{TapFilter, TapKind};
use deepflow::net::topology::ElementId;
use deepflow::prelude::*;

fn main() {
    println!("== Case study: accurate diagnosis of network infrastructure anomalies (§4.1.2) ==\n");
    let mut make_tracer = || apps::no_tracer();
    let (mut world, handles) =
        apps::springboot_demo(40.0, DurationNs::from_secs(2), &mut make_tracer);

    // The hidden fault: node-1's physical NIC floods redundant ARP requests
    // and stalls resolution on every new connection.
    let victim = world.fabric.topology.node_ids()[0];
    world.fabric.faults.inject(
        ElementId::PhysNic(victim),
        Fault::ArpStorm {
            extra_requests: 7,
            resolution_delay: DurationNs::from_millis(400),
        },
    );

    let mut df = Deployment::install(&mut world).expect("install");
    // Extend coverage to the physical NICs (Appendix A extension taps).
    for node in world.fabric.topology.node_ids() {
        world.fabric.taps.install(
            ElementId::PhysNic(node),
            node,
            TapKind::PhysNic,
            TapFilter::all(),
        );
        df.agents.get_mut(&node).unwrap().register_tap(
            "phys0",
            TapContext {
                kind: TapKind::PhysNic,
                local_ips: Default::default(),
            },
        );
    }
    df.run(
        &mut world,
        TimeNs::from_secs(3),
        DurationNs::from_millis(100),
    );

    let client = &world.clients[handles.client];
    println!(
        "Symptom: new connections stall. p99 latency {} (healthy baseline would be ~1ms).\n",
        client.hist.p99()
    );

    println!("DeepFlow view: ARP requests observed per interface, per node —\n");
    println!(
        "  {:<10} {:>16} {:>16} {:>16}",
        "node", "veth (pods)", "eth0 (node)", "phys0 (NIC)"
    );
    for (node, agent) in &df.agents {
        let name = world
            .fabric
            .topology
            .node_name(*node)
            .unwrap_or("?")
            .to_string();
        let veth: u64 = agent
            .flows
            .arp_requests()
            .filter(|(k, _)| k.starts_with("veth"))
            .map(|(_, v)| v)
            .sum();
        let eth = agent.flows.arp_requests_on("eth0");
        let phys = agent.flows.arp_requests_on("phys0");
        let marker = if phys > eth * 3 && phys > 0 {
            "   <-- redundant ARPs ORIGINATE here"
        } else {
            ""
        };
        println!("  {name:<10} {veth:>16} {eth:>16} {phys:>16}{marker}");
    }

    println!();
    println!("After ruling out containers and virtual switches (their interfaces show the");
    println!("normal request count), the counters isolate the malfunctioning physical NIC");
    println!("on node-1 — the conclusion that took the paper's operators months by hand.");

    // And the impact is visible on traces: connection-setup-dominated spans.
    let slowest = df
        .server
        .slowest_span(TimeNs::ZERO, TimeNs::from_secs(3))
        .expect("spans");
    let trace = df.server.trace(slowest);
    println!(
        "\nSlowest trace ({} end-to-end) — the stall sits before the first hop:\n",
        trace.duration()
    );
    print!("{}", trace.render_text());
}
