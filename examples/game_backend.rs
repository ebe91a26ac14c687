//! Scenario 2 of the paper (§2.2.2): **online game operations**. The
//! platform hosts a vendor's *closed-source* game backend speaking a
//! proprietary binary protocol — impossible to instrument, invisible to
//! SDK-based tracers. DeepFlow traces it in zero code; a user-supplied
//! protocol specification (§3.3.1) upgrades the spans from opaque flows to
//! named operations.
//!
//! ```sh
//! cargo run --release --example game_backend
//! ```

use deepflow::mesh::{Behavior, ClientSpec, ServiceSpec, World};
use deepflow::net::fabric::{Fabric, FabricConfig};
use deepflow::net::topology::Topology;
use deepflow::prelude::*;
use deepflow::protocols::inference::CustomProtocol;
use deepflow::protocols::MessageSummary;
use deepflow::types::DurationNs as D;
use std::net::Ipv4Addr;

/// The vendor's wire format (we only know it from packet captures):
/// `[0xGA][op: 1=login 2=move 3=attack | 0x80&op for replies][match id]`.
fn game_spec() -> CustomProtocol {
    CustomProtocol {
        name: "game-wire".into(),
        sniff: Box::new(|p| p.first() == Some(&0x6A) && p.len() >= 3),
        parse: Box::new(|p| {
            let op = *p.get(1)?;
            let match_id = u64::from(*p.get(2)?);
            let (is_reply, op) = (op & 0x80 != 0, op & 0x7f);
            let verb = match op {
                1 => "login",
                2 => "move",
                3 => "attack",
                _ => return None,
            };
            Some(MessageSummary::basic(
                L7Protocol::Unknown, // overwritten with the Custom slot
                if is_reply {
                    deepflow::types::MessageType::Response
                } else {
                    deepflow::types::MessageType::Request
                },
                deepflow::types::SessionKey::Multiplexed(match_id),
                format!("game.{verb}"),
            ))
        }),
    }
}

fn main() {
    println!("== Scenario 2: tracing a closed-source game backend (§2.2.2) ==\n");

    // The mesh can't speak the vendor's protocol either — we emulate the
    // backend with HTTP internally but DRIVE the demonstration at the agent
    // level with hand-built game frames, exactly what a packet capture of
    // the real backend looks like. First: the zero-code baseline.
    let mut topo = Topology::new();
    let n1 = topo.add_simple_node("platform-node-1", Ipv4Addr::new(192, 168, 0, 1));
    let n2 = topo.add_simple_node("platform-node-2", Ipv4Addr::new(192, 168, 0, 2));
    let lobby_ip = Ipv4Addr::new(10, 1, 0, 10);
    let match_ip = Ipv4Addr::new(10, 1, 1, 10);
    let player_ip = Ipv4Addr::new(10, 1, 0, 100);
    topo.add_pod(n1, "game-lobby", lobby_ip, "game", "lobby", "lobby");
    topo.add_pod(n2, "match-server", match_ip, "game", "match", "match");
    topo.add_pod(n1, "players", player_ip, "game", "players", "players");
    let mut world = World::new(Fabric::new(topo, FabricConfig::default()), 0x6a6e);

    // The lobby fronts the closed-source match server.
    world.add_service(
        ServiceSpec::http("match-server", n2, match_ip, 7777)
            .with_workers(8)
            .with_compute(D::from_micros(800)),
    );
    world.add_service(
        ServiceSpec::http("game-lobby", n1, lobby_ip, 7000)
            .with_workers(8)
            .with_compute(D::from_micros(200))
            .with_behavior(Behavior::Chain(vec![deepflow::mesh::Call {
                target: "match-server".into(),
                protocol: L7Protocol::Http1,
                endpoint: "GET /match/join".into(),
            }])),
    );
    let client = world.add_client(ClientSpec {
        rps: 200.0,
        duration: D::from_secs(2),
        connections: 8,
        endpoints: vec![("GET /lobby/enter".to_string(), 1)],
        ..ClientSpec::http("players", n1, player_ip, "game-lobby")
    });

    // Deploy while the game runs — the vendor is never involved
    // ("game back-ends are often closed-source for commercial reasons").
    let mut df = Deployment::install(&mut world).expect("install");
    // The operator feeds DeepFlow the protocol spec reverse-engineered from
    // captures; every agent picks it up.
    for agent in df.agents.values_mut() {
        agent.register_custom_protocol(game_spec());
    }
    df.run(&mut world, TimeNs::from_secs(3), D::from_millis(100));

    let cl = &world.clients[client];
    println!(
        "Zero-code tracing of the hosted game: {} requests traced, p99 {}.",
        cl.completed,
        cl.hist.p99()
    );
    let slowest = df
        .server
        .slowest_span(TimeNs::ZERO, TimeNs::from_secs(3))
        .unwrap();
    let trace = df.server.trace(slowest);
    println!(
        "\nSlowest lobby request, end to end ({} spans):\n",
        trace.len()
    );
    print!("{}", trace.render_text());

    // And the custom-protocol upgrade, demonstrated on captured frames of
    // the proprietary wire format.
    println!("\n-- user-supplied protocol specification (§3.3.1) --\n");
    let mut engine = deepflow::protocols::InferenceEngine::default();
    let slot = engine.register_custom(game_spec());
    for (frame, what) in [
        (vec![0x6A, 0x01, 0x09], "login request, match 9"),
        (vec![0x6A, 0x81, 0x09], "login reply, match 9"),
        (vec![0x6A, 0x03, 0x09], "attack request, match 9"),
    ] {
        let parsed = engine.parse_for(1, &frame).expect("spec parses the frame");
        println!(
            "  {:02x?}  ->  {} {} ({})  [{what}]",
            frame, parsed.protocol, parsed.endpoint, parsed.msg_type
        );
        assert_eq!(parsed.protocol, slot);
    }
    println!("\nWithout the spec these flows would still be traced at L4 (latency, bytes,");
    println!("retransmissions); with it, the operators see named game operations —");
    println!("and the vendor never shipped a line of instrumentation.");
}
