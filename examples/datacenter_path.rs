//! Appendix A: the full coverage of a request in the data center — from
//! end-host processes through pod veths, node NICs, an L4 gateway (traced
//! by preserved TCP sequence) and a ToR mirror, down to the backend.
//!
//! ```sh
//! cargo run --release --example datacenter_path
//! ```

use deepflow::agent::net_spans::TapContext;
use deepflow::mesh::apps;
use deepflow::net::taps::{TapFilter, TapKind};
use deepflow::net::topology::ElementId;
use deepflow::prelude::*;

fn main() {
    println!("== Appendix A: requests traveling through a data center ==\n");
    let (mut world, _handles, vip) =
        apps::nginx_ingress_cluster(30.0, DurationNs::from_secs(2), usize::MAX);

    let mut df = Deployment::install(&mut world).expect("install");

    // Extend the default deployment with every Appendix A capture point:
    // physical NICs, the ToR mirror, and the L4 gateway itself.
    let nodes = world.fabric.topology.node_ids();
    let capture_node = nodes[0];
    world.fabric.topology.set_tor_mirror("rack-1", capture_node);
    for node in &nodes {
        world.fabric.taps.install(
            ElementId::PhysNic(*node),
            *node,
            TapKind::PhysNic,
            TapFilter::all(),
        );
        df.agents.get_mut(node).unwrap().register_tap(
            "phys0",
            TapContext {
                kind: TapKind::PhysNic,
                local_ips: Default::default(),
            },
        );
    }
    for rack in ["rack-1", "rack-2"] {
        world.fabric.taps.install(
            ElementId::Tor(rack.to_string()),
            capture_node,
            TapKind::TorMirror,
            TapFilter::all(),
        );
        df.agents.get_mut(&capture_node).unwrap().register_tap(
            &format!("tor-{rack}"),
            TapContext {
                kind: TapKind::TorMirror,
                local_ips: Default::default(),
            },
        );
    }
    world.fabric.taps.install(
        ElementId::L4Gw("ingress-vip".into()),
        capture_node,
        TapKind::Gateway,
        TapFilter::all(),
    );
    df.agents.get_mut(&capture_node).unwrap().register_tap(
        "gw-ingress-vip",
        TapContext {
            kind: TapKind::Gateway,
            local_ips: Default::default(),
        },
    );

    df.run(
        &mut world,
        TimeNs::from_secs(3),
        DurationNs::from_millis(100),
    );

    // Assemble one request's trace starting from the client process span.
    let all = df.server.span_list(&SpanQuery {
        limit: usize::MAX,
        ..Default::default()
    });
    let start = all
        .iter()
        .find(|s| {
            s.capture.tap_side == TapSide::ClientProcess
                && s.five_tuple.dst_ip == vip
                && s.kind == SpanKind::Sys
                && s.status == SpanStatus::Ok
        })
        .expect("client span to the VIP");
    let trace = df.server.trace(start.span_id);

    println!(
        "One GET /api/checkout, traced across {} capture points:\n",
        trace.len()
    );
    print!("{}", trace.render_text());

    println!("\nCapture-point inventory of this trace:");
    let mut sides: Vec<String> = trace
        .spans
        .iter()
        .map(|s| {
            format!(
                "{} ({})",
                s.span.capture.tap_side,
                s.span.capture.interface.as_deref().unwrap_or("process")
            )
        })
        .collect();
    sides.sort();
    sides.dedup();
    for s in sides {
        println!("  - {s}");
    }
    println!();
    println!("The client dialed the VIP {vip}; the L4 gateway DNATed it without touching");
    println!("the TCP sequence, so the VIP leg and the backend leg stitched into one");
    println!("trace; the L7 ingress terminated TCP, so its two legs joined through the");
    println!("proxy's X-Request-ID instead. \"We have now completed the full coverage of");
    println!("a request in the data center.\"");
}
