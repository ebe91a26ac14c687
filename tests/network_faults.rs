//! Integration: network-side coverage under faults — the paper's core
//! value proposition (Fig. 2: 47.3% of anomalies live in the network;
//! §4.1.2/§4.1.3 case studies).

use deepflow::mesh::apps;
use deepflow::net::faults::Fault;
use deepflow::net::topology::ElementId;
use deepflow::prelude::*;
use deepflow::types::DurationNs as D;

#[test]
fn packet_loss_shows_up_as_retransmissions_on_spans() {
    let mut make_tracer = || apps::no_tracer();
    let (mut world, handles) = apps::springboot_demo(50.0, D::from_secs(2), &mut make_tracer);
    // 20% loss at the rack-1 ToR.
    world
        .fabric
        .faults
        .inject(ElementId::Tor("rack-1".into()), Fault::Loss { p: 0.2 });
    let mut df = Deployment::install(&mut world).unwrap();
    df.run(&mut world, TimeNs::from_secs(4), D::from_millis(200));

    assert!(
        world.fabric.stats().retransmissions > 0,
        "fabric retransmitted"
    );
    let all = df.server.span_list(&SpanQuery {
        limit: usize::MAX,
        ..Default::default()
    });
    let with_retx = all
        .iter()
        .filter_map(|s| s.flow_metrics)
        .filter(|m| m.retransmissions > 0)
        .count();
    assert!(
        with_retx > 0,
        "spans carry correlated retransmission counts (the §4.1.3 workflow)"
    );
    // And the workload visibly suffered: p99 latency spikes past the RTO.
    let client = &world.clients[handles.client];
    assert!(
        client.hist.p99() >= D::from_millis(100),
        "p99 {} reflects retransmission delays",
        client.hist.p99()
    );
}

#[test]
fn latency_fault_is_localisable_by_comparing_hop_spans() {
    let mut make_tracer = || apps::no_tracer();
    let (mut world, _h) = apps::springboot_demo(30.0, D::from_secs(2), &mut make_tracer);
    // 5ms of extra latency at node-2's physical NIC.
    let victim = world.fabric.topology.node_ids()[1];
    world.fabric.faults.inject(
        ElementId::PhysNic(victim),
        Fault::ExtraLatency(D::from_millis(5)),
    );
    let mut df = Deployment::install(&mut world).unwrap();
    df.run(&mut world, TimeNs::from_secs(3), D::from_millis(200));

    let slowest = df
        .server
        .slowest_span(TimeNs::ZERO, TimeNs::from_secs(3))
        .unwrap();
    let trace = df.server.trace(slowest);
    assert!(trace.len() > 5);
    // The hop-by-hop spans expose the jump: some adjacent parent/child pair
    // differs by ≥5ms where the fault sits.
    let mut max_gap = D::ZERO;
    for s in &trace.spans {
        if let Some(pid) = s.parent {
            if let Some(parent) = trace.spans.iter().find(|p| p.span.span_id == pid) {
                let gap = s.span.req_time.saturating_since(parent.span.req_time);
                max_gap = max_gap.max(gap);
            }
        }
    }
    assert!(
        max_gap >= D::from_millis(5),
        "hop-level spans localise the 5ms jump (max gap {max_gap}):\n{}",
        trace.render_text()
    );
}

#[test]
fn amqp_backlog_yields_zero_windows_then_resets() {
    // The Fig. 12 case study end-to-end: flow metrics reveal that the
    // broker's backlog (zero windows) escalates to connection resets.
    let (mut world, handles) = apps::amqp_backlog(800.0, D::from_secs(3));
    let mut df = Deployment::install(&mut world).unwrap();
    // Run past the 60 s session window (x2 slots) so unanswered publishes
    // expire into Incomplete spans.
    df.run(&mut world, TimeNs::from_secs(200), D::from_secs(20));

    let client = &world.clients[handles.client];
    assert!(
        client.failed > 0,
        "producer saw failures: {}",
        client.failed
    );

    // The agents' flow tables observed the kernel-level distress directly.
    let mut zero_windows = 0u64;
    let mut resets = 0u64;
    for agent in df.agents.values() {
        let t = agent.flows.totals();
        zero_windows += t.zero_windows;
        resets += t.resets;
    }
    assert!(
        zero_windows > 0,
        "zero-window advertisements observed (backlogged consumer)"
    );
    assert!(resets > 0, "connection resets observed");
    // And the tracing side shows incomplete publishes whose correlated
    // flow metrics point at the network-level cause — the Fig. 12
    // one-minute diagnosis.
    let all = df.server.span_list(&SpanQuery {
        limit: usize::MAX,
        ..Default::default()
    });
    let incomplete: Vec<_> = all
        .iter()
        .filter(|s| s.status == SpanStatus::Incomplete && s.l7_protocol == L7Protocol::Amqp)
        .collect();
    assert!(!incomplete.is_empty(), "incomplete AMQP sessions recorded");
    assert!(
        incomplete
            .iter()
            .filter_map(|s| s.flow_metrics)
            .any(|m| m.is_anomalous()),
        "incomplete spans carry the anomalous flow metrics"
    );
}

#[test]
fn blackhole_produces_incomplete_spans_not_silence() {
    let mut make_tracer = || apps::no_tracer();
    let (mut world, handles) = apps::springboot_demo(20.0, D::from_secs(1), &mut make_tracer);
    // Run healthy for 0.5s, then blackhole node-3 (MySQL's node).
    let mut df = Deployment::install(&mut world).unwrap();
    df.run(&mut world, TimeNs::from_millis(500), D::from_millis(100));
    let n3 = world.fabric.topology.node_ids()[2];
    world
        .fabric
        .faults
        .inject(ElementId::NodeNic(n3), Fault::BlackHole);
    df.run(&mut world, TimeNs::from_secs(200), D::from_secs(30));

    // DeepFlow records the requests that vanished into the black hole as
    // Incomplete spans (§3.3.1 "unexpected execution terminations").
    let all = df.server.span_list(&SpanQuery {
        limit: usize::MAX,
        ..Default::default()
    });
    let incomplete = all
        .iter()
        .filter(|s| s.status == SpanStatus::Incomplete)
        .count();
    assert!(
        incomplete > 0,
        "blackholed requests became Incomplete spans"
    );
    // Hop-by-hop localisation (§4.1, Fig. 11) needs every vanished request
    // placed on its tap, and the server needs the phase-1 `ip` to enrich it.
    for s in &all {
        if s.status == SpanStatus::Incomplete && s.kind == SpanKind::Net {
            assert!(s.capture.interface.is_some(), "tapped interface: {s:?}");
            assert_ne!(s.capture.tap_side, TapSide::Gateway, "a pod/node tap");
            assert!(s.tags.resource.ip.is_some(), "phase-1 ip tag: {s:?}");
        }
    }
    let client = &world.clients[handles.client];
    assert!(client.failed > 0, "client saw timeouts");
}

#[test]
fn arp_storm_is_visible_per_interface_like_section_4_1_2() {
    // Fresh pods try to reach the gateway; a faulty physical NIC floods
    // redundant ARP requests and delays resolution. The per-interface ARP
    // counters expose WHERE (the paper's operators took months by hand).
    let mut make_tracer = || apps::no_tracer();
    let (mut world, _h) = apps::springboot_demo(20.0, D::from_secs(1), &mut make_tracer);
    let victim = world.fabric.topology.node_ids()[0]; // client's node
    world.fabric.faults.inject(
        ElementId::PhysNic(victim),
        Fault::ArpStorm {
            extra_requests: 5,
            resolution_delay: D::from_millis(50),
        },
    );
    let mut df = Deployment::install(&mut world).unwrap();
    // Also tap the physical NICs (the extension taps of Appendix A).
    world.fabric.taps.install(
        ElementId::PhysNic(victim),
        victim,
        deepflow::net::taps::TapKind::PhysNic,
        deepflow::net::taps::TapFilter::all(),
    );
    df.run(&mut world, TimeNs::from_secs(2), D::from_millis(100));

    let agent = df.agents.get(&victim).unwrap();
    let storm = agent.flows.arp_requests_on("phys0");
    assert!(
        storm >= 6,
        "the faulty NIC's interface shows the redundant ARPs: {storm}"
    );
    // Healthy interfaces show none-to-few.
    let eth = agent.flows.arp_requests_on("eth0");
    assert!(
        eth < storm,
        "healthy interface ({eth}) vs faulty ({storm}) isolates the device"
    );
}
