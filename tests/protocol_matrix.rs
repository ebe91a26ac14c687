//! Integration: every supported L7 protocol traced end-to-end through the
//! full pipeline — mesh service ↔ kernel syscalls ↔ agent inference ↔
//! session aggregation ↔ server. Exercises pipelined (Ordered) and
//! multiplexed session keys, and the UDP path (DNS).

use deepflow::mesh::apps::no_tracer;
use deepflow::mesh::{Behavior, ClientSpec, ServiceSpec, World};
use deepflow::net::fabric::{Fabric, FabricConfig};
use deepflow::net::topology::Topology;
use deepflow::prelude::*;
use deepflow::types::DurationNs as D;
use std::net::Ipv4Addr;

struct Case {
    protocol: L7Protocol,
    port: u16,
    endpoint: &'static str,
    expect_endpoint: &'static str,
}

const CASES: [Case; 8] = [
    Case {
        protocol: L7Protocol::Http1,
        port: 80,
        endpoint: "GET /api",
        expect_endpoint: "GET /api",
    },
    Case {
        protocol: L7Protocol::Http2,
        port: 8080,
        endpoint: "GET /grpc.Svc/Call",
        expect_endpoint: "GET /grpc.Svc/Call",
    },
    Case {
        protocol: L7Protocol::Dns,
        port: 53,
        endpoint: "A reviews.default.svc.cluster.local",
        expect_endpoint: "A reviews.default.svc.cluster.local",
    },
    Case {
        protocol: L7Protocol::Redis,
        port: 6379,
        endpoint: "GET product:42",
        expect_endpoint: "GET",
    },
    Case {
        protocol: L7Protocol::Mysql,
        port: 3306,
        endpoint: "SELECT * FROM t",
        expect_endpoint: "SELECT",
    },
    Case {
        protocol: L7Protocol::Kafka,
        port: 9092,
        endpoint: "Produce orders",
        expect_endpoint: "Produce",
    },
    Case {
        protocol: L7Protocol::Dubbo,
        port: 20880,
        endpoint: "OrderSvc/place",
        expect_endpoint: "OrderSvc/place",
    },
    Case {
        protocol: L7Protocol::Amqp,
        port: 5672,
        endpoint: "basic.publish orders",
        expect_endpoint: "basic.publish orders",
    },
];

fn run_case(case: &Case) -> (Vec<Span>, u64) {
    let mut topo = Topology::new();
    let n1 = topo.add_simple_node("n1", Ipv4Addr::new(192, 168, 0, 1));
    let n2 = topo.add_simple_node("n2", Ipv4Addr::new(192, 168, 0, 2));
    let client_ip = Ipv4Addr::new(10, 1, 0, 100);
    let svc_ip = Ipv4Addr::new(10, 1, 1, 10);
    topo.add_pod(n1, "client", client_ip, "d", "c", "c");
    topo.add_pod(n2, "svc", svc_ip, "d", "s", "s");
    let mut world = World::new(Fabric::new(topo, FabricConfig::default()), 0x9a7);
    world.add_service(
        ServiceSpec::http("svc", n2, svc_ip, case.port)
            .with_protocol(case.protocol)
            .with_workers(4)
            .with_behavior(Behavior::Leaf),
    );
    let client = world.add_client(ClientSpec {
        rps: 40.0,
        duration: D::from_secs(1),
        connections: 4,
        protocol: case.protocol,
        endpoints: vec![(case.endpoint.to_string(), 1)],
        ..ClientSpec::http("client", n1, client_ip, "svc")
    });
    let mut df = Deployment::install(&mut world).unwrap();
    df.run(&mut world, TimeNs::from_secs(2), D::from_millis(200));
    let completed = world.clients[client].completed;
    let spans = df.server.span_list(&SpanQuery {
        limit: usize::MAX,
        ..Default::default()
    });
    let spans = spans.into_iter().map(|s| s.span.into_owned()).collect();
    (spans, completed)
}

#[test]
fn every_protocol_round_trips_through_the_full_pipeline() {
    for case in &CASES {
        let (spans, completed) = run_case(case);
        assert!(
            completed >= 35,
            "{}: workload ran ({completed})",
            case.protocol
        );
        let proto_spans: Vec<&Span> = spans
            .iter()
            .filter(|s| s.l7_protocol == case.protocol && s.kind == SpanKind::Sys)
            .collect();
        // Client-side and server-side sys spans, one each per request.
        let client_side = proto_spans
            .iter()
            .filter(|s| s.capture.tap_side == TapSide::ClientProcess)
            .count() as u64;
        let server_side = proto_spans
            .iter()
            .filter(|s| s.capture.tap_side == TapSide::ServerProcess)
            .count() as u64;
        assert!(
            client_side >= completed && server_side >= completed,
            "{}: both sides produced sys spans (c={client_side}, s={server_side}, done={completed})",
            case.protocol
        );
        // Endpoints parsed with protocol-native semantics.
        assert!(
            proto_spans
                .iter()
                .any(|s| s.endpoint == case.expect_endpoint),
            "{}: endpoint '{}' found; got e.g. {:?}",
            case.protocol,
            case.expect_endpoint,
            proto_spans.first().map(|s| &s.endpoint)
        );
        // Completed spans only; statuses healthy.
        assert!(
            proto_spans.iter().all(|s| s.status == SpanStatus::Ok),
            "{}: all sessions healthy",
            case.protocol
        );
        // UDP protocols carry no TCP sequence (association via ids instead).
        if case.protocol == L7Protocol::Dns {
            assert!(proto_spans.iter().all(|s| s.tcp_seq_req.is_none()));
        } else {
            assert!(proto_spans.iter().all(|s| s.tcp_seq_req.is_some()));
        }
    }
}

#[test]
fn multiplexed_protocols_match_out_of_order_responses() {
    // Dubbo is fully multiplexed: a pipelining client keeps several
    // requests in flight on ONE connection; the embedded request ids keep
    // sessions straight even though the slow server answers serially.
    let mut topo = Topology::new();
    let n1 = topo.add_simple_node("n1", Ipv4Addr::new(192, 168, 0, 1));
    let n2 = topo.add_simple_node("n2", Ipv4Addr::new(192, 168, 0, 2));
    let client_ip = Ipv4Addr::new(10, 1, 0, 100);
    let svc_ip = Ipv4Addr::new(10, 1, 1, 10);
    topo.add_pod(n1, "client", client_ip, "d", "c", "c");
    topo.add_pod(n2, "svc", svc_ip, "d", "s", "s");
    let mut world = World::new(Fabric::new(topo, FabricConfig::default()), 0xd0b0);
    world.add_service(
        ServiceSpec::http("svc", n2, svc_ip, 20880)
            .with_protocol(L7Protocol::Dubbo)
            .with_workers(1)
            .with_compute(D::from_millis(25))
            .with_behavior(Behavior::Leaf),
    );
    let client = world.add_client(ClientSpec {
        rps: 100.0,
        duration: D::from_secs(1),
        connections: 1,
        pipeline_depth: 16,
        protocol: L7Protocol::Dubbo,
        endpoints: vec![("OrderSvc/place".to_string(), 1)],
        timeout: D::from_secs(30),
        ..ClientSpec::http("client", n1, client_ip, "svc")
    });
    let mut df = Deployment::install(&mut world).unwrap();
    df.run(&mut world, TimeNs::from_secs(10), D::from_millis(500));
    assert_eq!(world.clients[client].completed, 100);
    let spans = df.server.span_list(&SpanQuery {
        limit: usize::MAX,
        ..Default::default()
    });
    let server_sys = spans
        .iter()
        .filter(|s| {
            s.l7_protocol == L7Protocol::Dubbo
                && s.kind == SpanKind::Sys
                && s.capture.tap_side == TapSide::ServerProcess
        })
        .count();
    assert_eq!(server_sys, 100, "every multiplexed session span-ified");
    // Durations reflect genuine queueing (~5ms × queue depth), proving the
    // pairing didn't collapse onto the wrong requests.
    let max_dur = spans
        .iter()
        .filter(|s| s.l7_protocol == L7Protocol::Dubbo && s.kind == SpanKind::Sys)
        .map(|s| s.duration())
        .max()
        .unwrap();
    assert!(
        max_dur >= D::from_millis(100),
        "queueing visible: {max_dur}"
    );
    let _ = no_tracer; // silence unused import on some cfgs
}
