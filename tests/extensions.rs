//! Integration: the paper's instrumentation extensions (§3.2.1) — TLS
//! uprobes, user-supplied protocol specifications — and failure injection
//! on the observation plane itself (perf-ring overflow).

use deepflow::agent::{Agent, AgentConfig};
use deepflow::mesh::{Behavior, ClientSpec, ServiceSpec, World};
use deepflow::net::fabric::{Fabric, FabricConfig};
use deepflow::net::topology::Topology;
use deepflow::prelude::*;
use deepflow::protocols::inference::CustomProtocol;
use deepflow::protocols::MessageSummary;
use deepflow::types::DurationNs as D;
use std::net::Ipv4Addr;

fn two_pod_world() -> (World, Ipv4Addr, Ipv4Addr) {
    let mut topo = Topology::new();
    let n1 = topo.add_simple_node("n1", Ipv4Addr::new(192, 168, 0, 1));
    let n2 = topo.add_simple_node("n2", Ipv4Addr::new(192, 168, 0, 2));
    let client_ip = Ipv4Addr::new(10, 1, 0, 100);
    let svc_ip = Ipv4Addr::new(10, 1, 1, 10);
    topo.add_pod(n1, "client", client_ip, "default", "client", "client");
    topo.add_pod(
        n2,
        "secure-svc",
        svc_ip,
        "default",
        "secure-svc",
        "secure-svc",
    );
    (
        World::new(Fabric::new(topo, FabricConfig::default()), 0xe57),
        client_ip,
        svc_ip,
    )
}

#[test]
fn tls_services_are_traced_via_ssl_uprobes_despite_opaque_wire() {
    let (mut world, client_ip, svc_ip) = two_pod_world();
    let n2 = world.fabric.topology.node_ids()[1];
    world.add_service(
        ServiceSpec::http("secure-svc", n2, svc_ip, 443)
            .with_workers(4)
            .with_tls()
            .with_behavior(Behavior::Leaf),
    );
    let n1 = world.fabric.topology.node_ids()[0];
    let client = world.add_client(ClientSpec {
        rps: 50.0,
        duration: D::from_secs(2),
        connections: 4,
        tls: true,
        endpoints: vec![("GET /secret".to_string(), 1)],
        ..ClientSpec::http("client", n1, client_ip, "secure-svc")
    });
    let mut df = Deployment::install(&mut world).unwrap();
    df.run(&mut world, TimeNs::from_secs(3), D::from_millis(200));

    let cl = &world.clients[client];
    assert!(cl.completed > 80, "TLS workload ran: {}", cl.completed);

    let all = df.server.span_list(&SpanQuery {
        limit: usize::MAX,
        ..Default::default()
    });
    // The wire is opaque: NO net span carries the plaintext endpoint.
    let net_plain = all
        .iter()
        .filter(|s| s.kind == SpanKind::Net && s.endpoint.contains("/secret"))
        .count();
    assert_eq!(net_plain, 0, "taps must not see plaintext of TLS traffic");
    // Yet the server-side uprobe spans DO: "easy access to important
    // information, such as the original payload prior to TLS encryption".
    let uprobe_spans: Vec<_> = all
        .iter()
        .filter(|s| {
            s.kind == SpanKind::Sys
                && s.endpoint == "GET /secret"
                && s.process_name.as_deref() == Some("secure-svc")
        })
        .collect();
    assert!(
        uprobe_spans.len() as u64 >= cl.completed / 2,
        "ssl_read/ssl_write uprobes produced plaintext spans: {}",
        uprobe_spans.len()
    );
    assert!(uprobe_spans
        .iter()
        .all(|s| s.capture.tap_side == TapSide::ServerProcess));
    assert!(uprobe_spans.iter().all(|s| s.status_code == Some(200)));
}

/// One request/response exchange between a client process on node 1 and
/// a server process on node 2, fed through the kernels' syscall path and
/// observed by `agent`, node 2's. The server reads the request at 2 µs and
/// answers at `respond_at`, and the agent is polled just before it answers
/// — which expires the request first when `respond_at` is several of the
/// agent's session slots away. Returns every span the agent produced.
fn one_exchange(
    mut agent: Agent,
    request: Vec<u8>,
    response: Vec<u8>,
    respond_at: TimeNs,
) -> Vec<Span> {
    use deepflow::kernel::{Kernel, KernelConfig};
    use deepflow::types::TransportProtocol;
    let kernel = |node| {
        Kernel::new(KernelConfig {
            node,
            ..Default::default()
        })
    };
    let (mut ka, mut kb) = (kernel(NodeId(1)), kernel(NodeId(2)));
    agent.install(&mut kb).unwrap();

    // Minimal fabric to carry segments.
    let mut topo = Topology::new();
    let n1 = topo.add_simple_node("a", Ipv4Addr::new(10, 0, 0, 1));
    let n2 = topo.add_simple_node("b", Ipv4Addr::new(10, 0, 0, 2));
    assert_eq!((n1, n2), (NodeId(1), NodeId(2)));
    let mut fabric = Fabric::new(topo, FabricConfig::default());

    fn pump(ka: &mut Kernel, kb: &mut Kernel, fabric: &mut Fabric) {
        loop {
            let out_a = ka.drain_outbox();
            let out_b = kb.drain_outbox();
            if out_a.is_empty() && out_b.is_empty() {
                break;
            }
            for seg in out_a {
                for d in fabric.transmit(seg, TimeNs(0)) {
                    let _ = kb.deliver(&d.segment, d.at);
                }
            }
            for seg in out_b {
                for d in fabric.transmit(seg, TimeNs(0)) {
                    let _ = ka.deliver(&d.segment, d.at);
                }
            }
        }
    }

    // Server listens; client connects.
    let (spid, stid) = kb.procs.spawn_process("server");
    let lfd = kb.socket(spid, TransportProtocol::Tcp).unwrap();
    kb.bind(spid, lfd, Ipv4Addr::new(10, 0, 0, 2), 7000)
        .unwrap();
    kb.listen(spid, lfd, 16).unwrap();
    kb.accept(stid, spid, lfd);
    let (cpid, ctid) = ka.procs.spawn_process("client");
    let cfd = ka.socket(cpid, TransportProtocol::Tcp).unwrap();
    ka.connect(
        ctid,
        cpid,
        cfd,
        Ipv4Addr::new(10, 0, 0, 1),
        (Ipv4Addr::new(10, 0, 0, 2), 7000),
    );
    pump(&mut ka, &mut kb, &mut fabric);
    let (sfd, _) = kb.accept(stid, spid, lfd).unwrap_complete();

    // Request → server reads → server responds.
    ka.sys_write(ctid, cpid, cfd, request.into(), TimeNs(1000))
        .unwrap_complete();
    kb.sys_read(stid, spid, sfd, 4096, TimeNs(1000));
    pump(&mut ka, &mut kb, &mut fabric);
    kb.sys_read(stid, spid, sfd, 4096, TimeNs(2000))
        .unwrap_complete();
    let mut spans = agent.poll(&mut kb, &mut fabric, respond_at);
    kb.sys_write(stid, spid, sfd, response.into(), respond_at)
        .unwrap_complete();
    pump(&mut ka, &mut kb, &mut fabric);
    spans.extend(agent.poll(&mut kb, &mut fabric, respond_at + D::from_secs(1)));
    spans
}

#[test]
fn user_supplied_protocol_specifications_extend_inference() {
    // A proprietary length-prefixed RPC: [0xC9]['Q'|'R'][id][verb...].
    // Without a user-supplied spec the flow is Unknown; with one, full
    // spans appear — the §3.3.1 extension point.
    fn acme_spec() -> CustomProtocol {
        CustomProtocol {
            name: "acme-rpc".into(),
            sniff: Box::new(|p| p.first() == Some(&0xC9) && p.len() >= 3),
            parse: Box::new(|p| {
                let kind = *p.get(1)?;
                let id = u64::from(*p.get(2)?);
                let verb = std::str::from_utf8(p.get(3..)?).ok()?;
                Some(MessageSummary::basic(
                    L7Protocol::Unknown,
                    match kind {
                        b'Q' => deepflow::types::MessageType::Request,
                        b'R' => deepflow::types::MessageType::Response,
                        _ => return None,
                    },
                    deepflow::types::SessionKey::Multiplexed(id),
                    format!("acme.{verb}"),
                ))
            }),
        }
    }

    let mut agent = Agent::new(AgentConfig::for_node(NodeId(2)));
    let slot = agent.register_custom_protocol(acme_spec());
    assert_eq!(slot, L7Protocol::Custom(0));
    let spans = one_exchange(
        agent,
        vec![0xC9, b'Q', 7, b'p', b'i', b'n', b'g'],
        vec![0xC9, b'R', 7, b'o', b'k'],
        TimeNs(3000),
    );
    assert_eq!(spans.len(), 1, "one acme-rpc span: {spans:#?}");
    let s = &spans[0];
    assert_eq!(s.l7_protocol, L7Protocol::Custom(0));
    assert_eq!(s.endpoint, "acme.ping");
    assert_eq!(s.capture.tap_side, TapSide::ServerProcess);
    // Capture timestamps are the syscall exits (enter + kernel time).
    assert!(s.req_time >= TimeNs(2000) && s.req_time < TimeNs(2000) + D::from_micros(10));
    assert!(s.resp_time >= TimeNs(3000) && s.resp_time < TimeNs(3000) + D::from_micros(10));
}

#[test]
fn perf_ring_overflow_degrades_gracefully() {
    // A tiny perf ring under heavy load: events drop (counted), the agent
    // still produces consistent spans for what survived, and nothing
    // panics — the §3.3.1 tolerance for missing halves.
    use deepflow::kernel::KernelConfig;
    let (mut world, client_ip, svc_ip) = two_pod_world();
    // Rebuild node-2's kernel with an 8-entry ring.
    let n2 = world.fabric.topology.node_ids()[1];
    let tiny = deepflow::kernel::Kernel::new(KernelConfig {
        node: n2,
        hostname: "n2".into(),
        ring_capacity: 8,
        ..Default::default()
    });
    world.kernels.insert(n2, tiny);
    world.add_service(
        ServiceSpec::http("secure-svc", n2, svc_ip, 80)
            .with_workers(4)
            .with_behavior(Behavior::Leaf),
    );
    let n1 = world.fabric.topology.node_ids()[0];
    let client_idx = world.add_client(ClientSpec {
        rps: 200.0,
        duration: D::from_secs(1),
        connections: 4,
        endpoints: vec![("GET /".to_string(), 1)],
        ..ClientSpec::http("client", n1, client_ip, "secure-svc")
    });
    let mut agent = Agent::new(AgentConfig::for_node(n2));
    agent.install(world.kernels.get_mut(&n2).unwrap()).unwrap();
    // Run the whole workload WITHOUT polling: the 8-entry ring overflows.
    world.run_until(TimeNs::from_secs(2));
    let kernel = world.kernels.get_mut(&n2).unwrap();
    let dropped = kernel.hooks.ring.dropped();
    assert!(dropped > 100, "ring overflowed: {dropped} drops");
    // The late poll still works with whatever survived.
    let spans = agent.poll(kernel, &mut world.fabric, TimeNs::from_secs(400));
    let stats = agent.stats();
    assert!(stats.messages <= 8, "only the ring's capacity survived");
    // Sessions may be half-missing: spans are complete or Incomplete, never
    // corrupt.
    for s in &spans {
        assert!(s.resp_time >= s.req_time);
    }
    // The workload itself was unaffected (monitoring loss ≠ service loss).
    let cl = &world.clients[client_idx];
    assert!(cl.completed > 150, "service kept serving: {}", cl.completed);
}

#[test]
fn server_side_re_aggregation_reunites_out_of_window_sessions() {
    // Agent configured with a tiny 1 s session slot; the service takes 3 s
    // to respond. The request expires (Incomplete), the late response
    // ships as a ResponseOnly fragment, and the SERVER re-aggregates them
    // — §3.3.1's "aggregated again using the same technique".
    let (mut world, client_ip, svc_ip) = two_pod_world();
    let n2 = world.fabric.topology.node_ids()[1];
    world.add_service(
        ServiceSpec::http("secure-svc", n2, svc_ip, 80)
            .with_workers(2)
            .with_compute(D::from_secs(3))
            .with_behavior(Behavior::Leaf),
    );
    let n1 = world.fabric.topology.node_ids()[0];
    let client = world.add_client(ClientSpec {
        rps: 2.0,
        duration: D::from_secs(1),
        connections: 2,
        timeout: D::from_secs(30),
        ..ClientSpec::http("client", n1, client_ip, "secure-svc")
    });
    let mut df = Deployment::install_with(&mut world, |node| AgentConfig {
        session_slot: D::from_secs(1),
        ..AgentConfig::for_node(node)
    })
    .unwrap();
    df.run(&mut world, TimeNs::from_secs(20), D::from_millis(500));
    assert!(world.clients[client].completed > 0);
    // Conservation: every span the agents returned is counted by exactly
    // one of the four span counters — ResponseOnly fragments included.
    let stats = df.agent_stats();
    assert!(stats.response_only_spans > 0, "late responses shipped");
    assert_eq!(
        df.shipped,
        stats.sys_spans + stats.net_spans + stats.incomplete_spans + stats.response_only_spans
    );

    let before = df.server.span_list(&SpanQuery {
        limit: usize::MAX,
        ..Default::default()
    });
    let incomplete_before = before
        .iter()
        .filter(|s| s.status == SpanStatus::Incomplete)
        .count();
    assert!(
        incomplete_before > 0,
        "requests expired out of the 1s window"
    );

    // A fragment leaves `Agent::poll` decorated like every other span.
    for f in before
        .iter()
        .filter(|s| s.status == SpanStatus::ResponseOnly)
    {
        assert!(f.flow_metrics.is_some() && f.tags.resource.ip.is_some());
    }
    let fragments_before = before
        .iter()
        .filter(|s| s.status == SpanStatus::ResponseOnly)
        .count();
    let merged = df.server.re_aggregate();
    assert!(merged > 0, "re-aggregation reunited sessions: {merged}");

    let after = df.server.span_list(&SpanQuery {
        limit: usize::MAX,
        ..Default::default()
    });
    let incomplete_after = after
        .iter()
        .filter(|s| s.status == SpanStatus::Incomplete)
        .count();
    assert!(
        incomplete_after < incomplete_before,
        "incomplete spans shrank: {incomplete_before} -> {incomplete_after}"
    );
    // A reunited span has a real ~3s duration and an Ok status again.
    let reunited = after
        .iter()
        .find(|s| s.status == SpanStatus::Ok && s.duration() >= D::from_secs(2))
        .expect("a reunited long-duration span exists");
    assert_eq!(reunited.status_code, Some(200));
    // Consumed fragments no longer appear in queries.
    let fragments_after = after
        .iter()
        .filter(|s| s.status == SpanStatus::ResponseOnly)
        .count();
    assert!(fragments_after < fragments_before.max(1));
}

#[test]
fn re_aggregated_sessions_carry_the_status_the_agent_would_have_given() {
    // The same error exchange twice: once answered inside the agent's
    // session window (the agent pairs it), once eleven one-second slots
    // late (the request ships Incomplete, the response as a fragment, the
    // server pairs them). Both read the response's status code through
    // `SpanStatus::of_response`, so the outcomes agree — for every
    // protocol, not only the ones whose codes look like HTTP's.
    use deepflow::protocols::{dns, dubbo, kafka, mqtt};
    use deepflow::types::tags::ResourceInventory;
    let exchanges = [
        (
            dns::query(7, "svc.local"),
            dns::answer(7, "svc.local", dns::RCODE_SERVFAIL),
            SpanStatus::ServerError,
        ),
        (
            dns::query(8, "nope.local"),
            dns::answer(8, "nope.local", dns::RCODE_NXDOMAIN),
            SpanStatus::ClientError,
        ),
        (
            kafka::request(kafka::API_FETCH, 9, "orders"),
            kafka::response(9, 6),
            SpanStatus::ServerError,
        ),
        (
            dubbo::request(10, "Svc", "call"),
            dubbo::response(10, 40, b""),
            SpanStatus::ClientError,
        ),
        (
            dubbo::request(11, "Svc", "call"),
            dubbo::response(11, dubbo::STATUS_SERVER_ERROR, b""),
            SpanStatus::ServerError,
        ),
        (
            mqtt::connect("dev-1"),
            mqtt::connack(5),
            SpanStatus::ServerError,
        ),
    ];
    for (request, response, expected) in exchanges {
        let in_window = one_exchange(
            Agent::new(AgentConfig::for_node(NodeId(2))),
            request.to_vec(),
            response.to_vec(),
            TimeNs(3000),
        );
        assert_eq!(in_window.len(), 1, "{in_window:#?}");
        let agent_built = &in_window[0];
        assert_eq!(agent_built.status, expected, "{}", agent_built.l7_protocol);

        let halves = one_exchange(
            Agent::new(AgentConfig {
                session_slot: D::from_secs(1),
                ..AgentConfig::for_node(NodeId(2))
            }),
            request.to_vec(),
            response.to_vec(),
            TimeNs::from_secs(11),
        );
        let statuses: Vec<SpanStatus> = halves.iter().map(|s| s.status).collect();
        assert_eq!(statuses, [SpanStatus::Incomplete, SpanStatus::ResponseOnly]);
        let mut server = Server::new(&ResourceInventory::default());
        let ids = server.ingest_batch(halves);
        assert_eq!(server.re_aggregate(), 1);
        let reunited = server.trace(ids[0]).spans[0].span.clone();
        assert_eq!(
            (reunited.status, reunited.status_code),
            (agent_built.status, agent_built.status_code),
            "{}",
            reunited.l7_protocol
        );
    }
}

#[test]
fn agents_aggregate_l7_metrics_per_endpoint() {
    // §3.4: metrics and traces come from one pipeline. The agent maintains
    // request/error/latency series per (process, endpoint).
    let (mut world, client_ip, svc_ip) = two_pod_world();
    let n2 = world.fabric.topology.node_ids()[1];
    world.add_service(
        ServiceSpec::http("secure-svc", n2, svc_ip, 80)
            .with_workers(4)
            .with_error_endpoint("/broken", 500)
            .with_behavior(Behavior::Leaf),
    );
    let n1 = world.fabric.topology.node_ids()[0];
    let client = world.add_client(ClientSpec {
        rps: 100.0,
        duration: D::from_secs(2),
        connections: 4,
        endpoints: vec![("GET /ok".to_string(), 3), ("GET /broken".to_string(), 1)],
        ..ClientSpec::http("client", n1, client_ip, "secure-svc")
    });
    let mut df = Deployment::install(&mut world).unwrap();
    df.run(&mut world, TimeNs::from_secs(3), D::from_millis(200));
    let completed = world.clients[client].completed;
    assert!(completed > 150);

    let agent = df.agents.get(&n2).unwrap();
    let ok = agent
        .l7_metrics("secure-svc", "GET /ok")
        .expect("metrics for /ok");
    let broken = agent
        .l7_metrics("secure-svc", "GET /broken")
        .expect("metrics for /broken");
    assert!(ok.request_count > 100, "/ok requests: {}", ok.request_count);
    assert_eq!(ok.server_errors, 0);
    assert!(broken.request_count > 20);
    assert_eq!(
        broken.server_errors, broken.request_count,
        "every /broken request errored"
    );
    assert!((broken.error_ratio() - 1.0).abs() < 1e-9);
    assert!(ok.latency_mean() > D::from_micros(100));
    // Client-side series exist on the client's agent too.
    let ca = df.agents.get(&n1).unwrap();
    assert!(ca.l7_metrics("client", "GET /ok").is_some());
}
