//! End-to-end integration: the paper's headline claim — distributed traces
//! for an uninstrumented microservice application, in zero code, with
//! network-side coverage.

use deepflow::mesh::apps;
use deepflow::prelude::*;

fn run_bookinfo(seconds: u64) -> (deepflow::mesh::World, apps::AppHandles, Deployment) {
    let mut make_tracer = || apps::no_tracer();
    let (mut world, handles) =
        apps::bookinfo(50.0, DurationNs::from_secs(seconds), &mut make_tracer);
    let mut df = Deployment::install(&mut world).expect("programs verify");
    df.run(
        &mut world,
        TimeNs::from_secs(seconds + 1),
        DurationNs::from_millis(200),
    );
    (world, handles, df)
}

#[test]
fn bookinfo_traces_assemble_without_any_instrumentation() {
    let (world, handles, df) = run_bookinfo(2);
    let client = &world.clients[handles.client];
    assert!(client.completed > 50, "workload ran: {}", client.completed);

    // Pick a productpage server span and assemble its trace.
    let spans = df.server.span_list(&SpanQuery {
        endpoint: Some("GET /productpage".to_string()),
        limit: usize::MAX,
        ..Default::default()
    });
    assert!(!spans.is_empty(), "productpage spans captured");
    let start = spans
        .iter()
        .find(|s| s.capture.tap_side == TapSide::ServerProcess)
        .expect("server-side productpage span")
        .span_id;
    let trace = df.server.trace(start);
    assert!(trace.is_well_formed());

    // The trace must reach every tier of the application: productpage,
    // details, reviews, ratings — plus the sidecars — without one line of
    // instrumentation.
    let endpoints: Vec<&str> = trace
        .spans
        .iter()
        .map(|s| s.span.endpoint.as_str())
        .collect();
    for needle in ["/productpage", "/details", "/reviews", "/ratings"] {
        assert!(
            endpoints.iter().any(|e| e.contains(needle)),
            "trace missing {needle}: got {endpoints:?}"
        );
    }

    // Paper §5.4: DeepFlow produces tens of spans per Bookinfo trace
    // (38 in the paper's deployment; ours differs in capture points but
    // must be far beyond the 6 an intrusive tracer gets).
    assert!(
        trace.len() >= 15,
        "expected a rich multi-hop trace, got {} spans:\n{}",
        trace.len(),
        trace.render_text()
    );

    // Both sys spans (process side) and net spans (NIC side) participate —
    // the network blind spots are gone.
    let sys = trace
        .spans
        .iter()
        .filter(|s| s.span.kind == SpanKind::Sys)
        .count();
    let net = trace
        .spans
        .iter()
        .filter(|s| s.span.kind == SpanKind::Net)
        .count();
    assert!(sys >= 6, "sys spans: {sys}");
    assert!(net >= 6, "net spans: {net}");
}

#[test]
fn sidecar_x_request_ids_stitch_proxy_legs() {
    let (_world, _handles, df) = run_bookinfo(2);
    // Proxy legs share X-Request-IDs: find a span pair (downstream /
    // upstream of one envoy) agreeing on the id.
    let all = df.server.span_list(&SpanQuery {
        limit: usize::MAX,
        ..Default::default()
    });
    let with_xid = all
        .iter()
        .filter(|s| s.x_request_id_req.is_some() || s.x_request_id_resp.is_some())
        .count();
    assert!(with_xid >= 4, "X-Request-IDs captured on spans: {with_xid}");
}

#[test]
fn smart_encoded_tags_let_users_filter_by_pod() {
    let (_world, _handles, df) = run_bookinfo(2);
    let pod_id = df
        .server
        .dictionary()
        .pod_id("reviews-v2-0")
        .expect("pod in dictionary");
    let reviews_spans = df.server.span_list(&SpanQuery {
        pod_id: Some(pod_id),
        limit: usize::MAX,
        ..Default::default()
    });
    assert!(!reviews_spans.is_empty(), "pod filter finds reviews spans");
    // Query-time label join (phase 3): the reviews pod carries version=v2.
    let labelled = reviews_spans
        .iter()
        .find(|s| s.label("version") == Some("v2"))
        .expect("self-defined labels joined at query time");
    // A trace joins them the same way, beside the row it shares: the
    // stored span itself stays label-free.
    let start = labelled.span_id;
    let trace = df.server.trace(start);
    let member = trace.spans.iter().find(|s| s.span.span_id == start);
    let member = member.expect("the start is a member");
    assert_eq!(member.label("version"), Some("v2"));
    let stored = df.server.store().get(start).expect("stored");
    assert!(stored.tags.custom.is_empty(), "labels are never copied in");
}

#[test]
fn coroutine_service_spans_carry_pseudo_thread_ids() {
    let (_world, _handles, df) = run_bookinfo(2);
    let all = df.server.span_list(&SpanQuery {
        limit: usize::MAX,
        ..Default::default()
    });
    // reviews runs a coroutine runtime: its server-side spans must carry
    // pseudo-thread ids (paper §3.3.1 pseudo-thread structure).
    let reviews_with_pth = all
        .iter()
        .filter(|s| s.process_name.as_deref() == Some("reviews") && s.pseudo_thread_id.is_some())
        .count();
    assert!(reviews_with_pth > 0, "pseudo-thread ids on coroutine spans");
}

#[test]
fn every_assembled_trace_is_well_formed() {
    let (_world, _handles, df) = run_bookinfo(1);
    let ids: Vec<SpanId> = df
        .server
        .span_list(&SpanQuery {
            limit: 50,
            ..Default::default()
        })
        .iter()
        .map(|s| s.span_id)
        .collect();
    assert!(!ids.is_empty());
    for id in ids {
        let t = df.server.trace(id);
        assert!(t.is_well_formed(), "trace from {id} malformed");
        assert!(!t.is_empty());
    }
}

#[test]
fn agents_observe_flow_metrics_alongside_traces() {
    let (_world, _handles, df) = run_bookinfo(2);
    let all = df.server.span_list(&SpanQuery {
        limit: usize::MAX,
        ..Default::default()
    });
    let with_metrics = all.iter().filter(|s| s.flow_metrics.is_some()).count();
    assert!(
        with_metrics * 2 >= all.len(),
        "most spans carry correlated flow metrics: {with_metrics}/{}",
        all.len()
    );
    // A healthy run has no anomalous flows.
    let anomalous = all
        .iter()
        .filter_map(|s| s.flow_metrics)
        .filter(|m| m.is_anomalous())
        .count();
    assert_eq!(anomalous, 0, "healthy bookinfo shows no network anomalies");
}

/// FNV-1a-64 of `bytes`, folded into `hash`.
fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    (bytes.iter()).fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The agent pipeline's golden: healthy Bookinfo at 100 RPS for 2 s,
/// polled every 100 ms over the DFW wire path. Two FNV-1a-64 digests: one
/// of the bytes, which moves with the encoding, and one of each decoded
/// span's `Debug` text, which does not. Any change to what `Agent::poll`
/// emits on the healthy path — a field, an order, a tag — moves the span
/// digest (ROADMAP 3(a)'s "span output byte-identical on the seeded run"
/// instrument); a codec change moves only the bytes.
#[test]
fn seeded_bookinfo_wire_stream_is_byte_identical() {
    let mut make_tracer = || apps::no_tracer();
    let (mut world, _handles) = apps::bookinfo(100.0, DurationNs::from_secs(2), &mut make_tracer);
    let mut df = Deployment::install(&mut world).expect("programs verify");
    let basis = 0xcbf2_9ce4_8422_2325u64;
    let (mut spans, mut bytes, mut wire_fnv, mut span_fnv) = (0u64, 0usize, basis, basis);
    for step in 1..=30 {
        let now = TimeNs::from_millis(step * 100);
        world.run_until(now);
        for (node, agent) in df.agents.iter_mut() {
            let kernel = world.kernels.get_mut(node).expect("agent node");
            let Some(batch) = agent.poll_wire(kernel, &mut world.fabric, now) else {
                continue;
            };
            spans += deepflow::types::wire::peek_span_count(&batch).expect("header parses");
            bytes += batch.len();
            wire_fnv = fnv1a(wire_fnv, &batch);
            for span in deepflow::types::wire::decode_batch(&batch).expect("own batch decodes") {
                span_fnv = fnv1a(span_fnv, format!("{span:?}").as_bytes());
            }
        }
    }
    let hex = |h: u64| format!("{h:016x}");
    assert_eq!(
        (spans, bytes, hex(wire_fnv).as_str(), hex(span_fnv).as_str()),
        (7_200, 481_800, "2ae1cfb781ad4430", "e69462741667376c")
    );
}
