//! Integration: intrusive baselines vs DeepFlow on the same workload —
//! span coverage (Fig. 16's "spans per trace") and third-party span
//! integration (§3.3.2).

use deepflow::baselines::intrusive::{reporter, IntrusiveTracer};
use deepflow::mesh::apps;
use deepflow::prelude::*;

#[test]
fn jaeger_like_tracer_produces_app_spans_with_explicit_context() {
    let rep = reporter();
    let mut seed = 0u64;
    let mut make_tracer = || -> Box<dyn deepflow::mesh::AppTracer> {
        seed += 1;
        Box::new(IntrusiveTracer::jaeger_like(rep.clone(), seed))
    };
    let (mut world, handles) =
        apps::springboot_demo(50.0, DurationNs::from_secs(2), &mut make_tracer);
    world.run_until(TimeNs::from_secs(3));
    let client = &world.clients[handles.client];
    assert!(client.completed > 50);

    let app_spans = rep.lock().unwrap();
    // Per request: gateway server + gateway→svc call + svc server + svc→db
    // call = 4 app spans (the paper's "Jaeger only constructs 4 spans for a
    // single trace" on the Spring Boot demo).
    let per_trace = app_spans.len() as f64 / client.completed as f64;
    assert!(
        (3.5..=4.5).contains(&per_trace),
        "jaeger-like spans/trace = {per_trace}"
    );
    // Explicit propagation: spans of one trace share a trace id.
    let first_trace = app_spans[0].otel_trace_id.unwrap();
    let same_trace = app_spans
        .iter()
        .filter(|s| s.otel_trace_id == Some(first_trace))
        .count();
    assert!(same_trace >= 2, "context propagated across services");
}

#[test]
fn deepflow_traces_dwarf_intrusive_coverage_on_the_same_run() {
    // Instrumented app + DeepFlow deployed simultaneously; the assembled
    // DeepFlow trace must contain the app spans (third-party integration)
    // AND far more spans than the SDK alone produced.
    let rep = reporter();
    let mut seed = 100u64;
    let mut make_tracer = || -> Box<dyn deepflow::mesh::AppTracer> {
        seed += 1;
        Box::new(IntrusiveTracer::jaeger_like(rep.clone(), seed))
    };
    let (mut world, handles) =
        apps::springboot_demo(30.0, DurationNs::from_secs(2), &mut make_tracer);
    let mut df = Deployment::install(&mut world).unwrap();
    df.run(
        &mut world,
        TimeNs::from_secs(3),
        DurationNs::from_millis(100),
    );

    // Ship the SDK's app spans into the server too (OpenTelemetry-style
    // integration, §3.2.1 instrumentation extensions).
    let app_spans: Vec<Span> = rep.lock().unwrap().clone();
    let app_count_per_trace = 4.0;
    df.server.ingest_batch(app_spans);

    let gateway_spans = df.server.span_list(&SpanQuery {
        endpoint: Some("GET /api/orders".to_string()),
        limit: usize::MAX,
        ..Default::default()
    });
    let start = gateway_spans
        .iter()
        .find(|s| s.capture.tap_side == TapSide::ServerProcess && s.kind == SpanKind::Sys)
        .expect("gateway server span")
        .span_id;
    let trace = df.server.trace(start);
    assert!(trace.is_well_formed());

    let sys_net = trace
        .spans
        .iter()
        .filter(|s| s.span.kind != SpanKind::App)
        .count() as f64;
    assert!(
        sys_net >= app_count_per_trace * 3.0,
        "DeepFlow coverage ({sys_net}) well beyond the SDK's ({app_count_per_trace})"
    );
    // Third-party spans joined the same trace (rules 13–15).
    let apps_in_trace = trace
        .spans
        .iter()
        .filter(|s| s.span.kind == SpanKind::App)
        .count();
    assert!(
        apps_in_trace >= 2,
        "app spans integrated into the DeepFlow trace: {apps_in_trace}\n{}",
        trace.render_text()
    );
    let _ = handles;
}

#[test]
fn context_propagation_dies_at_headerless_protocols_but_deepflow_continues() {
    // The spring-svc → MySQL hop can't carry traceparent (the MySQL wire
    // protocol has no headers). The SDK's trace stops there; DeepFlow's
    // trace includes the MySQL exchange.
    let rep = reporter();
    let mut seed = 200u64;
    let mut make_tracer = || -> Box<dyn deepflow::mesh::AppTracer> {
        seed += 1;
        Box::new(IntrusiveTracer::jaeger_like(rep.clone(), seed))
    };
    let (mut world, _handles) =
        apps::springboot_demo(20.0, DurationNs::from_secs(1), &mut make_tracer);
    let mut df = Deployment::install(&mut world).unwrap();
    df.run(
        &mut world,
        TimeNs::from_secs(2),
        DurationNs::from_millis(100),
    );

    // No app span mentions MySQL serving (it is uninstrumented), and no
    // MySQL-side sys span carries a third-party trace id (the context
    // could not propagate over the MySQL protocol)...
    let all = df.server.span_list(&SpanQuery {
        limit: usize::MAX,
        ..Default::default()
    });
    let mysql_sys: Vec<_> = all
        .iter()
        .filter(|s| s.l7_protocol == L7Protocol::Mysql && s.kind == SpanKind::Sys)
        .collect();
    assert!(!mysql_sys.is_empty(), "DeepFlow captured the MySQL hop");
    assert!(
        mysql_sys.iter().all(|s| s.otel_trace_id.is_none()),
        "no explicit context survived the headerless protocol"
    );
    // ...yet the assembled trace still reaches MySQL via systrace chaining.
    let svc_span = all
        .iter()
        .find(|s| {
            s.process_name.as_deref() == Some("spring-svc")
                && s.capture.tap_side == TapSide::ServerProcess
        })
        .expect("spring-svc server span");
    let trace = df.server.trace(svc_span.span_id);
    assert!(
        trace
            .spans
            .iter()
            .any(|s| s.span.l7_protocol == L7Protocol::Mysql),
        "implicit context bridges the SDK's blind spot:\n{}",
        trace.render_text()
    );
}
