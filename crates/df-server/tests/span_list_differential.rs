//! Differential test for the span list. `Server::span_list` lends the
//! stored rows with the dictionary's labels beside them; it must answer
//! what a plain formulation answers — every live stored span that matches
//! the query, copied, in `(req_time, span_id)` order, capped, with the
//! labels of its IP joined in wherever the span lacks the key — at 1, 4
//! and 16 shards, after re-aggregation has tombstoned fragments, and over a
//! tiered store whose old rows page in from disk.

use df_server::{Listed, Server, ShardedSpanStore, TagDictionary};
use df_storage::{ShardPolicy, SpanQuery, SpanRef, TierConfig};
use df_types::ids::FlowId;
use df_types::span::TapSide;
use df_types::tags::{NodeResource, PodResource, ResourceInventory};
use df_types::{FiveTuple, Span, SpanStatus, TimeNs};
use proptest::prelude::*;
use std::net::Ipv4Addr;

// A lent row stays two words: a variant holding a `Span` inline would
// make every listed row a 560-byte copy again.
const _: () = assert!(std::mem::size_of::<SpanRef<'static>>() <= 16);

/// Every label key the corpus or the inventory uses, plus one neither does.
const KEYS: [&str; 4] = ["version", "team", "env", "absent"];

fn ip(last: u8) -> u32 {
    u32::from(Ipv4Addr::new(10, 0, 0, last))
}

/// Three pods on one node; two carry labels whose keys the spans' own
/// custom tags also use.
fn inventory() -> ResourceInventory {
    let pod = |name: &str, last: u8, labels: &[(&str, &str)]| PodResource {
        name: name.into(),
        ip: ip(last),
        node: "node-1".into(),
        namespace: "default".into(),
        workload: name.into(),
        service: format!("{name}-svc"),
        labels: (labels.iter())
            .map(|&(k, v)| (k.to_string(), v.to_string()))
            .collect(),
    };
    ResourceInventory {
        pods: vec![
            pod("web", 1, &[("version", "v1"), ("team", "pay")]),
            pod("api", 2, &[("version", "v2")]),
            pod("db", 3, &[]),
        ],
        nodes: vec![NodeResource {
            name: "node-1".into(),
            ip: u32::from(Ipv4Addr::new(192, 168, 0, 1)),
            region: "r1".into(),
            az: "az1".into(),
            vpc: "vpc1".into(),
            subnet: "s1".into(),
            cluster: "c1".into(),
        }],
    }
}

/// Spans of many flows over two seconds with clashing request times (so
/// ties cross shards), on the three pods' IPs and one the inventory does
/// not know, carrying custom tags that share keys with the pods' labels.
/// Every seventh span is an Incomplete request followed, later in the
/// corpus, by the ResponseOnly fragment server-side re-aggregation
/// reunites it with.
fn corpus(seed: u64, n: usize) -> Vec<Span> {
    let mut rng = TestRng::for_case("span-list-differential", seed);
    let tags: [&[(&str, &str)]; 4] = [
        &[],
        &[("version", "canary")],
        &[("env", "prod")],
        &[("team", "ops"), ("version", "v9")],
    ];
    let mut spans = Vec::with_capacity(n);
    let mut fragments = Vec::new();
    for i in 0..n {
        let t = (rng.next_u64() % 100) * 20_000_000;
        let mut s = Span::synthetic(TapSide::ClientProcess, t, t + rng.next_u64() % 3_000_000);
        s.flow_id = FlowId(rng.next_u64() % 16);
        let port = (rng.next_u64() % 1_000) as u16 + 1_024;
        s.five_tuple = FiveTuple::tcp(
            Ipv4Addr::new(10, 0, 0, 9),
            port,
            Ipv4Addr::new(10, 0, 1, 1),
            80,
        );
        s.endpoint = format!("GET /api/{}", rng.next_u64() % 3);
        s.tags.resource.ip = Some(ip((rng.next_u64() % 4) as u8 + 1));
        for &(k, v) in tags[(rng.next_u64() % 4) as usize] {
            s.tags = std::mem::take(&mut s.tags).with_label(k, v);
        }
        if rng.next_u64().is_multiple_of(5) {
            s.status = SpanStatus::ServerError;
        }
        if i % 7 == 0 {
            s.flow_id = FlowId(1_000 + i as u64);
            s.status = SpanStatus::Incomplete;
            let mut frag = s.clone();
            frag.status = SpanStatus::ResponseOnly;
            frag.resp_time = TimeNs(t + 9_000_000);
            fragments.push(frag);
        }
        spans.push(s);
    }
    spans.extend(fragments);
    spans
}

fn queries() -> Vec<SpanQuery> {
    let window = SpanQuery::window(TimeNs(500_000_000), TimeNs(1_500_000_000));
    vec![
        SpanQuery::window(TimeNs(0), TimeNs(u64::MAX)),
        window.clone(),
        SpanQuery {
            errors_only: true,
            ..window.clone()
        },
        SpanQuery {
            endpoint: Some("GET /api/1".into()),
            ..window.clone()
        },
        SpanQuery {
            limit: 7,
            ..window.clone()
        },
        SpanQuery { limit: 0, ..window },
    ]
}

fn matches(q: &SpanQuery, s: &Span) -> bool {
    q.from.is_none_or(|f| s.req_time >= f)
        && q.to.is_none_or(|t| s.req_time < t)
        && (!q.errors_only || s.status.is_error())
        && q.endpoint.as_ref().is_none_or(|e| &s.endpoint == e)
}

/// The plain answer: each matching live span as stored, next to a copy
/// with the dictionary's labels joined in for the keys it lacks.
fn reference(store: &ShardedSpanStore, dict: &TagDictionary, q: &SpanQuery) -> Vec<(Span, Span)> {
    let mut want: Vec<Span> = (store.iter())
        .filter(|s| !store.is_tombstoned(s.span_id) && matches(q, s))
        .map(SpanRef::into_owned)
        .collect();
    want.sort_by_key(|s| (s.req_time, s.span_id));
    want.truncate(q.limit);
    (want.into_iter())
        .map(|stored| {
            let mut joined = stored.clone();
            for (k, v) in stored
                .tags
                .resource
                .ip
                .map_or(&[][..], |ip| dict.labels_for_ip(ip))
            {
                if joined.tags.label(k).is_none() {
                    joined.tags.custom.push((k.clone(), v.clone()));
                }
            }
            (stored, joined)
        })
        .collect()
}

/// Row by row: the lent span is the stored one, and every label reads as
/// in the joined copy.
fn assert_rows_match(rows: &[Listed<'_>], want: &[(Span, Span)]) {
    assert_eq!(rows.len(), want.len());
    for (row, (stored, joined)) in rows.iter().zip(want) {
        assert_eq!(&**row, stored);
        for key in KEYS {
            assert_eq!(row.label(key), joined.tags.label(key), "label {key:?}");
        }
    }
}

/// Ingest `spans` over the wire into a server of `shards` shards and
/// check every query, before and after re-aggregation.
fn assert_server_matches(seed: u64, shards: usize) {
    let mut server = Server::with_policy(&inventory(), ShardPolicy::with_shards(shards));
    for batch in corpus(seed, 240).chunks(50) {
        server
            .ingest_wire(&df_types::wire::encode_batch(batch))
            .expect("valid batch");
    }
    for q in &queries() {
        let want = reference(server.store(), server.dictionary(), q);
        assert_rows_match(&server.span_list(q), &want);
    }
    assert!(server.re_aggregate() > 0, "fragments were tombstoned");
    for q in &queries() {
        let want = reference(server.store(), server.dictionary(), q);
        assert_rows_match(&server.span_list(q), &want);
    }
    // The convenience wrapper is the errors-only list.
    let (from, to) = (TimeNs(0), TimeNs(u64::MAX));
    let errors = SpanQuery {
        errors_only: true,
        ..SpanQuery::window(from, to)
    };
    let want = reference(server.store(), server.dictionary(), &errors);
    assert_rows_match(&server.error_spans(from, to), &want);
}

/// One shard hands back its own answer unmerged; more are merged.
#[test]
fn span_list_matches_the_plain_answer_at_one_four_and_sixteen_shards() {
    assert_server_matches(1, 1);
    assert_server_matches(2, 4);
    assert_server_matches(4, 16);
}

#[test]
fn span_list_matches_the_plain_answer_over_cold_rows() {
    let dir = std::env::temp_dir().join(format!("df-span-list-{}", std::process::id()));
    let dict = TagDictionary::build(&inventory());
    let mut store = ShardedSpanStore::new(ShardPolicy::with_shards(4));
    let mut spans = corpus(3, 240);
    for s in &mut spans {
        dict.enrich(&mut s.tags.resource);
    }
    store.insert_batch(spans);
    store.enable_tiering(TierConfig::new(&dir));
    let spilled = store.spill_before(TimeNs(1_000_000_000)).expect("spill");
    assert!(spilled.spans > 0, "old rows went cold");
    for q in &queries() {
        let rows: Vec<Listed<'_>> = (store.query(q).into_iter())
            .map(|span| Listed {
                labels: (span.tags.resource.ip).map_or(&[][..], |ip| dict.labels_for_ip(ip)),
                span,
            })
            .collect();
        if q.limit > 0 {
            let paged = |r: &Listed<'_>| matches!(r.span, SpanRef::Owned(_));
            assert!(rows.iter().any(paged), "some rows paged in");
        }
        assert_rows_match(&rows, &reference(&store, &dict, q));
    }
    let _ = std::fs::remove_dir_all(&dir);
}
