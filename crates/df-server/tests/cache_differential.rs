//! Differential test of the trace cache's check: whatever was ingested,
//! tombstoned, completed or evicted since an entry was cached, and however
//! far from it in time, a trace query equals a fresh Algorithm 1 over the
//! same store. Key values come from small domains, so a batch shares the
//! cached traces' keys or not: both the revalidating and the invalidating
//! arm fire for each seed.

use df_server::sharded::assemble_trace_sharded;
use df_server::{AssembleConfig, ConcurrentShardedStore, Server, ServerStats};
use df_storage::ShardPolicy;
use df_types::ids::{FlowId, PseudoThreadId, SysTraceId, XRequestId};
use df_types::span::{SpanStatus, TapSide};
use df_types::tags::ResourceInventory;
use df_types::trace::Trace;
use df_types::{Span, SpanId, TimeNs};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn view(t: &Trace) -> Vec<(SpanId, Option<SpanId>, SpanStatus, TimeNs)> {
    let row = |s: &df_types::trace::AssembledSpan| {
        (s.span.span_id, s.parent, s.span.status, s.span.resp_time)
    };
    t.spans.iter().map(row).collect()
}

/// A span within one second, its keys drawn from `0..domain`, now and
/// then half a session for re-aggregation to reunite.
fn span(rng: &mut SmallRng, domain: u64) -> Span {
    let mut draw = |n: u64| rng.gen_range(0..n);
    let t = 1_000_000_000 + draw(900_000_000);
    let side = [TapSide::ClientProcess, TapSide::ServerProcess][draw(2) as usize];
    let mut s = Span::synthetic(side, t, t + draw(9_000));
    s.flow_id = FlowId(draw(4));
    s.five_tuple.src_port += draw(8) as u16; // spread over the shards
    s.tcp_seq_req = (draw(10) < 7).then(|| draw(domain) as u32);
    s.systrace_id_req = (draw(10) < 4).then(|| SysTraceId(draw(domain)));
    s.pseudo_thread_id = (draw(10) < 2).then(|| PseudoThreadId(draw(domain)));
    match draw(8) {
        0 => s.status = SpanStatus::Incomplete,
        1 => {
            s.status = SpanStatus::ResponseOnly;
            s.x_request_id_resp = Some(XRequestId(draw(domain).into()));
        }
        _ => {}
    }
    s
}

/// Mostly one of the first 16 spans, so cached starts are asked again.
fn pick(rng: &mut SmallRng, ids: &[SpanId]) -> SpanId {
    let hot = rng.gen_bool(0.7);
    ids[rng.gen_range(0..if hot { ids.len().min(16) } else { ids.len() })]
}

/// Replay what re-aggregation did to the server's corpus on the concurrent
/// store: a merged span carries exactly the response fields a completion
/// copies, so it serves as its own late response.
fn mirror_edits(srv: &Server, store: &ConcurrentShardedStore, ids: &[SpanId]) {
    store.flush();
    for &id in ids {
        let theirs = srv.store().get(id).expect("ingested").into_owned();
        if srv.store().is_tombstoned(id) {
            store.tombstone(id);
        } else if store.get(id).expect("flushed").status != theirs.status {
            store.complete_span(id, theirs);
        }
    }
    store.flush();
    store.evict_tombstoned();
}

/// One corpus through both stacks; `[server, concurrent]` counters.
fn run(seed: u64, domain: u64, cfg: &AssembleConfig) -> [ServerStats; 2] {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut srv = Server::new(&ResourceInventory::default());
    let mut store = ConcurrentShardedStore::new(ShardPolicy::default());
    srv.set_assemble_config(cfg.clone());
    store.set_assemble_config(cfg.clone());
    let mut ids = Vec::new();
    for step in 0..40 {
        let batch: Vec<Span> = (0..rng.gen_range(1..=12usize))
            .map(|_| span(&mut rng, domain))
            .collect();
        store.insert_batch(batch.clone());
        ids.extend(srv.ingest_batch(batch));
        if step % 4 == 3 {
            srv.re_aggregate(); // completions, tombstones, eviction
        }
        mirror_edits(&srv, &store, &ids);
        for _ in 0..6 {
            let start = pick(&mut rng, &ids);
            let fresh = view(&assemble_trace_sharded(srv.store(), start, cfg));
            let at = format!("seed {seed} domain {domain} step {step} {start:?}");
            assert_eq!(view(&srv.trace(start)), fresh, "server, {at}");
            let served = store.query_trace(start);
            assert_eq!(view(&served), fresh, "concurrent, {at}");
        }
    }
    [srv.stats(), store.stats()]
}

#[test]
fn cached_traces_equal_fresh_assembly_after_every_step() {
    let capped = |max_spans, iterations| AssembleConfig {
        max_spans,
        iterations,
        ..AssembleConfig::default()
    };
    for seed in 1..=4 {
        let mut fired = [(0, 0); 2]; // (revalidations, invalidations) per stack
        for domain in [6, 30, 200, 5_000] {
            let stats = run(seed, domain, &AssembleConfig::default());
            for (sum, st) in fired.iter_mut().zip(stats) {
                let served = st.cache_hits + st.cache_misses + st.cache_invalidations;
                assert_eq!(st.trace_queries, served, "{st:?}");
                sum.0 += st.cache_revalidations;
                sum.1 += st.cache_invalidations;
            }
            // A search that stops at a cap records no facts.
            run(seed, domain, &capped(5, 30));
            run(seed, domain, &capped(10_000, 1));
        }
        let both = fired.iter().all(|&(kept, dropped)| kept > 0 && dropped > 0);
        assert!(both, "seed {seed}: an arm never fired: {fired:?}");
    }
}

/// The cancelling case: a member is tombstoned and evicted, then a span
/// sharing its key arrives — the posting total is back at the recorded
/// value and only the edit count says the lists changed.
#[test]
fn an_eviction_and_an_insert_that_cancel_in_the_posting_total_still_invalidate() {
    let mut srv = Server::new(&ResourceInventory::default());
    let on_thread = |side, req, resp| {
        let mut s = Span::synthetic(side, req, resp);
        s.pseudo_thread_id = Some(PseudoThreadId(7));
        s
    };
    let start = srv.ingest(on_thread(TapSide::ServerProcess, 1_000, 9_000));
    let mut request = Span::synthetic(TapSide::ClientProcess, 2_000, 2_000);
    request.status = SpanStatus::Incomplete;
    srv.ingest(request);
    let mut fragment = on_thread(TapSide::ClientProcess, 2_000, 3_000);
    fragment.status = SpanStatus::ResponseOnly;
    srv.ingest(fragment);
    assert_eq!(srv.trace(start).len(), 2, "the start and the fragment");
    assert_eq!(srv.re_aggregate(), 1, "merged, tombstoned, evicted");
    let late = srv.ingest(on_thread(TapSide::ClientProcess, 4_000, 5_000));
    let members: Vec<SpanId> = view(&srv.trace(start)).iter().map(|m| m.0).collect();
    assert_eq!(
        members,
        [late, start],
        "the fragment went, the late one came"
    );
    assert_eq!(srv.stats().cache_invalidations, 1);
}

/// A span sharing the cached trace's TCP sequence number four seconds
/// after it — far outside any time window around the trace — is still a
/// member, on both stacks.
#[test]
fn a_span_sharing_a_key_seconds_later_joins_the_cached_trace() {
    let mut srv = Server::new(&ResourceInventory::default());
    let store = ConcurrentShardedStore::new(ShardPolicy::default());
    let on_seq_7 = |side, req: u64| {
        let mut s = Span::synthetic(side, req, req + 500);
        s.tcp_seq_req = Some(7);
        s
    };
    let pair = vec![
        on_seq_7(TapSide::ClientProcess, 1_000_000_000),
        on_seq_7(TapSide::ServerProcess, 1_000_000_010),
    ];
    store.insert_batch(pair.clone());
    let start = srv.ingest_batch(pair)[0];
    store.flush();
    assert_eq!(srv.trace(start).len(), 2);
    assert_eq!(store.query_trace(start).len(), 2);

    let late = on_seq_7(TapSide::ServerPodNic, 5_000_000_000);
    store.insert_batch(vec![late.clone()]);
    srv.ingest(late);
    store.flush();
    let fresh = view(&assemble_trace_sharded(
        srv.store(),
        start,
        &AssembleConfig::default(),
    ));
    assert_eq!(fresh.len(), 3, "Algorithm 1 joins the late span");
    assert_eq!(view(&srv.trace(start)), fresh, "server");
    assert_eq!(view(&store.query_trace(start)), fresh, "concurrent");
    for st in [srv.stats(), store.stats()] {
        assert_eq!(st.cache_invalidations, 1, "{st:?}");
    }
}
