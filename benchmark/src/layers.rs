//! Per-layer probes of the traced run: each layer's public functions
//! called from outside, on the workload's own corpus, after the reps.
//!
//! The sections timed here last tens of milliseconds, below the 4 ms
//! on-CPU tick's resolution, so they are timed on the wall clock and each
//! number is the median of [`PASSES`] passes. Counts come from the layers'
//! own public counters and repeat exactly for a seed.

use crate::corpus;
use crate::run::Metrics;
use crate::stats::{median, percentile};
use crate::workloads::{list_window, Inputs, BULK_BATCH, LIVE_BATCH};
use deepflow::kernel::hooks::KernelEvent;
use deepflow::mesh::apps::standard_taps;
use deepflow::mesh::World;
use deepflow::net::{ElementId, TapKind};
use deepflow::protocols::{infer_protocol, parse_message};
use deepflow::server::assemble::AssembleConfig;
use deepflow::server::sharded::{assemble_trace_sharded, ShardedSpanStore};
use deepflow::server::Server;
use deepflow::storage::{ShardPolicy, SpanQuery, SpanStore};
use deepflow::types::span::Span;
use deepflow::types::{wire, SpanId};
use deepflow::Deployment;
use rand::Rng;
use std::time::Instant;

const PASSES: usize = 5;

/// Requests of one front-half probe pass: half a virtual second.
const PROBE_REQUESTS: u64 = 200;

/// Probe at most this much of the corpus (`wire_ingest` holds twice it).
const PROBE_SPANS: usize = 100_000;

/// Starts the read-side probes query.
const PROBE_STARTS: usize = 512;

/// Starts cycled to overflow the 1 024-entry trace cache.
const THRASH_SET: usize = 2048;

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_nanos() as f64)
}

fn median_of(mut pass: impl FnMut() -> f64) -> f64 {
    median(&(0..PASSES).map(|_| pass()).collect::<Vec<f64>>())
}

pub fn probe(inputs: &Inputs, m: &mut Metrics) {
    front_half(inputs.rate, m);
    protocols(inputs.rate, m);
    let spans = &inputs.corpus[..inputs.corpus.len().min(PROBE_SPANS)];
    let live: Vec<Vec<u8>> = spans.chunks(LIVE_BATCH).map(wire::encode_batch).collect();
    let bulk: Vec<Vec<u8>> = spans.chunks(BULK_BATCH).map(wire::encode_batch).collect();
    wire_codec(spans, &live, m);
    dictionary(inputs, &live, m);
    let queries = list_queries(inputs);
    stores(spans, &queries, m);
    server(inputs, spans, &live, &bulk, &queries, m);
}

/// df-mesh, df-kernel, df-net and df-agent: `World::run_until` with the
/// hooks attached against the same world un-instrumented (Fig. 13's
/// subtraction), and `Agent::poll` on what the hooked world produced.
fn front_half(rate: f64, m: &mut Metrics) {
    let (mut hooked_ns, mut bare_ns, mut poll_ns) = (Vec::new(), Vec::new(), Vec::new());
    let mut last = None;
    for _ in 0..PASSES {
        let (mut world, _) = corpus::bookinfo(rate, PROBE_REQUESTS);
        let mut df = Deployment::install(&mut world).expect("hook programs verify");
        let (mut sim, mut poll) = (0.0, 0.0);
        let mut batch_sizes: Vec<f64> = Vec::new();
        for now in corpus::poll_times(rate, PROBE_REQUESTS) {
            sim += timed(|| world.run_until(now)).1;
            for (node, agent) in df.agents.iter_mut() {
                let kernel = world
                    .kernels
                    .get_mut(node)
                    .expect("agent node has a kernel");
                let (out, ns) = timed(|| agent.poll(kernel, &mut world.fabric, now));
                poll += ns;
                if !out.is_empty() {
                    batch_sizes.push(out.len() as f64);
                }
            }
        }
        hooked_ns.push(sim);
        poll_ns.push(poll);
        last = Some((world, df, batch_sizes));

        let (mut bare, _) = corpus::bookinfo(rate, PROBE_REQUESTS);
        bare_ns.push(
            corpus::poll_times(rate, PROBE_REQUESTS)
                .map(|now| timed(|| bare.run_until(now)).1)
                .sum(),
        );
    }
    // Counts repeat exactly, so the last pass speaks for all.
    let (world, df, batch_sizes) = last.expect("PASSES > 0");
    let agents = df.agent_stats();
    let spans = batch_sizes.iter().sum::<f64>().max(1.0);
    m.insert("df-mesh.sim_cpu_ns_per_span", median(&hooked_ns) / spans);
    m.insert(
        "df-mesh.requests_completed",
        world.clients.iter().map(|c| c.completed).sum::<u64>() as f64,
    );
    m.insert(
        "df-kernel.hook_cpu_ns_per_span",
        (median(&hooked_ns) - median(&bare_ns)) / spans,
    );
    m.insert(
        "df-kernel.ring_events",
        world
            .kernels
            .values()
            .map(|k| k.hooks.ring.pushed())
            .sum::<u64>() as f64,
    );
    m.insert(
        "df-kernel.ring_dropped",
        world
            .kernels
            .values()
            .map(|k| k.hooks.ring.dropped())
            .sum::<u64>() as f64,
    );
    m.insert("df-net.tap_packets", tap_packets(&world) as f64);
    m.insert("df-agent.poll_cpu_ns_per_span", median(&poll_ns) / spans);
    m.insert(
        "df-agent.spans_per_message",
        spans / agents.messages.max(1) as f64,
    );
    m.insert(
        "df-agent.incomplete_share",
        agents.incomplete_spans as f64 / spans,
    );
    m.insert(
        "df-agent.out_of_window_share",
        agents.out_of_window as f64 / spans,
    );
    m.insert("df-agent.batch_spans_p50", median(&batch_sizes));
}

/// Frames the standard taps matched, from the fabric's own counters.
fn tap_packets(world: &World) -> u64 {
    standard_taps(world)
        .iter()
        .filter_map(|(node, _, kind, local)| {
            let element = match kind {
                TapKind::NodeNic => ElementId::NodeNic(*node),
                TapKind::PodVeth => ElementId::PodVeth(*local.iter().next()?),
                _ => return None,
            };
            world
                .fabric
                .taps
                .stats(&element)
                .map(|(_, matched)| matched)
        })
        .sum()
}

/// df-protocols: `infer_protocol` and `parse_message` over the payloads
/// the hooks captured, drained from the perf rings by the harness itself.
fn protocols(rate: f64, m: &mut Metrics) {
    let mut payloads: Vec<Vec<u8>> = Vec::new();
    let (mut world, _) = corpus::bookinfo(rate, PROBE_REQUESTS);
    let _df = Deployment::install(&mut world).expect("hook programs verify");
    for now in corpus::poll_times(rate, PROBE_REQUESTS) {
        world.run_until(now);
        for kernel in world.kernels.values_mut() {
            for event in kernel.hooks.ring.drain_all() {
                if let KernelEvent::Message(msg) = event {
                    payloads.push(msg.syscall.payload.to_vec());
                }
            }
        }
    }
    let n = payloads.len().max(1) as f64;
    let inferred: Vec<_> = payloads.iter().map(|p| infer_protocol(p)).collect();
    m.insert(
        "df-protocols.unclassified_share",
        inferred.iter().filter(|p| p.is_none()).count() as f64 / n,
    );
    m.insert(
        "df-protocols.infer_ns_per_msg",
        median_of(|| {
            timed(|| {
                for p in &payloads {
                    std::hint::black_box(infer_protocol(std::hint::black_box(p)));
                }
            })
            .1 / n
        }),
    );
    m.insert(
        "df-protocols.parse_ns_per_msg",
        median_of(|| {
            timed(|| {
                for (p, proto) in payloads.iter().zip(&inferred) {
                    if let Some(proto) = proto {
                        std::hint::black_box(parse_message(*proto, std::hint::black_box(p)));
                    }
                }
            })
            .1 / n
        }),
    );
}

/// df-types.wire on the workload's 512-span batches.
fn wire_codec(spans: &[Span], live: &[Vec<u8>], m: &mut Metrics) {
    let n = spans.len().max(1) as f64;
    m.insert(
        "df-types.wire.encode_ns_per_span",
        median_of(|| {
            timed(|| {
                for chunk in spans.chunks(LIVE_BATCH) {
                    std::hint::black_box(wire::encode_batch(chunk));
                }
            })
            .1 / n
        }),
    );
    m.insert(
        "df-types.wire.decode_ns_per_span",
        median_of(|| {
            timed(|| {
                for b in live {
                    std::hint::black_box(wire::decode_batch(b).expect("own batch decodes").len());
                }
            })
            .1 / n
        }),
    );
    let mut dict_entries = 0usize;
    m.insert(
        "df-types.wire.parse_header_ns_per_batch",
        median_of(|| {
            dict_entries = 0;
            timed(|| {
                for b in live {
                    dict_entries += wire::WireBatch::parse(b)
                        .expect("own batch parses")
                        .dict()
                        .len();
                }
            })
            .1 / live.len().max(1) as f64
        }),
    );
    m.insert(
        "df-types.wire.dict_entries_per_batch",
        dict_entries as f64 / live.len().max(1) as f64,
    );
}

/// df-server.dictionary: `TagDictionary::enrich` over decoded spans.
fn dictionary(inputs: &Inputs, live: &[Vec<u8>], m: &mut Metrics) {
    let server = Server::new(&inputs.inventory);
    let dict = server.dictionary();
    let mut enriched = 0usize;
    let mut total = 0usize;
    let ns = median_of(|| {
        let mut decoded: Vec<Span> = live
            .iter()
            .flat_map(|b| wire::decode_batch(b).expect("own batch decodes"))
            .collect();
        let ns = timed(|| {
            for s in &mut decoded {
                dict.enrich(&mut s.tags.resource);
            }
        })
        .1;
        total = decoded.len();
        enriched = decoded
            .iter()
            .filter(|s| s.tags.resource.is_enriched())
            .count();
        ns / total.max(1) as f64
    });
    m.insert("df-server.dictionary.enrich_ns_per_span", ns);
    m.insert(
        "df-server.dictionary.enriched_share",
        enriched as f64 / total.max(1) as f64,
    );
}

/// The first 64 of the workload's own span-list queries.
fn list_queries(inputs: &Inputs) -> Vec<SpanQuery> {
    let width = list_window(inputs.rate);
    inputs
        .windows
        .iter()
        .take(64)
        .map(|&from| SpanQuery::window(from, from + width))
        .collect()
}

/// df-server.sharded and df-storage.store: `insert_batch` and `query`.
fn stores(spans: &[Span], queries: &[SpanQuery], m: &mut Metrics) {
    let n = spans.len().max(1) as f64;
    let chunks = || -> Vec<Vec<Span>> { spans.chunks(LIVE_BATCH).map(<[Span]>::to_vec).collect() };
    let mut sharded = ShardedSpanStore::new(ShardPolicy::default());
    m.insert(
        "df-server.sharded.insert_batch_ns_per_span",
        median_of(|| {
            sharded = ShardedSpanStore::new(ShardPolicy::default());
            let input = chunks();
            timed(|| {
                for c in input {
                    sharded.insert_batch(c);
                }
            })
            .1 / n
        }),
    );
    let sizes = sharded.shard_sizes();
    let mean = sizes.iter().sum::<usize>() as f64 / sizes.len().max(1) as f64;
    m.insert(
        "df-server.sharded.shard_skew",
        sizes.iter().copied().max().unwrap_or(0) as f64 / mean.max(1.0),
    );
    m.insert(
        "df-server.sharded.routing_clamped",
        sharded.routing_clamped() as f64,
    );

    let mut first_sort = Vec::new();
    let mut per_row = Vec::new();
    m.insert(
        "df-storage.store.insert_batch_ns_per_span",
        median_of(|| {
            let mut store = SpanStore::new();
            let input = chunks();
            let ns = timed(|| {
                for c in input {
                    store.insert_batch(c);
                }
            })
            .1;
            // The first query after a bulk load pays the deferred
            // time-index sort; the same query again does not.
            let first = timed(|| store.query(&queries[0]).len()).1;
            let again = timed(|| store.query(&queries[0]).len()).1;
            first_sort.push((first - again) / 1e6);
            let (rows, scan) =
                timed(|| queries.iter().map(|q| store.query(q).len()).sum::<usize>());
            per_row.push(scan / rows.max(1) as f64);
            ns / n
        }),
    );
    m.insert("df-storage.store.first_query_sort_ms", median(&first_sort));
    m.insert("df-storage.store.query_ns_per_row", median(&per_row));
}

fn load(inputs: &Inputs, batches: &[Vec<u8>]) -> (Server, Vec<SpanId>, Vec<f64>) {
    let mut server = Server::new(&inputs.inventory);
    let mut ids = Vec::new();
    let per_batch = batches
        .iter()
        .map(|b| {
            let (new, ns) = timed(|| server.ingest_wire(b).expect("own batch decodes"));
            ids.extend(new);
            ns
        })
        .collect();
    (server, ids, per_batch)
}

/// df-server.server, df-server.assemble and df-server.trace_cache on a
/// server preloaded with the corpus.
fn server(
    inputs: &Inputs,
    spans: &[Span],
    live: &[Vec<u8>],
    bulk: &[Vec<u8>],
    queries: &[SpanQuery],
    m: &mut Metrics,
) {
    let n = spans.len().max(1) as f64;
    m.insert(
        "df-server.server.ingest_wire_ns_per_span_10k",
        median_of(|| load(inputs, bulk).2.iter().sum::<f64>() / n),
    );
    let mut growth = Vec::new();
    let mut loaded = None;
    m.insert(
        "df-server.server.ingest_wire_ns_per_span_512",
        median_of(|| {
            let (server, ids, per_batch) = load(inputs, live);
            // Full batches only, so that quarters hold equal span counts.
            let full = &per_batch[..spans.len() / LIVE_BATCH];
            let q = (full.len() / 4).max(1);
            growth.push(full[full.len() - q..].iter().sum::<f64>() / full[..q].iter().sum::<f64>());
            loaded = Some((server, ids));
            per_batch.iter().sum::<f64>() / n
        }),
    );
    m.insert("df-server.server.ingest_growth_ratio", median(&growth));
    let (mut server, ids) = loaded.expect("at least one pass ran");

    // Distinct usable starts, seeded.
    let mut rng = corpus::rng(inputs.seed, 0x9a7e);
    let mut taken = vec![false; spans.len()];
    let mut starts = Vec::with_capacity(THRASH_SET);
    while starts.len() < THRASH_SET.min(spans.len() / 2) {
        let p = rng.gen_range(0..spans.len());
        if crate::workloads::usable_start(&spans[p]) && !std::mem::replace(&mut taken[p], true) {
            starts.push(ids[p]);
        }
    }
    let cfg = AssembleConfig::default();
    let probe_starts = &starts[..PROBE_STARTS.min(starts.len())];

    // Bare Algorithm 1 first, then the same starts through the server's
    // cache-miss path, then again as hits.
    let mut trace_spans = 0usize;
    let bare: Vec<f64> = probe_starts
        .iter()
        .map(|&s| {
            let (t, ns) = timed(|| assemble_trace_sharded(server.store(), s, &cfg));
            trace_spans += t.len();
            ns / 1e3
        })
        .collect();
    let miss: Vec<f64> = probe_starts
        .iter()
        .map(|&s| timed(|| server.trace(s).len()).1 / 1e3)
        .collect();
    let hit: Vec<f64> = probe_starts
        .iter()
        .map(|&s| timed(|| server.trace(s).len()).1 / 1e3)
        .collect();
    m.insert("df-server.assemble.cold_us_p50", median(&bare));
    m.insert("df-server.assemble.cold_us_p99", percentile(&bare, 0.99));
    m.insert(
        "df-server.assemble.ns_per_trace_span",
        bare.iter().sum::<f64>() * 1e3 / trace_spans.max(1) as f64,
    );
    m.insert(
        "df-server.assemble.spans_per_trace_mean",
        trace_spans as f64 / probe_starts.len().max(1) as f64,
    );
    m.insert(
        "df-server.server.trace_overhead_us",
        median(&miss) - median(&bare),
    );
    m.insert("df-server.trace_cache.hit_us_p50", median(&hit));

    // A start set twice the cache, cycled twice: FIFO eviction makes the
    // second cycle miss on every start.
    for &s in &starts {
        std::hint::black_box(server.trace(s).len());
    }
    let thrash: Vec<f64> = starts
        .iter()
        .map(|&s| timed(|| server.trace(s).len()).1 / 1e3)
        .collect();
    m.insert(
        "df-server.trace_cache.thrash_requery_us_p50",
        median(&thrash),
    );

    let (mut rows, mut list_ns) = (0usize, 0.0);
    for q in queries {
        let (got, ns) = timed(|| server.span_list(q).len());
        rows += got;
        list_ns += ns;
    }
    m.insert(
        "df-server.server.span_list_ns_per_row",
        list_ns / rows.max(1) as f64,
    );

    let (reunited, ns) = timed(|| server.re_aggregate());
    m.insert("df-server.server.re_aggregate_ms", ns / 1e6);
    m.insert("df-server.server.reunited_per_pass", reunited as f64);
}
