//! Criterion microbench for Algorithm 1: assembly cost as the trace's span
//! count grows (synthetic chains) and as the store grows (noise spans), plus
//! production-scale traces (1k/10k/100k spans) built from capture-ladder
//! exchanges arranged as fan-out trees and deep call chains.
//!
//! The `*_scale` groups bench the frontier driver (`new` — `assemble_trace`,
//! the one-shard call of the same `assemble_with` every sharded, threaded
//! and cluster query runs) against the full-rescan reference oracle
//! (`reference`) on identical stores, so the speedup of the indexed path
//! can be read straight off one run.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use deepflow::server::assemble::{assemble_trace, assemble_trace_reference, AssembleConfig};
use deepflow::server::sharded::{assemble_trace_sharded, ShardedSpanStore};
use deepflow::server::trace_cache::{CacheOutcome, TraceCache};
use deepflow::storage::{ShardPolicy, SpanStore};
use df_bench::corpus::{exchange_tree, fanout, push_exchange, scale_cfg, span};
use df_types::ids::*;
use df_types::span::TapSide;

/// Build a store containing one `depth`-hop call chain (client+server span
/// per hop, linked by systrace ids and TCP sequences) plus `noise`
/// unrelated spans.
fn build_store(depth: u64, noise: u64) -> (SpanStore, SpanId) {
    let mut st = SpanStore::new();
    let mut first = None;
    for hop in 0..depth {
        let base = hop * 100;
        let mut server = span(TapSide::ServerProcess, base, base + 1000);
        server.tcp_seq_req = Some(10_000 + hop as u32);
        server.systrace_id_req = Some(SysTraceId(hop + 1));
        server.systrace_id_resp = Some(SysTraceId(1_000_000 + hop));
        let id = st.insert(server);
        first.get_or_insert(id);
        if hop + 1 < depth {
            let mut client = span(TapSide::ClientProcess, base + 10, base + 990);
            client.tcp_seq_req = Some(10_000 + hop as u32 + 1);
            client.systrace_id_req = Some(SysTraceId(hop + 1)); // chains to server
            client.systrace_id_resp = Some(SysTraceId(1_000_000 + hop));
            st.insert(client);
        }
    }
    for i in 0..noise {
        let mut s = span(TapSide::ServerProcess, 1_000_000 + i, 1_000_500 + i);
        s.tcp_seq_req = Some(2_000_000 + i as u32);
        s.systrace_id_req = Some(SysTraceId(3_000_000 + i));
        st.insert(s);
    }
    (st, first.unwrap())
}

/// One [`exchange_tree`] trace in a single store. Returns the store, the
/// root span to start assembly from, and the total span count.
fn build_exchange_tree(branching: usize, levels: usize) -> (SpanStore, SpanId, usize) {
    let spans = exchange_tree(branching, levels);
    let total = spans.len();
    let mut st = SpanStore::new();
    let ids = st.insert_batch(spans);
    (st, ids[0], total)
}

/// Fan-out trees (branching 10): ~1k, ~10k and ~100k spans per trace.
fn bench_trace_scale_fanout(c: &mut Criterion) {
    let cfg = scale_cfg();
    let mut group = c.benchmark_group("alg1_scale_fanout");
    for (label, levels) in [("1k", 3), ("10k", 4), ("100k", 5)] {
        let (st, start, total) = build_exchange_tree(10, levels);
        assert_eq!(
            assemble_trace(&st, start, &cfg).len(),
            total,
            "scale bench trace must cover the whole store"
        );
        group.throughput(Throughput::Elements(total as u64));
        group.bench_with_input(BenchmarkId::new("new", label), &levels, |b, _| {
            b.iter(|| assemble_trace(&st, start, &cfg))
        });
        group.bench_with_input(BenchmarkId::new("reference", label), &levels, |b, _| {
            b.iter(|| assemble_trace_reference(&st, start, &cfg))
        });
    }
    group.finish();
}

/// Deep call chains (branching 1): 100, 1k and 10k exchanges end to end.
/// The reference oracle is omitted at 100k spans — its re-scan Phase 1
/// revisits the whole growing set on each of ~20k iterations and takes
/// minutes, which is exactly the pathology the frontier rewrite removes.
fn bench_trace_scale_chain(c: &mut Criterion) {
    let cfg = scale_cfg();
    let mut group = c.benchmark_group("alg1_scale_chain");
    for (label, levels, run_reference) in [
        ("1k", 100, true),
        ("10k", 1_000, true),
        ("100k", 10_000, false),
    ] {
        let (st, start, total) = build_exchange_tree(1, levels);
        assert_eq!(
            assemble_trace(&st, start, &cfg).len(),
            total,
            "scale bench trace must cover the whole store"
        );
        group.throughput(Throughput::Elements(total as u64));
        group.bench_with_input(BenchmarkId::new("new", label), &levels, |b, _| {
            b.iter(|| assemble_trace(&st, start, &cfg))
        });
        if run_reference {
            group.bench_with_input(BenchmarkId::new("reference", label), &levels, |b, _| {
                b.iter(|| assemble_trace_reference(&st, start, &cfg))
            });
        }
    }
    group.finish();
}

/// Ingest path: per-span `insert` vs the deferred-sort `insert_batch`.
fn bench_ingest(c: &mut Criterion) {
    let mut group = c.benchmark_group("alg1_ingest");
    for (label, levels) in [("10k", 4), ("100k", 5)] {
        let mut template = Vec::new();
        let mut key = 1u64;
        let mut seq = 1u32;
        for level in 0..levels {
            for _ in 0..10usize.pow(level as u32) {
                push_exchange(&mut template, seq, key, key + 1, u128::from(seq));
                key += 2;
                seq += 1;
            }
        }
        group.throughput(Throughput::Elements(template.len() as u64));
        group.bench_with_input(BenchmarkId::new("insert", label), &levels, |b, _| {
            b.iter(|| {
                let mut st = SpanStore::new();
                for s in template.clone() {
                    st.insert(s);
                }
                st.len()
            })
        });
        group.bench_with_input(BenchmarkId::new("insert_batch", label), &levels, |b, _| {
            b.iter(|| {
                let mut st = SpanStore::new();
                st.insert_batch(template.clone());
                st.len()
            })
        });
    }
    group.finish();
}

/// Cross-shard assembly at 1, 4 and 16 shards over the same ~10k-span
/// corpus (flows spread so routing disperses spans). The 1-shard run reads
/// as the sharding overhead against `alg1_scale_fanout/new/10k`; the wider
/// runs show the cost of probing every shard per frontier key.
fn bench_sharded_assembly(c: &mut Criterion) {
    let cfg = scale_cfg();
    let template = fanout(4);
    let total = template.len();
    let mut group = c.benchmark_group("alg1_sharded");
    group.throughput(Throughput::Elements(total as u64));
    for shards in [1usize, 4, 16] {
        let mut st = ShardedSpanStore::new(ShardPolicy::with_shards(shards));
        let ids = st.insert_batch(template.clone());
        let start = ids[0];
        assert_eq!(
            assemble_trace_sharded(&st, start, &cfg).len(),
            total,
            "sharded bench trace must cover the whole corpus"
        );
        group.bench_with_input(BenchmarkId::from_parameter(shards), &shards, |b, _| {
            b.iter(|| assemble_trace_sharded(&st, start, &cfg))
        });
    }
    group.finish();
}

/// Warm-vs-cold trace cache over the 10k-span corpus: `cold` runs the full
/// cross-shard Algorithm 1 every iteration; `warm` repeats the same query
/// against a valid cache entry (an `Arc` clone after generation checks).
/// The setup asserts the warm path is ≥10× faster — the cache's reason to
/// exist — so a regression fails the bench smoke run, not just the charts.
fn bench_trace_cache(c: &mut Criterion) {
    let cfg = scale_cfg();
    let template = fanout(4);
    let total = template.len();
    let mut st = ShardedSpanStore::new(ShardPolicy::with_shards(4));
    let ids = st.insert_batch(template);
    let start = ids[0];
    let mut cache = TraceCache::new();
    let trace = assemble_trace_sharded(&st, start, &cfg);
    assert_eq!(trace.len(), total);
    cache.store(start, trace, &st);

    // Sanity: warm ≥10× cold (acceptance criterion), measured coarsely.
    let t0 = std::time::Instant::now();
    for _ in 0..5 {
        std::hint::black_box(assemble_trace_sharded(&st, start, &cfg));
    }
    let cold = t0.elapsed();
    let t1 = std::time::Instant::now();
    for _ in 0..5 {
        match cache.lookup(start, &st) {
            CacheOutcome::Hit(t) => std::hint::black_box(t.len()),
            _ => panic!("cache entry must stay valid: store unmutated"),
        };
    }
    let warm = t1.elapsed();
    assert!(
        warm * 10 <= cold,
        "warm cache hit must be ≥10× faster than cold assembly: warm={warm:?} cold={cold:?}"
    );

    let mut group = c.benchmark_group("alg1_trace_cache");
    group.throughput(Throughput::Elements(total as u64));
    group.bench_function("cold", |b| {
        b.iter(|| assemble_trace_sharded(&st, start, &cfg))
    });
    group.bench_function("warm", |b| {
        b.iter(|| match cache.lookup(start, &st) {
            CacheOutcome::Hit(t) => t.len(),
            _ => unreachable!("store unmutated"),
        })
    });
    group.finish();
}

fn bench_assembly(c: &mut Criterion) {
    let cfg = AssembleConfig::default();
    let mut group = c.benchmark_group("alg1_chain_depth");
    for depth in [4u64, 16, 64, 256] {
        let (st, start) = build_store(depth, 1_000);
        group.bench_with_input(BenchmarkId::from_parameter(depth), &depth, |b, _| {
            b.iter(|| assemble_trace(&st, start, &cfg))
        });
    }
    group.finish();

    let mut group = c.benchmark_group("alg1_store_noise");
    for noise in [1_000u64, 10_000, 100_000] {
        let (st, start) = build_store(16, noise);
        group.bench_with_input(BenchmarkId::from_parameter(noise), &noise, |b, _| {
            b.iter(|| assemble_trace(&st, start, &cfg))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_assembly,
    bench_trace_scale_fanout,
    bench_trace_scale_chain,
    bench_sharded_assembly,
    bench_trace_cache,
    bench_ingest
);
criterion_main!(benches);
