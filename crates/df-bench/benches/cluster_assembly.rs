//! Criterion microbench for distributed trace assembly
//! (`deepflow::cluster`): Algorithm 1 run across 1, 2 and 4 simulated
//! trace-server nodes — every cross-shard probe a framed RPC over the
//! df-net fabric — against the in-process sharded assembly as the
//! baseline. Also measures ingest with span-batch shipping to remote
//! shard owners.
//!
//! The interesting number is the *overhead shape*: the distributed
//! protocol pays JSON framing + simulated hops + per-round RPC fan-out,
//! so it must stay within a small constant factor of the local path
//! (assembly rounds are batched per round, not per key — paper §4.2's
//! candidate-set batching), not fall off a cliff.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use deepflow::cluster::{Cluster, ClusterConfig};
use deepflow::server::sharded::{assemble_trace_sharded, ShardedSpanStore};
use deepflow::storage::ShardPolicy;
use df_bench::corpus::{fanout, scale_cfg};
use df_types::span::Span;

fn build_cluster(nodes: usize, spans: &[Span]) -> (Cluster, deepflow::types::SpanId) {
    build_cluster_rf(nodes, 1, spans)
}

fn build_cluster_rf(nodes: usize, rf: usize, spans: &[Span]) -> (Cluster, deepflow::types::SpanId) {
    let mut cluster = Cluster::new(ClusterConfig {
        nodes,
        policy: ShardPolicy::with_shards(4),
        assemble: scale_cfg(),
        replication_factor: rf,
        ..ClusterConfig::default()
    });
    let mut start = None;
    for chunk in spans.chunks(512) {
        let ids = cluster.ingest(chunk.to_vec());
        start.get_or_insert(ids[0]);
    }
    (cluster, start.expect("non-empty corpus"))
}

/// Distributed assembly at 1/2/4 nodes vs the in-process sharded
/// baseline, on a ~1.1k-span corpus.
fn bench_cluster_assembly(c: &mut Criterion) {
    let spans = fanout(3);
    let total = spans.len();
    let cfg = scale_cfg();

    // Local baseline + ground truth.
    let mut local = ShardedSpanStore::new(ShardPolicy::with_shards(4));
    let ids = local.insert_batch(spans.clone());
    let expected = assemble_trace_sharded(&local, ids[0], &cfg);
    assert_eq!(expected.len(), total, "corpus must assemble fully");

    let mut group = c.benchmark_group("cluster_assembly_1k");
    group.throughput(Throughput::Elements(total as u64));
    group.bench_function("local_sharded", |b| {
        b.iter(|| assemble_trace_sharded(&local, ids[0], &cfg).len())
    });
    for nodes in [1usize, 2, 4] {
        let (mut cluster, start) = build_cluster(nodes, &spans);
        // Correctness once, outside the measurement loop: the
        // distributed answer is the local answer.
        let result = cluster.assemble(start);
        assert!(result.is_complete());
        assert_eq!(result.trace, expected, "distributed assembly diverged");
        group.bench_with_input(BenchmarkId::new("nodes", nodes), &nodes, |b, _| {
            b.iter(|| cluster.assemble(start).trace.len())
        });
    }
    group.finish();
}

/// Ingest with span-batch shipping (512-span batches) at 1/2/4 nodes.
fn bench_cluster_ingest(c: &mut Criterion) {
    let spans = fanout(3);
    let total = spans.len();
    let mut group = c.benchmark_group("cluster_ingest_1k");
    group.throughput(Throughput::Elements(total as u64));
    for nodes in [1usize, 2, 4] {
        group.bench_with_input(BenchmarkId::new("nodes", nodes), &nodes, |b, &n| {
            b.iter(|| {
                let (cluster, _) = build_cluster(n, &spans);
                assert_eq!(cluster.stats().spans_lost, 0);
                cluster.len()
            })
        });
    }
    group.finish();
}

/// Failover latency at RF=2: assembly cost on a healthy 3-node replicated
/// cluster vs the same cluster with one replica owner dead. The first
/// post-kill query pays the retry ladder (virtual time — wall-clock cost
/// is the retransmit bookkeeping) and puts the dead node under probation;
/// steady state then pays one fast-fail probe per round plus the replica
/// hop, so the dead-node curve must stay within a small constant factor
/// of healthy — that gap *is* the failover latency the tentpole buys.
fn bench_cluster_failover(c: &mut Criterion) {
    let spans = fanout(3);
    let total = spans.len();
    let cfg = scale_cfg();
    let mut local = ShardedSpanStore::new(ShardPolicy::with_shards(4));
    let ids = local.insert_batch(spans.clone());
    let expected = assemble_trace_sharded(&local, ids[0], &cfg);

    let mut group = c.benchmark_group("cluster_failover_rf2_1k");
    group.throughput(Throughput::Elements(total as u64));

    let (mut healthy, start) = build_cluster_rf(3, 2, &spans);
    let result = healthy.assemble(start);
    assert!(result.is_complete());
    assert_eq!(result.trace, expected, "replicated assembly diverged");
    group.bench_function("healthy", |b| {
        b.iter(|| healthy.assemble(start).trace.len())
    });

    let (mut degraded, start) = build_cluster_rf(3, 2, &spans);
    degraded.kill(1);
    // Warm-up: pays the full retry ladder once and arms the probation
    // window, like the first query after a real crash would.
    let result = degraded.assemble(start);
    assert!(result.is_complete(), "RF=2 must absorb the dead node");
    assert_eq!(result.trace, expected, "failover assembly diverged");
    group.bench_function("one_node_dead", |b| {
        b.iter(|| {
            let r = degraded.assemble(start);
            assert!(r.is_complete());
            r.trace.len()
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_cluster_assembly,
    bench_cluster_ingest,
    bench_cluster_failover
);
criterion_main!(benches);
