//! Backend probes: the `query_preloaded` corpus and 512 of its starts
//! through the three stacks that are not on `Deployment`'s path — the
//! worker-thread store, the replicated cluster and the tiered store.
//!
//! They run once, after the reps of the traced `query_preloaded` run, and
//! are per-layer numbers without bounds: these stacks spawn threads and
//! touch the disk, so their wall time is the sandbox's. What they mostly
//! report are counts — virtual time, RPCs, bytes, hit shares — which repeat
//! exactly for a seed. ROADMAP's "One spine" item is due to make all three
//! backends of the one `Server`; they become workload variants then.

use crate::clock;
use crate::run::Metrics;
use crate::stats::median;
use crate::workloads::Inputs;
use deepflow::cluster::{Cluster, ClusterConfig};
use deepflow::server::assemble::AssembleConfig;
use deepflow::server::concurrent::ConcurrentShardedStore;
use deepflow::server::sharded::{assemble_trace_sharded, ShardedSpanStore};
use deepflow::storage::{BufferPoolConfig, ShardPolicy, TierConfig};
use deepflow::types::{wire, SpanId};
use std::path::Path;
use std::time::Instant;

const STARTS: usize = 512;

/// Frames of the tier probe's buffer pool: fewer than the ~30 segments the
/// corpus spills into, so that queries evict.
const TIER_FRAMES: usize = 8;

pub fn backends(inputs: &Inputs, out_dir: &Path, m: &mut Metrics) {
    // The first of the workload's own cold starts: distinct and usable.
    let positions = &inputs.cold[..STARTS];
    let spans = inputs.corpus.len().max(1) as f64;
    concurrent(inputs, positions, spans, m);
    cluster(inputs, positions, spans, m);
    let dir = out_dir.join(format!("tier-{}", std::process::id()));
    if let Err(e) = tiered(inputs, positions, &dir, m) {
        eprintln!("df-benchmark: tier probe failed: {e}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

fn concurrent(inputs: &Inputs, positions: &[usize], spans: f64, m: &mut Metrics) {
    let store = ConcurrentShardedStore::new(ShardPolicy::default());
    let mut ids: Vec<SpanId> = Vec::with_capacity(inputs.corpus.len());
    let c0 = clock::cpu_ns();
    for batch in &inputs.batches {
        ids.extend(store.ingest_wire(batch).expect("own batch ingests"));
    }
    store.flush();
    // Workers are still alive, so their on-CPU time is in the sum.
    m.insert(
        "df-server.concurrent.ingest_cpu_ns_per_span",
        (clock::cpu_ns() - c0) as f64 / spans,
    );
    let lat: Vec<f64> = positions
        .iter()
        .map(|&p| {
            let t = Instant::now();
            std::hint::black_box(store.query_trace(ids[p]).len());
            clock::us_since(t)
        })
        .collect();
    m.insert("df-server.concurrent.query_trace_us_p50", median(&lat));
}

fn cluster(inputs: &Inputs, positions: &[usize], spans: f64, m: &mut Metrics) {
    let mut cluster = Cluster::new(ClusterConfig {
        nodes: 3,
        replication_factor: 2,
        ..ClusterConfig::default()
    });
    let mut ids: Vec<SpanId> = Vec::with_capacity(inputs.corpus.len());
    let c0 = clock::cpu_ns();
    for batch in &inputs.batches {
        ids.extend(cluster.ingest_wire(batch).expect("own batch ingests"));
    }
    m.insert(
        "df-cluster.ingest_cpu_ns_per_span",
        (clock::cpu_ns() - c0) as f64 / spans,
    );

    let rpcs0 = cluster.stats().rpcs_sent;
    let (mut wall, mut virt, mut rounds) = (Vec::new(), Vec::new(), 0u64);
    for &p in positions {
        let v0 = cluster.clock();
        let t = Instant::now();
        let got = cluster.assemble(ids[p]);
        wall.push(clock::us_since(t));
        virt.push(cluster.clock().saturating_since(v0).as_nanos() as f64 / 1e3);
        rounds += u64::from(got.rounds);
    }
    let queries = positions.len().max(1) as f64;
    m.insert("df-cluster.assemble_cpu_us_p50", median(&wall));
    m.insert("df-cluster.virtual_assemble_us_p50", median(&virt));
    m.insert(
        "df-cluster.rpcs_per_query",
        (cluster.stats().rpcs_sent - rpcs0) as f64 / queries,
    );
    m.insert("df-cluster.rounds_per_query", rounds as f64 / queries);

    // One node down: RF=2 must answer every query whole and lose nothing.
    cluster.kill(1);
    for &p in positions {
        std::hint::black_box(cluster.assemble(ids[p]).trace.len());
    }
    m.insert(
        "df-cluster.degraded_queries",
        cluster.stats().degraded_queries as f64,
    );
    m.insert("df-cluster.spans_lost", cluster.stats().spans_lost as f64);
}

fn tiered(
    inputs: &Inputs,
    positions: &[usize],
    dir: &Path,
    m: &mut Metrics,
) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let mut store = ShardedSpanStore::new(ShardPolicy::default());
    let pool = store.enable_tiering(
        TierConfig::new(dir)
            .with_pool(BufferPoolConfig::with_frames(TIER_FRAMES))
            .with_hot_buckets(1),
    );
    let mut ids: Vec<SpanId> = Vec::with_capacity(inputs.corpus.len());
    for batch in &inputs.batches {
        ids.extend(store.insert_batch(wire::decode_batch(batch).expect("own batch decodes")));
    }
    let c0 = clock::cpu_ns();
    let spilled = store.spill_auto()?;
    let spill_cpu = clock::cpu_ns() - c0;
    m.insert(
        "df-storage.persist.segment_bytes_per_span",
        spilled.bytes as f64 / spilled.spans.max(1) as f64,
    );
    m.insert(
        "df-storage.persist.spill_cpu_ns_per_span",
        spill_cpu as f64 / spilled.spans.max(1) as f64,
    );
    let cfg = AssembleConfig::default();
    for &p in positions {
        std::hint::black_box(assemble_trace_sharded(&store, ids[p], &cfg).len());
    }
    let (st, disk) = (pool.stats(), pool.scheduler().stats());
    let queries = positions.len().max(1) as f64;
    m.insert(
        "df-storage.bufferpool.hit_share",
        st.hits as f64 / (st.hits + st.misses).max(1) as f64,
    );
    m.insert(
        "df-storage.bufferpool.evictions_per_query",
        st.evictions as f64 / queries,
    );
    m.insert(
        "df-storage.disk_sched.read_bytes_per_query",
        disk.read_bytes as f64 / queries,
    );
    Ok(())
}
