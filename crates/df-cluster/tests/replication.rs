//! Replication, anti-entropy, fast-fail, and crash-recovery tests for
//! the df-cluster protocol — the targeted complements to the seeded
//! sweeps in `tests/chaos.rs`.

use df_cluster::{Cluster, ClusterConfig};
use df_server::ConcurrentShardedStore;
use df_storage::ShardPolicy;
use df_types::span::TapSide;
use df_types::{DurationNs, Span, TimeNs};
use std::path::{Path, PathBuf};

/// Unique per-test temp dir, removed on drop.
struct TestDir {
    path: PathBuf,
}

fn test_dir(tag: &str) -> TestDir {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .expect("clock after epoch")
        .subsec_nanos();
    let path =
        std::env::temp_dir().join(format!("df-cluster-{tag}-{}-{nanos}", std::process::id()));
    std::fs::create_dir_all(&path).expect("create test dir");
    TestDir { path }
}

impl TestDir {
    fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for TestDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// A small linked corpus: pairs of client/server spans joined by tcp
/// sequence, spread across shards by their five-tuples.
fn corpus(n: u64) -> Vec<Span> {
    (0..n)
        .flat_map(|i| {
            let t = 1_000 + i * 100;
            let mut client = Span::synthetic(TapSide::ClientProcess, t, t + 90);
            client.tcp_seq_req = Some(i as u32);
            client.five_tuple.src_port = 40_000 + (i % 16) as u16;
            let mut server = Span::synthetic(TapSide::ServerProcess, t + 10, t + 80);
            server.tcp_seq_req = Some(i as u32);
            server.five_tuple.src_port = 40_000 + (i % 16) as u16;
            [client, server]
        })
        .collect()
}

fn paired(nodes: usize, shards: usize, rf: usize) -> (ConcurrentShardedStore, Cluster) {
    let policy = ShardPolicy::with_shards(shards);
    let oracle = ConcurrentShardedStore::new(policy);
    let cluster = Cluster::new(ClusterConfig {
        nodes,
        policy,
        replication_factor: rf,
        ..ClusterConfig::default()
    });
    (oracle, cluster)
}

// ---------------------------------------------------------------------
// Replica forwarding and failover
// ---------------------------------------------------------------------

#[test]
fn dead_primary_fails_over_to_replica_without_loss() {
    let (oracle, mut cluster) = paired(3, 6, 2);
    // Kill node 1 before ingest: every batch whose primary is node 1
    // must exhaust its ladder and fail over to the co-owner.
    cluster.kill(1);
    let spans = corpus(12);
    let oracle_ids = oracle.insert_batch(spans.clone());
    let ids = cluster.ingest(spans);
    assert_eq!(oracle_ids, ids);
    oracle.flush();

    let stats = cluster.stats();
    assert_eq!(stats.spans_lost, 0, "failover must preserve every span");
    assert!(stats.failovers >= 1, "some shard's primary was node 1");
    assert!(stats.rpcs_failed >= 1, "the dead primary cost real RPCs");

    for &start in &[ids[0], ids[ids.len() / 2], ids[ids.len() - 1]] {
        let result = cluster.assemble(start);
        assert!(result.is_complete(), "RF=2 must absorb one dead node");
        assert_eq!(&result.trace, &*oracle.query_trace(start));
    }
    assert_eq!(cluster.stats().degraded_queries, 0);
}

#[test]
fn write_quorum_of_one_acks_without_waiting_for_replicas() {
    let policy = ShardPolicy::with_shards(4);
    let mut cluster = Cluster::new(ClusterConfig {
        nodes: 3,
        policy,
        replication_factor: 2,
        write_quorum: 1,
        ..ClusterConfig::default()
    });
    let ids = cluster.ingest(corpus(8));
    assert!(!ids.is_empty());
    assert_eq!(cluster.stats().spans_lost, 0);
    assert!(cluster.stats().replicated_batches > 0);
    // Quorum 1 is satisfied by the primary's local apply; replication
    // still happens (and settles during the ingest event loop), it just
    // does not gate the ack — so no shortfall is ever recorded.
    assert_eq!(cluster.stats().quorum_shortfalls, 0);
    cluster.run_until_idle();
    let report = cluster.anti_entropy_round();
    assert_eq!(report.spans, 0, "replicas were already caught up");
    assert_eq!(report.divergent, 0);
}

// ---------------------------------------------------------------------
// Anti-entropy convergence
// ---------------------------------------------------------------------

/// Batches replicated while the replica was partitioned away are gone
/// past the retry budget — the write was acknowledged under quorum. The
/// anti-entropy sweep after the heal must backfill the replica to a
/// byte-identical copy.
#[test]
fn anti_entropy_backfills_partition_losses_byte_identically() {
    let (oracle, mut cluster) = paired(2, 4, 2);
    // Warm batch reaches both copies.
    let warm = corpus(4);
    oracle.insert_batch(warm.clone());
    let warm_ids = cluster.ingest(warm);

    // Node 1 partitioned from the coordinator: SpanBatch ships fail over
    // to node 0's copies, and node 0's ReplicateBatch forwards to node 1
    // die too (same cut link) — every write acks under quorum.
    let el = cluster.partition_node(1);
    let cold = corpus(6);
    oracle.insert_batch(cold.clone());
    cluster.ingest(cold);
    oracle.flush();

    let stats = cluster.stats();
    assert_eq!(stats.spans_lost, 0);
    assert!(
        stats.quorum_shortfalls > 0,
        "partitioned replicas force under-quorum acks"
    );
    // The replica is genuinely behind before the sweep.
    let lagging: Vec<u16> = (0..4u16)
        .filter(|&s| cluster.shard_rows_at(1, s) < cluster.shard_rows_at(0, s))
        .collect();
    assert!(!lagging.is_empty(), "node 1 must have missed rows");

    cluster.fabric.faults.clear(&el);
    cluster.run_until_idle();
    let report = cluster.anti_entropy_round();
    assert!(report.pulls > 0, "the sweep must pull missing ranges");
    assert!(report.spans > 0);
    assert_eq!(report.unreachable, 0, "healed fabric, reachable peers");

    for s in 0..4u16 {
        assert_eq!(
            cluster.shard_rows_at(0, s),
            cluster.shard_rows_at(1, s),
            "shard {s} row counts must converge"
        );
        assert_eq!(
            cluster.shard_digest_at(0, s),
            cluster.shard_digest_at(1, s),
            "shard {s} content must be byte-identical"
        );
    }
    // And a second sweep is a no-op.
    let again = cluster.anti_entropy_round();
    assert_eq!((again.pulls, again.spans, again.divergent), (0, 0, 0));

    // The converged cluster still answers oracle-identical traces.
    let result = cluster.assemble(warm_ids[0]);
    assert!(result.is_complete());
    assert_eq!(&result.trace, &*oracle.query_trace(warm_ids[0]));
}

/// A replacement node joining after a crash inherits the dead node's
/// owner slots empty; anti-entropy rebuilds them from the surviving
/// co-owners.
#[test]
fn fresh_replica_after_join_is_backfilled_by_anti_entropy() {
    let (oracle, mut cluster) = paired(3, 6, 2);
    let spans = corpus(10);
    oracle.insert_batch(spans.clone());
    let ids = cluster.ingest(spans);
    oracle.flush();
    cluster.kill(1);

    let idx = cluster.join();
    assert_eq!(idx, 3);
    let inherited = cluster.shards_of_node(idx);
    assert!(!inherited.is_empty(), "newcomer inherits the dead slots");
    assert!(cluster.shards_of_node(1).is_empty(), "dead node unseated");

    let report = cluster.anti_entropy_round();
    assert!(report.spans > 0, "inherited slots start empty");
    for &s in &inherited {
        let owners = cluster.shard_owners(s);
        let digests: Vec<_> = owners
            .iter()
            .filter_map(|&o| cluster.shard_digest_at(o, s))
            .collect();
        assert_eq!(digests.len(), owners.len());
        assert!(
            digests.windows(2).all(|w| w[0] == w[1]),
            "shard {s} copies must match after backfill"
        );
    }
    let result = cluster.assemble(ids[1]);
    assert!(result.is_complete());
    assert_eq!(&result.trace, &*oracle.query_trace(ids[1]));
}

// ---------------------------------------------------------------------
// Crash recovery from tiered segment files
// ---------------------------------------------------------------------

#[test]
fn restart_reregisters_segments_and_serves_cold_spans_without_refetch() {
    let dir = test_dir("restart");
    let policy = ShardPolicy::with_shards(4);
    let oracle = ConcurrentShardedStore::new(policy);
    let mut cluster = Cluster::new(ClusterConfig {
        nodes: 2,
        policy,
        replication_factor: 2,
        tier_dir: Some(dir.path().to_path_buf()),
        ..ClusterConfig::default()
    });
    let spans = corpus(12);
    oracle.insert_batch(spans.clone());
    let ids = cluster.ingest(spans);
    oracle.flush();

    // Everything on node 1 goes cold on disk.
    let spilled = cluster
        .spill_node(1, TimeNs(u64::MAX))
        .expect("spill node 1");
    assert!(spilled.segments > 0, "the spill must write segment files");
    assert!(spilled.spans > 0);

    // Crash node 1; drop a garbage file into its tier directory so the
    // catalog scan has something to reject.
    cluster.kill(1);
    std::fs::write(
        dir.path()
            .join("node1/shard0000-b999999999999-seg99999999.dfspan"),
        b"not a DFSPANS1 segment",
    )
    .expect("plant corrupt file");

    let recovered = cluster.restart_node(1).expect("restart node 1");
    assert_eq!(
        recovered.segments, spilled.segments,
        "every valid DFSPANS1 file must be re-registered"
    );
    assert_eq!(
        recovered.rows, spilled.spans,
        "every spilled span must come back cold"
    );
    assert_eq!(
        recovered.rejected_segments, 1,
        "the corrupt file is counted, not panicked over"
    );
    assert_eq!(recovered.orphan_rows, 0);
    assert_eq!(cluster.stats().recovered_rejects, 1);
    assert!(cluster.is_alive(1));

    // The hot tail is empty here (everything was spilled), so the
    // anti-entropy sweep must find nothing to pull: the cold rows were
    // recovered from disk, not re-fetched from peers.
    let report = cluster.anti_entropy_round();
    assert_eq!(
        report.spans, 0,
        "recovery must not re-fetch cold spans from peers"
    );
    assert_eq!(report.divergent, 0, "recovered copy matches its peer");
    for s in 0..4u16 {
        assert_eq!(cluster.shard_rows_at(1, s), cluster.shard_rows_at(0, s));
    }

    // Queries page the recovered cold rows straight from node 1's disk.
    let result = cluster.assemble(ids[0]);
    assert!(result.is_complete());
    assert_eq!(&result.trace, &*oracle.query_trace(ids[0]));
}

/// Without a `tier_dir` the tiered entry points are errors, not panics,
/// and a refused restart leaves the crashed node's state as it was.
#[test]
fn untiered_cluster_refuses_spill_and_restart_without_losing_anything() {
    let (oracle, mut cluster) = paired(2, 4, 2);
    let spans = corpus(8);
    oracle.insert_batch(spans.clone());
    cluster.ingest(spans);
    let spill = cluster.spill_node(1, TimeNs(u64::MAX));
    let kind = |e: std::io::Error| e.kind();
    assert_eq!(
        spill.map_err(kind),
        Err(std::io::ErrorKind::InvalidInput),
        "no tier_dir"
    );

    cluster.kill(1);
    let rows: Vec<_> = (0..4u16).map(|s| cluster.shard_rows_at(1, s)).collect();
    let restart = cluster.restart_node(1);
    assert_eq!(restart.map_err(kind), Err(std::io::ErrorKind::InvalidInput));
    assert!(!cluster.is_alive(1));
    let rows_after: Vec<_> = (0..4u16).map(|s| cluster.shard_rows_at(1, s)).collect();
    assert_eq!(rows, rows_after, "nothing cleared by the refused restart");

    // The cluster still ingests and assembles.
    oracle.insert_batch(corpus(2));
    let ids = cluster.ingest(corpus(2));
    oracle.flush();
    assert_eq!(cluster.stats().spans_lost, 0);
    let result = cluster.assemble(ids[0]);
    assert!(result.is_complete());
    assert_eq!(&result.trace, &*oracle.query_trace(ids[0]));
}

/// Spill, crash, recover, then keep ingesting: the hot tail lands on top
/// of the recovered cold prefix and anti-entropy still converges.
#[test]
fn recovered_node_keeps_accepting_the_hot_tail() {
    let dir = test_dir("hot-tail");
    let policy = ShardPolicy::with_shards(4);
    let oracle = ConcurrentShardedStore::new(policy);
    let mut cluster = Cluster::new(ClusterConfig {
        nodes: 2,
        policy,
        replication_factor: 2,
        tier_dir: Some(dir.path().to_path_buf()),
        ..ClusterConfig::default()
    });
    let cold = corpus(6);
    oracle.insert_batch(cold.clone());
    cluster.ingest(cold);
    cluster
        .spill_node(1, TimeNs(u64::MAX))
        .expect("spill node 1");
    cluster.kill(1);
    cluster.restart_node(1).expect("restart node 1");

    // New spans arrive after the restart (later timestamps).
    let hot: Vec<Span> = corpus(4)
        .into_iter()
        .map(|mut s| {
            s.req_time = TimeNs(s.req_time.0 + 10_000_000);
            s.resp_time = TimeNs(s.resp_time.0 + 10_000_000);
            s
        })
        .collect();
    oracle.insert_batch(hot.clone());
    let ids = cluster.ingest(hot);
    oracle.flush();
    assert_eq!(cluster.stats().spans_lost, 0);

    let report = cluster.anti_entropy_round();
    assert_eq!(report.divergent, 0);
    for s in 0..4u16 {
        assert_eq!(cluster.shard_rows_at(1, s), cluster.shard_rows_at(0, s));
        assert_eq!(cluster.shard_digest_at(1, s), cluster.shard_digest_at(0, s));
    }
    let result = cluster.assemble(*ids.last().expect("hot ids"));
    assert!(result.is_complete());
    assert_eq!(
        &result.trace,
        &*oracle.query_trace(*ids.last().expect("hot ids"))
    );
}

// ---------------------------------------------------------------------
// Fast-fail probation
// ---------------------------------------------------------------------

/// After one exhausted ladder the dead node is under probation and new
/// RPCs to it fast-fail on a single base-timeout probe; the probation is
/// bounded, and — critically — a healed partition recovers on the very
/// next query because the probe is real.
#[test]
fn fast_fail_probation_is_bounded_and_heals() {
    let (oracle, mut cluster) = paired(2, 4, 1);
    let spans = corpus(4);
    oracle.insert_batch(spans.clone());
    let ids = cluster.ingest(spans);
    oracle.flush();

    let el = cluster.partition_node(1);
    let first = cluster.assemble(ids[0]);
    assert!(!first.is_complete(), "RF=1 partition must degrade");
    assert_eq!(
        cluster.stats().fast_fails,
        0,
        "first failure pays the full ladder"
    );
    let retries_after_first = cluster.stats().rpc_retries;

    let second = cluster.assemble(ids[0]);
    assert!(!second.is_complete());
    assert!(
        cluster.stats().fast_fails > 0,
        "probation must compress the second query's ladder"
    );
    assert_eq!(
        cluster.stats().rpc_retries,
        retries_after_first,
        "fast-fail probes are single-attempt: no retries added"
    );

    // Heal the partition; the next query's probe goes through, clears
    // the suspicion, and the answer is complete again — the probation
    // can never permanently blacklist a healed node.
    cluster.fabric.faults.clear(&el);
    cluster.run_until_idle();
    let healed = cluster.assemble(ids[0]);
    assert!(healed.is_complete(), "a healed node must serve immediately");
    assert_eq!(&healed.trace, &*oracle.query_trace(ids[0]));
}

/// Loss (not partition): a fast-fail probe that gets through re-arms the
/// full ladder for subsequent RPCs mid-probation.
#[test]
fn successful_probe_lifts_probation_early() {
    let (_oracle, mut cluster) = paired(2, 4, 1);
    let ids = cluster.ingest(corpus(4));

    let el = cluster.partition_node(1);
    let _ = cluster.assemble(ids[0]); // exhaust one ladder → probation
    cluster.fabric.faults.clear(&el);
    cluster.run_until_idle();

    let healed = cluster.assemble(ids[0]);
    assert!(healed.is_complete());
    // The probe succeeded, so the suspicion is gone: another partition
    // now pays the full ladder again instead of fast-failing.
    let fast_fails_before = cluster.stats().fast_fails;
    cluster.partition_node(1);
    let _ = cluster.assemble(ids[0]);
    assert_eq!(
        cluster.stats().fast_fails,
        fast_fails_before,
        "a cleared suspicion must not fast-fail the next failure"
    );
}

// ---------------------------------------------------------------------
// Membership changes racing in-flight assembly
// ---------------------------------------------------------------------

/// Regression: a join that fires *inside* an assembly's settle loops
/// (moving stores and rewriting the live shard map mid-query) must not
/// panic, hang, degrade, or change the answer — the assembly runs
/// against its pinned ownership snapshot.
#[test]
fn join_mid_assembly_keeps_the_pinned_snapshot() {
    let (oracle, mut cluster) = paired(2, 6, 2);
    let spans = corpus(10);
    oracle.insert_batch(spans.clone());
    let ids = cluster.ingest(spans);
    oracle.flush();

    // Fires during the first settle loop the assembly runs.
    cluster.schedule_join(DurationNs(1));
    let result = cluster.assemble(ids[1]);
    assert_eq!(
        cluster.node_count(),
        3,
        "the join must actually have fired mid-assembly"
    );
    assert!(result.is_complete(), "mid-assembly join must not degrade");
    assert_eq!(&result.trace, &*oracle.query_trace(ids[1]));

    // The post-join topology answers identically (newcomer included).
    let after = cluster.assemble(ids[1]);
    assert!(after.is_complete());
    assert_eq!(&after.trace, &*oracle.query_trace(ids[1]));
}

/// Same race at RF=1 with a scheduled kill: the membership event lands
/// mid-assembly and the degradation is still attributed to the victim's
/// shards only.
#[test]
fn kill_mid_assembly_degrades_cleanly_at_rf1() {
    let (oracle, mut cluster) = paired(2, 4, 1);
    let spans = corpus(8);
    oracle.insert_batch(spans.clone());
    let ids = cluster.ingest(spans);
    oracle.flush();

    cluster.schedule_kill(1, DurationNs(1));
    let result = cluster.assemble(ids[0]);
    assert!(!cluster.is_alive(1), "the kill fired");
    let victim_shards = cluster.shards_of_node(1);
    assert!(
        result
            .missing_shards
            .iter()
            .all(|s| victim_shards.contains(s)),
        "only the victim's shards may go missing: {:?}",
        result.missing_shards
    );
    for got in &result.trace.spans {
        let expected = oracle.query_trace(ids[0]);
        assert!(
            expected
                .spans
                .iter()
                .any(|e| e.span.span_id == got.span.span_id),
            "degraded trace invented a span"
        );
    }
}
