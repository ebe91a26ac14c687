//! The counted cost ledger: exact allocation counts for paths that are
//! fast because they do not copy, the live heap bytes a stored span
//! costs, and the codec's bytes and allocations. A copy put back
//! fails `cargo test` here, where timed runs on a noisy host would need
//! tens of pairs to show it. The counting global allocator
//! (`support/counting_alloc.rs`) counts per thread, so tests running in
//! parallel do not mix their counts.
//!
//! Every row is committed in `BENCH_counts.json` at the workspace root,
//! and a row that differs from the file fails either way: above it is a
//! regression, below it is a gain the file must record, so each gain
//! shows in the diff of the change that made it. A row whose count varies
//! from run to run (the agent's, whose maps are seeded at random) carries
//! a `tolerance`, the share of its value it may move by; every other row
//! is exact. Rewrite the file with
//!
//! ```text
//! cargo test --test alloc_budget -- --ignored bless_bench_counts
//! ```
//!
//! Each row also prints one `ledger:` line (shown with `--nocapture`;
//! `ci.sh` prints them in every log).

#![allow(
    unsafe_code,
    reason = "a #[global_allocator] implements the unsafe GlobalAlloc trait; \
              this one only counts and forwards to System"
)]

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::{allocations, heap};
use deepflow::mesh::apps;
use deepflow::prelude::*;
use deepflow::storage::{BufferPool, BufferPoolConfig, SpanStore};
use deepflow::types::{wire, ResourceInventory};
use serde_json::{json, Value};
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};

/// A row's corpus and, for a seeded run, its seed.
type Corpus = (&'static str, Option<u64>);

const SYNTHETIC: Corpus = ("Span::synthetic spans built by the test", None);

/// The seeded Bookinfo run's DFW batches: the 7 200-span stream
/// `tests/zero_code_tracing.rs` pins (`apps::bookinfo`'s seed).
const BOOKINFO: Corpus = (
    "Bookinfo, 100 RPS for 2 s, agents polled every 100 ms (7 200 spans)",
    Some(0xb00c),
);

/// One counted row: its name, value, unit, corpus and, if it may move,
/// its tolerance.
struct Row(String, i64, &'static str, Corpus, Option<f64>);

fn row(name: impl Into<String>, value: u64, unit: &'static str) -> Row {
    Row(name.into(), value as i64, unit, SYNTHETIC, None)
}

/// A row counted on the seeded Bookinfo stream.
fn seeded(name: &str, value: i64, unit: &'static str) -> Row {
    Row(name.into(), value, unit, BOOKINFO, None)
}

impl Row {
    /// The row as `BENCH_counts.json` holds it, one line.
    fn line(&self) -> String {
        let Row(name, value, unit, (corpus, seed), tolerance) = self;
        let mut row = json!({"row": name, "value": value, "unit": unit,
                             "corpus": corpus, "seed": *seed});
        if let (Some(share), Value::Object(fields)) = (tolerance, &mut row) {
            fields.push(("tolerance".into(), json!(share)));
        }
        serde_json::to_string(&row).expect("prints")
    }

    /// Whether `committed`, the file's line, holds this row: the same line,
    /// or for a row with a tolerance, the same line but for a value within
    /// that tolerance, the code's, so the file cannot loosen its own bound.
    fn matches(&self, committed: &str) -> bool {
        let Some(share) = self.4 else {
            return committed == self.line();
        };
        let file: Value = serde_json::from_str(committed).unwrap_or_default();
        let recorded = file["value"].as_f64().unwrap_or(f64::NAN);
        let as_recorded = Row(self.0.clone(), recorded as i64, self.2, self.3, self.4);
        committed == as_recorded.line() && (self.1 as f64 - recorded).abs() <= share * recorded
    }
}

/// Every counted group, in file order.
const GROUPS: [fn() -> Vec<Row>; 7] = [
    trace_cache_hit,
    cold_traces,
    span_lists,
    cold_row_read,
    agent_poll,
    wire_ingest,
    codec,
];

fn counts_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("BENCH_counts.json")
}

/// Print each row as a `ledger:` line (per span too, on the Bookinfo
/// stream) and require its exact line in the committed file: a row that
/// differs, either way, fails.
fn check(rows: &[Row]) {
    let text = std::fs::read_to_string(counts_path()).expect("BENCH_counts.json at the root");
    for row @ Row(name, value, ..) in rows {
        let per_span =
            (row.3 == BOOKINFO).then(|| format!(" ({:.3} per span)", *value as f64 / 7_200.0));
        println!("ledger: {name} = {value}{}", per_span.unwrap_or_default());
        assert!(
            text.lines().any(|l| row.matches(l.trim_end_matches(',').trim())),
            "{name} = {value} is not the row in BENCH_counts.json; if the change is meant, \
             rewrite the file with `cargo test --test alloc_budget -- --ignored bless_bench_counts`"
        );
    }
}

/// Rewrite `BENCH_counts.json` from this tree's counts, one row a line.
#[test]
#[ignore = "rewrites BENCH_counts.json; run it when a change moves a row on purpose"]
fn bless_bench_counts() {
    let lines: Vec<String> = GROUPS
        .iter()
        .flat_map(|group| group())
        .map(|r| r.line())
        .collect();
    let text = format!("[\n  {}\n]\n", lines.join(",\n  "));
    std::fs::write(counts_path(), text).expect("BENCH_counts.json is writable");
}

/// A `Server::trace` cache hit hands back the cached `Arc<Trace>` and
/// allocates nothing: the shards reach the cache lookup as the store's
/// own slice, not a collected list of borrows.
#[test]
fn a_trace_cache_hit_allocates_nothing() {
    check(&trace_cache_hit());
}

fn trace_cache_hit() -> Vec<Row> {
    let mut server = Server::new(&ResourceInventory::default());
    let mut client = Span::synthetic(TapSide::ClientProcess, 1_000, 1_500);
    let mut callee = Span::synthetic(TapSide::ServerProcess, 1_010, 1_490);
    client.tcp_seq_req = Some(7);
    callee.tcp_seq_req = Some(7);
    let ids = server.ingest_batch(vec![client, callee]);
    let cold = server.trace(ids[0]);
    assert_eq!(cold.spans.len(), 2, "the pair joins on its TCP sequence");

    let (_, allocated) = allocations(|| server.trace(ids[0]));
    assert_eq!(server.stats().cache_hits, 1, "the second query hits");
    vec![row("trace_cache.hit_allocations", allocated, "allocations")]
}

/// A cold `Server::trace` shares each member's stored row and copies
/// none: its allocations grow with the member count only as its vectors
/// double. Counted at two sizes of one exchange, every member on one TCP
/// sequence.
#[test]
fn a_cold_trace_copies_no_member() {
    check(&cold_traces());
}

fn cold_traces() -> Vec<Row> {
    let count = |members: u64| {
        let mut server = Server::new(&ResourceInventory::default());
        let spans = (0..members).map(|i| {
            let mut span = Span::synthetic(TapSide::ClientProcess, 1_000 + i, 2_000 + i);
            span.tcp_seq_req = Some(7);
            span
        });
        let ids = server.ingest_batch(spans.collect());

        let (trace, allocated) = allocations(|| server.trace(ids[0]));
        assert_eq!(trace.len(), members as usize, "one exchange");
        assert_eq!(server.stats().cache_misses, 1, "the query is cold");
        let name = format!("trace.cold_allocations_{members}_members");
        row(name, allocated, "allocations")
    };
    vec![count(32), count(128)]
}

/// A span list over hot rows lends the stored spans: one query allocates
/// its result vectors, whose count grows as they double, never a copy
/// per row. Counted at two sizes, after a warm-up query (ingest left the
/// time index sorted, so the warm-up only checks the count).
#[test]
fn a_span_list_over_hot_rows_copies_no_row() {
    check(&span_lists());
}

fn span_lists() -> Vec<Row> {
    let count = |rows: u64| {
        let mut server = Server::new(&ResourceInventory::default());
        let spans =
            (0..rows).map(|i| Span::synthetic(TapSide::ClientProcess, 1_000 + i, 2_000 + i));
        server.ingest_batch(spans.collect());
        let all = SpanQuery {
            limit: usize::MAX,
            ..SpanQuery::default()
        };
        assert_eq!(server.span_list(&all).len(), rows as usize);

        let (listed, allocated) = allocations(|| server.span_list(&all).len());
        assert_eq!(listed, rows as usize);
        let name = format!("span_list.allocations_{rows}_rows");
        row(name, allocated, "allocations")
    };
    vec![count(100), count(1_000)]
}

/// A cold row read from a resident segment copies that one row out of
/// the segment the pool lends: the boxed span and its endpoint string,
/// never the page. Counted after a warm-up read has paged the segment in.
#[test]
fn a_cold_row_read_from_a_resident_segment_copies_one_row() {
    check(&cold_row_read());
}

fn cold_row_read() -> Vec<Row> {
    let dir = std::env::temp_dir().join(format!("df-alloc-budget-{}", std::process::id()));
    let mut store = SpanStore::new();
    let spans = (0..10u64).map(|i| Span::synthetic(TapSide::ClientProcess, 1_000 + i, 2_000 + i));
    store.insert_batch(spans.collect());
    let pool = Arc::new(BufferPool::new(BufferPoolConfig::with_frames(1)));
    let spilled = store.spill_before(TimeNs(u64::MAX), &pool, &dir, 0);
    let read = |row| store.span_at(row).expect("row exists").req_time;
    let warm = spilled.map(|_| read(3));
    let (hit, allocated) = allocations(|| read(3));
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(warm.expect("spill succeeds"), TimeNs(1_003));
    assert_eq!((hit, store.cold_rows()), (TimeNs(1_003), 10));
    let stats = pool.stats();
    assert_eq!((stats.misses, stats.hits), (1, 1), "the second read hits");
    vec![row("cold_row_read.allocations", allocated, "allocations")]
}

/// The seeded Bookinfo run, run once for every group that reads it.
type Bookinfo = (Vec<Vec<u8>>, ResourceInventory, u64);

/// The seeded Bookinfo run's DFW batches, as the agents emit them
/// (`Agent::poll_wire` is `poll`, then `encode_batch` of a poll that
/// found spans), and the allocations the agents' `poll` calls made.
fn bookinfo_batches() -> &'static Bookinfo {
    static RUN: OnceLock<Bookinfo> = OnceLock::new();
    RUN.get_or_init(|| {
        let mut tracer = || apps::no_tracer();
        let (mut world, _handles) = apps::bookinfo(100.0, DurationNs::from_secs(2), &mut tracer);
        let mut df = Deployment::install(&mut world).expect("programs verify");
        let (mut batches, mut polling) = (Vec::new(), 0);
        for step in 1..=30 {
            let now = TimeNs::from_millis(step * 100);
            world.run_until(now);
            for (node, agent) in df.agents.iter_mut() {
                let kernel = world.kernels.get_mut(node).expect("agent node");
                let (spans, allocated) = allocations(|| agent.poll(kernel, &mut world.fabric, now));
                polling += allocated;
                if !spans.is_empty() {
                    batches.push(wire::encode_batch(&spans));
                }
            }
        }
        (batches, world.fabric.topology.resource_inventory(), polling)
    })
}

/// `Agent::poll` over the seeded Bookinfo run. Its maps are seeded at
/// random, so their growth, and the count, move a little from run to run.
#[test]
fn agent_poll_on_the_seeded_bookinfo_run() {
    check(&agent_poll());
}

fn agent_poll() -> Vec<Row> {
    let (name, polling) = ("agent.poll_allocations".into(), bookinfo_batches().2 as i64);
    vec![Row(name, polling, "allocations", BOOKINFO, Some(0.005))] // ±0.3 % over runs
}

/// `Server::ingest_wire` over the seeded Bookinfo run's batches, into a
/// fresh server: the allocations it makes and the heap bytes it keeps.
/// Each span is decoded into the `Arc` its shard keeps, and the process
/// and interface names of a batch are shared, so a span costs its row, its
/// endpoint string and, rarely, its custom tags.
#[test]
fn wire_ingest_of_the_seeded_bookinfo_run() {
    check(&wire_ingest());
}

fn wire_ingest() -> Vec<Row> {
    let (batches, inventory, _) = bookinfo_batches();
    let mut server = Server::new(inventory);

    let (spans, allocated, live) = heap(|| {
        (batches.iter())
            .map(|batch| server.ingest_wire(batch).expect("own batch").len())
            .sum::<usize>()
    });
    assert_eq!(spans, 7_200, "the seeded stream");
    vec![
        seeded("ingest_wire.allocations", allocated as i64, "allocations"),
        seeded("ingest_wire.live_bytes", live, "B"),
    ]
}

/// The codec on the seeded Bookinfo stream: the bytes its DFW batches
/// take, and the allocations of `encode_batch` (re-encoding each batch's
/// spans) and of `decode_batch`.
#[test]
fn the_codec_on_the_seeded_bookinfo_stream() {
    check(&codec());
}

fn codec() -> Vec<Row> {
    let (batches, ..) = bookinfo_batches();
    let decode = |b: &Vec<u8>| wire::decode_batch(b).expect("own batch decodes");
    let (decoded, decoding) =
        allocations(|| batches.iter().map(|b| decode(b).len()).sum::<usize>());
    let spans: Vec<Vec<Span>> = batches.iter().map(decode).collect();
    let same = |(s, b): (&Vec<Span>, &Vec<u8>)| wire::encode_batch(s) == *b;
    let (all_same, encoding) = allocations(|| spans.iter().zip(batches).all(same));
    assert_eq!(decoded, 7_200, "the seeded stream");
    assert!(all_same, "a batch re-encodes to its own bytes");
    let bytes = batches.iter().map(Vec::len).sum::<usize>();
    vec![
        seeded("wire.bytes", bytes as i64, "B"),
        seeded("wire.encode_allocations", encoding as i64, "allocations"),
        seeded("wire.decode_allocations", decoding as i64, "allocations"),
    ]
}

/// A frame of empty dictionary entries, one input byte each, costs the
/// decoder a bounded number of heap bytes per input byte: an entry takes
/// its 32-byte cell and no table slot.
#[test]
fn a_dictionary_of_empty_entries_allocates_a_bounded_amount_per_input_byte() {
    let entries = 4_096u32;
    let mut frame = [&wire::WIRE_MAGIC[..], &[wire::WIRE_VERSION, 0]].concat();
    frame.extend([0x80, 0x20]); // the entry count, 4 096 as a varint
    frame.resize(frame.len() + entries as usize, 0); // each entry's zero length
    frame.extend([0, 0]); // no flows, no metrics
    let (batch, _, live) = heap(|| wire::WireBatch::parse(&frame).expect("parses"));
    assert_eq!(batch.dict().len(), entries as usize);
    let per_byte = live as f64 / frame.len() as f64;
    assert!(per_byte <= 32.0, "{per_byte:.1} B per input byte");
}
