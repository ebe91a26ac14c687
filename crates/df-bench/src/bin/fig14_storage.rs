//! Fig. 14 — trace-storage resource consumption: smart-encoded tags
//! against the same tags as strings, measured on the product's own rows.
//!
//! One seeded corpus of spans carries the product's twelve resource tags
//! in two forms. The smart arm holds them as [`ResourceTags`] ids, which
//! is what the server stores; the string arm holds the same values as
//! `TagSet::custom` labels. Each arm is DFW-encoded, ingested by
//! `Server::ingest_wire` into a server with an empty inventory (so phase-2
//! enrichment leaves both arms as built), then spilled to the cold tier
//! by `ShardedSpanStore::spill_before`. Per span:
//!
//! * **CPU** — ingest nanoseconds on one thread, best of [`REPS`], as a
//!   ratio to smart in the same run;
//! * **memory** — the live heap bytes the server keeps, counted by the
//!   counting allocator. In memory the strings are *direct*: one `String`
//!   pair per label;
//! * **disk** — the segment bytes the spill writes. On disk the strings
//!   are *low-cardinality*: DFW interns each once per segment.
//!
//! The paper inserts 10^7 rows; `FIG14_ROWS` (default 10^5) sets the
//! scale. The byte rows and the claims are exact and regenerate
//! byte-identically; only the `timed` section moves from run to run.

#![allow(
    unsafe_code,
    reason = "a #[global_allocator] implements the unsafe GlobalAlloc trait; \
              this one only counts and forwards to System"
)]

#[path = "../../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

use deepflow::server::Server;
use deepflow::storage::TierConfig;
use deepflow::types::{wire, ResourceInventory, ResourceTags, Span, TapSide, TimeNs};
use df_bench::report;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde_json::{json, Value};
use std::net::Ipv4Addr;
use std::time::Instant;

/// The twelve resource tags in [`ResourceTags`] field order: each one's
/// label key and number of distinct values. Locality tags are low
/// cardinality, workload tags mid; `None` marks the identity tags (ip and
/// pod), one value per row.
const TAGS: [(&str, Option<u32>); 12] = [
    ("vpc", Some(8)),
    ("ip", None),
    ("region", Some(2)),
    ("az", Some(4)),
    ("subnet", Some(16)),
    ("host", Some(128)),
    ("cluster", Some(8)),
    ("k8s.node", Some(128)),
    ("k8s.namespace", Some(64)),
    ("k8s.workload", Some(5_000)),
    ("k8s.service", Some(1_000)),
    ("k8s.pod", None),
];

/// The corpus seed.
const SEED: u64 = 0xf14;
/// Spans per DFW batch, as an agent ships them.
const BATCH: usize = 1_000;
/// Requests are this many nanoseconds apart: 10^5 spans fill ten of the
/// cold tier's one-second buckets, so the spill writes ten segments.
const SPACING_NS: u64 = 100_000;
/// Timed ingests per arm; the fastest counts.
const REPS: usize = 5;
/// 10.0.0.0, the base of the ip tag's values.
const IP_BASE: u32 = 0x0a00_0000;

fn rows() -> usize {
    std::env::var("FIG14_ROWS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(100_000)
}

/// Each row's twelve tag values, in [`TAGS`] order, drawn from `SEED`.
fn corpus(rows: usize) -> Vec<[u32; 12]> {
    let mut rng = SmallRng::seed_from_u64(SEED);
    (0..rows as u32)
        .map(|row| TAGS.map(|(_, card)| card.map_or(row, |n| rng.gen_range(0..n))))
        .collect()
}

/// The two forms of a span's tags.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Arm {
    /// [`ResourceTags`] ids.
    Smart,
    /// `TagSet::custom` labels.
    Strings,
}

const ARMS: [Arm; 2] = [Arm::Smart, Arm::Strings];

/// Row `row` of the corpus, its tags in `arm`'s form.
fn span(row: usize, tags: &[u32; 12], arm: Arm) -> Span {
    let req = row as u64 * SPACING_NS;
    let mut span = Span::synthetic(TapSide::ClientProcess, req, req + SPACING_NS / 2);
    let ip = IP_BASE | tags[1];
    match arm {
        Arm::Smart => {
            let [vpc, _, region, az, subnet, host, cluster, node, ns, workload, service, pod] =
                tags.map(Some);
            span.tags.resource = ResourceTags {
                vpc_id: vpc,
                ip: Some(ip),
                region_id: region,
                az_id: az,
                subnet_id: subnet,
                host_id: host,
                cluster_id: cluster,
                k8s_node_id: node,
                namespace_id: ns,
                workload_id: workload,
                service_id: service,
                pod_id: pod,
            };
        }
        Arm::Strings => {
            let value = |(key, v): (&str, u32)| match key {
                "ip" => Ipv4Addr::from(ip).to_string(),
                _ => format!("{key}-{v}"),
            };
            span.tags.custom = (TAGS.iter().zip(tags))
                .map(|(&(key, _), &v)| (key.to_owned(), value((key, v))))
                .collect();
        }
    }
    span
}

/// `arm`'s corpus as DFW batches of [`BATCH`] spans.
fn batches(corpus: &[[u32; 12]], arm: Arm) -> Vec<Vec<u8>> {
    let spans: Vec<Span> = (corpus.iter().enumerate())
        .map(|(row, tags)| span(row, tags, arm))
        .collect();
    spans.chunks(BATCH).map(wire::encode_batch).collect()
}

/// Ingest `batches` into `server`; the spans stored.
fn ingest(server: &mut Server, batches: &[Vec<u8>]) -> usize {
    (batches.iter())
        .map(|b| server.ingest_wire(b).expect("own batch").len())
        .sum()
}

/// One arm's exact costs per stored span: the live heap bytes the server
/// keeps, and the segment bytes its spill writes.
fn exact(batches: &[Vec<u8>], arm: Arm) -> (f64, f64) {
    let mut server = Server::new(&ResourceInventory::default());
    let (spans, _, live) = counting_alloc::heap(|| ingest(&mut server, batches));
    let dir = std::env::temp_dir().join(format!("df-fig14-{}-{arm:?}", std::process::id()));
    server.store_mut().enable_tiering(TierConfig::new(&dir));
    let spilled = server.store_mut().spill_before(TimeNs(u64::MAX));
    let _ = std::fs::remove_dir_all(&dir);
    let spilled = spilled.expect("the spill writes its segments");
    assert_eq!(spilled.spans, spans, "every span spills");
    let per_span = |x: f64| x / spans.max(1) as f64;
    (per_span(live as f64), per_span(spilled.bytes as f64))
}

/// The fastest of [`REPS`] ingests of each arm into a fresh server, in ns
/// per span; the arms alternate so that both see the same host.
fn timed(arms: &[Vec<Vec<u8>>; 2], rows: usize) -> [f64; 2] {
    let mut best = [f64::INFINITY; 2];
    for _ in 0..REPS {
        for (best, batches) in best.iter_mut().zip(arms) {
            let mut server = Server::new(&ResourceInventory::default());
            let t0 = Instant::now();
            std::hint::black_box(ingest(&mut server, batches));
            *best = best.min(t0.elapsed().as_nanos() as f64 / rows.max(1) as f64);
        }
    }
    best
}

/// The `exact` section: the corpus shape and each arm's bytes per span.
fn exact_section(rows: usize, smart: (f64, f64), strings: (f64, f64)) -> Value {
    let arm = |(live, segment): (f64, f64)| {
        json!({
            "live_bytes_per_span": live,
            "segment_bytes_per_span": segment,
        })
    };
    json!({"rows": rows, "tags_per_row": TAGS.len(), "smart": arm(smart), "string": arm(strings)})
}

/// One claim per axis, each "smart-encoding is cheapest" as a predicate:
/// the string arm over smart is above 1. The CPU ratio is timed, so its
/// value stays in `timed` and this section stays exact.
fn claims(smart: (f64, f64), strings: (f64, f64), cpu_ratio: f64) -> Value {
    let claim = |claim: &str, paper: f64, ours: Option<f64>, holds: bool| {
        json!({
            "claim": claim,
            "paper": paper,
            "ours": ours,
            "holds": holds,
        })
    };
    let (memory, disk) = (strings.0 / smart.0, strings.1 / smart.1);
    json!([
        claim(
            "CPU: ingesting smart-encoded tags costs less than strings (ratio in timed)",
            4.31,
            None,
            cpu_ratio > 1.0,
        ),
        claim(
            "memory: smart-encoding keeps fewer live bytes per span than direct strings",
            1.97,
            Some(memory),
            memory > 1.0,
        ),
        claim(
            "disk: smart-encoding writes fewer segment bytes per span than low-cardinality strings",
            1.94,
            Some(disk),
            disk > 1.0,
        ),
    ])
}

fn main() {
    let n = rows();
    report::header(&format!(
        "Fig. 14: {n} spans x {} resource tags, smart-encoded vs strings, on the product's rows",
        TAGS.len()
    ));
    let corpus = corpus(n);
    let arms = ARMS.map(|arm| batches(&corpus, arm));
    drop(corpus);
    let [smart, strings] = ARMS.map(|arm| exact(&arms[arm as usize], arm));
    let [smart_ns, strings_ns] = timed(&arms, n);
    let cpu_ratio = strings_ns / smart_ns;

    let cell = |x: f64, base: f64, unit: &str| format!("{x:.1} {unit} ({:.2}x)", x / base);
    report::table(
        &["tags", "ingest CPU", "memory (live)", "disk (segment)"],
        &[
            ("smart-encoded ids", smart_ns, smart),
            ("strings", strings_ns, strings),
        ]
        .map(|(label, ns, (live, segment))| {
            vec![
                label.to_string(),
                cell(ns, smart_ns, "ns/span"),
                cell(live, smart.0, "B/span"),
                cell(segment, smart.1, "B/span"),
            ]
        }),
    );
    println!("\n  Paper (10^7 rows, ClickHouse), vs smart-encoding: direct = 4.31x CPU,");
    println!("  1.97x memory, 3.9x disk; low-cardinality = 7.79x CPU, 2.14x memory, 1.94x disk.");
    println!("  Here the strings are direct in memory and low-cardinality on disk.\n");
    report::compare("CPU ratio (strings)", 4.31, cpu_ratio, 4.0);
    report::compare("memory ratio (direct)", 1.97, strings.0 / smart.0, 4.0);
    report::compare(
        "disk ratio (low-cardinality)",
        1.94,
        strings.1 / smart.1,
        4.0,
    );

    report::save_json(
        "fig14_storage",
        &json!({
            "exact": exact_section(n, smart, strings),
            "timed": {
                "ingest_ns_per_span": {"smart": smart_ns, "string": strings_ns},
                "cpu_ratio": cpu_ratio,
                "reps": REPS,
            },
            "claims": claims(smart, strings, cpu_ratio),
        }),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// On a 1 000-row corpus, under the counting allocator: the memory and
    /// disk predicates hold, and two builds of the corpus give the same
    /// `exact` section.
    #[test]
    fn the_exact_claims_hold_and_regenerate() {
        let build = || {
            let corpus = corpus(1_000);
            ARMS.map(|arm| exact(&batches(&corpus, arm), arm))
        };
        let [smart, strings] = build();
        let claims = claims(smart, strings, f64::NAN);
        for axis in [1, 2] {
            assert_eq!(claims[axis]["holds"], json!(true), "{:?}", claims[axis]);
        }
        let [again_smart, again_strings] = build();
        assert_eq!(
            exact_section(1_000, smart, strings),
            exact_section(1_000, again_smart, again_strings)
        );
    }
}
