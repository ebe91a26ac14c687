//! One run: set-up, timed reps until the clock runs out, the result line.

use crate::clock;
use crate::layers;
use crate::probes;
use crate::spec::{self, END_TO_END, PER_LAYER};
use crate::stats::{iqr_share, median, percentile};
use crate::workloads::{Inputs, RepOut, Runner, Workload};
use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

/// Where the traced run leaves its trace file and the tier probe its
/// segments: inside the checkout, and in `.gitignore`.
pub const OUT_DIR: &str = "benchmark/out";

pub struct RunArgs {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub traced: bool,
}

/// Named measurements on their way to the result line.
pub type Metrics = BTreeMap<&'static str, f64>;

/// A run's value of a timing: the lower decile over its reps. Every rep
/// does the same work, and whatever else the machine is doing can only
/// make a rep slower — during a set of runs the host slowed whole minutes
/// by 20–40 % — so the low end of the distribution is the program's own
/// cost and the median is not.
fn floor_over(reps: &[RepOut], value: impl Fn(&RepOut) -> f64) -> f64 {
    percentile(&reps.iter().map(value).collect::<Vec<f64>>(), 0.10)
}

fn cpu_per_span(r: &RepOut) -> f64 {
    r.cpu_ns as f64 / r.spans.max(1) as f64
}

fn wall_per_span(r: &RepOut) -> f64 {
    r.wall_ns as f64 / r.spans.max(1) as f64
}

/// Set-ups an untraced run makes. Interference only ever adds time, so
/// `setup_s` is the fastest of them. The reps run on the first; the others
/// come after the reps and after `peak_rss_mb` is read, so that the heap
/// they churn is in neither.
const SETUPS: usize = 3;

/// One complete set-up — inputs from the seed, the warm-up rep, the oracle —
/// and the on-CPU seconds it took.
fn set_up(args: &RunArgs) -> (Runner, RepOut, f64) {
    let c0 = clock::cpu_ns();
    let inputs = Inputs::build(args.workload, args.seed, args.traced);
    let mut runner = Runner::new(inputs, args.traced);
    let warm = runner.warm_up();
    (runner, warm, (clock::cpu_ns() - c0) as f64 / 1e9)
}

/// Run and return the result object the driver reads off the last line.
pub fn run(args: &RunArgs) -> Value {
    let (mut runner, warm, mut setup_cpu_s) = set_up(args);
    let setup_wall_s = clock::wall_ns() as f64 / 1e9;

    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let mut reps: Vec<RepOut> = Vec::new();
    while Instant::now() < deadline {
        // The traced run leaves every other rep plain: the plain reps
        // price the recorder, and give the wall-over-CPU twin.
        runner
            .rec
            .set_enabled(args.traced && reps.len().is_multiple_of(2));
        reps.push(runner.rep());
    }

    let attempted = warm.attempted + reps.iter().map(|r| r.attempted).sum::<u64>();
    let failed = warm.failed + reps.iter().map(|r| r.failed).sum::<u64>();
    let (inputs, rec, cold_pool) = runner.finish();

    let mut m = Metrics::new();
    if !args.traced {
        let spans: u64 = reps.iter().map(|r| r.spans).sum();
        let bytes: u64 = reps.iter().map(|r| r.wire_bytes).sum();
        let peak_rss_mb = clock::peak_rss_mb();
        drop(inputs);
        for _ in 1..SETUPS {
            setup_cpu_s = setup_cpu_s.min(set_up(args).2);
        }
        m.insert("setup_s", setup_cpu_s);
        m.insert("cpu_ns_per_span", floor_over(&reps, cpu_per_span));
        m.insert("trace_query_p50_us", floor_over(&reps, |r| r.cold_p50_us));
        m.insert(
            "trace_requery_p50_us",
            floor_over(&reps, |r| r.requery_p50_us),
        );
        m.insert("span_list_p50_us", floor_over(&reps, |r| r.list_p50_us));
        m.insert("wire_bytes_per_span", bytes as f64 / spans.max(1) as f64);
        m.insert("peak_rss_mb", peak_rss_mb);
        return result(&END_TO_END, &m, attempted, failed);
    }

    // ---- the traced run's per-layer numbers ----
    let plain: Vec<RepOut> = reps.iter().filter(|r| !r.traced).copied().collect();
    let traced: Vec<RepOut> = reps.iter().filter(|r| r.traced).copied().collect();
    let summary = rec.summary();

    m.insert(
        "harness.wall_ns_per_span",
        floor_over(&plain, wall_per_span),
    );
    m.insert(
        "harness.wall_over_cpu",
        median(
            &plain
                .iter()
                .map(|r| r.wall_ns as f64 / r.cpu_ns.max(1) as f64)
                .collect::<Vec<_>>(),
        ),
    );
    m.insert("harness.setup_wall_s", setup_wall_s);
    m.insert("harness.trace_query_p99_us", percentile(&cold_pool, 0.99));
    m.insert("harness.trace_query_samples", cold_pool.len() as f64);
    m.insert("harness.timed_reps", reps.len() as f64);
    m.insert(
        "harness.rep_cpu_iqr_share",
        iqr_share(&plain.iter().map(cpu_per_span).collect::<Vec<f64>>()),
    );
    m.insert("harness.nproc", clock::nproc() as f64);
    m.insert(
        "harness.failed_ops_share",
        failed as f64 / attempted.max(1) as f64,
    );

    for p in &PER_LAYER {
        if let Some(layer) = p.name.strip_prefix("trace.self_share.") {
            m.insert(p.name, summary.share(layer));
        }
    }
    m.insert("trace.self_sum_share", 1.0 - summary.share("harness"));
    m.insert(
        "trace.dominant_share",
        spec::dominant_spans(args.workload)
            .iter()
            .map(|n| summary.inclusive_share(n))
            .sum(),
    );
    // A traced rep's CPU with the shadow work scaled out, over a plain
    // rep's. Shadows are timed on the wall clock (they are far shorter
    // than the 4 ms on-CPU tick), so they leave by their share of the wall.
    let shadow_share =
        summary.shadow_ns as f64 / (summary.rep_ns + summary.shadow_ns).max(1) as f64;
    let traced_cpu = floor_over(&traced, cpu_per_span) * (1.0 - shadow_share);
    m.insert(
        "trace.overhead_share",
        traced_cpu / floor_over(&plain, cpu_per_span).max(1e-9) - 1.0,
    );
    m.insert("trace.spans_recorded", rec.spans_recorded() as f64);

    let queries: u64 = reps.iter().map(|r| r.stats.trace_queries).sum();
    let share =
        |f: fn(&RepOut) -> u64| reps.iter().map(f).sum::<u64>() as f64 / queries.max(1) as f64;
    m.insert(
        "df-server.trace_cache.hit_share",
        share(|r| r.stats.cache_hits),
    );
    m.insert(
        "df-server.trace_cache.miss_share",
        share(|r| r.stats.cache_misses),
    );
    m.insert(
        "df-server.trace_cache.invalidation_share",
        share(|r| r.stats.cache_invalidations),
    );
    m.insert(
        "df-server.assemble.oracle_mismatches",
        (warm.oracle_mismatches + reps.iter().map(|r| r.oracle_mismatches).sum::<u64>()) as f64,
    );

    layers::probe(&inputs, &mut m);
    if args.workload == Workload::QueryPreloaded {
        probes::backends(&inputs, Path::new(OUT_DIR), &mut m);
    }

    let file =
        Path::new(OUT_DIR).join(format!("trace-{}-{}.json", args.workload.name(), args.seed));
    let body = serde_json::to_string(&rec.to_json(2)).expect("trace serialises");
    if let Err(e) = std::fs::create_dir_all(OUT_DIR).and_then(|()| std::fs::write(&file, body)) {
        eprintln!("df-benchmark: could not write {}: {e}", file.display());
    }
    result(&PER_LAYER, &m, attempted, failed)
}

/// The result object: every metric of `specs`, each with its unit. A
/// per-layer metric this run did not measure reads 0 (the backend probes
/// outside `query_preloaded`).
fn result(specs: &[spec::Metric], m: &Metrics, attempted: u64, failed: u64) -> Value {
    let metrics: Vec<(String, Value)> = specs
        .iter()
        .map(|s| {
            let value = m.get(s.name).copied().unwrap_or(0.0);
            (s.name.to_string(), json!({"value": value, "unit": s.unit}))
        })
        .collect();
    json!({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": Value::Object(metrics),
    })
}
