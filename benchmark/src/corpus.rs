//! The one corpus source: real agent spans captured from Bookinfo, plus
//! synthetic deep-chain and wide-fan-out exchange trees.
//!
//! Real spans carry the field mix, tag dictionary and trace shape (~36
//! spans per request over three nodes) the system sees from its own front
//! half. The synthetic trees are the `alg1_assembly` bench's capture-ladder
//! exchanges: every start span of one tree assembles the same trace, so the
//! query workloads hold both work that starts share and work they do not.

use deepflow::mesh::apps::{self, AppHandles};
use deepflow::mesh::World;
use deepflow::types::ids::{OtelSpanId, OtelTraceId, SysTraceId};
use deepflow::types::net::FiveTuple;
use deepflow::types::span::{Span, SpanKind, TapSide};
use deepflow::types::tags::ResourceInventory;
use deepflow::types::{DurationNs, TimeNs};
use deepflow::Deployment;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::net::Ipv4Addr;

/// Agents flush every 10 ms of virtual time, in set-up captures and in the
/// `bookinfo_e2e` rep alike.
const POLL_INTERVAL: DurationNs = DurationNs::from_millis(10);

/// Spans one Bookinfo request leaves behind (sys + net, three nodes).
pub const SPANS_PER_REQUEST: usize = 36;

/// Virtual time granted after the last request fires for it to complete.
const DRAIN: DurationNs = DurationNs::from_millis(50);

/// Share of the corpus that is synthetic exchange trees.
const SYNTHETIC_SHARE: usize = 20; // one span in twenty

/// The seed's Bookinfo request rate, 380–420 rps.
pub fn rate_for_seed(seed: u64) -> f64 {
    380.0 + SmallRng::seed_from_u64(seed ^ 0x5eed_0001).gen_range(0u32..=4000) as f64 / 100.0
}

/// A seeded generator for one of the benchmark's choices (`salt` names it).
pub fn rng(seed: u64, salt: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ salt)
}

/// Fisher–Yates shuffle.
pub fn shuffle<T>(items: &mut [T], rng: &mut SmallRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

fn load_duration(rate: f64, requests: u64) -> DurationNs {
    DurationNs((requests as f64 / rate * 1e9) as u64)
}

/// Bookinfo offering `requests` requests at `rate` rps, un-instrumented.
/// The request count is fixed so that a rep does the same work whatever
/// rate the seed picked; the rate moves only the inter-arrival gap.
pub fn bookinfo(rate: f64, requests: u64) -> (World, AppHandles) {
    let mut tracers = || apps::no_tracer();
    apps::bookinfo(rate, load_duration(rate, requests), &mut tracers)
}

/// Virtual time at which a `requests`-request Bookinfo run is over.
pub fn bookinfo_end(rate: f64, requests: u64) -> TimeNs {
    TimeNs::ZERO + load_duration(rate, requests) + DRAIN
}

/// The instants at which a `requests`-request run is stepped and its agents
/// flushed: every [`POLL_INTERVAL`], the last one at [`bookinfo_end`].
pub fn poll_times(rate: f64, requests: u64) -> impl Iterator<Item = TimeNs> {
    let end = bookinfo_end(rate, requests);
    let step = POLL_INTERVAL.as_nanos();
    (1..=end.as_nanos().div_ceil(step)).map(move |i| TimeNs(i * step).min(end))
}

/// The resource inventory every fresh [`deepflow::server::Server`] is built
/// over (Bookinfo's three nodes and nine pods).
pub fn inventory() -> ResourceInventory {
    bookinfo(400.0, 0).0.fabric.topology.resource_inventory()
}

/// Capture at least `want` real agent spans from Bookinfo at `rate`, in
/// the order the agents flushed them.
fn capture(rate: f64, want: usize) -> Vec<Span> {
    // 10 % head-room: the first requests open connections and the last
    // ones are cut off mid-flight by the truncation below.
    let requests = (want / SPANS_PER_REQUEST + 1) as u64 * 11 / 10 + 8;
    let (mut world, _handles) = bookinfo(rate, requests);
    let mut df = Deployment::install(&mut world).expect("hook programs verify");
    let mut spans = Vec::with_capacity(want + want / 8);
    for now in poll_times(rate, requests) {
        world.run_until(now);
        spans.extend(df.poll_collect(&mut world, now));
    }
    assert!(
        spans.len() >= want,
        "captured {} spans from {requests} requests, wanted {want}",
        spans.len()
    );
    spans.truncate(want);
    spans
}

/// The nine capture points of one exchange, outermost first.
const LADDER: [TapSide; 9] = [
    TapSide::ClientProcess,
    TapSide::ClientPodNic,
    TapSide::ClientNodeNic,
    TapSide::ClientHypervisor,
    TapSide::Gateway,
    TapSide::ServerHypervisor,
    TapSide::ServerNodeNic,
    TapSide::ServerPodNic,
    TapSide::ServerProcess,
];

/// Synthetic ids live far from anything an agent allocates (agents
/// namespace systrace ids with their node id in the high 24 bits).
const SYNTH_NS: u64 = 0xfff0 << 40;

/// One capture-ladder exchange: nine sys spans sharing a TCP sequence,
/// linked upstream by `link_in` and downstream by `link_out`, plus one app
/// span tied in through the otel trace id. Ten spans.
fn push_exchange(out: &mut Vec<Span>, n: u32, base_ns: u64, link_in: u64, link_out: u64) {
    let seq = 0xf000_0000 | n;
    let ip = |hi: u8| Ipv4Addr::new(10, hi, (n >> 8) as u8, n as u8);
    let tuple = FiveTuple::tcp(ip(200), 40_000, ip(201), 80);
    for (rank, tap) in LADDER.iter().enumerate() {
        let r = rank as u64;
        let mut s = Span::synthetic(*tap, base_ns + r * 10, base_ns + 900_000 - r * 10);
        s.five_tuple = tuple;
        s.tcp_seq_req = Some(seq);
        s.endpoint = "GET /synthetic".to_string();
        if *tap == TapSide::ClientProcess {
            s.systrace_id_req = Some(SysTraceId(SYNTH_NS | link_in));
        }
        if *tap == TapSide::ServerProcess {
            s.systrace_id_req = Some(SysTraceId(SYNTH_NS | link_out));
            s.otel_trace_id = Some(OtelTraceId(u128::from(seq)));
        }
        out.push(s);
    }
    let mut app = Span::synthetic(TapSide::ServerApp, base_ns + 1_000, base_ns + 800_000);
    app.kind = SpanKind::App;
    app.five_tuple = tuple;
    app.endpoint = "GET /synthetic".to_string();
    app.otel_trace_id = Some(OtelTraceId(u128::from(seq)));
    app.otel_span_id = Some(OtelSpanId(u64::from(seq)));
    out.push(app);
}

/// Append one tree of exchanges, `branching`-ary and `levels` deep
/// (`branching == 1` is a deep call chain), one exchange per millisecond
/// from `t0`. `next` numbers exchanges and links across the whole corpus.
fn push_tree(out: &mut Vec<Span>, next: &mut u32, t0: u64, branching: usize, levels: usize) {
    let mut queue = VecDeque::new();
    *next += 1;
    queue.push_back((u64::from(*next), 0usize));
    let mut placed = 0u64;
    while let Some((link_in, level)) = queue.pop_front() {
        *next += 1;
        let link_out = u64::from(*next);
        push_exchange(out, *next, t0 + placed * 1_000_000, link_in, link_out);
        placed += 1;
        if level + 1 < levels {
            for _ in 0..branching {
                queue.push_back((link_out, level + 1));
            }
        }
    }
}

/// About `want` synthetic spans: alternating 16-deep chains (160 spans) and
/// 6-ary, 3-level fan-outs (430 spans), spread evenly over `[from, to)`.
fn synthetic(want: usize, from: TimeNs, to: TimeNs) -> Vec<Span> {
    let mut out = Vec::with_capacity(want + 430);
    let mut next = 0u32;
    let trees = (want / 295).max(1) as u64; // mean of 160 and 430
    let stride = to.saturating_since(from).as_nanos() / (trees + 1);
    for t in 0..trees {
        let t0 = from.as_nanos() + stride * t;
        if t % 2 == 0 {
            push_tree(&mut out, &mut next, t0, 1, 16);
        } else {
            push_tree(&mut out, &mut next, t0, 6, 3);
        }
    }
    out
}

/// `want` spans in request-time order: real Bookinfo capture at `rate`
/// with one span in twenty replaced by synthetic exchange trees laid over
/// the same time range.
pub fn build(rate: f64, want: usize) -> Vec<Span> {
    let synth_want = want / SYNTHETIC_SHARE;
    let mut spans = capture(rate, want - synth_want);
    let from = spans
        .iter()
        .map(|s| s.req_time)
        .min()
        .unwrap_or(TimeNs::ZERO);
    let to = spans
        .iter()
        .map(|s| s.req_time)
        .max()
        .unwrap_or(TimeNs::ZERO);
    let mut synth = synthetic(synth_want, from, to);
    synth.truncate(synth_want);
    spans.extend(synth);
    spans.sort_by_key(|s| s.req_time); // stable: flush order breaks ties
    spans
}
