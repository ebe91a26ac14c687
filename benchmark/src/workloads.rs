//! The four workloads: inputs built from the seed, and the fixed-work rep
//! each one repeats from fresh state.
//!
//! A rep is one closed loop of one client on one thread. State is built
//! and dropped outside the timed section; the timed section touches no
//! file and spawns no thread. Sizes are set for a 2-core shared box so that
//! a rep takes 0.3–1 s (see `README.md`).

use crate::check::{self, Oracle};
use crate::clock;
use crate::corpus;
use crate::stats::median;
use crate::tracer::Recorder;
use deepflow::mesh::World;
use deepflow::server::assemble::AssembleConfig;
use deepflow::server::sharded::{assemble_trace_sharded, ShardedSpanStore};
use deepflow::server::{Server, ServerStats};
use deepflow::storage::{ShardPolicy, SpanQuery};
use deepflow::types::span::{Span, SpanStatus};
use deepflow::types::tags::ResourceInventory;
use deepflow::types::{wire, DurationNs, SpanId, TimeNs};
use deepflow::Deployment;
use rand::Rng;
use std::time::Instant;

/// Every span-list window is as long as this many requests take to
/// arrive: 50 ms at 400 rps, ~750 rows whatever rate the seed picked. That
/// keeps one call under the millisecond the latency rule asks for (the
/// issue's 200 ms window took 1.4–3 ms a call).
const LIST_REQUESTS: f64 = 20.0;

/// Width of the span-list windows at `rate` requests per second.
pub fn list_window(rate: f64) -> DurationNs {
    DurationNs((LIST_REQUESTS / rate * 1e9) as u64)
}

/// Where the Bookinfo shape check looks for a `productpage` request: past
/// the first connections, well inside every corpus.
const SHAPE_FROM: TimeNs = TimeNs::from_millis(500);

/// Traces compared against the reference oracle after each rep.
const ORACLE_SAMPLES: usize = 64;

/// Spans per batch in the live-agent shape (`query_preloaded`, `mixed_live`).
pub const LIVE_BATCH: usize = 512;

/// Spans per batch in the backfill shape (`wire_ingest`).
pub const BULK_BATCH: usize = 10_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    BookinfoE2e,
    WireIngest,
    QueryPreloaded,
    MixedLive,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::BookinfoE2e,
        Workload::WireIngest,
        Workload::QueryPreloaded,
        Workload::MixedLive,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::BookinfoE2e => "bookinfo_e2e",
            Workload::WireIngest => "wire_ingest",
            Workload::QueryPreloaded => "query_preloaded",
            Workload::MixedLive => "mixed_live",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn why(self) -> &'static str {
        match self {
            Workload::BookinfoE2e => "Bookinfo through mesh, kernel hooks, agents, wire and server: the only run crossing every layer, so front-half work shows here and server work barely does",
            Workload::WireIngest => "200k pre-encoded spans in 10k-span DFW1 batches into a fresh server, short read tail: Server::ingest_wire dominates and the agent does nothing",
            Workload::QueryPreloaded => "100k spans preloaded, then cold traces, requeries of a hot set that fits the trace cache, and span lists: reads dominate, so an ingest change should move nothing",
            Workload::MixedLive => "512-span batches in time order with trace queries, requeries of just-invalidated starts and span lists between them: shows work deferred from ingest to readers",
        }
    }

    /// Corpus spans a rep ingests (`bookinfo_e2e` makes its own).
    fn corpus_spans(self) -> usize {
        match self {
            Workload::BookinfoE2e => BOOKINFO_REQUESTS as usize * corpus::SPANS_PER_REQUEST,
            Workload::WireIngest => 200_000,
            Workload::QueryPreloaded | Workload::MixedLive => 100_000,
        }
    }

    fn batch_spans(self) -> usize {
        match self {
            Workload::WireIngest => BULK_BATCH,
            _ => LIVE_BATCH,
        }
    }

    /// (cold traces, requeries, span lists) a rep issues.
    fn reads(self) -> (usize, usize, usize) {
        match self {
            Workload::BookinfoE2e => (256, 256, 128),
            // Half the issue's tail: with 256/256/64 the reads were a
            // quarter of the rep and ingest fell under its band.
            Workload::WireIngest => (128, 128, 32),
            Workload::QueryPreloaded => (4096, 4096, 512),
            // Two of each per batch, a list every fourth batch.
            Workload::MixedLive => {
                let batches = Workload::MixedLive.corpus_spans().div_ceil(LIVE_BATCH);
                (2 * batches, 2 * (batches - 1), batches / MIXED_LIST_EVERY)
            }
        }
    }
}

/// Requests one `bookinfo_e2e` rep offers: 4 virtual seconds at 400 rps.
pub const BOOKINFO_REQUESTS: u64 = 1600;

/// Starts `query_preloaded` requeries; fits the 1 024-entry `TraceCache`.
const HOT_SET: usize = 256;

const MIXED_LIST_EVERY: usize = 4;
const MIXED_REAGG_EVERY: usize = 64;

/// Everything a rep reads; made once from the seed.
pub struct Inputs {
    pub workload: Workload,
    pub seed: u64,
    pub rate: f64,
    pub inventory: ResourceInventory,
    /// DFW1 batches in ship order (none for `bookinfo_e2e`).
    pub batches: Vec<Vec<u8>>,
    /// Ship-order positions of the cold-trace starts (the span with id
    /// `ids[p]`). `bookinfo_e2e` fills these in after its warm-up rep.
    pub cold: Vec<usize>,
    /// Ship-order positions requeried, in query order.
    pub requery: Vec<usize>,
    /// Start of each span-list window.
    pub windows: Vec<TimeNs>,
    /// The decoded corpus in ship order. Kept only for the traced run's
    /// probes; the untraced run drops it so that it is not in `peak_rss_mb`.
    pub corpus: Vec<Span>,
}

impl Inputs {
    pub fn build(workload: Workload, seed: u64, keep_corpus: bool) -> Inputs {
        let rate = corpus::rate_for_seed(seed);
        let mut inputs = Inputs {
            workload,
            seed,
            rate,
            inventory: corpus::inventory(),
            batches: Vec::new(),
            cold: Vec::new(),
            requery: Vec::new(),
            windows: Vec::new(),
            corpus: Vec::new(),
        };
        if workload == Workload::BookinfoE2e && !keep_corpus {
            return inputs; // starts are chosen after the warm-up rep
        }
        let mut spans = corpus::build(rate, workload.corpus_spans());
        if workload == Workload::WireIngest {
            // Backfill arrives in no particular order.
            corpus::shuffle(&mut spans, &mut corpus::rng(seed, 0x5b0f));
        }
        if workload != Workload::BookinfoE2e {
            inputs.batches = spans
                .chunks(workload.batch_spans())
                .map(wire::encode_batch)
                .collect();
            let (usable, times): (Vec<bool>, Vec<TimeNs>) =
                spans.iter().map(|s| (usable_start(s), s.req_time)).unzip();
            inputs.plan(&usable, &times);
        }
        if keep_corpus {
            inputs.corpus = spans;
        }
        inputs
    }

    /// Choose which starts and windows the rep queries. `usable[p]` says
    /// whether ship-order position `p` may be a start; `times[p]` is its
    /// request time.
    fn plan(&mut self, usable: &[bool], times: &[TimeNs]) {
        let (cold, requery, lists) = self.workload.reads();
        let n = usable.len();
        let window = list_window(self.rate).as_nanos();
        let mut rng = corpus::rng(self.seed, 0x57a7);
        let mut pick_in = |lo: usize, hi: usize| loop {
            let p = rng.gen_range(lo..hi);
            if usable[p] {
                return p;
            }
        };
        let (lo_t, hi_t) = (
            times.iter().min().copied().unwrap_or(TimeNs::ZERO),
            times.iter().max().copied().unwrap_or(TimeNs::ZERO),
        );
        if self.workload == Workload::MixedLive {
            // Two starts inside every batch; batch b requeries batch b−1's.
            let batches = n.div_ceil(LIVE_BATCH);
            self.cold = (0..batches)
                .flat_map(|b| [b, b])
                .map(|b| pick_in(b * LIVE_BATCH, ((b + 1) * LIVE_BATCH).min(n)))
                .collect();
            self.requery = self.cold[..2 * (batches - 1)].to_vec();
            // Each list ends at the newest span ingested when it is issued.
            self.windows = (0..lists)
                .map(|i| {
                    let newest = times[((i + 1) * MIXED_LIST_EVERY * LIVE_BATCH - 1).min(n - 1)];
                    TimeNs(newest.as_nanos().saturating_sub(window))
                })
                .collect();
        } else {
            // Distinct cold starts, spread over the whole corpus.
            let mut taken = vec![false; n];
            self.cold = (0..cold)
                .map(|_| loop {
                    let p = pick_in(0, n);
                    if !std::mem::replace(&mut taken[p], true) {
                        return p;
                    }
                })
                .collect();
            let hot = HOT_SET.min(cold);
            self.requery = (0..requery).map(|i| self.cold[i % hot]).collect();
            let mut rng = corpus::rng(self.seed, 0x11f7);
            let span = hi_t
                .saturating_since(lo_t)
                .as_nanos()
                .saturating_sub(window);
            self.windows = (0..lists)
                .map(|_| TimeNs(lo_t.as_nanos() + rng.gen_range(0..span.max(1))))
                .collect();
        }
        debug_assert_eq!((self.cold.len(), self.requery.len()), (cold, requery));
    }
}

/// Whether a span may be a query start: fragments are consumed by
/// re-aggregation, so a trace from one may legitimately be empty.
pub fn usable_start(span: &Span) -> bool {
    span.status != SpanStatus::ResponseOnly
}

/// Latency samples of the rep under way, in microseconds.
#[derive(Debug, Default)]
struct Samples {
    cold: Vec<f64>,
    requery: Vec<f64>,
    list: Vec<f64>,
}

/// What one rep did and cost.
#[derive(Debug, Default, Clone, Copy)]
pub struct RepOut {
    pub cpu_ns: u64,
    pub wall_ns: u64,
    pub spans: u64,
    pub wire_bytes: u64,
    pub attempted: u64,
    pub failed: u64,
    pub stats: ServerStats,
    /// Medians of the rep's latency samples, in microseconds. Every rep
    /// issues the same queries, so these differ only by machine state.
    pub cold_p50_us: f64,
    pub requery_p50_us: f64,
    pub list_p50_us: f64,
    pub oracle_mismatches: u64,
    /// Whether the recorder was on (the traced run alternates).
    pub traced: bool,
}

/// State a rep ran on, handed back for the untimed checks.
pub struct RepState {
    pub server: Server,
    pub ids: Vec<SpanId>,
}

/// The per-rep driver: runs reps, pools samples, counts failures.
pub struct Runner {
    pub inputs: Inputs,
    pub rec: Recorder,
    /// Every cold-trace sample of the run, for the p99 and the count.
    cold_pool: Vec<f64>,
    samples: Samples,
    oracle: Option<Oracle>,
    reps_run: u32,
}

impl Runner {
    pub fn new(inputs: Inputs, traced: bool) -> Self {
        Runner {
            inputs,
            rec: Recorder::new(traced),
            cold_pool: Vec::new(),
            samples: Samples::default(),
            oracle: None,
            reps_run: 0,
        }
    }

    /// The untimed warm-up rep: fills caches and lazy state, fixes
    /// `bookinfo_e2e`'s starts, builds the oracle. Its samples are dropped.
    pub fn warm_up(&mut self) -> RepOut {
        let was = self.rec.enabled();
        self.rec.set_enabled(false);
        let (out, state) = self.rep_with_state();
        self.oracle = Some(Oracle::of(&state.server));
        let out = self.checked(out, &state);
        self.cold_pool.clear();
        self.reps_run = 0;
        self.rec.set_enabled(was);
        out
    }

    /// What outlives the reps: the inputs (for the probes), the recorded
    /// spans and every cold-trace sample. The oracle and the rest go.
    pub fn finish(self) -> (Inputs, Recorder, Vec<f64>) {
        (self.inputs, self.rec, self.cold_pool)
    }

    /// One timed rep from fresh state, then its untimed checks.
    pub fn rep(&mut self) -> RepOut {
        let (out, state) = self.rep_with_state();
        self.checked(out, &state)
    }

    fn rep_with_state(&mut self) -> (RepOut, RepState) {
        let mut out = RepOut {
            traced: self.rec.enabled(),
            ..RepOut::default()
        };
        let state = match self.inputs.workload {
            Workload::BookinfoE2e => self.bookinfo_rep(&mut out),
            _ => self.batch_rep(&mut out),
        };
        out.stats = state.server.stats();
        out.cold_p50_us = median(&self.samples.cold);
        out.requery_p50_us = median(&self.samples.requery);
        out.list_p50_us = median(&self.samples.list);
        self.cold_pool.append(&mut self.samples.cold);
        self.samples.requery.clear();
        self.samples.list.clear();
        self.reps_run += 1;
        (out, state)
    }

    /// Conservation, the oracle and the Bookinfo shape, counted into the
    /// rep's `attempted`/`failed`.
    fn checked(&mut self, mut out: RepOut, state: &RepState) -> RepOut {
        // Every span shipped was stored.
        out.attempted += 1;
        if state.server.span_count() as u64 != out.spans || out.stats.ingested != out.spans {
            out.failed += 1;
        }
        if let Some(oracle) = &self.oracle {
            let mut rng = corpus::rng(self.inputs.seed, 0x0c1e ^ u64::from(self.reps_run));
            for _ in 0..ORACLE_SAMPLES {
                let p = self.inputs.cold[rng.gen_range(0..self.inputs.cold.len())];
                out.attempted += 1;
                if !oracle.agrees(&state.server, state.ids[p]) {
                    out.failed += 1;
                    out.oracle_mismatches += 1;
                }
            }
        }
        out.attempted += 1;
        if !check::productpage_trace_ok(&state.server, SHAPE_FROM) {
            out.failed += 1;
        }
        out
    }

    // ---- timed pieces shared by the workloads ----

    /// Ship one DFW1 batch. Counts the conservation law on the way: the
    /// batch's header count equals the ids the server returns.
    fn ingest(
        &mut self,
        server: &mut Server,
        twin: &mut Option<ShardedSpanStore>,
        batch: &[u8],
        ids: &mut Vec<SpanId>,
        out: &mut RepOut,
    ) {
        let before = ids.len();
        let (result, idx) = self
            .rec
            .span("df-server.server.ingest_wire", || server.ingest_wire(batch));
        out.attempted += 1;
        match result {
            Ok(new) => ids.extend(new),
            Err(_) => out.failed += 1,
        }
        out.wire_bytes += batch.len() as u64;
        if let Some(twin) = twin {
            // The composite's public parts, on the same bytes.
            let decoded = self.rec.shadow("df-types.wire.decode_batch", idx, || {
                wire::decode_batch(batch)
            });
            if let Ok(mut spans) = decoded {
                let dict = server.dictionary();
                self.rec.shadow("df-server.dictionary.enrich", idx, || {
                    for s in &mut spans {
                        dict.enrich(&mut s.tags.resource);
                    }
                });
                self.rec.shadow("df-server.sharded.insert_batch", idx, || {
                    twin.insert_batch(spans)
                });
            }
        }
        // Untimed-cheap header peek (~0.5 µs): shipped == stored.
        if wire::peek_span_count(batch).ok() != Some((ids.len() - before) as u64) {
            out.failed += 1;
        }
    }

    /// One trace query; `cold` says which pool the sample joins. The
    /// latency sample ends when the call returns; the span also covers
    /// freeing the answer, which the layer allocated.
    fn trace(&mut self, server: &Server, start: SpanId, cold: bool, out: &mut RepOut) {
        let hits_before = if self.rec.enabled() {
            server.stats().cache_hits
        } else {
            0
        };
        let mut took = 0.0;
        let t = Instant::now();
        let (len, idx) = self.rec.span("df-server.server.trace", || {
            let trace = server.trace(start);
            took = clock::us_since(t);
            trace.len()
        });
        if cold {
            self.samples.cold.push(took);
        } else {
            self.samples.requery.push(took);
        }
        out.attempted += 1;
        if len == 0 {
            out.failed += 1;
        }
        if self.rec.enabled() {
            if server.stats().cache_hits > hits_before {
                self.rec.rename(idx, "df-server.trace_cache.hit");
            } else {
                self.rec
                    .shadow("df-server.assemble.assemble_trace_sharded", idx, || {
                        assemble_trace_sharded(server.store(), start, &AssembleConfig::default())
                            .len()
                    });
            }
        }
    }

    fn list(&mut self, server: &Server, from: TimeNs, out: &mut RepOut) {
        let q = SpanQuery::window(from, from + list_window(self.inputs.rate));
        let mut took = 0.0;
        let t = Instant::now();
        let (_rows, idx) = self.rec.span("df-server.server.span_list", || {
            let rows = server.span_list(&q);
            took = clock::us_since(t);
            rows.len()
        });
        self.samples.list.push(took);
        out.attempted += 1;
        if self.rec.enabled() {
            self.rec.shadow("df-server.sharded.query", idx, || {
                server.store().query(&q).len()
            });
        }
    }

    fn re_aggregate(&mut self, server: &mut Server, out: &mut RepOut) {
        self.rec
            .span("df-server.server.re_aggregate", || server.re_aggregate());
        out.attempted += 1;
    }

    /// The read tail every workload but `mixed_live` ends with.
    fn read_tail(&mut self, server: &Server, ids: &[SpanId], out: &mut RepOut) {
        for i in 0..self.inputs.cold.len() {
            self.trace(server, ids[self.inputs.cold[i]], true, out);
        }
        for i in 0..self.inputs.requery.len() {
            self.trace(server, ids[self.inputs.requery[i]], false, out);
        }
        for i in 0..self.inputs.windows.len() {
            self.list(server, self.inputs.windows[i], out);
        }
    }

    fn twin(&self) -> Option<ShardedSpanStore> {
        self.rec
            .enabled()
            .then(|| ShardedSpanStore::new(ShardPolicy::default()))
    }

    /// Open the timed section: both clocks and the rep's root span.
    fn begin_timed(&mut self) -> (u64, u64) {
        let began = (clock::cpu_ns(), clock::wall_ns());
        self.rec.begin_rep(self.reps_run);
        began
    }

    /// Close the timed section opened by [`Self::begin_timed`].
    fn end_timed(&mut self, (cpu0, wall0): (u64, u64), ids: &[SpanId], out: &mut RepOut) {
        self.rec.end_rep();
        out.cpu_ns = clock::cpu_ns() - cpu0;
        out.wall_ns = clock::wall_ns() - wall0;
        out.spans = ids.len() as u64;
    }

    // ---- the reps ----

    /// `wire_ingest`, `query_preloaded` and `mixed_live`: pre-encoded
    /// batches into a fresh server.
    fn batch_rep(&mut self, out: &mut RepOut) -> RepState {
        let mut server = Server::new(&self.inputs.inventory);
        let mut twin = self.twin();
        let batches = std::mem::take(&mut self.inputs.batches);
        let mut ids = Vec::with_capacity(self.inputs.workload.corpus_spans());
        let began = self.begin_timed();
        if self.inputs.workload == Workload::MixedLive {
            let mut lists = 0;
            for (b, batch) in batches.iter().enumerate() {
                self.ingest(&mut server, &mut twin, batch, &mut ids, out);
                for k in 0..2 {
                    self.trace(&server, ids[self.inputs.cold[2 * b + k]], true, out);
                }
                if b > 0 {
                    for k in 0..2 {
                        self.trace(
                            &server,
                            ids[self.inputs.requery[2 * (b - 1) + k]],
                            false,
                            out,
                        );
                    }
                }
                if (b + 1) % MIXED_LIST_EVERY == 0 && lists < self.inputs.windows.len() {
                    self.list(&server, self.inputs.windows[lists], out);
                    lists += 1;
                }
                if (b + 1) % MIXED_REAGG_EVERY == 0 {
                    self.re_aggregate(&mut server, out);
                }
            }
        } else {
            for batch in &batches {
                self.ingest(&mut server, &mut twin, batch, &mut ids, out);
            }
            self.read_tail(&server, &ids, out);
        }
        self.end_timed(began, &ids, out);
        self.inputs.batches = batches;
        RepState { server, ids }
    }

    /// `bookinfo_e2e`: Bookinfo through `Deployment::install`, the world
    /// stepped and every agent flushed over the wire each 10 ms, then
    /// re-aggregation, the slowest span and the read tail.
    fn bookinfo_rep(&mut self, out: &mut RepOut) -> RepState {
        let (mut world, _handles) = corpus::bookinfo(self.inputs.rate, BOOKINFO_REQUESTS);
        let mut df = Deployment::install(&mut world).expect("hook programs verify");
        let mut twin = self.twin();
        let end = corpus::bookinfo_end(self.inputs.rate, BOOKINFO_REQUESTS);
        let mut ids = Vec::with_capacity(self.inputs.workload.corpus_spans() * 5 / 4);
        let began = self.begin_timed();
        for now in corpus::poll_times(self.inputs.rate, BOOKINFO_REQUESTS) {
            self.rec.span("df-mesh.run_until", || world.run_until(now));
            self.flush_agents(&mut df, &mut world, &mut twin, now, &mut ids, out);
        }
        self.re_aggregate(&mut df.server, out);
        let (slowest, _) = self.rec.span("df-server.server.slowest_span", || {
            df.server.slowest_span(TimeNs::ZERO, end)
        });
        out.attempted += 1;
        if slowest.is_none() {
            out.failed += 1;
        }
        if self.inputs.cold.is_empty() {
            // Warm-up only: the starts are planned over the spans the rep
            // stores, like any other corpus. Reps are fixed work, so the
            // plan holds for every later rep.
            let (usable, times): (Vec<bool>, Vec<TimeNs>) = df
                .server
                .store()
                .iter()
                .map(|s| (usable_start(&s), s.req_time))
                .unzip();
            self.inputs.plan(&usable, &times);
        }
        self.read_tail(&df.server, &ids, out);
        self.end_timed(began, &ids, out);
        RepState {
            server: df.server,
            ids,
        }
    }

    /// `Deployment::poll_wire`, opened up so that the bytes on the wire
    /// can be counted and, in a traced rep, `Agent::poll_wire` is replaced
    /// by its two public parts.
    fn flush_agents(
        &mut self,
        df: &mut Deployment,
        world: &mut World,
        twin: &mut Option<ShardedSpanStore>,
        now: TimeNs,
        ids: &mut Vec<SpanId>,
        out: &mut RepOut,
    ) {
        for (node, agent) in df.agents.iter_mut() {
            let kernel = world
                .kernels
                .get_mut(node)
                .expect("agent node has a kernel");
            let batch = if self.rec.enabled() {
                let (spans, _) = self.rec.span("df-agent.poll", || {
                    agent.poll(kernel, &mut world.fabric, now)
                });
                if spans.is_empty() {
                    None
                } else {
                    Some(
                        self.rec
                            .span("df-types.wire.encode_batch", || wire::encode_batch(&spans))
                            .0,
                    )
                }
            } else {
                agent.poll_wire(kernel, &mut world.fabric, now)
            };
            if let Some(batch) = batch {
                self.ingest(&mut df.server, twin, &batch, ids, out);
            }
        }
    }
}
