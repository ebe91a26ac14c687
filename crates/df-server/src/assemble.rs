//! Algorithm 1 — iterative trace assembling (paper §3.3.2).
//!
//! Phase 1 (lines 1–16): starting from a user-chosen span, expand the span
//! set through the store's implicit-context indexes (systrace ids,
//! pseudo-thread ids, X-Request-IDs, TCP sequences, third-party trace ids)
//! until a fixed point or the iteration cap (default 30, like the paper).
//! The search is frontier-based: each iteration probes only the spans
//! discovered in the previous iteration, and each index *key* is expanded
//! at most once, so the total Phase-1 cost is bounded by the touched index
//! entries rather than `iterations × |set| × bucket`. Probes borrow row
//! slices straight from the store (no per-probe allocation), the search's
//! own tables are [`IntSet`]s, tombstoned spans (consumed by server-side
//! re-aggregation, §3.3.1) are filtered at discovery time, and when the set
//! exceeds `max_spans` it is truncated deterministically by
//! `(req_time, span_id)`, always keeping the start span.
//!
//! Phase 2 (lines 17–24): set each span's parent under **16 rules** keyed on
//! collection location, start/finish time, span type and message type:
//!
//! * **Rules 1–8 — the capture ladder.** Spans of the *same exchange*
//!   (same request TCP sequence; UDP falls back to flow+endpoint+time) are
//!   chained along the client→server capture path:
//!   `c-app → c → c-pod → c-nd → c-hv → gw → s-hv → s-nd → s-pod → s`.
//!   Each capture point's span is the parent of the next one down the path.
//!   (The paper's prose states the client/server parent direction the other
//!   way round for its example; we nest along the request path so traces
//!   render as Fig. 1 — outermost span first. The association content is
//!   identical.)
//! * **Rule 9** — request-chain systrace: a server-process span whose
//!   *request* systrace id equals an exchange's client-process request
//!   systrace id is that exchange's parent (the handler made the call).
//! * **Rule 10** — response-chain systrace: same, via response systrace ids.
//! * **Rule 11** — pseudo-thread: shared pseudo-thread id plus time
//!   containment (coroutine runtimes).
//! * **Rule 12** — X-Request-ID: shared proxy request id plus containment
//!   (cross-thread proxies, L7 gateways).
//! * **Rule 13** — third-party client span: an app span is the parent of
//!   the exchange whose messages carried that span's id in their headers.
//! * **Rule 14** — third-party server span: a server-process span is the
//!   parent of an app span it contains with the same trace id.
//! * **Rule 15** — third-party ancestry: app span A is the child of app
//!   span B when `A.parent_span_id == B.span_id`.
//! * **Rule 16** — fallback: same third-party trace id, tightest time
//!   containment.
//!
//! Rule number → the paper material it reproduces:
//!
//! | rule  | association mechanism            | paper reference                  |
//! |-------|----------------------------------|----------------------------------|
//! | 1–8   | capture ladder (TCP seq / flow)  | §3.3.2 "network path", Table 6 rows for net spans; Appendix A Fig. 17–18 |
//! | 9     | request-chain syscall trace id   | §3.3.1 Fig. 6–7 (TraceID of syscalls), Table 6 |
//! | 10    | response-chain syscall trace id  | §3.3.1 Fig. 6–7, Table 6         |
//! | 11    | pseudo-thread containment        | §3.3.1 "pseudo-thread structure" |
//! | 12    | X-Request-ID containment         | §3.3.2 L7-gateway association, Appendix A |
//! | 13    | third-party client span id       | §3.3.2 third-party span integration |
//! | 14    | third-party server containment   | §3.3.2 third-party span integration |
//! | 15    | explicit app-span ancestry       | §3.3.2 third-party span integration |
//! | 16    | shared trace id, tightest fit    | §3.3.2 third-party span integration (fallback) |
//!
//! Rules 9–12, 14 and 16 resolve through one per-trace side index over the
//! parent candidates (server-process / server-app spans filed under their
//! systrace ids, pseudo-thread id, X-Request-IDs and trace id; rule 14's
//! server-process spans under their trace id): a list of
//! `(key, position)` pairs sorted once and bisected per probe, instead of
//! a scan of the whole span set per exchange. Rules 13 and 15 find app
//! spans by third-party span id in a second such list.
//!
//! Phase 3 (line 25): sort parents-first, siblings by request time.
//!
//! Phase 1 borrows each row it expands ([`ShardProbe::span_at`]). When it
//! ends, each member is taken shared ([`ShardProbe::shared_at`]): a hot
//! row costs a reference count, a cold row the one copy paged in. Phases
//! 2 and 3 run on `&Span` borrowed from those `Arc`s, a span named by its
//! position in `(req_time, span_id)` order: parents are positions, an
//! exchange is a run of positions sorted by a key that borrows the
//! endpoint, and a child list built in position order is already in
//! sibling order. The trace keeps the `Arc`s, so no member is copied.
//!
//! [`assemble_trace_reference`] keeps the original full-rescan / full-scan
//! formulation (with the same tombstone, dedup and truncation semantics)
//! as a differential-testing oracle and benchmark baseline; the property
//! tests assert both implementations produce identical traces.

use crate::router::Loc;
use df_storage::{SpanRef, SpanStore};
use df_types::rpc::CandidateKeys;
use df_types::span::{Span, SpanKind, TapSide};
use df_types::trace::{AssembledSpan, Trace};
use df_types::{AssocKey, DurationNs, IntSet, OtelSpanId, SpanId};
use std::borrow::Borrow;
use std::sync::Arc;

/// Assembly tunables.
#[derive(Debug, Clone)]
pub struct AssembleConfig {
    /// Iteration cap for the search phase (paper default: 30).
    pub iterations: usize,
    /// Hard cap on trace size (defensive).
    pub max_spans: usize,
    /// Clock tolerance for containment checks.
    pub time_tolerance: DurationNs,
}

impl Default for AssembleConfig {
    fn default() -> Self {
        AssembleConfig {
            iterations: 30,
            max_spans: 10_000,
            time_tolerance: DurationNs::from_micros(100),
        }
    }
}

/// Where Phase 1 finds spans. The frontier search itself
/// ([`assemble_with`]) is one loop; what differs between deployments is
/// only how a round's keys reach the shards — borrowed rows in this
/// process ([`LocalShards`]) or candidate-set RPCs to other nodes
/// (`df-cluster`).
pub trait ShardProbe {
    /// The span at `loc`: the start span or a location an earlier
    /// [`ShardProbe::probe_round`] returned.
    fn span_at(&self, loc: Loc) -> SpanRef<'_>;

    /// The span at `loc`, shared: what the trace keeps of each member,
    /// taken once per member when Phase 1 ends.
    fn shared_at(&self, loc: Loc) -> Arc<Span>;

    /// Run round `round`'s new keys against every shard and return the
    /// matching locations in ascending shard order. Locations in `seen`
    /// may be left out; the driver drops them (and repeats) either way.
    fn probe_round(&mut self, round: u32, keys: &CandidateKeys, seen: &IntSet<Loc>) -> Vec<Loc>;
}

/// The in-process prober: the shards are right here, index-aligned with
/// [`Loc::shard`], and rows are borrowed straight from them (a cold row
/// pages in when its keys are expanded — the Phase 1 page-in path). `S`
/// is how the owner holds a shard: the shard itself, or a borrow of it.
pub struct LocalShards<'a, S> {
    /// The shards.
    pub shards: &'a [S],
    /// Posting entries under every key probed so far, over all shards.
    pub postings: u64,
}

impl<S: Borrow<SpanStore>> ShardProbe for LocalShards<'_, S> {
    fn span_at(&self, loc: Loc) -> SpanRef<'_> {
        self.shards[loc.shard as usize]
            .borrow()
            .span_at(loc.row)
            .expect("member rows exist")
    }

    fn shared_at(&self, loc: Loc) -> Arc<Span> {
        self.shards[loc.shard as usize]
            .borrow()
            .shared_at(loc.row)
            .expect("member rows exist")
    }

    fn probe_round(&mut self, _round: u32, keys: &CandidateKeys, seen: &IntSet<Loc>) -> Vec<Loc> {
        let mut found = Vec::new();
        for (si, shard) in self.shards.iter().enumerate() {
            self.postings += probe_shard(si as u16, shard.borrow(), keys, seen, &mut found) as u64;
        }
        found
    }
}

/// What a Phase 1 that reached its fixed point joined on, as the shards
/// stood then: the keys it expanded, the posting entries under them over
/// all shards, and the shards' summed [`SpanStore::edits`]. While the
/// edit count stands still the lists can only have grown, so an equal
/// posting total means no list under any of the keys changed: no span the
/// search could reach has arrived and no member was altered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinFacts {
    pub(crate) keys: Vec<AssocKey>,
    pub(crate) postings: u64,
    pub(crate) edits: u64,
}

impl JoinFacts {
    /// Whether `shards` — the whole corpus the search ran over — still
    /// stand as recorded.
    pub fn hold(&self, shards: &[impl Borrow<SpanStore>]) -> bool {
        let (mut postings, mut edits) = (0, 0);
        for shard in shards.iter().map(Borrow::borrow) {
            edits += shard.edits();
            postings += (self.keys.iter())
                .map(|&key| shard.find(key).len() as u64)
                .sum::<u64>();
        }
        (postings, edits) == (self.postings, self.edits)
    }
}

/// Probe shard `si` with a whole round's key batch, appending its *new*
/// candidate rows to `found`: rows in `seen` are skipped, rows matched by
/// several keys are appended once, tombstoned rows are filtered. A remote
/// shard owner answers a
/// [`CandidateRequest`](df_types::rpc::RpcBody::CandidateRequest) by
/// calling exactly this with an empty `seen` set. Returns the posting
/// entries walked: the summed lengths of the batch's lists in this shard.
pub fn probe_shard(
    si: u16,
    shard: &SpanStore,
    batch: &CandidateKeys,
    seen: &IntSet<Loc>,
    found: &mut Vec<Loc>,
) -> usize {
    let mut local: IntSet<u32> = IntSet::default();
    let mut walked = 0;
    let mut grow = |rows: &[u32]| {
        for &row in rows {
            let loc = Loc { shard: si, row };
            if seen.contains(&loc) || !local.insert(row) {
                continue;
            }
            // A tombstone is a bit per row, whatever the row's tier: the
            // filter reads no span, so probing stays IO-free.
            if !shard.is_tombstoned_row(row) {
                found.push(loc);
            }
        }
    };
    for key in batch.iter() {
        let rows = shard.find(key);
        walked += rows.len();
        grow(rows);
    }
    walked
}

/// Algorithm 1 from the span at `start` (whose id is `start_id`), over
/// whatever `prober` reaches. Returns the trace, how many Phase 1 rounds
/// probed the shards, and — when the search ended at its fixed point and
/// not at a cap — the keys it expanded, every one of them probed.
///
/// Phase 1 (lines 1–16) is a frontier search: each round batches the
/// frontier's not-yet-expanded keys ([`CandidateKeys`] — also the payload
/// of a cross-node `CandidateRequest`), probes the batch against every
/// shard, and the newly seen locations become the next frontier. `seen`
/// is membership only; `members`/`frontier` are `Vec`s merged in ascending
/// shard order, so discovery order — and with it the member set under the
/// `max_spans` cap — is the same for every prober. Phases 2 and 3 run on
/// the member spans as the prober shares them.
pub fn assemble_with<P: ShardProbe>(
    prober: &mut P,
    start: Loc,
    start_id: SpanId,
    cfg: &AssembleConfig,
) -> (Trace, u32, Option<Vec<AssocKey>>) {
    let mut seen: IntSet<Loc> = IntSet::default();
    seen.insert(start);
    let mut members: Vec<Loc> = vec![start];
    let mut frontier: Vec<Loc> = vec![start];
    // Each key is expanded — probed against every shard — at most once.
    let mut expanded: IntSet<AssocKey> = IntSet::default();
    let mut rounds = 0u32;
    let mut fixed_point = false;
    for _ in 0..cfg.iterations {
        if members.len() >= cfg.max_spans {
            break; // cap crossed; truncated by `assemble_members`
        }
        let mut keys = CandidateKeys::default();
        for &loc in &frontier {
            // Key order within the batch is discovery order, which every
            // prober preserves.
            prober.span_at(loc).for_each_assoc_key(|key| {
                if expanded.insert(key) {
                    keys.push(key);
                }
            });
        }
        if keys.is_empty() {
            fixed_point = true; // no new keys to expand
            break;
        }
        let mut next = prober.probe_round(rounds, &keys, &seen);
        rounds += 1;
        next.retain(|&loc| seen.insert(loc));
        if next.is_empty() {
            fixed_point = true; // lines 13–14: nothing new matched
            break;
        }
        members.extend_from_slice(&next);
        frontier = next;
    }
    let spans = members.iter().map(|&loc| prober.shared_at(loc)).collect();
    let keys = fixed_point.then(|| expanded.into_iter().collect());
    let trace = assemble_members(spans, start_id, cfg, set_parents_indexed);
    (trace, rounds, keys)
}

/// Run Algorithm 1 from `start` over one standalone store: the one-shard
/// case of [`assemble_with`].
pub fn assemble_trace(store: &SpanStore, start: SpanId, cfg: &AssembleConfig) -> Trace {
    if store.get(start).is_none() || store.is_tombstoned(start) {
        return Trace::default();
    }
    let start_loc = Loc {
        shard: 0,
        row: (start.raw() - 1) as u32,
    };
    let mut probe = LocalShards {
        shards: &[store],
        postings: 0,
    };
    assemble_with(&mut probe, start_loc, start, cfg).0
}

/// Reference formulation of Algorithm 1: Phase 1 re-probes the *entire*
/// span set every iteration and Phase 2 scans all spans for each exchange
/// (rule 14: for each app span). Semantically identical to
/// [`assemble_trace`] — the property tests assert it — but
/// `O(iterations × set × bucket)` / `O(n²)`, so it serves as the
/// differential oracle and the "before" benchmark baseline.
pub fn assemble_trace_reference(store: &SpanStore, start: SpanId, cfg: &AssembleConfig) -> Trace {
    if store.get(start).is_none() || store.is_tombstoned(start) {
        return Trace::default();
    }
    let start_row = (start.raw() - 1) as u32;
    let mut set: IntSet<u32> = IntSet::default();
    set.insert(start_row);
    for _iter in 0..cfg.iterations {
        if set.len() >= cfg.max_spans {
            break;
        }
        let mut found: Vec<u32> = Vec::new();
        for &row in &set {
            let s = store.span_at(row).expect("set rows exist");
            for v in [s.systrace_id_req, s.systrace_id_resp]
                .into_iter()
                .flatten()
            {
                found.extend_from_slice(store.find(AssocKey::Systrace(v.raw())));
            }
            if let Some(p) = s.pseudo_thread_id {
                found.extend_from_slice(store.find(AssocKey::PseudoThread(p.raw())));
            }
            for v in [s.x_request_id_req, s.x_request_id_resp]
                .into_iter()
                .flatten()
            {
                found.extend_from_slice(store.find(AssocKey::XRequest(v.0)));
            }
            for v in [s.tcp_seq_req, s.tcp_seq_resp].into_iter().flatten() {
                found.extend_from_slice(store.find(AssocKey::TcpSeq(v)));
            }
            if let Some(t) = s.otel_trace_id {
                found.extend_from_slice(store.find(AssocKey::OtelTrace(t.0)));
            }
        }
        let before = set.len();
        set.extend(found.into_iter().filter(|&r| !store.is_tombstoned_row(r)));
        if set.len() == before {
            break; // fixed point
        }
    }
    let spans = set.iter().filter_map(|&row| store.shared_at(row)).collect();
    assemble_members(spans, start, cfg, set_parents_reference)
}

/// Phases 2 and 3 over the shared member spans: sort and truncate
/// (retaining `start`), assign parents with `set_parents` on the spans
/// borrowed, sort the tree. Both formulations share everything but
/// `set_parents`.
fn assemble_members(
    members: Vec<Arc<Span>>,
    start: SpanId,
    cfg: &AssembleConfig,
    set_parents: fn(&[&Span], &AssembleConfig) -> Vec<Option<usize>>,
) -> Trace {
    let members = sort_and_truncate(members, start, cfg.max_spans);
    let spans: Vec<&Span> = members.iter().map(|s| &**s).collect();
    sort_trace(&members, &set_parents(&spans, cfg))
}

/// Sort the member spans by `(req_time, span_id)` — the order a position
/// names — and truncate deterministically to `max_spans`, always retaining
/// the start span. A start kept past the cut sorts after every span kept,
/// so the order holds.
fn sort_and_truncate(mut spans: Vec<Arc<Span>>, start: SpanId, max_spans: usize) -> Vec<Arc<Span>> {
    spans.sort_unstable_by_key(|s| (s.req_time, s.span_id));
    if spans.len() > max_spans {
        let start_pos = spans
            .iter()
            .position(|s| s.span_id == start)
            .expect("start span is a member");
        if start_pos >= max_spans {
            // The start span sorts after the cut: keep it anyway (it is the
            // span the user asked about), dropping one other tail span.
            let start_span = spans.remove(start_pos);
            spans.truncate(max_spans.saturating_sub(1));
            spans.push(start_span);
        } else {
            spans.truncate(max_spans);
        }
    }
    spans
}

/// Exchange identity: the unit one request/response pair forms across all
/// its capture points.
#[derive(PartialEq, Eq, PartialOrd, Ord)]
enum ExchangeKey<'a> {
    /// TCP: the request sequence number (preserved across every L2/3/4 hop
    /// and across L4 gateways — Appendix A).
    Tcp(u32),
    /// UDP / sequence-less: flow + endpoint + coarse time bucket.
    Loose(u64, &'a str, u64),
}

fn exchange_key(s: &Span) -> ExchangeKey<'_> {
    match s.tcp_seq_req {
        Some(seq) => ExchangeKey::Tcp(seq),
        None => ExchangeKey::Loose(
            s.flow_id.raw(),
            &s.endpoint,
            s.req_time.as_nanos() / 100_000_000, // 100 ms bucket
        ),
    }
}

fn contains(parent: &Span, child: &Span, tol: DurationNs) -> bool {
    parent.req_time.as_nanos() <= child.req_time.as_nanos() + tol.as_nanos()
        && parent.resp_time.as_nanos() + tol.as_nanos() >= child.resp_time.as_nanos()
}

/// Parent-candidate preference: the tightest container wins — latest
/// `req_time`, ties broken towards the smallest span id. Explicit (rather
/// than scan-order-dependent) so the indexed and reference rule
/// implementations provably agree.
fn better_candidate(spans: &[&Span], best: Option<usize>, j: usize) -> Option<usize> {
    match best {
        None => Some(j),
        Some(b) => {
            let (sb, sj) = (spans[b], spans[j]);
            if sj.req_time > sb.req_time || (sj.req_time == sb.req_time && sj.span_id < sb.span_id)
            {
                Some(j)
            } else {
                Some(b)
            }
        }
    }
}

/// The entries of `list` — `(key, position)` pairs sorted by both — filed
/// under `key`.
fn filed<K: Ord + Copy>(list: &[(K, usize)], key: K) -> &[(K, usize)] {
    let from = list.partition_point(|&(k, _)| k < key);
    let len = list[from..].partition_point(|&(k, _)| k == key);
    &list[from..from + len]
}

/// Exchange grouping shared by both Phase-2 implementations: rules 1–8
/// (the capture ladder) plus the bookkeeping rules 9–13 need.
struct Exchanges {
    /// Parent edges from the capture ladder.
    parent: Vec<Option<usize>>,
    /// Each exchange's ladder top and probe span: its client-process
    /// observation if present (it carries the caller's systrace/x-request
    /// context), else the ladder top itself.
    heads: Vec<(usize, usize)>,
    /// Each span's ladder top; `None` for app spans.
    head_of: Vec<Option<usize>>,
}

fn group_exchanges(spans: &[&Span]) -> Exchanges {
    // App spans join via rules 13–15. The rest sort into one run per
    // exchange, ladder top first.
    let mut ladder: Vec<usize> = (0..spans.len())
        .filter(|&i| spans[i].kind != SpanKind::App)
        .collect();
    ladder.sort_unstable_by_key(|&i| {
        let s = spans[i];
        let rank = s.capture.tap_side.path_rank();
        (exchange_key(s), rank, s.req_time, s.span_id)
    });
    let mut ex = Exchanges {
        parent: vec![None; spans.len()],
        heads: Vec::new(),
        head_of: vec![None; spans.len()],
    };
    for run in ladder.chunk_by(|&a, &b| exchange_key(spans[a]) == exchange_key(spans[b])) {
        let head = run[0];
        for w in run.windows(2) {
            ex.parent[w[1]] = Some(w[0]);
        }
        for &i in run {
            ex.head_of[i] = Some(head);
        }
        // Client-process spans share a rank, so the first in the run is
        // also the first by position.
        let probe = (run.iter().copied())
            .find(|&i| spans[i].capture.tap_side == TapSide::ClientProcess)
            .unwrap_or(head);
        ex.heads.push((head, probe));
    }
    ex
}

/// What the side index files a parent candidate under.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Side {
    SystraceReq,
    SystraceResp,
    PseudoThread,
    /// Both request- and response-side X-Request-IDs, deduped per span.
    XRequest,
    OtelTrace,
    /// Rule 14: server-process (non-app) spans by third-party trace id.
    ServerProcessOtelTrace,
}

/// The side index over the parent candidates (server-side process/app
/// spans) that rules 9–12, 14 and 16 search, read with [`filed`].
fn candidate_index(spans: &[&Span]) -> Vec<((Side, u128), usize)> {
    let mut idx = Vec::new();
    for (j, s) in spans.iter().enumerate() {
        let mut file = |side: Side, key: u128| idx.push(((side, key), j));
        if s.kind != SpanKind::App && s.capture.tap_side == TapSide::ServerProcess {
            if let Some(t) = s.otel_trace_id {
                file(Side::ServerProcessOtelTrace, t.0);
            }
        }
        if !matches!(
            s.capture.tap_side,
            TapSide::ServerProcess | TapSide::ServerApp
        ) {
            continue;
        }
        if let Some(v) = s.systrace_id_req {
            file(Side::SystraceReq, v.raw().into());
        }
        if let Some(v) = s.systrace_id_resp {
            file(Side::SystraceResp, v.raw().into());
        }
        if let Some(v) = s.pseudo_thread_id {
            file(Side::PseudoThread, v.raw().into());
        }
        if let Some(v) = s.x_request_id_req {
            file(Side::XRequest, v.0);
        }
        if let Some(v) = s
            .x_request_id_resp
            .filter(|&v| Some(v) != s.x_request_id_req)
        {
            file(Side::XRequest, v.0);
        }
        if let Some(t) = s.otel_trace_id {
            file(Side::OtelTrace, t.0);
        }
    }
    idx.sort_unstable();
    idx
}

/// Phase 2 via the side index: rules 9–12 and 16 look up the exchange's
/// own context values, rule 14 the app span's trace id. Bisection
/// replaces the full-set scans of [`set_parents_reference`].
fn set_parents_indexed(spans: &[&Span], cfg: &AssembleConfig) -> Vec<Option<usize>> {
    let Exchanges {
        mut parent,
        heads,
        head_of,
    } = group_exchanges(spans);
    let cand = candidate_index(spans);
    let tol = cfg.time_tolerance;

    // Rules 9–12 + 16: find a cross-exchange parent for each exchange head.
    for &(head, probe) in &heads {
        let probe_span = spans[probe];
        let mut best: Option<usize> = None;
        // Candidates filed under `key` outside this exchange, containing
        // the probe span where the rule asks it.
        let mut consider = |side: Side, key: u128, contained: bool| {
            for &(_, j) in filed(&cand, (side, key)) {
                let fits = !contained || contains(spans[j], probe_span, tol);
                if fits && head_of[j] != Some(head) {
                    best = better_candidate(spans, best, j);
                }
            }
        };
        // Rules 9 and 10: request- and response-chain systrace.
        if let Some(v) = probe_span.systrace_id_req {
            consider(Side::SystraceReq, v.raw().into(), false);
        }
        if let Some(v) = probe_span.systrace_id_resp {
            consider(Side::SystraceResp, v.raw().into(), false);
        }
        // Rule 11: pseudo-thread + containment.
        if let Some(v) = probe_span.pseudo_thread_id {
            consider(Side::PseudoThread, v.raw().into(), true);
        }
        // Rule 12: X-Request-ID (either side, cross-matched) + containment.
        let xreq = probe_span.x_request_id_req;
        let xresp = (probe_span.x_request_id_resp).filter(|&v| Some(v) != xreq);
        for v in [xreq, xresp].into_iter().flatten() {
            consider(Side::XRequest, v.0, true);
        }
        // Rule 16: shared third-party trace id + containment.
        if let Some(t) = probe_span.otel_trace_id {
            consider(Side::OtelTrace, t.0, true);
        }
        if let Some(b) = best {
            parent[head] = Some(b);
        }
    }

    app_parents(spans, &heads, &mut parent, |i| {
        let key = (Side::ServerProcessOtelTrace, spans[i].otel_trace_id?.0);
        (filed(&cand, key).iter().map(|&(_, j)| j))
            .filter(|&j| contains(spans[j], spans[i], tol))
            .fold(None, |best, j| better_candidate(spans, best, j))
    });
    drop_cycles(&mut parent);
    parent
}

/// Phase 2 as originally formulated: a scan over all spans per exchange
/// head (rules 9–12, 16) and per app span (rule 14). Kept as the
/// differential oracle for [`set_parents_indexed`].
fn set_parents_reference(spans: &[&Span], cfg: &AssembleConfig) -> Vec<Option<usize>> {
    let Exchanges {
        mut parent,
        heads,
        head_of,
    } = group_exchanges(spans);
    let tol = cfg.time_tolerance;

    for &(head, probe) in &heads {
        let probe_span = spans[probe];
        let mut best: Option<usize> = None;
        for (j, &cand) in spans.iter().enumerate() {
            if head_of[j] == Some(head) {
                continue;
            }
            if !matches!(
                cand.capture.tap_side,
                TapSide::ServerProcess | TapSide::ServerApp
            ) {
                continue;
            }
            let m = |a: Option<df_types::SysTraceId>, b: Option<df_types::SysTraceId>| matches!((a, b), (Some(x), Some(y)) if x == y);
            let mx = |a: Option<df_types::XRequestId>, b: Option<df_types::XRequestId>| matches!((a, b), (Some(x), Some(y)) if x == y);
            let rule9 = m(cand.systrace_id_req, probe_span.systrace_id_req);
            let rule10 = m(cand.systrace_id_resp, probe_span.systrace_id_resp);
            let rule11 = cand.pseudo_thread_id.is_some()
                && cand.pseudo_thread_id == probe_span.pseudo_thread_id
                && contains(cand, probe_span, tol);
            let rule12 = (mx(cand.x_request_id_req, probe_span.x_request_id_req)
                || mx(cand.x_request_id_resp, probe_span.x_request_id_resp)
                || mx(cand.x_request_id_req, probe_span.x_request_id_resp)
                || mx(cand.x_request_id_resp, probe_span.x_request_id_req))
                && contains(cand, probe_span, tol);
            let rule16 = cand.otel_trace_id.is_some()
                && cand.otel_trace_id == probe_span.otel_trace_id
                && contains(cand, probe_span, tol);
            if rule9 || rule10 || rule11 || rule12 || rule16 {
                best = better_candidate(spans, best, j);
            }
        }
        if let Some(b) = best {
            parent[head] = Some(b);
        }
    }

    app_parents(spans, &heads, &mut parent, |i| {
        let s = spans[i];
        // Rule 14: scan for a containing server-process span.
        (0..spans.len())
            .filter(|&j| {
                let cand = spans[j];
                j != i
                    && cand.kind != SpanKind::App
                    && cand.capture.tap_side == TapSide::ServerProcess
                    && cand.otel_trace_id.is_some()
                    && cand.otel_trace_id == s.otel_trace_id
                    && contains(cand, s, tol)
            })
            .fold(None, |best, j| better_candidate(spans, best, j))
    });
    drop_cycles(&mut parent);
    parent
}

/// Rules 13–15, shared by both Phase-2 implementations. Rule 13: an
/// exchange that carried an app span's id in its headers hangs under that
/// (tighter) app span. Rule 15: an app span hangs under the app span its
/// parent id names; where that names no other span, rule 14 — `rule14`,
/// the tightest containing server-process span — decides.
fn app_parents(
    spans: &[&Span],
    heads: &[(usize, usize)],
    parent: &mut [Option<usize>],
    rule14: impl Fn(usize) -> Option<usize>,
) {
    let mut by_otel_span: Vec<(u64, usize)> = (spans.iter().enumerate())
        .filter(|(_, s)| s.kind == SpanKind::App)
        .filter_map(|(i, s)| s.otel_span_id.map(|id| (id.0, i)))
        .collect();
    by_otel_span.sort_unstable();
    // Of two app spans with one id, the later position answers.
    let app = |id: OtelSpanId| filed(&by_otel_span, id.0).last().map(|&(_, i)| i);
    for &(head, _) in heads {
        if let Some(a) = spans[head].otel_span_id.and_then(app) {
            parent[head] = Some(a);
        }
    }
    for (i, s) in spans.iter().enumerate() {
        if s.kind != SpanKind::App {
            continue;
        }
        match s.otel_parent_span_id.and_then(app) {
            Some(p) if p != i => parent[i] = Some(p),
            _ => {
                if let Some(b) = rule14(i) {
                    parent[i] = Some(b);
                }
            }
        }
    }
}

/// Cycle guard: drop every parent edge whose child lies on a cycle. Each
/// span has at most one parent, so the edges form a functional graph: one
/// colouring walk per unvisited node resolves all cycles in O(n) total,
/// instead of re-walking the full ancestor chain per edge (quadratic on
/// deep call chains).
fn drop_cycles(parent: &mut [Option<usize>]) {
    // 0 = unvisited, 1 = on the current walk, 2 = resolved.
    let mut color = vec![0u8; parent.len()];
    let (mut path, mut cyclic) = (Vec::new(), Vec::new());
    for start in 0..parent.len() {
        let mut cur = Some(start);
        while let Some(c) = cur {
            match color[c] {
                0 => {
                    color[c] = 1;
                    path.push(c);
                    cur = parent[c];
                }
                1 => {
                    // Closed a new cycle: everything from `c` onward is on it.
                    let pos = path.iter().position(|&p| p == c).expect("on the walk");
                    cyclic.extend_from_slice(&path[pos..]);
                    break;
                }
                // Joined an already-resolved walk: no new cycle here.
                _ => break,
            }
        }
        for p in path.drain(..) {
            color[p] = 2;
        }
    }
    for c in cyclic {
        parent[c] = None;
    }
}

/// Phase 3: depth-first, parents before children, siblings by
/// `(req_time, span_id)`.
fn sort_trace(spans: &[Arc<Span>], parent: &[Option<usize>]) -> Trace {
    // Child lists as first-child / next-sibling links, the roots under
    // `n`. Built back to front, every list is in position order.
    let n = spans.len();
    let (mut first, mut next) = (vec![None; n + 1], vec![None; n]);
    for i in (0..n).rev() {
        next[i] = first[parent[i].unwrap_or(n)].replace(i);
    }
    let mut order = Vec::with_capacity(n);
    let mut stack: Vec<usize> = first[n].into_iter().collect();
    while let Some(i) = stack.pop() {
        order.push(i);
        stack.extend(next[i]);
        stack.extend(first[i]);
    }
    debug_assert_eq!(order.len(), n, "acyclic parents reach every span");
    // Each member is the store's row, shared, not copied. Sharing once
    // measured +8 % on a cached requery (results/pr24_benchmark.md), but
    // then every hit copied the cached trace; a hit now reads no member,
    // and sharing re-measured −2.3 % on a `query_preloaded` requery (7 of
    // 10 pairs better) and −37 % / −49 % on `wire_ingest` /
    // `bookinfo_e2e` (results/pr43_benchmark.md).
    let assembled = (order.iter())
        .map(|&i| AssembledSpan::new(Arc::clone(&spans[i]), parent[i].map(|p| spans[p].span_id)))
        .collect();
    Trace { spans: assembled }
}

#[cfg(test)]
mod tests {
    use super::*;
    use df_types::ids::*;
    use df_types::span::SpanStatus;

    /// Figure-1-shaped scenario over two exchanges:
    /// user → A (exchange 1, seq 100), A → B (exchange 2, seq 200),
    /// each observed at client and server process plus a node NIC.
    fn figure1_store() -> (SpanStore, SpanId) {
        let mut st = SpanStore::new();
        // Exchange 1: user → A. Only A's server span (user is external).
        let mut a_server = Span::synthetic(TapSide::ServerProcess, 0, 100);
        a_server.tcp_seq_req = Some(100);
        a_server.tcp_seq_resp = Some(150);
        a_server.systrace_id_req = Some(SysTraceId(1));
        a_server.systrace_id_resp = Some(SysTraceId(2));
        let a_id = st.insert(a_server);

        // Exchange 2: A → B.
        let mut a_client = Span::synthetic(TapSide::ClientProcess, 10, 80);
        a_client.tcp_seq_req = Some(200);
        a_client.tcp_seq_resp = Some(250);
        a_client.systrace_id_req = Some(SysTraceId(1)); // chained from A's ingress
        a_client.systrace_id_resp = Some(SysTraceId(2));
        let ac_id = st.insert(a_client);

        let mut nic = Span::synthetic(TapSide::ClientNodeNic, 12, 78);
        nic.kind = SpanKind::Net;
        nic.tcp_seq_req = Some(200);
        nic.tcp_seq_resp = Some(250);
        let nic_id = st.insert(nic);

        let mut b_server = Span::synthetic(TapSide::ServerProcess, 20, 70);
        b_server.tcp_seq_req = Some(200);
        b_server.tcp_seq_resp = Some(250);
        b_server.systrace_id_req = Some(SysTraceId(10));
        b_server.systrace_id_resp = Some(SysTraceId(11));
        let bs_id = st.insert(b_server);

        let _ = (ac_id, nic_id, bs_id);
        (st, a_id)
    }

    #[test]
    fn search_reaches_every_related_span_from_any_start() {
        let (st, a_id) = figure1_store();
        let trace = assemble_trace(&st, a_id, &AssembleConfig::default());
        assert_eq!(trace.len(), 4, "all four spans joined: {trace:#?}");
        assert!(trace.is_well_formed());
        // Starting from a different span reaches the same set.
        let trace2 = assemble_trace(&st, SpanId(4), &AssembleConfig::default());
        assert_eq!(trace2.len(), 4);
    }

    #[test]
    fn parents_follow_capture_ladder_and_systrace() {
        let (st, a_id) = figure1_store();
        let trace = assemble_trace(&st, a_id, &AssembleConfig::default());
        let parent_of = |id: u64| {
            trace
                .spans
                .iter()
                .find(|s| s.span.span_id == SpanId(id))
                .unwrap()
                .parent
        };
        // A's server span is the root.
        assert_eq!(parent_of(1), None);
        // Rule 9: A's client span hangs off A's server span via systrace.
        assert_eq!(parent_of(2), Some(SpanId(1)));
        // Rules 1–8: NIC net span chains under the client process span...
        assert_eq!(parent_of(3), Some(SpanId(2)));
        // ...and B's server span chains under the NIC span.
        assert_eq!(parent_of(4), Some(SpanId(3)));
        // Sorted parents-first.
        assert_eq!(trace.spans[0].span.span_id, SpanId(1));
    }

    #[test]
    fn unrelated_spans_stay_out_of_the_trace() {
        let (mut st, a_id) = figure1_store();
        let mut noise = Span::synthetic(TapSide::ServerProcess, 1000, 2000);
        noise.tcp_seq_req = Some(999);
        noise.systrace_id_req = Some(SysTraceId(77));
        st.insert(noise);
        let trace = assemble_trace(&st, a_id, &AssembleConfig::default());
        assert_eq!(trace.len(), 4);
    }

    #[test]
    fn iteration_cap_bounds_the_search() {
        // A long chain: exchange i links to i+1 by systrace. With a cap of
        // 2 iterations only a prefix is found.
        let mut st = SpanStore::new();
        let mut first = None;
        for i in 0..20u64 {
            let mut s = Span::synthetic(TapSide::ServerProcess, i * 10, i * 10 + 200);
            s.tcp_seq_req = Some(1000 + i as u32);
            s.systrace_id_req = Some(SysTraceId(i + 1));
            s.systrace_id_resp = Some(SysTraceId(i + 2)); // overlaps next span's req
            let id = st.insert(s);
            first.get_or_insert(id);
        }
        let small = assemble_trace(
            &st,
            first.unwrap(),
            &AssembleConfig {
                iterations: 2,
                ..Default::default()
            },
        );
        let full = assemble_trace(&st, first.unwrap(), &AssembleConfig::default());
        assert!(small.len() < full.len());
        assert_eq!(full.len(), 20);
    }

    #[test]
    fn x_request_id_links_across_l7_proxy() {
        // Proxy terminates TCP: two exchanges with different seqs, linked
        // only by X-Request-ID (rule 12).
        let mut st = SpanStore::new();
        let xid = XRequestId(0xabc);
        let mut downstream = Span::synthetic(TapSide::ServerProcess, 0, 100);
        downstream.tcp_seq_req = Some(1);
        downstream.x_request_id_resp = Some(xid);
        let d_id = st.insert(downstream);
        let mut upstream = Span::synthetic(TapSide::ClientProcess, 10, 90);
        upstream.tcp_seq_req = Some(500);
        upstream.x_request_id_req = Some(xid);
        st.insert(upstream);
        let trace = assemble_trace(&st, d_id, &AssembleConfig::default());
        assert_eq!(trace.len(), 2);
        let up = trace
            .spans
            .iter()
            .find(|s| s.span.capture.tap_side == TapSide::ClientProcess)
            .unwrap();
        assert_eq!(up.parent, Some(d_id));
    }

    #[test]
    fn pseudo_thread_links_coroutine_exchanges() {
        let mut st = SpanStore::new();
        let pth = PseudoThreadId(5);
        let mut server = Span::synthetic(TapSide::ServerProcess, 0, 100);
        server.tcp_seq_req = Some(1);
        server.pseudo_thread_id = Some(pth);
        let s_id = st.insert(server);
        let mut client = Span::synthetic(TapSide::ClientProcess, 20, 60);
        client.tcp_seq_req = Some(2);
        client.pseudo_thread_id = Some(pth);
        st.insert(client);
        let trace = assemble_trace(&st, s_id, &AssembleConfig::default());
        assert_eq!(trace.len(), 2);
        let c = trace
            .spans
            .iter()
            .find(|s| s.span.capture.tap_side == TapSide::ClientProcess)
            .unwrap();
        assert_eq!(c.parent, Some(s_id), "rule 11");
    }

    #[test]
    fn otel_app_spans_interleave_with_sys_spans() {
        // App span (client side) → its id travels in headers → sys exchange
        // carries otel_span_id → rule 13 makes the app span the parent.
        let mut st = SpanStore::new();
        let tid = OtelTraceId(0x11);
        let app_sid = OtelSpanId(0x22);
        let mut app = Span::synthetic(TapSide::ClientApp, 0, 100);
        app.kind = SpanKind::App;
        app.otel_trace_id = Some(tid);
        app.otel_span_id = Some(app_sid);
        let app_id = st.insert(app);
        let mut sys = Span::synthetic(TapSide::ClientProcess, 10, 90);
        sys.tcp_seq_req = Some(5);
        sys.otel_trace_id = Some(tid);
        sys.otel_span_id = Some(app_sid);
        st.insert(sys);
        let trace = assemble_trace(&st, app_id, &AssembleConfig::default());
        assert_eq!(trace.len(), 2);
        let sys_assembled = trace
            .spans
            .iter()
            .find(|s| s.span.kind == SpanKind::Sys)
            .unwrap();
        assert_eq!(sys_assembled.parent, Some(app_id), "rule 13");
    }

    #[test]
    fn app_span_ancestry_rule15() {
        let mut st = SpanStore::new();
        let tid = OtelTraceId(0x99);
        let mut parent_app = Span::synthetic(TapSide::ServerApp, 0, 100);
        parent_app.kind = SpanKind::App;
        parent_app.otel_trace_id = Some(tid);
        parent_app.otel_span_id = Some(OtelSpanId(1));
        let p_id = st.insert(parent_app);
        let mut child_app = Span::synthetic(TapSide::ClientApp, 10, 90);
        child_app.kind = SpanKind::App;
        child_app.otel_trace_id = Some(tid);
        child_app.otel_span_id = Some(OtelSpanId(2));
        child_app.otel_parent_span_id = Some(OtelSpanId(1));
        st.insert(child_app);
        let trace = assemble_trace(&st, p_id, &AssembleConfig::default());
        assert_eq!(trace.len(), 2);
        let child = trace
            .spans
            .iter()
            .find(|s| s.span.otel_span_id == Some(OtelSpanId(2)))
            .unwrap();
        assert_eq!(child.parent, Some(p_id));
    }

    #[test]
    fn missing_start_span_yields_empty_trace() {
        let st = SpanStore::new();
        let t = assemble_trace(&st, SpanId(42), &AssembleConfig::default());
        assert!(t.is_empty());
    }

    #[test]
    fn assembled_traces_are_always_well_formed() {
        let (st, a_id) = figure1_store();
        for start in 1..=4u64 {
            let t = assemble_trace(&st, SpanId(start), &AssembleConfig::default());
            assert!(t.is_well_formed(), "start {start}");
        }
        let _ = a_id;
    }

    #[test]
    fn tombstoned_spans_never_reappear_in_traces() {
        // Re-aggregation consumed a ResponseOnly fragment: it is
        // tombstoned, and even though its index entries still resolve, the
        // assembled trace must not contain it.
        let (mut st, a_id) = figure1_store();
        let mut fragment = Span::synthetic(TapSide::ServerProcess, 30, 60);
        fragment.status = SpanStatus::ResponseOnly;
        fragment.tcp_seq_resp = Some(200); // links into exchange 2
        let frag_id = st.insert(fragment);
        // Before tombstoning it is discoverable.
        let before = assemble_trace(&st, a_id, &AssembleConfig::default());
        assert!(before.spans.iter().any(|s| s.span.span_id == frag_id));
        st.tombstone(frag_id);
        for impl_name in ["frontier", "reference"] {
            let t = match impl_name {
                "frontier" => assemble_trace(&st, a_id, &AssembleConfig::default()),
                _ => assemble_trace_reference(&st, a_id, &AssembleConfig::default()),
            };
            assert_eq!(t.len(), 4, "{impl_name}");
            assert!(
                t.spans.iter().all(|s| s.span.span_id != frag_id),
                "{impl_name}: tombstoned fragment reappeared"
            );
        }
        // A tombstoned start span yields an empty trace.
        let t = assemble_trace(&st, frag_id, &AssembleConfig::default());
        assert!(t.is_empty());
    }

    #[test]
    fn truncation_is_deterministic_and_keeps_start() {
        // 50 spans all share one systrace id; cap at 10. The kept set must
        // be the 10 earliest by (req_time, span_id) — regardless of hash
        // iteration order — except the start span is always retained.
        let mut st = SpanStore::new();
        let mut ids = Vec::new();
        for i in 0..50u64 {
            let mut s = Span::synthetic(TapSide::ServerProcess, 1000 - i * 10, 2000);
            s.tcp_seq_req = Some(100 + i as u32);
            s.systrace_id_req = Some(SysTraceId(7));
            ids.push(st.insert(s));
        }
        let cfg = AssembleConfig {
            max_spans: 10,
            ..Default::default()
        };
        // Start from the EARLIEST span (req_time 510 = id 50): it is inside
        // the cut, so the trace is exactly the 10 earliest spans.
        let start_early = ids[49];
        let t = assemble_trace(&st, start_early, &cfg);
        assert_eq!(t.len(), 10);
        let mut got: Vec<SpanId> = t.spans.iter().map(|s| s.span.span_id).collect();
        got.sort_unstable();
        let want: Vec<SpanId> = (41..=50).map(SpanId).collect(); // latest ids = earliest times
        assert_eq!(got, want);
        // Re-running yields the identical set (determinism).
        let t2 = assemble_trace(&st, start_early, &cfg);
        let got2: Vec<SpanId> = t2.spans.iter().map(|s| s.span.span_id).collect();
        let mut got2 = got2;
        got2.sort_unstable();
        assert_eq!(got, got2);
        // Start from the LATEST span (req_time 1000 = id 1): it sorts after
        // the cut but must still be in the trace.
        let start_late = ids[0];
        let t3 = assemble_trace(&st, start_late, &cfg);
        assert_eq!(t3.len(), 10);
        assert!(t3.spans.iter().any(|s| s.span.span_id == start_late));
    }

    #[test]
    fn frontier_and_reference_agree_on_figure1() {
        let (st, _) = figure1_store();
        for start in 1..=4u64 {
            let a = assemble_trace(&st, SpanId(start), &AssembleConfig::default());
            let b = assemble_trace_reference(&st, SpanId(start), &AssembleConfig::default());
            let edges = |t: &Trace| -> Vec<(SpanId, Option<SpanId>)> {
                let mut e: Vec<_> = t.spans.iter().map(|s| (s.span.span_id, s.parent)).collect();
                e.sort_unstable();
                e
            };
            assert_eq!(edges(&a), edges(&b), "start {start}");
        }
    }
}
