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
//! slices straight from the store (no per-probe allocation), tombstoned
//! spans (consumed by server-side re-aggregation, §3.3.1) are filtered at
//! discovery time, and when the set exceeds `max_spans` it is truncated
//! deterministically by `(req_time, span_id)`, always keeping the start
//! span.
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
//! Rules 9–12 and 16 resolve through per-trace side indexes over the
//! parent candidates (server-process / server-app spans keyed by systrace
//! id, pseudo-thread id, X-Request-ID and trace id), and rule 14 through a
//! server-process-by-trace-id index, so parent assignment is hash lookups
//! instead of a scan of the whole span set per exchange.
//!
//! Phase 3 (line 25): sort parents-first, siblings by request time.
//!
//! [`assemble_trace_reference`] keeps the original full-rescan / full-scan
//! formulation (with the same tombstone, dedup and truncation semantics)
//! as a differential-testing oracle and benchmark baseline; the property
//! tests assert both implementations produce identical traces.

use crate::router::Loc;
use df_storage::SpanStore;
use df_types::rpc::CandidateKeys;
use df_types::span::{Span, SpanKind, TapSide};
use df_types::trace::{AssembledSpan, Trace};
use df_types::{AssocKey, DurationNs, SpanId};
use std::borrow::Cow;
use std::collections::{HashMap, HashSet};

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
    fn span_at(&self, loc: Loc) -> Cow<'_, Span>;

    /// Run round `round`'s new keys against every shard and return the
    /// matching locations in ascending shard order. Locations in `seen`
    /// may be left out; the driver drops them (and repeats) either way.
    fn probe_round(&mut self, round: u32, keys: &CandidateKeys, seen: &HashSet<Loc>) -> Vec<Loc>;
}

/// The in-process prober: the shards are right here, index-aligned with
/// [`Loc::shard`], and rows are borrowed straight from them (a cold row
/// pages in when its keys are expanded — the Phase 1 page-in path).
pub struct LocalShards<'a> {
    /// The shards.
    pub shards: &'a [&'a SpanStore],
    /// Posting entries under every key probed so far, over all shards.
    pub postings: u64,
}

impl ShardProbe for LocalShards<'_> {
    fn span_at(&self, loc: Loc) -> Cow<'_, Span> {
        self.shards[loc.shard as usize]
            .span_at(loc.row)
            .expect("member rows exist")
    }

    fn probe_round(&mut self, _round: u32, keys: &CandidateKeys, seen: &HashSet<Loc>) -> Vec<Loc> {
        let mut found = Vec::new();
        for (si, shard) in self.shards.iter().enumerate() {
            self.postings += probe_shard(si as u16, shard, keys, seen, &mut found) as u64;
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
    pub fn hold<'a>(&self, shards: impl IntoIterator<Item = &'a SpanStore>) -> bool {
        let (mut postings, mut edits) = (0, 0);
        for shard in shards {
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
    seen: &HashSet<Loc>,
    found: &mut Vec<Loc>,
) -> usize {
    let mut local: HashSet<u32> = HashSet::new();
    let mut walked = 0;
    let mut grow = |rows: &[u32]| {
        for &row in rows {
            let loc = Loc { shard: si, row };
            if seen.contains(&loc) || !local.insert(row) {
                continue;
            }
            // The id is resident even for cold rows, so the tombstone
            // filter never pages in — probing stays IO-free.
            let id = shard.stored_id(row).expect("indexed row exists");
            if !shard.is_tombstoned(id) {
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
/// the materialised member spans.
pub fn assemble_with<P: ShardProbe>(
    prober: &mut P,
    start: Loc,
    start_id: SpanId,
    cfg: &AssembleConfig,
) -> (Trace, u32, Option<Vec<AssocKey>>) {
    let mut seen: HashSet<Loc> = HashSet::from([start]);
    let mut members: Vec<Loc> = vec![start];
    let mut frontier: Vec<Loc> = vec![start];
    // Each key is expanded — probed against every shard — at most once.
    let mut expanded: HashSet<AssocKey> = HashSet::new();
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
    let spans = members
        .iter()
        .map(|&loc| prober.span_at(loc).into_owned())
        .collect();
    let keys = fixed_point.then(|| expanded.into_iter().collect());
    (assemble_members(spans, start_id, cfg), rounds, keys)
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
    let mut set: HashSet<u32> = HashSet::new();
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
        set.extend(
            found
                .into_iter()
                .filter(|&r| !store.is_tombstoned(SpanStore::id_at(r))),
        );
        if set.len() == before {
            break; // fixed point
        }
    }
    let members: Vec<u32> = set.into_iter().collect();
    let spans = collect_members(store, &members, start, cfg.max_spans);
    let parents = set_parents_reference(&spans, cfg);
    sort_trace(&spans, parents)
}

/// Materialise the found rows, sorted by `(req_time, span_id)`, truncated
/// deterministically to `max_spans` with the start span always retained.
fn collect_members(
    store: &SpanStore,
    members: &[u32],
    start: SpanId,
    max_spans: usize,
) -> Vec<Span> {
    let spans: Vec<Span> = members
        .iter()
        .filter_map(|&row| store.span_at(row).map(std::borrow::Cow::into_owned))
        .collect();
    sort_and_truncate(spans, start, max_spans)
}

/// Phases 2 and 3 over an already-materialised member set: sort/truncate
/// (retaining `start`), assign parents under the 16 rules, sort the tree.
fn assemble_members(spans: Vec<Span>, start: SpanId, cfg: &AssembleConfig) -> Trace {
    let spans = sort_and_truncate(spans, start, cfg.max_spans);
    let parents = set_parents_indexed(&spans, cfg);
    sort_trace(&spans, parents)
}

/// Sort the materialised member spans by `(req_time, span_id)` and
/// truncate deterministically to `max_spans`, always retaining the start
/// span. Shared with the reference so truncation semantics provably agree.
fn sort_and_truncate(mut spans: Vec<Span>, start: SpanId, max_spans: usize) -> Vec<Span> {
    spans.sort_by_key(|s| (s.req_time, s.span_id));
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
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum ExchangeKey {
    /// TCP: the request sequence number (preserved across every L2/3/4 hop
    /// and across L4 gateways — Appendix A).
    Tcp(u32),
    /// UDP / sequence-less: flow + endpoint + coarse time bucket.
    Loose(u64, String, u64),
}

fn exchange_key(s: &Span) -> ExchangeKey {
    match s.tcp_seq_req {
        Some(seq) => ExchangeKey::Tcp(seq),
        None => ExchangeKey::Loose(
            s.flow_id.raw(),
            s.endpoint.clone(),
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
fn better_candidate(spans: &[Span], best: Option<usize>, j: usize) -> Option<usize> {
    match best {
        None => Some(j),
        Some(b) => {
            let (sb, sj) = (&spans[b], &spans[j]);
            if sj.req_time > sb.req_time || (sj.req_time == sb.req_time && sj.span_id < sb.span_id)
            {
                Some(j)
            } else {
                Some(b)
            }
        }
    }
}

/// Exchange grouping shared by both Phase-2 implementations: rules 1–8
/// (the capture ladder) plus the head/member bookkeeping rules 9–12+16
/// need.
struct Exchanges {
    /// Parent edges from the capture ladder.
    parent: HashMap<SpanId, SpanId>,
    /// Ladder-top span index of each exchange.
    heads: Vec<usize>,
    /// Span id → its exchange's head index.
    members: HashMap<SpanId, usize>,
    /// Exchange key → member span indexes.
    by_key: HashMap<ExchangeKey, Vec<usize>>,
}

fn group_exchanges(spans: &[Span]) -> Exchanges {
    let mut by_key: HashMap<ExchangeKey, Vec<usize>> = HashMap::new();
    for (i, s) in spans.iter().enumerate() {
        if s.kind == SpanKind::App {
            continue; // app spans join via rules 13–15
        }
        by_key.entry(exchange_key(s)).or_default().push(i);
    }
    let mut parent: HashMap<SpanId, SpanId> = HashMap::new();
    let mut heads: Vec<usize> = Vec::new();
    let mut members: HashMap<SpanId, usize> = HashMap::new();
    for ex in by_key.values() {
        let mut order: Vec<usize> = ex.clone();
        order.sort_by_key(|&i| {
            (
                spans[i].capture.tap_side.path_rank(),
                spans[i].req_time,
                spans[i].span_id,
            )
        });
        for w in order.windows(2) {
            parent.insert(spans[w[1]].span_id, spans[w[0]].span_id);
        }
        let head = order[0];
        heads.push(head);
        for &i in &order {
            members.insert(spans[i].span_id, head);
        }
    }
    // Deterministic head order regardless of hash-map iteration.
    heads.sort_unstable();
    Exchanges {
        parent,
        heads,
        members,
        by_key,
    }
}

/// The probe span for an exchange: its client-process observation if
/// present (it carries the caller's systrace/x-request context), else the
/// ladder head itself.
fn probe_index(spans: &[Span], ex: &Exchanges, head: usize) -> usize {
    ex.by_key
        .get(&exchange_key(&spans[head]))
        .and_then(|members| {
            members
                .iter()
                .find(|&&i| spans[i].capture.tap_side == TapSide::ClientProcess)
                .copied()
        })
        .unwrap_or(head)
}

/// Side indexes over the parent candidates (server-side process/app spans)
/// so rules 9–12, 14 and 16 are hash lookups.
#[derive(Default)]
struct CandidateIndex {
    systrace_req: HashMap<u64, Vec<usize>>,
    systrace_resp: HashMap<u64, Vec<usize>>,
    pseudo_thread: HashMap<u64, Vec<usize>>,
    /// Both request- and response-side X-Request-IDs, deduped per span.
    x_request: HashMap<u128, Vec<usize>>,
    otel_trace: HashMap<u128, Vec<usize>>,
    /// Rule 14: server-process (non-app) spans by third-party trace id.
    server_process_otel_trace: HashMap<u128, Vec<usize>>,
}

fn build_candidate_index(spans: &[Span]) -> CandidateIndex {
    let mut idx = CandidateIndex::default();
    for (j, s) in spans.iter().enumerate() {
        if s.kind != SpanKind::App && s.capture.tap_side == TapSide::ServerProcess {
            if let Some(t) = s.otel_trace_id {
                idx.server_process_otel_trace
                    .entry(t.0)
                    .or_default()
                    .push(j);
            }
        }
        if !matches!(
            s.capture.tap_side,
            TapSide::ServerProcess | TapSide::ServerApp
        ) {
            continue;
        }
        if let Some(v) = s.systrace_id_req {
            idx.systrace_req.entry(v.raw()).or_default().push(j);
        }
        if let Some(v) = s.systrace_id_resp {
            idx.systrace_resp.entry(v.raw()).or_default().push(j);
        }
        if let Some(v) = s.pseudo_thread_id {
            idx.pseudo_thread.entry(v.raw()).or_default().push(j);
        }
        if let Some(v) = s.x_request_id_req {
            idx.x_request.entry(v.0).or_default().push(j);
        }
        if let Some(v) = s.x_request_id_resp {
            if Some(v) != s.x_request_id_req {
                idx.x_request.entry(v.0).or_default().push(j);
            }
        }
        if let Some(t) = s.otel_trace_id {
            idx.otel_trace.entry(t.0).or_default().push(j);
        }
    }
    idx
}

/// Phase 2 via side indexes: rules 9–12 and 16 probe [`CandidateIndex`]
/// with the exchange's own context values; rule 14 probes the
/// server-process index. Hash lookups replace the full-set scans of
/// [`set_parents_reference`].
fn set_parents_indexed(spans: &[Span], cfg: &AssembleConfig) -> HashMap<SpanId, SpanId> {
    let ex = group_exchanges(spans);
    let mut parent = ex.parent.clone();
    let cand = build_candidate_index(spans);

    // Rules 9–12 + 16: find a cross-exchange parent for each exchange head.
    for &head in &ex.heads {
        let head_id = spans[head].span_id;
        let probe_span = &spans[probe_index(spans, &ex, head)];
        let mut best: Option<usize> = None;
        let consider = |j: usize, best: &mut Option<usize>| {
            if ex.members.get(&spans[j].span_id) == Some(&head) {
                return; // same exchange
            }
            *best = better_candidate(spans, *best, j);
        };
        // Rule 9: request-chain systrace.
        if let Some(v) = probe_span.systrace_id_req {
            for &j in cand.systrace_req.get(&v.raw()).into_iter().flatten() {
                consider(j, &mut best);
            }
        }
        // Rule 10: response-chain systrace.
        if let Some(v) = probe_span.systrace_id_resp {
            for &j in cand.systrace_resp.get(&v.raw()).into_iter().flatten() {
                consider(j, &mut best);
            }
        }
        // Rule 11: pseudo-thread + containment.
        if let Some(v) = probe_span.pseudo_thread_id {
            for &j in cand.pseudo_thread.get(&v.raw()).into_iter().flatten() {
                if contains(&spans[j], probe_span, cfg.time_tolerance) {
                    consider(j, &mut best);
                }
            }
        }
        // Rule 12: X-Request-ID (either side, cross-matched) + containment.
        let mut xkeys = [None, None];
        if let Some(v) = probe_span.x_request_id_req {
            xkeys[0] = Some(v.0);
        }
        if let Some(v) = probe_span.x_request_id_resp {
            if xkeys[0] != Some(v.0) {
                xkeys[1] = Some(v.0);
            }
        }
        for v in xkeys.into_iter().flatten() {
            for &j in cand.x_request.get(&v).into_iter().flatten() {
                if contains(&spans[j], probe_span, cfg.time_tolerance) {
                    consider(j, &mut best);
                }
            }
        }
        // Rule 16: shared third-party trace id + containment.
        if let Some(t) = probe_span.otel_trace_id {
            for &j in cand.otel_trace.get(&t.0).into_iter().flatten() {
                if contains(&spans[j], probe_span, cfg.time_tolerance) {
                    consider(j, &mut best);
                }
            }
        }
        if let Some(b) = best {
            parent.insert(head_id, spans[b].span_id);
        }
    }

    // Rules 13 + 15 (app-span maps) shared with the reference.
    let by_otel_span = app_spans_by_otel_id(spans);
    apply_rule13(spans, &ex.heads, &by_otel_span, &mut parent);
    for (i, s) in spans.iter().enumerate() {
        if s.kind != SpanKind::App {
            continue;
        }
        if apply_rule15(spans, i, &by_otel_span, &mut parent) {
            continue;
        }
        // Rule 14 via the server-process index.
        let mut best: Option<usize> = None;
        if let Some(t) = s.otel_trace_id {
            for &j in cand
                .server_process_otel_trace
                .get(&t.0)
                .into_iter()
                .flatten()
            {
                if j != i && contains(&spans[j], s, cfg.time_tolerance) {
                    best = better_candidate(spans, best, j);
                }
            }
        }
        if let Some(b) = best {
            parent.insert(s.span_id, spans[b].span_id);
        }
    }

    drop_cycles(parent)
}

/// Phase 2 as originally formulated: a scan over all spans per exchange
/// head (rules 9–12, 16) and per app span (rule 14). Kept as the
/// differential oracle for [`set_parents_indexed`].
fn set_parents_reference(spans: &[Span], cfg: &AssembleConfig) -> HashMap<SpanId, SpanId> {
    let ex = group_exchanges(spans);
    let mut parent = ex.parent.clone();

    for &head in &ex.heads {
        let head_id = spans[head].span_id;
        let probe_span = &spans[probe_index(spans, &ex, head)];
        let mut best: Option<usize> = None;
        for (j, cand) in spans.iter().enumerate() {
            if ex.members.get(&cand.span_id) == Some(&head) {
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
                && contains(cand, probe_span, cfg.time_tolerance);
            let rule12 = (mx(cand.x_request_id_req, probe_span.x_request_id_req)
                || mx(cand.x_request_id_resp, probe_span.x_request_id_resp)
                || mx(cand.x_request_id_req, probe_span.x_request_id_resp)
                || mx(cand.x_request_id_resp, probe_span.x_request_id_req))
                && contains(cand, probe_span, cfg.time_tolerance);
            let rule16 = cand.otel_trace_id.is_some()
                && cand.otel_trace_id == probe_span.otel_trace_id
                && contains(cand, probe_span, cfg.time_tolerance);
            if rule9 || rule10 || rule11 || rule12 || rule16 {
                best = better_candidate(spans, best, j);
            }
        }
        if let Some(b) = best {
            parent.insert(head_id, spans[b].span_id);
        }
    }

    let by_otel_span = app_spans_by_otel_id(spans);
    apply_rule13(spans, &ex.heads, &by_otel_span, &mut parent);
    for (i, s) in spans.iter().enumerate() {
        if s.kind != SpanKind::App {
            continue;
        }
        if apply_rule15(spans, i, &by_otel_span, &mut parent) {
            continue;
        }
        // Rule 14: scan for a containing server-process span.
        let mut best: Option<usize> = None;
        for (j, cand) in spans.iter().enumerate() {
            if j == i || cand.kind == SpanKind::App {
                continue;
            }
            if cand.capture.tap_side == TapSide::ServerProcess
                && cand.otel_trace_id.is_some()
                && cand.otel_trace_id == s.otel_trace_id
                && contains(cand, s, cfg.time_tolerance)
            {
                best = better_candidate(spans, best, j);
            }
        }
        if let Some(b) = best {
            parent.insert(s.span_id, spans[b].span_id);
        }
    }

    drop_cycles(parent)
}

fn app_spans_by_otel_id(spans: &[Span]) -> HashMap<u64, usize> {
    spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.kind == SpanKind::App)
        .filter_map(|(i, s)| s.otel_span_id.map(|id| (id.0, i)))
        .collect()
}

/// Rule 13: the exchange carried an app span's id in its headers → that
/// app span is the (tighter) parent of the exchange head.
fn apply_rule13(
    spans: &[Span],
    heads: &[usize],
    by_otel_span: &HashMap<u64, usize>,
    parent: &mut HashMap<SpanId, SpanId>,
) {
    for &head in heads {
        let head_span = &spans[head];
        if let Some(sid) = head_span.otel_span_id {
            if let Some(&app) = by_otel_span.get(&sid.0) {
                parent.insert(head_span.span_id, spans[app].span_id);
            }
        }
    }
}

/// Rule 15: app ancestry by explicit parent span id. Returns whether the
/// rule fired (later rules are then skipped for this span).
fn apply_rule15(
    spans: &[Span],
    i: usize,
    by_otel_span: &HashMap<u64, usize>,
    parent: &mut HashMap<SpanId, SpanId>,
) -> bool {
    if let Some(pid) = spans[i].otel_parent_span_id {
        if let Some(&p) = by_otel_span.get(&pid.0) {
            if p != i {
                parent.insert(spans[i].span_id, spans[p].span_id);
                return true;
            }
        }
    }
    false
}

/// Cycle guard: drop any edge that closes a loop.
/// Drop every parent edge whose child lies on a cycle. Each span has at most
/// one parent, so the edges form a functional graph: one colouring walk per
/// unvisited node resolves all cycles in O(n) total, instead of re-walking
/// the full ancestor chain per edge (quadratic on deep call chains).
fn drop_cycles(parent: HashMap<SpanId, SpanId>) -> HashMap<SpanId, SpanId> {
    // 0 = unvisited, 1 = on the current walk, 2 = resolved.
    let mut color: HashMap<SpanId, u8> = HashMap::with_capacity(parent.len());
    let mut cyclic: HashSet<SpanId> = HashSet::new();
    for &start in parent.keys() {
        if color.get(&start).copied().unwrap_or(0) != 0 {
            continue;
        }
        let mut path = Vec::new();
        let mut cur = Some(start);
        while let Some(c) = cur {
            match color.get(&c).copied().unwrap_or(0) {
                0 => {
                    color.insert(c, 1);
                    path.push(c);
                    cur = parent.get(&c).copied();
                }
                1 => {
                    // Closed a new cycle: everything from `c` onward is on it.
                    let pos = path.iter().position(|&p| p == c).unwrap();
                    cyclic.extend(&path[pos..]);
                    break;
                }
                // Joined an already-resolved walk: no new cycle here.
                _ => break,
            }
        }
        for p in path {
            color.insert(p, 2);
        }
    }
    parent
        .into_iter()
        .filter(|(child, _)| !cyclic.contains(child))
        .collect()
}

fn sort_trace(spans: &[Span], parents: HashMap<SpanId, SpanId>) -> Trace {
    let index: HashMap<SpanId, usize> = spans
        .iter()
        .enumerate()
        .map(|(i, s)| (s.span_id, i))
        .collect();
    let mut children: HashMap<Option<SpanId>, Vec<usize>> = HashMap::new();
    for (i, s) in spans.iter().enumerate() {
        // A parent outside the assembled set degrades to root.
        let p = parents
            .get(&s.span_id)
            .copied()
            .filter(|p| index.contains_key(p));
        children.entry(p).or_default().push(i);
    }
    for v in children.values_mut() {
        v.sort_by_key(|&i| (spans[i].req_time, spans[i].span_id));
    }
    // DFS parents-first.
    let mut order = Vec::with_capacity(spans.len());
    let mut stack: Vec<usize> = children
        .get(&None)
        .cloned()
        .unwrap_or_default()
        .into_iter()
        .rev()
        .collect();
    let mut visited = vec![false; spans.len()];
    while let Some(i) = stack.pop() {
        if visited[i] {
            continue;
        }
        visited[i] = true;
        order.push(i);
        if let Some(kids) = children.get(&Some(spans[i].span_id)) {
            for &k in kids.iter().rev() {
                stack.push(k);
            }
        }
    }
    // Any unvisited spans (shouldn't happen post cycle-guard) appended.
    for (i, seen) in visited.iter().enumerate() {
        if !seen {
            order.push(i);
        }
    }
    // Cloned, not moved out, on purpose: the clones' heap data is laid out
    // in trace order, which every later copy of the cached trace walks
    // (moving measured +8 % on a cached requery, results/pr24_benchmark.md).
    let id_of = |i: usize| spans[i].span_id;
    let assembled: Vec<AssembledSpan> = order
        .iter()
        .map(|&i| AssembledSpan {
            parent: parents
                .get(&id_of(i))
                .copied()
                .filter(|p| index.contains_key(p)),
            span: spans[i].clone(),
        })
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
