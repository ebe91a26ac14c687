//! The correctness gate every run passes through: a reference-assembly
//! oracle and the Bookinfo shape check. (Span conservation is counted
//! where the batches are shipped, in `workloads`.)

use deepflow::server::assemble::{assemble_trace_reference, AssembleConfig};
use deepflow::server::Server;
use deepflow::storage::{SpanQuery, SpanStore};
use deepflow::types::span::{Span, SpanKind, TapSide};
use deepflow::types::{AgentId, DurationNs, FlowId, SpanId, TimeNs, Trace};
use std::collections::HashMap;

/// What identifies a span across two stores that numbered it differently.
/// (agent, flow, tap side, request time), plus span kind and TCP sequence
/// to split the few spans that tie on those.
type Key = (AgentId, FlowId, u8, TimeNs, bool, Option<u32>);

fn key(s: &Span) -> Key {
    (
        s.agent,
        s.flow_id,
        s.capture.tap_side.path_rank(),
        s.req_time,
        s.kind == SpanKind::App,
        s.tcp_seq_req,
    )
}

/// One plain [`SpanStore`] holding the spans a server held, for
/// [`assemble_trace_reference`] to answer from.
pub struct Oracle {
    store: SpanStore,
    ids: HashMap<Key, SpanId>,
}

/// A trace as the set of its `(span, parent)` edges, free of span ids.
fn edges(trace: &Trace) -> Vec<(Key, Option<Key>)> {
    let by_id: HashMap<SpanId, Key> = trace
        .spans
        .iter()
        .map(|s| (s.span.span_id, key(&s.span)))
        .collect();
    let mut out: Vec<(Key, Option<Key>)> = trace
        .spans
        .iter()
        .map(|s| (key(&s.span), s.parent.and_then(|p| by_id.get(&p).copied())))
        .collect();
    out.sort();
    out
}

impl Oracle {
    /// Copy every live span of `server` into one store. Reps are fixed
    /// work, so the oracle of the warm-up rep serves every later rep.
    pub fn of(server: &Server) -> Oracle {
        let mut store = SpanStore::new();
        let mut ids = HashMap::new();
        for span in server.store().iter() {
            if server.store().is_tombstoned(span.span_id) {
                continue;
            }
            let k = key(&span);
            let mut copy = span.into_owned();
            copy.span_id = SpanId(0);
            ids.insert(k, store.insert(copy));
        }
        Oracle { store, ids }
    }

    /// Whether `server`'s answer for `start` is the reference's: the same
    /// span multiset and the same parent edges.
    pub fn agrees(&self, server: &Server, start: SpanId) -> bool {
        let got = server.trace(start);
        let Some(first) = got.spans.iter().find(|s| s.span.span_id == start) else {
            return false;
        };
        let Some(&oracle_start) = self.ids.get(&key(&first.span)) else {
            return false;
        };
        let want = assemble_trace_reference(&self.store, oracle_start, &AssembleConfig::default());
        edges(&got) == edges(&want)
    }
}

/// The `tests/zero_code_tracing.rs` expectation, on whatever Bookinfo
/// traffic `server` holds in `[from, from + 200 ms)`: a `productpage`
/// server-side start assembles into one well-formed trace of at least 15
/// spans reaching all four services, with at least 6 sys and 6 net spans.
pub fn productpage_trace_ok(server: &Server, from: TimeNs) -> bool {
    let spans = server.span_list(&SpanQuery {
        endpoint: Some("GET /productpage".to_string()),
        ..SpanQuery::window(from, from + DurationNs::from_millis(200))
    });
    let Some(start) = spans
        .iter()
        .find(|s| s.capture.tap_side == TapSide::ServerProcess)
    else {
        return false;
    };
    let trace = server.trace(start.span_id);
    let reaches = |needle: &str| trace.spans.iter().any(|s| s.span.endpoint.contains(needle));
    let of_kind = |k: SpanKind| trace.spans.iter().filter(|s| s.span.kind == k).count();
    trace.is_well_formed()
        && trace.len() >= 15
        && ["/productpage", "/details", "/reviews", "/ratings"]
            .into_iter()
            .all(reaches)
        && of_kind(SpanKind::Sys) >= 6
        && of_kind(SpanKind::Net) >= 6
}
