//! [`Trace`] — the output of Algorithm 1: a tree of spans describing one
//! end-to-end request.

use crate::ids::SpanId;
use crate::span::Span;
use crate::time::{DurationNs, TimeNs};
use std::collections::HashMap;
use std::sync::Arc;

/// A span plus its resolved parent, as produced by the parent-setting phase
/// of Algorithm 1 (lines 18–24).
#[derive(Debug, Clone, PartialEq)]
pub struct AssembledSpan {
    /// The span, shared with the store's row it was read from: a trace
    /// holds a reference count per member, not a copy.
    pub span: Arc<Span>,
    /// Parent span id within the same trace, if any.
    pub parent: Option<SpanId>,
    /// The self-defined labels joined beside the span at query time
    /// (phase 3, Fig. 8 ⑧), shared from the tag dictionary; read them
    /// through [`AssembledSpan::label`].
    pub labels: Option<Arc<[(String, String)]>>,
}

impl AssembledSpan {
    /// A member with no joined labels.
    pub fn new(span: Arc<Span>, parent: Option<SpanId>) -> Self {
        AssembledSpan {
            span,
            parent,
            labels: None,
        }
    }

    /// The label under `key`: the span's own value first, then the joined
    /// one ([`TagSet::label_joined`](crate::tags::TagSet::label_joined)).
    pub fn label(&self, key: &str) -> Option<&str> {
        let joined = self.labels.as_deref().unwrap_or_default();
        self.span.tags.label_joined(joined, key)
    }
}

/// An assembled distributed trace: spans sorted by time and parent
/// relationship (Algorithm 1, line 25).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Trace {
    /// Spans in display order (parents before children, then by start time).
    pub spans: Vec<AssembledSpan>,
}

impl Trace {
    /// Number of spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Root spans (no parent).
    pub fn roots(&self) -> impl Iterator<Item = &AssembledSpan> {
        self.spans.iter().filter(|s| s.parent.is_none())
    }

    /// Children of a given span.
    pub fn children_of(&self, parent: SpanId) -> impl Iterator<Item = &AssembledSpan> + '_ {
        self.spans.iter().filter(move |s| s.parent == Some(parent))
    }

    /// Earliest request time across spans.
    pub fn start_time(&self) -> Option<TimeNs> {
        self.spans.iter().map(|s| s.span.req_time).min()
    }

    /// End-to-end duration: latest response − earliest request.
    pub fn duration(&self) -> DurationNs {
        let start = self.spans.iter().map(|s| s.span.req_time).min();
        let end = self.spans.iter().map(|s| s.span.resp_time).max();
        match (start, end) {
            (Some(s), Some(e)) => e.saturating_since(s),
            _ => DurationNs::ZERO,
        }
    }

    /// Depth of each span (root = 0), for rendering. Spans whose parent is
    /// missing from the trace are treated as roots.
    pub fn depths(&self) -> HashMap<SpanId, usize> {
        let parent_of: HashMap<SpanId, Option<SpanId>> = self
            .spans
            .iter()
            .map(|s| (s.span.span_id, s.parent))
            .collect();
        let mut depths = HashMap::new();
        for s in &self.spans {
            let mut depth = 0usize;
            let mut cur = s.parent;
            // Walk up; bail out defensively if a cycle slipped through.
            let mut hops = 0;
            while let Some(p) = cur {
                if hops > self.spans.len() {
                    break;
                }
                if !parent_of.contains_key(&p) {
                    break;
                }
                depth += 1;
                hops += 1;
                cur = parent_of.get(&p).copied().flatten();
            }
            depths.insert(s.span.span_id, depth);
        }
        depths
    }

    /// Verify the parent relation is acyclic and every parent exists in the
    /// trace. Used by tests and debug assertions.
    pub fn is_well_formed(&self) -> bool {
        let ids: std::collections::HashSet<SpanId> =
            self.spans.iter().map(|s| s.span.span_id).collect();
        if ids.len() != self.spans.len() {
            return false; // duplicate span ids
        }
        let parent_of: HashMap<SpanId, Option<SpanId>> = self
            .spans
            .iter()
            .map(|s| (s.span.span_id, s.parent))
            .collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                if !ids.contains(&p) {
                    return false;
                }
            }
            // cycle check by walking up with a hop bound
            let mut cur = s.parent;
            let mut hops = 0;
            while let Some(p) = cur {
                hops += 1;
                if hops > self.spans.len() {
                    return false;
                }
                cur = parent_of.get(&p).copied().flatten();
            }
        }
        true
    }

    /// Render a text waterfall of the trace, for examples and debugging.
    pub fn render_text(&self) -> String {
        let depths = self.depths();
        let mut out = String::new();
        let base = self.start_time().unwrap_or(TimeNs::ZERO);
        for s in &self.spans {
            let depth = depths.get(&s.span.span_id).copied().unwrap_or(0);
            let indent = "  ".repeat(depth);
            out.push_str(&format!(
                "{indent}[{}] {} {} {} +{} dur={} {}\n",
                s.span.capture.tap_side,
                s.span.kind,
                s.span.l7_protocol,
                s.span.endpoint,
                s.span.req_time.saturating_since(base),
                s.span.duration(),
                if s.span.status.is_error() {
                    "ERROR"
                } else {
                    "ok"
                },
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::*;
    use crate::span::TapSide;

    fn mk_span(id: u64, req: u64, resp: u64) -> Span {
        Span {
            span_id: SpanId(id),
            endpoint: format!("op-{id}"),
            ..Span::synthetic(TapSide::ClientProcess, req, resp)
        }
    }

    fn three_span_trace() -> Trace {
        // Figure 1 shape: A receives (span 1), A calls B (span 2, child of 1),
        // B serves (span 3, child of 2).
        Trace {
            spans: vec![
                AssembledSpan::new(Arc::new(mk_span(1, 0, 100)), None),
                AssembledSpan::new(Arc::new(mk_span(2, 10, 80)), Some(SpanId(1))),
                AssembledSpan::new(Arc::new(mk_span(3, 20, 70)), Some(SpanId(2))),
            ],
        }
    }

    #[test]
    fn duration_spans_the_whole_trace() {
        let t = three_span_trace();
        assert_eq!(t.duration().as_nanos(), 100);
        assert_eq!(t.start_time(), Some(TimeNs(0)));
    }

    #[test]
    fn depths_follow_parent_chain() {
        let t = three_span_trace();
        let d = t.depths();
        assert_eq!(d[&SpanId(1)], 0);
        assert_eq!(d[&SpanId(2)], 1);
        assert_eq!(d[&SpanId(3)], 2);
    }

    #[test]
    fn well_formedness_checks() {
        let mut t = three_span_trace();
        assert!(t.is_well_formed());
        // dangling parent
        t.spans[2].parent = Some(SpanId(99));
        assert!(!t.is_well_formed());
        // cycle
        let mut t2 = three_span_trace();
        t2.spans[0].parent = Some(SpanId(3));
        assert!(!t2.is_well_formed());
        // duplicate ids
        let mut t3 = three_span_trace();
        Arc::make_mut(&mut t3.spans[1].span).span_id = SpanId(1);
        assert!(!t3.is_well_formed());
    }

    #[test]
    fn roots_and_children() {
        let t = three_span_trace();
        assert_eq!(t.roots().count(), 1);
        assert_eq!(t.children_of(SpanId(1)).count(), 1);
        assert_eq!(t.children_of(SpanId(3)).count(), 0);
    }

    #[test]
    fn render_text_indents_by_depth() {
        let t = three_span_trace();
        let text = t.render_text();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with('['));
        assert!(lines[1].starts_with("  ["));
        assert!(lines[2].starts_with("    ["));
    }
}
