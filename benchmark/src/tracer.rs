//! The outside-in span recorder of the traced run.
//!
//! The harness wraps every call it makes into a layer's public functions in
//! a span `{name, start, end, parent, rep}` kept in memory. A layer's *self
//! time* is its spans' duration minus what their children cover.
//!
//! Two kinds of child exist. A **nested** span is timed inside its parent's
//! interval (`run_until` inside the rep). A **shadow** span times the public
//! parts of an opaque composite *beside* it, on the same input — `decode`,
//! `enrich` and `insert_batch` on a twin store after `Server::ingest_wire`
//! returned. It is the child of the composite for attribution, but its wall
//! time is extra work the untraced run never does, so it is taken out of
//! the rep (and out of the span it physically ran inside) before any share
//! is computed.
//!
//! Span names are `<layer>.<function>`; the layer is everything before the
//! last dot.

use crate::clock;
use serde_json::{json, Value};
use std::collections::BTreeMap;

/// One recorded span. Times are wall nanoseconds since process start.
#[derive(Debug, Clone, Copy)]
pub struct SpanRec {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    /// Index of the parent span; `u32::MAX` for a rep's root.
    pub parent: u32,
    pub rep: u32,
    pub shadow: bool,
}

const NO_PARENT: u32 = u32::MAX;

/// Recorder; a disabled one records nothing and costs one branch per call.
#[derive(Debug, Default)]
pub struct Recorder {
    enabled: bool,
    rep: u32,
    spans: Vec<SpanRec>,
    /// Open nested spans, innermost last.
    stack: Vec<u32>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Recorder {
            enabled,
            ..Default::default()
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Switch recording for the reps that follow (the traced run leaves
    /// every other rep plain to price its own overhead).
    pub fn set_enabled(&mut self, on: bool) {
        debug_assert!(self.stack.is_empty());
        self.enabled = on;
    }

    pub fn spans_recorded(&self) -> usize {
        self.spans.len()
    }

    /// Open the root span of rep `rep`.
    pub fn begin_rep(&mut self, rep: u32) {
        self.rep = rep;
        if self.enabled {
            self.open("harness.rep", NO_PARENT, false);
        }
    }

    /// Close the rep's root span.
    pub fn end_rep(&mut self) {
        if self.enabled {
            self.close();
            debug_assert!(self.stack.is_empty());
        }
    }

    /// Time `f` as a span nested in the innermost open one. Returns `f`'s
    /// value and the span's index (meaningless when disabled) so shadows
    /// can be attributed to it.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, u32) {
        if !self.enabled {
            return (f(), NO_PARENT);
        }
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        let idx = self.open(name, parent, false);
        let out = f();
        self.close();
        (out, idx)
    }

    /// Time `f` as a shadow child of the closed span `of`.
    pub fn shadow<T>(&mut self, name: &'static str, of: u32, f: impl FnOnce() -> T) -> T {
        debug_assert!(self.enabled, "shadow calls exist only in traced reps");
        self.open(name, of, true);
        let out = f();
        self.close();
        out
    }

    /// Rename a closed span once its outcome is known (a trace query is a
    /// cache hit or an assembly only after the fact).
    pub fn rename(&mut self, idx: u32, name: &'static str) {
        self.spans[idx as usize].name = name;
    }

    fn open(&mut self, name: &'static str, parent: u32, shadow: bool) -> u32 {
        let idx = self.spans.len() as u32;
        self.stack.push(idx);
        self.spans.push(SpanRec {
            name,
            start: clock::wall_ns(),
            end: 0,
            parent,
            rep: self.rep,
            shadow,
        });
        idx
    }

    fn close(&mut self) {
        let end = clock::wall_ns();
        let idx = self.stack.pop().expect("close matches an open span");
        self.spans[idx as usize].end = end;
    }

    /// Fold the recorded spans into per-layer self times.
    pub fn summary(&self) -> Summary {
        let n = self.spans.len();
        // What to take out of each span's duration: nested children, shadow
        // children attributed to it, and shadows that physically ran inside
        // it (`inside` is found by interval, a shadow names its attributed
        // parent instead).
        let mut covered = vec![0u64; n];
        let mut open: Vec<usize> = Vec::new(); // non-shadow spans enclosing i
        let mut shadow_ns = 0u64;
        for (i, s) in self.spans.iter().enumerate() {
            while open.last().is_some_and(|&o| self.spans[o].end <= s.start) {
                open.pop();
            }
            let dur = s.end - s.start;
            if s.shadow {
                shadow_ns += dur;
                covered[s.parent as usize] += dur;
                if let Some(&o) = open.last() {
                    covered[o] += dur;
                }
            } else {
                if s.parent != NO_PARENT {
                    covered[s.parent as usize] += dur;
                }
                open.push(i);
            }
        }
        let mut layers: BTreeMap<&'static str, u64> = BTreeMap::new();
        let mut inclusive: BTreeMap<&'static str, u64> = BTreeMap::new();
        let mut rep_ns = 0u64;
        for (s, cov) in self.spans.iter().zip(&covered) {
            let dur = s.end - s.start;
            *inclusive.entry(s.name).or_default() += dur;
            // A shadow can run slower than its share of the composite (cold
            // twin store); the composite's self time floors at zero.
            *layers.entry(layer_of(s.name)).or_default() += dur.saturating_sub(*cov);
            if s.parent == NO_PARENT {
                rep_ns += dur;
            }
        }
        Summary {
            rep_ns: rep_ns.saturating_sub(shadow_ns),
            shadow_ns,
            layers,
            inclusive,
        }
    }

    /// The trace file: the per-layer table over every traced rep, and the
    /// raw spans of the first `keep_reps` traced reps (a full run records
    /// several hundred thousand).
    pub fn to_json(&self, keep_reps: usize) -> Value {
        let summary = self.summary();
        let mut kept: Vec<u32> = self.spans.iter().map(|s| s.rep).collect();
        kept.dedup();
        kept.truncate(keep_reps);
        let first = self.spans.iter().position(|s| kept.contains(&s.rep));
        let base = first.unwrap_or(0) as u32;
        let spans: Vec<Value> = self
            .spans
            .iter()
            .filter(|s| kept.contains(&s.rep))
            .map(|s| {
                json!({
                    "name": s.name,
                    "start_ns": s.start,
                    "end_ns": s.end,
                    "parent": if s.parent == NO_PARENT { Value::Null } else { Value::from(s.parent - base) },
                    "rep": s.rep,
                    "shadow": s.shadow,
                })
            })
            .collect();
        json!({
            "spans_recorded": self.spans.len(),
            "rep_ns": summary.rep_ns,
            "shadow_ns": summary.shadow_ns,
            "self_ns_by_layer": by_name(&summary.layers),
            "inclusive_ns_by_span": by_name(&summary.inclusive),
            "spans": spans,
        })
    }
}

fn by_name(table: &BTreeMap<&'static str, u64>) -> BTreeMap<String, u64> {
    table.iter().map(|(k, v)| (k.to_string(), *v)).collect()
}

/// `df-server.server.trace` → `df-server.server`.
pub fn layer_of(name: &str) -> &str {
    name.rsplit_once('.').map_or(name, |(layer, _)| layer)
}

/// Per-layer self times over all traced reps.
#[derive(Debug)]
pub struct Summary {
    /// Wall time of the traced reps with shadow work taken out.
    pub rep_ns: u64,
    /// Wall time spent in shadow calls.
    pub shadow_ns: u64,
    /// Self time by layer, `harness` included.
    pub layers: BTreeMap<&'static str, u64>,
    /// Whole duration by span name.
    pub inclusive: BTreeMap<&'static str, u64>,
}

impl Summary {
    /// A layer's self time as a share of the rep.
    pub fn share(&self, layer: &str) -> f64 {
        self.layers.get(layer).copied().unwrap_or(0) as f64 / self.rep_ns.max(1) as f64
    }

    /// The spans of one name, children and all, as a share of the rep.
    pub fn inclusive_share(&self, name: &str) -> f64 {
        self.inclusive.get(name).copied().unwrap_or(0) as f64 / self.rep_ns.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shadow_time_leaves_the_rep_and_is_attributed() {
        let mut r = Recorder::new(true);
        r.spans = vec![
            SpanRec {
                name: "harness.rep",
                start: 0,
                end: 100,
                parent: NO_PARENT,
                rep: 0,
                shadow: false,
            },
            SpanRec {
                name: "a.composite",
                start: 10,
                end: 50,
                parent: 0,
                rep: 0,
                shadow: false,
            },
            SpanRec {
                name: "b.part",
                start: 50,
                end: 80,
                parent: 1,
                rep: 0,
                shadow: true,
            },
        ];
        let s = r.summary();
        assert_eq!(s.rep_ns, 70);
        assert_eq!(s.layers["a"], 10); // 40 − 30 attributed to b
        assert_eq!(s.layers["b"], 30);
        assert_eq!(s.layers["harness"], 30); // 100 − 40 nested − 30 shadow inside
        assert_eq!(s.layers.values().sum::<u64>(), s.rep_ns);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut r = Recorder::new(false);
        r.begin_rep(0);
        assert_eq!(r.span("x.y", || 7).0, 7);
        r.end_rep();
        assert_eq!(r.spans_recorded(), 0);
    }
}
