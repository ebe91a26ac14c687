//! The static lock-order graph (`lock-order`), the one pass `df-audit`
//! runs.
//!
//! Per-function lock-acquisition summaries are extracted from `.lock()`,
//! `.read()` and `.write()` call sites (matched by name), guards are
//! tracked through `let` bindings, `drop`s and block scopes, and the
//! summaries are propagated over an intra-crate call-graph approximation
//! into a global lock-order graph over the production sources of
//! [`SYNC_SCOPED_CRATES`]. Any AB/BA cycle in that graph is a violation.
//!
//! The analysis is deliberately heuristic (no rustc internals, no type
//! information): names are resolved within one crate, method names that
//! collide with std collection methods are never treated as calls, and
//! cross-crate edges are invisible. The graph can therefore both miss a
//! nesting and invent one (a call resolved by bare name to the wrong
//! type's method); `docs/LOCK_ORDER.txt` pins the edges it derives today,
//! so either kind of change to the graph is a reviewed diff.

use crate::syntax::{self, close_of, is_keyword, seq, FnItem, Source, Token, TokenKind, Violation};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

/// The crates that take locks: the graph covers their `src/`.
pub const SYNC_SCOPED_CRATES: &[&str] = &["df-server", "df-storage", "df-cluster"];

/// Method names never treated as intra-crate calls by the lock-order
/// pass: std collection/iterator/option vocabulary that would otherwise
/// collide with first-party function names (`get`, `insert`, `query`
/// receivers are fine — the *name* is what must not resolve) and
/// fabricate edges. A real nesting reached only through such a name is
/// invisible to the pass.
const CALL_DENYLIST: &[&str] = &[
    "abs",
    "all",
    "and_then",
    "any",
    "as_bytes",
    "as_mut",
    "as_ref",
    "as_slice",
    "as_str",
    "binary_search",
    "binary_search_by",
    "bytes",
    "capacity",
    "chain",
    "chars",
    "checked_add",
    "checked_mul",
    "checked_sub",
    "clear",
    "clone",
    "cloned",
    "cmp",
    "collect",
    "contains",
    "contains_key",
    "copied",
    "copy_from_slice",
    "count",
    "dedup",
    "default",
    "drain",
    "drop",
    "elapsed",
    "ends_with",
    "entry",
    "enumerate",
    "eq",
    "err",
    "expect",
    "extend",
    "extend_from_slice",
    "filter",
    "filter_map",
    "find",
    "find_map",
    "first",
    "flat_map",
    "flatten",
    "fmt",
    "fold",
    "for_each",
    "from",
    "get",
    "get_mut",
    "get_or_insert_with",
    "hash",
    "insert",
    "into",
    "into_iter",
    "is_empty",
    "is_none",
    "is_some",
    "iter",
    "iter_mut",
    "join",
    "keys",
    "last",
    "len",
    "lines",
    "lock",
    "map",
    "map_err",
    "max",
    "max_by",
    "max_by_key",
    "min",
    "min_by",
    "min_by_key",
    "new",
    "next",
    "notify_all",
    "notify_one",
    "now",
    "ok",
    "ok_or",
    "ok_or_else",
    "or_default",
    "or_insert",
    "or_insert_with",
    "parse",
    "partial_cmp",
    "pop",
    "position",
    "push",
    "push_str",
    "read",
    "recv",
    "remove",
    "replace",
    "reserve",
    "resize",
    "retain",
    "rev",
    "rsplit",
    "saturating_add",
    "saturating_mul",
    "saturating_sub",
    "send",
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "spawn",
    "split",
    "split_at",
    "split_first",
    "split_last",
    "splitn",
    "starts_with",
    "sum",
    "swap",
    "take",
    "then",
    "then_some",
    "to_owned",
    "to_string",
    "to_vec",
    "trim",
    "truncate",
    "try_from",
    "try_into",
    "try_lock",
    "try_recv",
    "try_send",
    "unwrap",
    "unwrap_or",
    "unwrap_or_default",
    "unwrap_or_else",
    "values",
    "wait",
    "windows",
    "with_capacity",
    "wrapping_add",
    "wrapping_sub",
    "write",
    "zip",
];

/// Where a static lock-order edge was induced.
#[derive(Debug, Clone)]
pub struct EdgeSite {
    pub file: String,
    pub line: usize,
    /// The function whose body induced the edge.
    pub via: String,
}

/// The statically derived lock-order graph for a tree.
#[derive(Debug, Default)]
pub struct LockAnalysis {
    /// (held, acquired) → where that edge was induced. Names are
    /// crate-qualified; self-edges are never recorded.
    pub edges: BTreeMap<(String, String), EdgeSite>,
    /// Cycle violations (rule `lock-order`).
    pub violations: Vec<Violation>,
}

#[derive(Debug)]
struct FnSummary {
    name: String,
    krate: String,
    file: String,
    /// (held, acquired, line) edges from direct nesting in this body.
    direct_edges: Vec<(String, String, usize)>,
    /// Every lock name this body acquires somewhere.
    direct_acquires: BTreeSet<String>,
    /// (callee, locks held at the call site, line).
    calls: Vec<(String, BTreeSet<String>, usize)>,
}

struct GuardRec {
    name: String,
    /// Brace depth this guard dies at: for `let`-bound guards the depth
    /// of the binding block, for temporaries the depth of the statement.
    depth: usize,
    bound: bool,
    /// The `let` binding ident when bound (`let g = m.lock()…` → `g`),
    /// so `drop(g)` can release it early.
    binding: Option<String>,
}

/// Extract a lock summary from one `fn` body; lock names are qualified
/// with `krate`.
fn summarize_fn(item: &FnItem<'_>, src: &Source<'_>, krate: &str) -> FnSummary {
    let toks = &src.tokens;
    let qualify = |name: &str| format!("{krate}::{name}");
    let mut sum = FnSummary {
        name: item.name.to_string(),
        krate: krate.to_string(),
        file: src.rel.to_string(),
        direct_edges: Vec::new(),
        direct_acquires: BTreeSet::new(),
        calls: Vec::new(),
    };
    let mut guards: Vec<GuardRec> = Vec::new();
    let mut depth = 0usize;
    let mut let_stack: Vec<usize> = Vec::new();
    let mut pending_binding: Option<String> = None;
    let mut i = item.body.start;
    while i < item.body.end {
        let t = toks[i];
        match t.text {
            "{" => depth += 1,
            "}" => {
                guards.retain(|g| g.depth < depth);
                depth = depth.saturating_sub(1);
                while let_stack.last().is_some_and(|&d| d > depth) {
                    let_stack.pop();
                }
            }
            ";" => {
                guards.retain(|g| g.bound || g.depth < depth);
                if let_stack.last() == Some(&depth) {
                    let_stack.pop();
                }
                pending_binding = None;
            }
            "let" if t.kind == TokenKind::Ident => {
                // `if let` / `while let` scrutinee guards live for the
                // conditional block, not a statement — the block-scope
                // rule already covers them, so only statement `let`s are
                // tracked.
                let prev_if = i
                    .checked_sub(1)
                    .is_some_and(|p| matches!(toks[p].text, "if" | "while"));
                if !prev_if {
                    let_stack.push(depth);
                    let mut b = i + 1;
                    if toks.get(b).is_some_and(|t| t.text == "mut") {
                        b += 1;
                    }
                    pending_binding = toks
                        .get(b)
                        .filter(|t| t.kind == TokenKind::Ident && !is_keyword(t.text))
                        .map(|t| t.text.to_string());
                }
            }
            "drop"
                if t.kind == TokenKind::Ident
                    && toks.get(i + 1).is_some_and(|t| t.text == "(")
                    && toks.get(i + 2).is_some_and(|t| t.kind == TokenKind::Ident)
                    && toks.get(i + 3).is_some_and(|t| t.text == ")") =>
            {
                let victim = toks[i + 2].text;
                guards.retain(|g| g.binding.as_deref() != Some(victim));
                i += 4;
                continue;
            }
            _ => {}
        }
        // Acquisition: `<ident> . lock ( )` / `.read()` / `.write()`.
        if t.text == "."
            && toks
                .get(i + 1)
                .is_some_and(|m| matches!(m.text, "lock" | "read" | "write"))
            && toks.get(i + 2).is_some_and(|t| t.text == "(")
            && toks.get(i + 3).is_some_and(|t| t.text == ")")
        {
            let recv = i
                .checked_sub(1)
                .map(|p| toks[p])
                .filter(|p| p.kind == TokenKind::Ident && !is_keyword(p.text));
            if let Some(recv) = recv {
                let name = qualify(recv.text);
                for g in &guards {
                    if g.name != name {
                        sum.direct_edges
                            .push((g.name.clone(), name.clone(), t.line));
                    }
                }
                sum.direct_acquires.insert(name.clone());
                // Does the postfix chain keep the guard (only
                // unwrap/expect-style adapters until the chain ends), or
                // consume it (`.clone()`, `.route_for(..)` make the
                // statement's *result* a non-guard and the guard a
                // temporary)? A leading `*` deref (`let v = *m.lock()…`)
                // also consumes: the binding holds the copied pointee,
                // not the guard. Either way the guard lives at least to
                // the end of the statement — what differs is whether a
                // `let` extends it to the block.
                let deref = i.checked_sub(2).is_some_and(|p| toks[p].text == "*");
                let keeps_guard = !deref && chain_keeps_guard(toks, i + 4);
                // Bind only when the `let` is at the current brace depth:
                // a `let` outside a nested block (e.g. `let t = { … }` or
                // a closure body) does not keep guards acquired in inner
                // statements alive.
                let bound = keeps_guard && let_stack.last() == Some(&depth);
                let g_depth = if bound {
                    *let_stack.last().expect("let_stack nonempty")
                } else {
                    depth
                };
                guards.push(GuardRec {
                    name,
                    depth: g_depth,
                    bound,
                    binding: if bound { pending_binding.clone() } else { None },
                });
                i += 4;
                continue;
            }
        }
        // Intra-crate call: `name(...)`, `.name(...)`, `Path::name(...)`.
        if t.kind == TokenKind::Ident
            && !is_keyword(t.text)
            && toks.get(i + 1).is_some_and(|n| n.text == "(")
            && i.checked_sub(1)
                .map(|p| toks[p].text != "fn")
                .unwrap_or(true)
            && !CALL_DENYLIST.contains(&t.text)
        {
            let held: BTreeSet<String> = guards.iter().map(|g| g.name.clone()).collect();
            sum.calls.push((t.text.to_string(), held, t.line));
        }
        i += 1;
    }
    sum
}

/// After a lock acquisition, scan the postfix chain starting at token
/// `i` (just past the `()`): `true` when only result adapters
/// (`unwrap`, `expect`, `unwrap_or_else`, `map_err`) follow before the
/// chain ends, i.e. the expression's value *is* the guard.
fn chain_keeps_guard(toks: &[Token<'_>], mut i: usize) -> bool {
    const ADAPTERS: &[&str] = &["expect", "map_err", "unwrap", "unwrap_or_else"];
    while toks.get(i).is_some_and(|t| t.text == ".") {
        let Some(m) = toks.get(i + 1).filter(|m| m.kind == TokenKind::Ident) else {
            return true;
        };
        if !ADAPTERS.contains(&m.text) {
            return false;
        }
        // Skip the adapter's argument list.
        if !seq(toks, i + 2, &["("]) {
            return false;
        }
        i = close_of(toks, i + 2) + 1;
    }
    true
}

/// Build the static lock-order graph of the tree under `root`.
///
/// The files that feed it are the lock-taking production code: the
/// non-test functions in the `src` of [`SYNC_SCOPED_CRATES`].
/// Summaries are extracted per function, the intra-crate call graph
/// propagates acquire-sets to a fixpoint, and every AB/BA cycle among the
/// resulting edges becomes a `lock-order` violation.
pub fn analyze_locks(root: &Path) -> Result<LockAnalysis, String> {
    let mut summaries: Vec<FnSummary> = Vec::new();
    let mut analysis = LockAnalysis::default();
    for file in syntax::walk(root)? {
        let src = Source::parse(&file.rel, &file.text);
        let (krate, dir) = src.scope();
        if dir != "src" || !SYNC_SCOPED_CRATES.contains(&krate) {
            continue;
        }
        for item in src.fns.iter().filter(|f| !f.in_test) {
            summaries.push(summarize_fn(item, &src, krate));
        }
    }

    // name → summary indices, per crate, for call resolution.
    let mut by_name: BTreeMap<(String, String), Vec<usize>> = BTreeMap::new();
    for (idx, s) in summaries.iter().enumerate() {
        by_name
            .entry((s.krate.clone(), s.name.clone()))
            .or_default()
            .push(idx);
    }

    // Fixpoint: a function's acquire-set includes every callee's.
    let mut total: Vec<BTreeSet<String>> = summaries
        .iter()
        .map(|s| s.direct_acquires.clone())
        .collect();
    loop {
        let mut changed = false;
        for (idx, s) in summaries.iter().enumerate() {
            for (callee, _, _) in &s.calls {
                if let Some(targets) = by_name.get(&(s.krate.clone(), callee.clone())) {
                    for &t in targets {
                        if t == idx {
                            continue;
                        }
                        let extra: Vec<String> = total[t]
                            .iter()
                            .filter(|a| !total[idx].contains(*a))
                            .cloned()
                            .collect();
                        if !extra.is_empty() {
                            total[idx].extend(extra);
                            changed = true;
                        }
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }

    // Edges: direct nestings plus held-across-call × callee acquires.
    for s in &summaries {
        for (held, acquired, line) in &s.direct_edges {
            analysis
                .edges
                .entry((held.clone(), acquired.clone()))
                .or_insert_with(|| EdgeSite {
                    file: s.file.clone(),
                    line: *line,
                    via: s.name.clone(),
                });
        }
        for (callee, held, line) in &s.calls {
            if held.is_empty() {
                continue;
            }
            if let Some(targets) = by_name.get(&(s.krate.clone(), callee.clone())) {
                let mut acquires: BTreeSet<String> = BTreeSet::new();
                for &t in targets {
                    acquires.extend(total[t].iter().cloned());
                }
                for h in held {
                    for a in &acquires {
                        if h != a {
                            analysis
                                .edges
                                .entry((h.clone(), a.clone()))
                                .or_insert_with(|| EdgeSite {
                                    file: s.file.clone(),
                                    line: *line,
                                    via: format!("{} -> {}", s.name, callee),
                                });
                        }
                    }
                }
            }
        }
    }

    analysis.violations = find_cycles(&analysis.edges);
    Ok(analysis)
}

/// Every AB/BA (or longer) cycle in the edge set, one violation per
/// distinct node set.
fn find_cycles(edges: &BTreeMap<(String, String), EdgeSite>) -> Vec<Violation> {
    let mut adj: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for (a, b) in edges.keys() {
        adj.entry(a.as_str()).or_default().push(b.as_str());
    }
    let mut seen_cycles: BTreeSet<Vec<String>> = BTreeSet::new();
    let mut out = Vec::new();
    for (a, b) in edges.keys() {
        // Path b ⇝ a closes a cycle through edge a→b.
        let mut stack = vec![b.as_str()];
        let mut visited: BTreeSet<&str> = BTreeSet::new();
        let mut parent: BTreeMap<&str, &str> = BTreeMap::new();
        let mut found = false;
        while let Some(n) = stack.pop() {
            if n == a.as_str() {
                found = true;
                break;
            }
            if !visited.insert(n) {
                continue;
            }
            for &m in adj.get(n).into_iter().flatten() {
                if !visited.contains(m) {
                    parent.entry(m).or_insert(n);
                    stack.push(m);
                }
            }
        }
        if !found {
            continue;
        }
        // Reconstruct b ⇝ a, then close with a→b.
        let mut path = vec![a.as_str()];
        let mut n = a.as_str();
        while n != b.as_str() {
            n = parent.get(n).copied().unwrap_or(b.as_str());
            path.push(n);
        }
        path.reverse(); // b … a
        let mut canon: Vec<String> = path.iter().map(|s| s.to_string()).collect();
        canon.sort();
        canon.dedup();
        if !seen_cycles.insert(canon) {
            continue;
        }
        let site = &edges[&(a.clone(), b.clone())];
        let back = edges
            .iter()
            .find(|((x, y), _)| path.contains(&x.as_str()) && y == a && *x != *a)
            .map(|((x, _), s)| format!("; edge {x} -> {a} at {}:{}", s.file, s.line))
            .unwrap_or_default();
        let shown: Vec<&str> = path
            .iter()
            .copied()
            .chain(std::iter::once(b.as_str()))
            .collect();
        out.push(Violation {
            file: PathBuf::from(site.file.clone()),
            line: site.line,
            rule: "lock-order",
            message: format!(
                "static lock-order cycle: {} (edge {a} -> {b} in {} at {}:{}{back})",
                shown.join(" -> "),
                site.via,
                site.file,
                site.line
            ),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summaries_for(src: &str) -> Vec<FnSummary> {
        let src = Source::parse("f.rs", src);
        src.fns.iter().map(|i| summarize_fn(i, &src, "c")).collect()
    }

    #[test]
    fn direct_nesting_produces_an_edge() {
        let s = summaries_for(
            "fn f(a: &Mutex<u32>, b: &Mutex<u32>) {\n\
                let g = a.lock().unwrap();\n\
                let h = b.lock().unwrap();\n\
                drop(h); drop(g);\n\
             }",
        );
        assert_eq!(
            s[0].direct_edges,
            vec![("c::a".to_string(), "c::b".to_string(), 3)]
        );
    }

    #[test]
    fn temporary_guard_dies_at_statement_end() {
        let s = summaries_for(
            "fn f(a: &Mutex<u32>, b: &Mutex<u32>) {\n\
                let x = a.lock().unwrap().wrapping_add(1);\n\
                let g = b.lock().unwrap();\n\
             }",
        );
        assert!(
            s[0].direct_edges.is_empty(),
            "temporary `a` guard must not survive its statement: {:?}",
            s[0].direct_edges
        );
    }

    #[test]
    fn guard_held_during_call_records_the_call() {
        let s = summaries_for(
            "fn f(c: &Mutex<Cache>) {\n\
                let g = c.lock().unwrap();\n\
                g.store_trace(1);\n\
             }",
        );
        assert_eq!(s[0].calls.len(), 1);
        let (callee, held, _) = &s[0].calls[0];
        assert_eq!(callee, "store_trace");
        assert!(held.contains("c::c"));
    }

    #[test]
    fn scoped_guard_dies_with_its_block() {
        let s = summaries_for(
            "fn f(a: &Mutex<u32>, b: &Mutex<u32>) {\n\
                { let g = a.lock().unwrap(); }\n\
                let h = b.lock().unwrap();\n\
             }",
        );
        assert!(s[0].direct_edges.is_empty(), "{:?}", s[0].direct_edges);
    }

    #[test]
    fn dropped_guard_stops_producing_edges() {
        let s = summaries_for(
            "fn f(a: &Mutex<u32>, b: &Mutex<u32>) {\n\
                let g = a.lock().unwrap();\n\
                drop(g);\n\
                let h = b.lock().unwrap();\n\
             }",
        );
        assert!(s[0].direct_edges.is_empty(), "{:?}", s[0].direct_edges);
    }

    #[test]
    fn cycle_detection_reports_ab_ba() {
        let mut edges = BTreeMap::new();
        let site = |f: &str, l: usize| EdgeSite {
            file: f.to_string(),
            line: l,
            via: "f".to_string(),
        };
        edges.insert(("a".to_string(), "b".to_string()), site("x.rs", 1));
        edges.insert(("b".to_string(), "a".to_string()), site("y.rs", 2));
        let v = find_cycles(&edges);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "lock-order");
        assert!(v[0].message.contains("a -> b"), "{}", v[0].message);

        edges.remove(&("b".to_string(), "a".to_string()));
        assert!(find_cycles(&edges).is_empty());
    }
}
