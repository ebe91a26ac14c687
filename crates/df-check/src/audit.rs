//! The structure-aware static passes, and [`audit_tree`], which runs
//! every static pass — these, [`crate::lint`] and [`crate::spec`] — over
//! one parsed tree for the `df-audit` binary.
//!
//! All of them read the tree through [`crate::syntax`]:
//!
//! 1. **Panic-totality** (`decode-panic`, `decode-index`,
//!    `decode-arith`): the designated total-decode modules
//!    (`df_types::wire`, `df_types::rpc`, `df_storage::persist`) sit in
//!    the ingest path of every traced service, so a panicking decoder is
//!    an outage multiplier. Outside `#[cfg(test)]` code those files may
//!    not call `unwrap`/`expect`/`panic!`-family macros, may not index
//!    slices directly (`buf[i]`, `&buf[a..b]`), and may not do unchecked
//!    `+`/`-`/`*` arithmetic on length-typed expressions — use
//!    `get(..)`, `split_first`, `checked_*`/`saturating_*` instead. A
//!    `// df-audit: allow(<rule>) — <justification>` comment on the
//!    violating line (or the line above) suppresses one rule, and fails
//!    the audit itself when the justification is empty.
//!
//! 2. **Static lock-order** (`lock-order`): per-function
//!    lock-acquisition summaries are extracted from
//!    `df_check::sync` shim call sites (`.lock()`, `.read()`,
//!    `.write()`), guards are tracked through `let` bindings and block
//!    scopes, and the summaries are propagated over an intra-crate
//!    call-graph approximation into a global lock-order graph. Any
//!    AB/BA cycle in that graph fails the audit. The graph is also the
//!    static half of a *cross-check*: every lock edge the runtime
//!    scheduler records during the model suite must appear here (see
//!    [`check_runtime_edges`]); an unpredicted edge means the static
//!    analysis has a blind spot and fails CI.
//!
//! The analyses are deliberately heuristic (no rustc internals, no type
//! information): names are resolved within one crate, method names that
//! collide with std collection methods are never treated as calls, and
//! cross-crate edges are invisible. The runtime cross-check is what
//! keeps those approximations honest — a real nesting the static pass
//! misses shows up as a runtime edge with no static counterpart.

use crate::lint::{is_model_test_file, SYNC_SCOPED_CRATES};
use crate::syntax::{self, close_of, is_keyword, seq, FnItem, Source, Token, TokenKind, Violation};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

/// Files subject to the panic-totality pass, relative to the repo root:
/// the wire codec, the RPC envelope/body codec, and the segment codec —
/// everything that parses bytes off the network or disk.
pub const DECODE_TOTAL_FILES: &[&str] = &[
    "crates/df-types/src/wire.rs",
    "crates/df-types/src/rpc.rs",
    "crates/df-storage/src/persist.rs",
];

/// Rules a `df-audit: allow(...)` directive may name.
pub const ALLOWABLE_RULES: &[&str] = &["decode-panic", "decode-index", "decode-arith"];

/// Identifiers treated as length-typed for the `decode-arith` rule.
const LEN_IDENTS: &[&str] = &[
    "cap",
    "count",
    "idx",
    "index",
    "len",
    "n",
    "off",
    "offset",
    "pos",
    "remaining",
    "size",
];

/// Method calls that return a length directly.
const LEN_CALLS: &[&str] = &["capacity", "len", "remaining"];

/// Macros whose invocation can panic.
const PANIC_MACROS: &[&str] = &[
    "assert",
    "assert_eq",
    "assert_ne",
    "debug_assert",
    "debug_assert_eq",
    "debug_assert_ne",
    "panic",
    "todo",
    "unimplemented",
    "unreachable",
];

/// Method names never treated as intra-crate calls by the lock-order
/// pass: std collection/iterator/option vocabulary that would otherwise
/// collide with first-party function names (`get`, `insert`, `query`
/// receivers are fine — the *name* is what must not resolve) and
/// fabricate edges. A real nesting reached only through such a name is
/// caught by the runtime cross-check instead.
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

// ---------------------------------------------------------------------
// Allow directives
// ---------------------------------------------------------------------

/// One parsed `// df-audit: allow(<rule>) — <justification>` directive.
#[derive(Debug)]
struct Allow {
    rule: String,
    line: usize,
    justified: bool,
}

/// Parse every allow directive. Directives live in comments, which the
/// lexer drops, so this is the one scan over the raw text, line by line.
/// Malformed directives and empty justifications are violations in their
/// own right — an unexplained escape is worse than none.
fn parse_allows(src: &Source<'_>) -> (Vec<Allow>, Vec<Violation>) {
    let mut allows = Vec::new();
    let mut violations = Vec::new();
    for (idx, raw) in src.text.lines().enumerate() {
        let line = idx + 1;
        let Some(at) = raw.find("df-audit:") else {
            continue;
        };
        let rest = raw[at + "df-audit:".len()..].trim_start();
        let bad = |message: String| src.violation(line, "audit-allow", message);
        let Some(args) = rest.strip_prefix("allow(") else {
            violations.push(bad(
                "malformed df-audit directive; expected `df-audit: allow(<rule>) — \
                 <justification>`"
                    .to_string(),
            ));
            continue;
        };
        let Some(close) = args.find(')') else {
            violations.push(bad("unclosed df-audit: allow( directive".to_string()));
            continue;
        };
        let rule = args[..close].trim().to_string();
        if !ALLOWABLE_RULES.contains(&rule.as_str()) {
            violations.push(bad(format!(
                "unknown rule {rule:?} in df-audit allow; known rules: {ALLOWABLE_RULES:?}"
            )));
            continue;
        }
        let justification = args[close + 1..]
            .trim_start_matches(|c: char| c.is_whitespace() || matches!(c, '—' | '–' | '-' | ':'))
            .trim();
        let justified = !justification.is_empty();
        if !justified {
            violations.push(bad(format!(
                "df-audit allow({rule}) has an empty justification; explain why the rule \
                 does not apply here"
            )));
        }
        allows.push(Allow {
            rule,
            line,
            justified,
        });
    }
    (allows, violations)
}

fn allowed(allows: &[Allow], rule: &str, line: usize) -> bool {
    allows
        .iter()
        .any(|a| a.justified && a.rule == rule && (a.line == line || a.line + 1 == line))
}

// ---------------------------------------------------------------------
// Pass 1: panic-totality
// ---------------------------------------------------------------------

/// Audit one designated total-decode file. Test code
/// ([`Source::is_test`]) is exempt; justified allow directives suppress
/// individual findings.
pub fn audit_decode(src: &Source<'_>) -> Vec<Violation> {
    let (allows, mut out) = parse_allows(src);
    let toks = &src.tokens;
    let mut push = |rule: &'static str, line: usize, message: String| {
        if !allowed(&allows, rule, line) {
            out.push(src.violation(line, rule, message));
        }
    };

    for (i, t) in toks.iter().enumerate() {
        if src.is_test(i) {
            continue;
        }
        let prev = i.checked_sub(1).map(|p| toks[p]);
        let next = toks.get(i + 1).copied();
        match t.kind {
            TokenKind::Ident => {
                let is_call = next.is_some_and(|n| n.text == "(");
                let is_method = prev.is_some_and(|p| p.text == ".");
                if is_method && is_call && matches!(t.text, "unwrap" | "expect") {
                    push(
                        "decode-panic",
                        t.line,
                        format!(
                            ".{}() in a total-decode module can panic on malformed input; \
                             return the decode error instead",
                            t.text
                        ),
                    );
                }
                if PANIC_MACROS.contains(&t.text) && next.is_some_and(|n| n.text == "!") {
                    push(
                        "decode-panic",
                        t.line,
                        format!(
                            "{}! in a total-decode module; decoders must be total — return \
                             an error for every input",
                            t.text
                        ),
                    );
                }
            }
            TokenKind::Punct => {
                // Direct indexing: `expr[...]` where expr ends in an
                // identifier, `)` or `]`. `#[attr]`, `![...]`, types like
                // `[u8; 4]` and `vec![…]` all fail the prefix test.
                if t.text == "[" {
                    let postfix = prev.is_some_and(|p| match p.kind {
                        TokenKind::Ident => !is_keyword(p.text),
                        _ => p.text == ")" || p.text == "]",
                    });
                    if postfix {
                        push(
                            "decode-index",
                            t.line,
                            "direct slice/array indexing can panic on malformed input; use \
                             .get(..) / .split_first() / fixed-size reads"
                                .to_string(),
                        );
                    }
                }
                if matches!(t.text, "+" | "-" | "*") {
                    let binary = prev.is_some_and(|p| match p.kind {
                        TokenKind::Ident => !is_keyword(p.text),
                        TokenKind::Number | TokenKind::Char => true,
                        _ => p.text == ")" || p.text == "]",
                    });
                    if binary && (len_operand_left(toks, i) || len_operand_right(toks, i)) {
                        push(
                            "decode-arith",
                            t.line,
                            format!(
                                "unchecked `{}` on a length-typed expression can overflow on \
                                 malformed input; use checked_*/saturating_* arithmetic",
                                t.text
                            ),
                        );
                    }
                }
                if matches!(t.text, "+=" | "-=" | "*=") {
                    let lhs_len = prev.is_some_and(|p| {
                        p.kind == TokenKind::Ident && LEN_IDENTS.contains(&p.text)
                    });
                    if lhs_len {
                        push(
                            "decode-arith",
                            t.line,
                            format!(
                                "unchecked `{}` on a length-typed variable can overflow on \
                                 malformed input; use checked_*/saturating_* arithmetic",
                                t.text
                            ),
                        );
                    }
                }
            }
            _ => {}
        }
    }
    out
}

/// Is the operand to the left of the operator at token index `i`
/// length-typed — a length-ish identifier or a `.len()`-style call?
fn len_operand_left(toks: &[Token<'_>], i: usize) -> bool {
    let Some(p) = i.checked_sub(1) else {
        return false;
    };
    match toks[p].kind {
        TokenKind::Ident => LEN_IDENTS.contains(&toks[p].text),
        TokenKind::Punct if toks[p].text == ")" => {
            // Walk back to the matching `(`; a call like `.len()` makes
            // the operand length-typed.
            let mut depth = 0isize;
            let mut j = p;
            loop {
                match toks[j].text {
                    ")" => depth += 1,
                    "(" => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                if j == 0 {
                    return false;
                }
                j -= 1;
            }
            j >= 2
                && toks[j - 1].kind == TokenKind::Ident
                && LEN_CALLS.contains(&toks[j - 1].text)
                && toks[j - 2].text == "."
        }
        _ => false,
    }
}

/// Is the operand to the right of the operator at token index `i`
/// length-typed?
fn len_operand_right(toks: &[Token<'_>], i: usize) -> bool {
    let Some(n) = toks.get(i + 1) else {
        return false;
    };
    if n.kind != TokenKind::Ident {
        return false;
    }
    if LEN_IDENTS.contains(&n.text) {
        return true;
    }
    // Follow a field/method chain: `rest.len()`, `self.buf.len()`.
    let mut j = i + 1;
    while toks.get(j + 1).is_some_and(|t| t.text == ".")
        && toks.get(j + 2).is_some_and(|t| t.kind == TokenKind::Ident)
    {
        j += 2;
    }
    j > i + 1 && LEN_CALLS.contains(&toks[j].text) && toks.get(j + 1).is_some_and(|t| t.text == "(")
}

// ---------------------------------------------------------------------
// Pass 2: static lock-order
// ---------------------------------------------------------------------

/// Where a static lock-order edge was induced.
#[derive(Debug, Clone)]
pub struct EdgeSite {
    pub file: String,
    pub line: usize,
    /// The function whose body induced the edge.
    pub via: String,
}

/// A lock creation site (`name: Mutex::new(..)` / `let name =
/// RwLock::new(..)`), used to resolve the runtime scheduler's
/// creation-`Location`s back to static lock names.
#[derive(Debug, Clone)]
pub struct CreationSite {
    /// Repo-relative path of the file.
    pub file: String,
    /// Line of the `Mutex::new` / `RwLock::new` token (what
    /// `#[track_caller]` records at runtime).
    pub line: usize,
    /// Crate-qualified lock name, e.g. `df-server::gens`.
    pub name: String,
}

/// The statically derived lock-order graph for a tree.
#[derive(Debug, Default)]
pub struct LockAnalysis {
    /// (held, acquired) → where that edge was induced. Names are
    /// crate-qualified; self-edges are never recorded.
    pub edges: BTreeMap<(String, String), EdgeSite>,
    /// Every lock creation site found in the scanned files.
    pub creations: Vec<CreationSite>,
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

/// Find lock creation sites (`name: Mutex::new(..)`, `let name =
/// Arc::new(RwLock::new(..))`) in one file's token stream.
fn creation_sites(src: &Source<'_>, krate: &str, out: &mut Vec<CreationSite>) {
    let toks = &src.tokens;
    for i in 0..toks.len() {
        let t = toks[i];
        if t.kind != TokenKind::Ident || !matches!(t.text, "Mutex" | "RwLock") {
            continue;
        }
        if !(seq(toks, i + 1, &["::", "new", "("]) || seq(toks, i + 1, &["::", "default", "("])) {
            continue;
        }
        // Walk back over path/constructor noise to the binding: the
        // nearest `=` or `:` whose preceding token is the bound name.
        let mut j = i;
        let name = loop {
            if j == 0 {
                break None;
            }
            j -= 1;
            match toks[j].text {
                "=" | ":" => {
                    break j
                        .checked_sub(1)
                        .map(|p| toks[p])
                        .filter(|p| p.kind == TokenKind::Ident && !is_keyword(p.text))
                        .map(|p| p.text.to_string());
                }
                "::" | "(" | "&" => continue,
                _ if toks[j].kind == TokenKind::Ident => continue,
                _ => break None,
            }
        };
        if let Some(name) = name {
            out.push(CreationSite {
                file: src.rel.to_string(),
                line: t.line,
                name: format!("{krate}::{name}"),
            });
        }
    }
}

/// Build the static lock-order graph for the tree under `root` (reads
/// the tree; [`lock_graph`] is the same analysis over a parsed one).
pub fn analyze_locks(root: &Path) -> Result<LockAnalysis, String> {
    let files = syntax::walk(root)?;
    Ok(lock_graph(&syntax::parse_tree(&files)))
}

/// Build the static lock-order graph of a parsed tree.
///
/// The files that feed it are exactly the shim-visible universe — the
/// sources of [`SYNC_SCOPED_CRATES`] — plus every crate's
/// `*df_check_models*` test files, the only places model executions (and
/// therefore runtime lock edges) come from. Summaries are extracted per
/// function (production code only in `src` files; model-test files
/// contribute all their functions, since model scenarios are exactly
/// what the runtime records), the intra-crate call graph propagates
/// acquire-sets to a fixpoint, and every AB/BA cycle among the resulting
/// edges becomes a `lock-order` violation.
pub fn lock_graph(tree: &[Source<'_>]) -> LockAnalysis {
    let mut summaries: Vec<FnSummary> = Vec::new();
    let mut analysis = LockAnalysis::default();
    for src in tree {
        let (krate, dir) = src.scope();
        let model_suite = is_model_test_file(src);
        if !(model_suite || dir == "src" && SYNC_SCOPED_CRATES.contains(&krate)) {
            continue;
        }
        creation_sites(src, krate, &mut analysis.creations);
        for item in src.fns.iter().filter(|f| model_suite || !f.in_test) {
            summaries.push(summarize_fn(item, src, krate));
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
    analysis
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

// ---------------------------------------------------------------------
// Runtime cross-check
// ---------------------------------------------------------------------

/// Resolve a runtime creation site (`file:line`, as recorded by the
/// scheduler from `#[track_caller]`) to a crate-qualified lock name.
pub fn resolve_creation(analysis: &LockAnalysis, site: &str) -> Option<String> {
    let (file, line) = site.rsplit_once(':')?;
    let line: usize = line.parse().ok()?;
    analysis
        .creations
        .iter()
        .find(|c| c.line == line && (file.ends_with(&c.file) || c.file.ends_with(file)))
        .map(|c| c.name.clone())
}

/// Check that every runtime lock edge (pairs of creation `file:line`
/// sites, from [`crate::model::runtime_lock_edges`]) is predicted by
/// the static graph. Returns a description of every gap: an unresolvable
/// creation site or an edge the static analysis missed. Same-name edges
/// (two instances created at one site, e.g. two shard `store` locks) are
/// skipped — instance ordering within one name is the dynamic checker's
/// job, not the static graph's.
pub fn check_runtime_edges(analysis: &LockAnalysis, runtime: &[(String, String)]) -> Vec<String> {
    let mut gaps = Vec::new();
    for (held_site, acq_site) in runtime {
        let Some(held) = resolve_creation(analysis, held_site) else {
            gaps.push(format!(
                "runtime lock created at {held_site} has no static creation site \
                 (is the file outside the lock-order scan set?)"
            ));
            continue;
        };
        let Some(acq) = resolve_creation(analysis, acq_site) else {
            gaps.push(format!(
                "runtime lock created at {acq_site} has no static creation site \
                 (is the file outside the lock-order scan set?)"
            ));
            continue;
        };
        if held == acq {
            continue;
        }
        if !analysis.edges.contains_key(&(held.clone(), acq.clone())) {
            gaps.push(format!(
                "runtime lock edge {held} -> {acq} (created {held_site}, {acq_site}) is \
                 not in the static lock-order graph — the static analysis has a blind spot"
            ));
        }
    }
    gaps
}

// ---------------------------------------------------------------------
// Tree entry point
// ---------------------------------------------------------------------

/// Run every static pass over the tree at `root`, read and lexed once:
/// the sync-discipline rules, panic-totality on the designated decode
/// modules, the static lock-order cycle check, and spec ↔ codec
/// agreement. Returns all violations, sorted by file/line.
pub fn audit_tree(root: &Path) -> Result<Vec<Violation>, String> {
    let files = syntax::walk(root)?;
    let tree = syntax::parse_tree(&files);
    let mut out = crate::lint::lint_tree(&tree);
    for rel in DECODE_TOTAL_FILES {
        out.extend(audit_decode(syntax::find(&tree, rel)?));
    }
    out.extend(lock_graph(&tree).violations);
    out.extend(crate::spec::check_tree(root, &tree)?);
    out.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decode_violations(src: &str) -> Vec<Violation> {
        audit_decode(&Source::parse("x.rs", src))
    }

    #[test]
    fn flags_unwrap_expect_and_panic_macros() {
        let v = decode_violations(
            "fn f(b: &[u8]) -> u8 { b.first().copied().unwrap() }\n\
             fn g() { panic!(\"no\") }\n\
             fn h(x: Option<u8>) -> u8 { x.expect(\"set\") }\n\
             fn k(n: usize) { assert!(n > 0); }",
        );
        let rules: Vec<_> = v.iter().map(|v| (v.rule, v.line)).collect();
        assert_eq!(
            rules,
            vec![
                ("decode-panic", 1),
                ("decode-panic", 2),
                ("decode-panic", 3),
                ("decode-panic", 4)
            ],
            "{v:?}"
        );
    }

    #[test]
    fn flags_direct_indexing_but_not_types_or_attrs() {
        let v = decode_violations(
            "#[derive(Debug)]\n\
             struct S { a: [u8; 4] }\n\
             fn f(b: &[u8]) -> u8 { b[0] }\n\
             fn g(b: &[u8]) -> &[u8] { &b[1..] }\n\
             fn h() -> Vec<u8> { vec![0; 4] }",
        );
        let rules: Vec<_> = v.iter().map(|v| (v.rule, v.line)).collect();
        assert_eq!(
            rules,
            vec![("decode-index", 3), ("decode-index", 4)],
            "{v:?}"
        );
    }

    #[test]
    fn flags_length_arithmetic_but_not_plain_constants() {
        let v = decode_violations(
            "fn f(s: &str) -> usize { s.len() + 5 }\n\
             fn g(n: usize) -> usize { n * 20 }\n\
             fn h(pos: usize) -> usize { pos - 1 }\n\
             fn k() -> usize { 8 * 1024 }\n\
             fn m(x: usize) -> usize { x.checked_mul(4).unwrap_or(0) }",
        );
        let rules: Vec<_> = v.iter().map(|v| (v.rule, v.line)).collect();
        assert_eq!(
            rules,
            vec![
                ("decode-arith", 1),
                ("decode-arith", 2),
                ("decode-arith", 3)
            ],
            "{v:?}"
        );
    }

    #[test]
    fn compound_assign_on_length_vars_flagged() {
        let v = decode_violations("fn f(pos: &mut usize) { *pos += 1; }");
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "decode-arith");
    }

    #[test]
    fn test_code_is_exempt() {
        let v = decode_violations(
            "#[cfg(test)]\nmod tests {\n fn f(b: &[u8]) -> u8 { b[0] }\n}\n\
             #[test]\nfn t() { assert!(true) }",
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn justified_allow_suppresses_unjustified_fails() {
        let ok = "// df-audit: allow(decode-index) — header length checked 3 lines up\n\
                  fn f(b: &[u8]) -> u8 { b[0] }";
        assert!(decode_violations(ok).is_empty());

        let same_line =
            "fn f(b: &[u8]) -> u8 { b[0] } // df-audit: allow(decode-index) — checked above";
        assert!(decode_violations(same_line).is_empty());

        let empty = "// df-audit: allow(decode-index)\nfn f(b: &[u8]) -> u8 { b[0] }";
        let v = decode_violations(empty);
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v.iter().any(|v| v.rule == "audit-allow"));
        assert!(v.iter().any(|v| v.rule == "decode-index"));

        let unknown = "// df-audit: allow(decode-everything) — because\nfn f() {}";
        let v = decode_violations(unknown);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "audit-allow");
    }

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

    #[test]
    fn creation_sites_found_for_let_and_field_forms() {
        let src = "fn f() {\n\
                     let store = Arc::new(RwLock::new(Vec::new()));\n\
                     let s = S { gens: Mutex::new(0), cache: Mutex::new(1) };\n\
                   }";
        let mut out = Vec::new();
        creation_sites(&Source::parse("f.rs", src), "c", &mut out);
        let names: Vec<_> = out.iter().map(|c| (c.name.as_str(), c.line)).collect();
        assert_eq!(
            names,
            vec![("c::store", 2), ("c::gens", 3), ("c::cache", 3)],
            "{out:?}"
        );
    }

    #[test]
    fn runtime_edge_cross_check_finds_gaps_and_matches() {
        let mut analysis = LockAnalysis::default();
        analysis.creations.push(CreationSite {
            file: "crates/x/src/a.rs".to_string(),
            line: 10,
            name: "x::a".to_string(),
        });
        analysis.creations.push(CreationSite {
            file: "crates/x/src/a.rs".to_string(),
            line: 20,
            name: "x::b".to_string(),
        });
        analysis.edges.insert(
            ("x::a".to_string(), "x::b".to_string()),
            EdgeSite {
                file: "crates/x/src/a.rs".to_string(),
                line: 30,
                via: "f".to_string(),
            },
        );
        let ok = vec![(
            "crates/x/src/a.rs:10".to_string(),
            "crates/x/src/a.rs:20".to_string(),
        )];
        assert!(check_runtime_edges(&analysis, &ok).is_empty());

        // Same-name edges (two instances from one site) are skipped.
        let same = vec![(
            "crates/x/src/a.rs:10".to_string(),
            "crates/x/src/a.rs:10".to_string(),
        )];
        assert!(check_runtime_edges(&analysis, &same).is_empty());

        let reversed = vec![(
            "crates/x/src/a.rs:20".to_string(),
            "crates/x/src/a.rs:10".to_string(),
        )];
        let gaps = check_runtime_edges(&analysis, &reversed);
        assert_eq!(gaps.len(), 1, "{gaps:?}");
        assert!(gaps[0].contains("x::b -> x::a"), "{gaps:?}");

        let unknown = vec![(
            "crates/x/src/zzz.rs:1".to_string(),
            "crates/x/src/a.rs:20".to_string(),
        )];
        let gaps = check_runtime_edges(&analysis, &unknown);
        assert_eq!(gaps.len(), 1);
        assert!(gaps[0].contains("no static creation site"));
    }
}
