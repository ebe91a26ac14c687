//! Format-spec synchronisation check: each normative format document
//! under `docs/` must agree with the constants its codec actually uses.
//!
//! Both checked formats have the same shape — a magic, a version byte and
//! one ordered name table — so one [`Format`] descriptor says where each
//! side declares the three facts, and one parser pair and one differ
//! serve both. The code side is read as [`crate::syntax`] tokens; the
//! Markdown side line by line, its tables through one marker-table
//! reader:
//!
//! * [`DFW1`], the wire format: `WIRE_MAGIC` / `WIRE_VERSION` /
//!   `FIELD_ORDER` in `df_types::wire` ↔ the `**Magic:**` / `**Version:**`
//!   lines and the `<!-- FIELD_ORDER:BEGIN/END -->` table of
//!   `docs/WIRE_FORMAT.md`;
//! * [`DFSPANS1`], the cold tier's span segments: `SPAN_SEGMENT_MAGIC` /
//!   `SPAN_SEGMENT_VERSION` / `SPAN_SEGMENT_SECTIONS` in
//!   `df_storage::persist` ↔ the `**Segment magic:**` /
//!   `**Segment version:**` lines and the
//!   `<!-- SEGMENT_SECTIONS:BEGIN/END -->` table of
//!   `docs/SEGMENT_FORMAT.md`.
//!
//! [`check_tree`] (run by the `df-audit` binary, which `ci.sh` gates on)
//! reports each disagreement as a `spec-sync` violation, so editing
//! either side without the other fails CI.
//!
//! On top of the byte-level agreement it enforces *coverage*
//! (`spec-exhaustive`): every DFR1 RPC kind in
//! the normative `RPC_KINDS` table must have a `kind()` encode arm, a
//! `decode_body` arm, and a doc-table row; every DFW1 presence bit
//! (`F_*` const) must have an encode site (`flags |= F_X`), a decode
//! site (`flags & F_X`), and a doc-table row. Adding kind 13 or bit 16
//! without documenting it is a CI failure, not a silent drift. DFSPANS1
//! declares no presence bits today; the same scan covers
//! `df_storage::persist` so any future `F_*` const there comes under
//! the rule automatically.

use crate::syntax::{close_of, find, seq, Source, Token, TokenKind, Violation};
use std::collections::BTreeSet;
use std::path::Path;

/// The facts one side (code or doc) declares about a format.
#[derive(Debug, Clone)]
pub struct FormatSpec {
    /// The frame magic, as text.
    pub magic: String,
    /// The format version byte.
    pub version: u8,
    /// The format's ordered name table, in encoding order (DFW1: the
    /// per-span record fields; DFSPANS1: the body sections).
    pub order: Vec<String>,
    /// Lines declaring the magic, the version and the name table.
    pub lines: [usize; 3],
}

/// Where one format declares its facts on each side, and how its
/// mismatch lines read.
#[derive(Debug, Clone, Copy)]
pub struct Format {
    /// Codec const holding the magic: `NAME: &[u8; N] = b"....";`.
    pub magic_const: &'static str,
    /// Codec const holding the version: `NAME: u8 = N;`.
    pub version_const: &'static str,
    /// Codec const holding the name table: `NAME: [&str; N] = [ ... ];`.
    pub order_const: &'static str,
    /// Bold doc label whose line carries the magic (first backticked
    /// token).
    pub magic_label: &'static str,
    /// Bold doc label whose line carries the version.
    pub version_label: &'static str,
    /// `NAME` of the `<!-- NAME:BEGIN -->` / `<!-- NAME:END -->` markers
    /// delimiting the doc's name table (first backticked token per row).
    pub table: &'static str,
    /// Prefix of the magic/version mismatch lines.
    pub prefix: &'static str,
    /// What one name-table entry is called in mismatch lines.
    pub item: &'static str,
}

/// The DFW1 wire format: `df_types::wire` ↔ `docs/WIRE_FORMAT.md`.
pub const DFW1: Format = Format {
    magic_const: "WIRE_MAGIC",
    version_const: "WIRE_VERSION",
    order_const: "FIELD_ORDER",
    magic_label: "**Magic:**",
    version_label: "**Version:**",
    table: "FIELD_ORDER",
    prefix: "",
    item: "field",
};

/// The DFSPANS1 segment format: `df_storage::persist` ↔
/// `docs/SEGMENT_FORMAT.md`.
pub const DFSPANS1: Format = Format {
    magic_const: "SPAN_SEGMENT_MAGIC",
    version_const: "SPAN_SEGMENT_VERSION",
    order_const: "SPAN_SEGMENT_SECTIONS",
    magic_label: "**Segment magic:**",
    version_label: "**Segment version:**",
    table: "SEGMENT_SECTIONS",
    prefix: "segment ",
    item: "section",
};

/// First `` `backticked` `` token in a line, if any.
fn backticked(line: &str) -> Option<&str> {
    let start = line.find('`')? + 1;
    let len = line[start..].find('`')?;
    Some(&line[start..start + len])
}

/// The `u8` a text starts with (`12` of `12 | …`, `1` of `1u8`).
fn leading_u8(text: &str) -> Option<u8> {
    let rest = text.trim_start_matches(|c: char| c.is_ascii_digit());
    text[..text.len() - rest.len()].parse().ok()
}

/// The Markdown table between the `<!-- NAME:BEGIN -->` and
/// `<!-- NAME:END -->` marker lines: the BEGIN marker's 1-indexed line
/// and every `|` row (line, text), header and separator rows included —
/// `None` when the doc has no such table. The one reader for every
/// normative table.
fn marker_table<'d>(doc: &'d str, name: &str) -> Option<(usize, Vec<(usize, &'d str)>)> {
    let begin = format!("<!-- {name}:BEGIN -->");
    let end = format!("<!-- {name}:END -->");
    let mut lines = doc.lines().map(str::trim).enumerate();
    let at = lines.find(|(_, t)| *t == begin)?.0 + 1;
    let rows = lines
        .take_while(|(_, t)| *t != end)
        .filter(|(_, t)| t.starts_with('|'))
        .map(|(i, t)| (i + 1, t))
        .collect();
    Some((at, rows))
}

impl Format {
    /// Extract the facts from the codec's tokens, recognising the three
    /// normative declarations by const name: the magic is the value's
    /// string literal, the version its number, the name table every
    /// string literal of the value (the `&str` in the type has none).
    pub fn parse_source(&self, src: &Source<'_>) -> Result<FormatSpec, String> {
        let value = |name: &str| {
            let found = src
                .const_value(name)
                .map(|(at, v)| (src.tokens[at].line, v));
            found.ok_or(format!("{name} not found in source"))
        };
        let (magic_line, magic) = value(self.magic_const)?;
        let (version_line, version) = value(self.version_const)?;
        let (order_line, order) = value(self.order_const)?;
        let strings = |v: &[Token<'_>]| -> Vec<String> {
            let strs = v.iter().filter(|t| t.kind == TokenKind::Str);
            strs.map(|t| t.unquoted().to_string()).collect()
        };
        Ok(FormatSpec {
            magic: strings(magic)
                .pop()
                .ok_or(format!("{} is not a byte string", self.magic_const))?,
            version: version
                .first()
                .and_then(|t| leading_u8(t.text))
                .ok_or(format!("{} is not a u8 literal", self.version_const))?,
            order: strings(order),
            lines: [magic_line, version_line, order_line],
        })
    }

    /// Extract the facts from the format document's text: the first
    /// lines carrying the two bold labels, and the marked table's rows
    /// (header and separator rows have no backticked token).
    pub fn parse_doc(&self, doc: &str) -> Result<FormatSpec, String> {
        let labelled = |label: &str| {
            let (i, line) = doc
                .lines()
                .enumerate()
                .find(|(_, l)| l.contains(label))
                .ok_or(format!("{label} line not found in doc"))?;
            let value = backticked(line).ok_or(format!("{label} line has no backticked value"))?;
            Ok::<_, String>((i + 1, value))
        };
        let (magic_line, magic) = labelled(self.magic_label)?;
        let (version_line, version) = labelled(self.version_label)?;
        let (order_line, rows) = marker_table(doc, self.table).unwrap_or((1, Vec::new()));
        Ok(FormatSpec {
            magic: magic.to_string(),
            version: version
                .parse::<u8>()
                .map_err(|e| format!("{} value {version:?}: {e}", self.version_label))?,
            order: rows
                .iter()
                .filter_map(|(_, row)| backticked(row).map(str::to_string))
                .collect(),
            lines: [magic_line, version_line, order_line],
        })
    }

    /// Compare the code-side and doc-side facts: one `spec-sync`
    /// violation per disagreement, at the codec's declaration in
    /// `src_file`; empty when in sync.
    pub fn diff(&self, code: &FormatSpec, doc: &FormatSpec, src_file: &Path) -> Vec<Violation> {
        let (prefix, item) = (self.prefix, self.item);
        let mut out = Vec::new();
        let mut push = |fact: usize, message: String| {
            out.push(Violation {
                file: src_file.to_path_buf(),
                line: code.lines[fact],
                rule: "spec-sync",
                message,
            })
        };
        if code.magic != doc.magic {
            push(
                0,
                format!(
                    "{prefix}magic mismatch: code declares {:?}, doc declares {:?}",
                    code.magic, doc.magic
                ),
            );
        }
        if code.version != doc.version {
            push(
                1,
                format!(
                    "{prefix}version mismatch: code declares {}, doc declares {}",
                    code.version, doc.version
                ),
            );
        }
        if code.order.len() != doc.order.len() {
            push(
                2,
                format!(
                    "{item} count mismatch: code has {}, doc table has {}",
                    code.order.len(),
                    doc.order.len()
                ),
            );
        }
        for (i, (c, d)) in code.order.iter().zip(&doc.order).enumerate() {
            if c != d {
                push(
                    2,
                    format!("{item} {i} mismatch: code says {c:?}, doc table says {d:?}"),
                );
            }
        }
        out
    }
}

// ---------------------------------------------------------------------
// Exhaustiveness: DFR1 RPC kinds and DFW1/DFSPANS1 presence bits
// ---------------------------------------------------------------------

/// Marker-table name of the normative RPC-kind table.
pub const RPC_KINDS: &str = "RPC_KINDS";
/// Marker-table name of the normative presence-bit table.
pub const PRESENCE_BITS: &str = "PRESENCE_BITS";

/// A named, numbered declaration (an RPC kind and its byte, a presence
/// bit and its position) with the 1-indexed line it was found on.
pub type Numbered = (String, u8, usize);

/// What the RPC codec source declares about its kinds.
#[derive(Debug, Clone, Default)]
pub struct RpcKindFacts {
    /// `RPC_KINDS` const entries: (variant name, kind byte, line).
    pub declared: Vec<Numbered>,
    /// `RpcBody::Name { .. } => N` arms of `fn kind()` — the encode side.
    pub kind_arms: Vec<Numbered>,
    /// `N =>` arms of `fn decode_body` — the decode side.
    pub decode_arms: Vec<(u8, usize)>,
}

/// Extract the RPC-kind facts from the `crates/df-types/src/rpc.rs`
/// tokens.
pub fn parse_rpc_kinds_source(src: &Source<'_>) -> RpcKindFacts {
    let toks = &src.tokens;
    let mut facts = RpcKindFacts::default();
    // `RPC_KINDS` const entries: `("Name", N)` tuples.
    let entries = src.const_value(RPC_KINDS).map_or(&[][..], |(_, v)| v);
    for w in entries.windows(5) {
        let tuple = [w[0].text, w[2].text, w[4].text] == ["(", ",", ")"];
        if let Some(byte) = leading_u8(w[3].text).filter(|_| tuple && w[1].kind == TokenKind::Str) {
            facts
                .declared
                .push((w[1].unquoted().to_string(), byte, w[1].line));
        }
    }
    // `fn kind()` arms: `RpcBody::Name { .. } => N`.
    for i in src.fn_named("kind").map_or(0..0, |f| f.body.clone()) {
        let Some(name) = toks.get(i + 2).filter(|_| seq(toks, i, &["RpcBody", "::"])) else {
            continue;
        };
        // Step over the variant's `{ .. }` / `( .. )` pattern, if any.
        let mut arrow = i + 3;
        if seq(toks, arrow, &["{"]) || seq(toks, arrow, &["("]) {
            arrow = close_of(toks, arrow) + 1;
        }
        let byte = toks.get(arrow + 1).and_then(|t| leading_u8(t.text));
        if let Some(byte) = byte.filter(|_| seq(toks, arrow, &["=>"])) {
            facts
                .kind_arms
                .push((name.text.to_string(), byte, name.line));
        }
    }
    // `fn decode_body` arms: a number opening an arm of the top-level
    // `match kind`, one brace deep in the body — deeper number arms
    // belong to nested matches like `span_present` and are not kind arms.
    let mut depth = 0i32;
    for i in src.fn_named("decode_body").map_or(0..0, |f| f.body.clone()) {
        match toks[i].text {
            "{" => depth += 1,
            "}" => depth -= 1,
            _ => {}
        }
        let opens_arm =
            depth == 1 && matches!(toks[i - 1].text, "{" | "," | "}") && seq(toks, i + 1, &["=>"]);
        if let Some(byte) = leading_u8(toks[i].text).filter(|_| opens_arm) {
            facts.decode_arms.push((byte, toks[i].line));
        }
    }
    facts
}

/// The `| <number> | `name` | … |` rows of the doc's `name` marker
/// table — `None` when the markers are absent entirely.
pub fn parse_numbered_doc_table(doc: &str, name: &str) -> Option<Vec<Numbered>> {
    let (_, rows) = marker_table(doc, name)?;
    let numbered = rows.into_iter().filter_map(|(line, row)| {
        let number = leading_u8(row.trim_start_matches('|').trim_start())?;
        Some((backticked(row)?.to_string(), number, line))
    });
    Some(numbered.collect())
}

fn exhaustive(file: &Path, line: usize, message: String) -> Violation {
    Violation {
        file: file.to_path_buf(),
        line,
        rule: "spec-exhaustive",
        message,
    }
}

/// The first declaration whose number another one repeats.
fn duplicate(declared: &[Numbered]) -> Option<&Numbered> {
    let repeats = |b: u8| declared.iter().filter(|(_, b2, _)| *b2 == b).count() > 1;
    declared.iter().find(|(_, b, _)| repeats(*b))
}

/// Both directions of declarations ↔ doc-table rows: a row that matches
/// no declaration is reported in `doc_file` as `stray_row(name, number)`,
/// a declaration with no row in `src_file` as `undocumented(name, number)`.
fn check_doc_rows(
    declared: &[Numbered],
    rows: &[Numbered],
    (src_file, doc_file): (&Path, &Path),
    stray_row: impl Fn(&str, u8) -> String,
    undocumented: impl Fn(&str, u8) -> String,
) -> Vec<Violation> {
    let lacks =
        |list: &[Numbered], n: &str, b: u8| !list.iter().any(|(n2, b2, _)| n2 == n && *b2 == b);
    let stray = rows.iter().filter(|(n, b, _)| lacks(declared, n, *b));
    let undoc = declared.iter().filter(|(n, b, _)| lacks(rows, n, *b));
    stray
        .map(|(n, b, line)| exhaustive(doc_file, *line, stray_row(n, *b)))
        .chain(undoc.map(|(n, b, line)| exhaustive(src_file, *line, undocumented(n, *b))))
        .collect()
}

/// Cross-check the RPC-kind facts: the `RPC_KINDS` const, the `kind()`
/// encode arms, the `decode_body` arms and the doc table must all name
/// the same kinds. `src_file`/`doc_file` are used for attribution only.
pub fn check_rpc_kinds(
    facts: &RpcKindFacts,
    doc_rows: Option<&[Numbered]>,
    src_file: &Path,
    doc_file: &Path,
) -> Vec<Violation> {
    let mut out = Vec::new();
    let mut v = |line: usize, message: String| out.push(exhaustive(src_file, line, message));
    if facts.declared.is_empty() {
        v(
            1,
            "normative RPC_KINDS const not found; declare every RPC kind as \
             (\"Name\", byte) entries"
                .to_string(),
        );
        return out;
    }
    let declared: BTreeSet<(&str, u8)> = facts
        .declared
        .iter()
        .map(|(n, b, _)| (n.as_str(), *b))
        .collect();
    let declared_bytes: BTreeSet<u8> = facts.declared.iter().map(|(_, b, _)| *b).collect();
    if let Some((n, b, line)) = duplicate(&facts.declared) {
        v(
            *line,
            format!("RPC_KINDS declares kind byte {b} more than once (at {n})"),
        );
    }
    let arms: BTreeSet<(&str, u8)> = facts
        .kind_arms
        .iter()
        .map(|(n, b, _)| (n.as_str(), *b))
        .collect();
    for (n, b, line) in &facts.kind_arms {
        if !declared.contains(&(n.as_str(), *b)) {
            v(
                *line,
                format!("kind() encodes RpcBody::{n} as {b}, which RPC_KINDS does not declare"),
            );
        }
    }
    for (n, b, line) in &facts.declared {
        if !arms.contains(&(n.as_str(), *b)) {
            v(
                *line,
                format!("RPC_KINDS declares {n} = {b} but kind() has no matching encode arm"),
            );
        }
    }
    let decode_bytes: BTreeSet<u8> = facts.decode_arms.iter().map(|(b, _)| *b).collect();
    for (b, line) in &facts.decode_arms {
        if !declared_bytes.contains(b) {
            v(
                *line,
                format!("decode_body has an arm for kind {b}, which RPC_KINDS does not declare"),
            );
        }
    }
    for (n, b, line) in &facts.declared {
        if !decode_bytes.contains(b) {
            v(
                *line,
                format!("RPC_KINDS declares {n} = {b} but decode_body has no arm for it"),
            );
        }
    }
    match doc_rows {
        None => out.push(exhaustive(
            doc_file,
            1,
            format!(
                "doc is missing the <!-- {RPC_KINDS}:BEGIN --> … <!-- {RPC_KINDS}:END --> table \
                 for the declared RPC kinds"
            ),
        )),
        Some(rows) => out.extend(check_doc_rows(
            &facts.declared,
            rows,
            (src_file, doc_file),
            |n, b| format!("doc table row {n} = {b} does not match any declared RPC kind"),
            |n, b| format!("RPC kind {n} = {b} has no row in the doc's RPC_KINDS table"),
        )),
    }
    out
}

/// What a codec source declares about its presence bits.
#[derive(Debug, Clone, Default)]
pub struct FlagFacts {
    /// `const F_X: u32 = 1 << N;` declarations: (name, bit, line).
    pub declared: Vec<Numbered>,
    /// Names seen in `… |= F_X` encode sites.
    pub encode_sites: Vec<String>,
    /// Names seen in `… & F_X` decode sites.
    pub decode_sites: Vec<String>,
}

/// Extract presence-bit facts from a codec's tokens: `F_*` consts
/// declared as `1 << N`, plus their sites — an encode site is the
/// adjacent tokens `|=` `F_X`, a decode site `&` `F_X` (so `&mut` or an
/// unrelated `|=` elsewhere in the statement does not count).
pub fn parse_flags_source(src: &Source<'_>) -> FlagFacts {
    let mut facts = FlagFacts::default();
    for w in src.tokens.windows(2) {
        if w[0].text != "const" || !w[1].text.starts_with("F_") {
            continue;
        }
        if let Some((_, [one, shl, bit, ..])) = src.const_value(w[1].text) {
            if let Some(bit) = leading_u8(bit.text).filter(|_| (one.text, shl.text) == ("1", "<<"))
            {
                facts.declared.push((w[1].text.to_string(), bit, w[1].line));
            }
        }
    }
    for w in src.tokens.windows(2) {
        if facts.declared.iter().any(|(name, ..)| name == w[1].text) {
            match w[0].text {
                "|=" => facts.encode_sites.push(w[1].text.to_string()),
                "&" => facts.decode_sites.push(w[1].text.to_string()),
                _ => {}
            }
        }
    }
    facts
}

/// Cross-check presence-bit facts against the doc table: every declared
/// bit needs an encode site, a decode site, and a doc row; every doc row
/// needs a declaration. `doc_rows = None` means the doc has no marker
/// table — fine iff nothing is declared (DFSPANS1 today).
pub fn check_flags(
    facts: &FlagFacts,
    doc_rows: Option<&[Numbered]>,
    src_file: &Path,
    doc_file: &Path,
) -> Vec<Violation> {
    let mut out = Vec::new();
    let mut v = |line: usize, message: String| out.push(exhaustive(src_file, line, message));
    if let Some((n, b, line)) = duplicate(&facts.declared) {
        v(
            *line,
            format!("presence bit {b} is declared more than once (at {n})"),
        );
    }
    for (name, bit, line) in &facts.declared {
        if !facts.encode_sites.contains(name) {
            v(
                *line,
                format!("presence bit {name} (bit {bit}) has no encode site (`flags |= {name}`)"),
            );
        }
        if !facts.decode_sites.contains(name) {
            v(
                *line,
                format!("presence bit {name} (bit {bit}) has no decode site (`flags & {name}`)"),
            );
        }
    }
    match doc_rows {
        None if facts.declared.is_empty() => {}
        None => out.push(exhaustive(
            doc_file,
            1,
            format!(
                "doc is missing the <!-- {PRESENCE_BITS}:BEGIN --> … <!-- {PRESENCE_BITS}:END \
                 --> table for the declared presence bits"
            ),
        )),
        Some(rows) => out.extend(check_doc_rows(
            &facts.declared,
            rows,
            (src_file, doc_file),
            |n, b| format!("doc table row {n} = bit {b} does not match any declared bit"),
            |n, b| {
                format!("presence bit {n} (bit {b}) has no row in the doc's PRESENCE_BITS table")
            },
        )),
    }
    out
}

/// Run the whole spec check over a parsed tree and the docs under `root`:
/// the DFW1 wire spec (`crates/df-types/src/wire.rs` ↔
/// `docs/WIRE_FORMAT.md`) and the DFSPANS1 segment spec
/// (`crates/df-storage/src/persist.rs` ↔ `docs/SEGMENT_FORMAT.md`) each
/// for constant agreement and presence-bit coverage (DFSPANS1 declares
/// none today, so that scan simply guards the future), and the DFR1 RPC
/// kinds (`crates/df-types/src/rpc.rs` ↔ `docs/WIRE_FORMAT.md`).
pub fn check_tree(root: &Path, tree: &[Source<'_>]) -> Result<Vec<Violation>, String> {
    let read_doc = |rel: &str| {
        let path = root.join(rel);
        std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))
    };
    let (wire_doc_rel, segment_doc_rel) = ("docs/WIRE_FORMAT.md", "docs/SEGMENT_FORMAT.md");
    let (wire_doc, segment_doc) = (read_doc(wire_doc_rel)?, read_doc(segment_doc_rel)?);
    let mut out = Vec::new();
    for (format, src_rel, doc_rel, doc) in [
        (DFW1, "crates/df-types/src/wire.rs", wire_doc_rel, &wire_doc),
        (
            DFSPANS1,
            "crates/df-storage/src/persist.rs",
            segment_doc_rel,
            &segment_doc,
        ),
    ] {
        let src = find(tree, src_rel)?;
        let (src_file, doc_file) = (Path::new(src_rel), Path::new(doc_rel));
        out.extend(format.diff(
            &format.parse_source(src)?,
            &format.parse_doc(doc)?,
            src_file,
        ));
        out.extend(check_flags(
            &parse_flags_source(src),
            parse_numbered_doc_table(doc, PRESENCE_BITS).as_deref(),
            src_file,
            doc_file,
        ));
    }
    let rpc_rel = "crates/df-types/src/rpc.rs";
    out.extend(check_rpc_kinds(
        &parse_rpc_kinds_source(find(tree, rpc_rel)?),
        parse_numbered_doc_table(&wire_doc, RPC_KINDS).as_deref(),
        Path::new(rpc_rel),
        Path::new(wire_doc_rel),
    ));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One format's descriptor with an agreeing source/doc fixture pair.
    type Fixture = (Format, &'static str, &'static str);

    const WIRE_FIXTURE: Fixture = (
        DFW1,
        r#"
/// The frame magic.
pub const WIRE_MAGIC: &[u8; 4] = b"DFW1";
/// The format version.
pub const WIRE_VERSION: u8 = 1;
/// Normative field order.
pub const FIELD_ORDER: [&str; 3] = [
    "span_id", "flags",
    "kind_tap",
];
"#,
        r#"
# DFW1

**Magic:** `DFW1` (4 ASCII bytes)

**Version:** `1`

<!-- FIELD_ORDER:BEGIN -->
| # | Field | Encoding |
|---|-------|----------|
| 0 | `span_id` | varint u64 |
| 1 | `flags` | varint u32 |
| 2 | `kind_tap` | byte |
<!-- FIELD_ORDER:END -->
"#,
    );

    const SEGMENT_FIXTURE: Fixture = (
        DFSPANS1,
        r#"
/// The segment magic.
pub const SPAN_SEGMENT_MAGIC: &[u8; 8] = b"DFSPANS1";
/// The segment version.
pub const SPAN_SEGMENT_VERSION: u8 = 2;
/// Normative section order.
pub const SPAN_SEGMENT_SECTIONS: [&str; 2] = ["spans", "rows"];
"#,
        r#"
# DFSPANS1

**Segment magic:** `DFSPANS1` (8 ASCII bytes)

**Segment version:** `2`

<!-- SEGMENT_SECTIONS:BEGIN -->
| # | Section | Contents |
|---|---------|----------|
| 0 | `spans` | DFW1 batch |
| 1 | `rows` | u32 row numbers |
<!-- SEGMENT_SECTIONS:END -->
"#,
    );

    const FIXTURES: [Fixture; 2] = [WIRE_FIXTURE, SEGMENT_FIXTURE];

    fn assert_line(d: &[Violation], i: usize, want: String) {
        let starts = d[i].message.starts_with(&want);
        assert!(starts, "line {i} of {d:?} is not {want:?}");
        assert_eq!((d[i].rule, d[i].file.to_str()), ("spec-sync", Some("x.rs")));
    }

    fn code(format: Format, src: &str) -> Result<FormatSpec, String> {
        format.parse_source(&Source::parse("x.rs", src))
    }

    fn diff(format: Format, src: &str, doc: &str) -> Vec<Violation> {
        let (code, doc) = (code(format, src).unwrap(), format.parse_doc(doc).unwrap());
        format.diff(&code, &doc, Path::new("x.rs"))
    }

    #[test]
    fn fixtures_parse_and_agree() {
        for (format, src, doc) in FIXTURES {
            assert!(diff(format, src, doc).is_empty());
        }
        let (format, src, doc) = WIRE_FIXTURE;
        let wire = code(format, src).unwrap();
        assert_eq!((wire.magic.as_str(), wire.version), ("DFW1", 1));
        assert_eq!(wire.order, ["span_id", "flags", "kind_tap"]);
        assert_eq!(wire.lines, [3, 5, 7]);
        assert_eq!(format.parse_doc(doc).unwrap().lines, [4, 6, 8]);
        let (format, src, _) = SEGMENT_FIXTURE;
        let segment = code(format, src).unwrap();
        assert_eq!((segment.magic.as_str(), segment.version), ("DFSPANS1", 2));
        assert_eq!(segment.order, ["spans", "rows"]);
    }

    #[test]
    fn seeded_magic_and_version_mismatches_fail() {
        for (format, src, doc) in FIXTURES {
            let code = code(format, src).unwrap();
            let (magic, version) = (&code.magic, code.version);
            let prefix = format.prefix;

            let drifted = doc.replace(
                &format!("{} `{version}`", format.version_label),
                &format!("{} `9`", format.version_label),
            );
            let d = diff(format, src, &drifted);
            assert_eq!(d.len(), 1, "{d:?}");
            assert_line(&d, 0, format!("{prefix}version mismatch"));
            assert_eq!(d[0].line, code.lines[1]);

            // Magic drift, once seeded on each side.
            let drifted = doc.replace(&format!("`{magic}`"), "`DRIFTED`");
            let d = diff(format, src, &drifted);
            assert_line(&d, 0, format!("{prefix}magic mismatch"));
            let drifted = src.replace(&format!("b\"{magic}\""), "b\"DRIFTED\"");
            let d = diff(format, &drifted, doc);
            assert_line(&d, 0, format!("{prefix}magic mismatch"));
        }
    }

    #[test]
    fn seeded_rename_reorder_and_dropped_row_fail() {
        for (format, src, doc) in FIXTURES {
            let code = code(format, src).unwrap();
            let item = format.item;
            let tick = |name: &str| format!("`{name}`");
            let (first, second) = (tick(&code.order[0]), tick(&code.order[1]));
            let diff_of = |doc: &str| diff(format, src, doc);

            let d = diff_of(&doc.replace(&second, "`renamed`"));
            assert_eq!(d.len(), 1, "{d:?}");
            assert_line(&d, 0, format!("{item} 1 mismatch"));

            // Reorder: swap the names of rows 0 and 1.
            let swapped = doc
                .replace(&first, "`\0`")
                .replace(&second, &first)
                .replace("`\0`", &second);
            let d = diff_of(&swapped);
            assert_line(&d, 0, format!("{item} 0 mismatch"));
            assert_line(&d, 1, format!("{item} 1 mismatch"));

            // Dropped last row.
            let last = tick(code.order.last().unwrap());
            let dropped: Vec<&str> = doc.lines().filter(|l| !l.contains(&last)).collect();
            let d = diff_of(&dropped.join("\n"));
            assert_eq!(d.len(), 1, "{d:?}");
            assert_line(&d, 0, format!("{item} count mismatch"));
        }
    }

    #[test]
    fn missing_markers_or_lines_are_errors() {
        for (format, src, doc) in FIXTURES {
            assert!(format.parse_doc("# empty").is_err());
            assert!(code(format, "// nothing here").is_err());
            // A doc with magic/version but no marked table yields no
            // names — caught as a count mismatch rather than a parse error.
            let unmarked: Vec<&str> = doc.lines().filter(|l| !l.contains("<!--")).collect();
            let unmarked = unmarked.join("\n");
            assert!(format.parse_doc(&unmarked).unwrap().order.is_empty());
            let d = diff(format, src, &unmarked);
            assert!(d[0].message.contains("count mismatch"), "{d:?}");
        }
        // The other format's labels do not satisfy a parser.
        assert!(DFSPANS1.parse_doc(WIRE_FIXTURE.2).is_err());
        assert!(code(DFSPANS1, WIRE_FIXTURE.1).is_err());
    }

    const RPC_SRC_FIXTURE: &str = r#"
pub const RPC_KINDS: &[(&str, u8)] = &[("SpanBatch", 1), ("SpanBatchAck", 2)];

impl RpcBody {
    pub fn kind(&self) -> u8 {
        match self {
            RpcBody::SpanBatch { .. } => 1,
            RpcBody::SpanBatchAck { .. } => 2,
        }
    }
}

fn decode_body(kind: u8, body: &[u8]) -> Result<RpcBody, RpcDecodeError> {
    let decoded = match kind {
        1 => RpcBody::SpanBatch {},
        2 => RpcBody::SpanBatchAck {},
        other => return Err(RpcDecodeError::UnknownKind(other)),
    };
    Ok(decoded)
}
"#;

    const RPC_DOC_FIXTURE: &str = r#"
<!-- RPC_KINDS:BEGIN -->
| kind | body | meaning |
|------|------|---------|
| 1 | `SpanBatch` | spans |
| 2 | `SpanBatchAck` | ack |
<!-- RPC_KINDS:END -->
"#;

    fn rpc_check(src: &str, doc: &str) -> Vec<Violation> {
        check_rpc_kinds(
            &parse_rpc_kinds_source(&Source::parse("rpc.rs", src)),
            parse_numbered_doc_table(doc, RPC_KINDS).as_deref(),
            Path::new("rpc.rs"),
            Path::new("doc.md"),
        )
    }

    #[test]
    fn rpc_kind_fixture_parses_and_agrees() {
        let facts = parse_rpc_kinds_source(&Source::parse("rpc.rs", RPC_SRC_FIXTURE));
        assert_eq!(facts.declared.len(), 2, "{facts:?}");
        assert_eq!(facts.kind_arms.len(), 2, "{facts:?}");
        assert_eq!(facts.decode_arms.len(), 2, "{facts:?}");
        assert!(rpc_check(RPC_SRC_FIXTURE, RPC_DOC_FIXTURE).is_empty());
    }

    #[test]
    fn undeclared_decode_arm_and_missing_doc_row_fail() {
        // Add decode arm 3 with no declaration.
        let src = RPC_SRC_FIXTURE.replace(
            "2 => RpcBody::SpanBatchAck {},",
            "2 => RpcBody::SpanBatchAck {},\n        3 => RpcBody::SpanBatchAck {},",
        );
        let v = rpc_check(&src, RPC_DOC_FIXTURE);
        assert!(
            v.iter().any(|v| v.message.contains("arm for kind 3")),
            "{v:?}"
        );

        // Drop a doc row.
        let doc = RPC_DOC_FIXTURE.replace("| 2 | `SpanBatchAck` | ack |\n", "");
        let v = rpc_check(RPC_SRC_FIXTURE, &doc);
        assert!(
            v.iter()
                .any(|v| v.message.contains("no row in the doc's RPC_KINDS table")),
            "{v:?}"
        );

        // Declared kind without a decode arm.
        let src = RPC_SRC_FIXTURE.replace("2 => RpcBody::SpanBatchAck {},\n", "");
        let v = rpc_check(&src, RPC_DOC_FIXTURE);
        assert!(
            v.iter()
                .any(|v| v.message.contains("decode_body has no arm")),
            "{v:?}"
        );

        // Missing the table entirely.
        let v = rpc_check(RPC_SRC_FIXTURE, "# no table");
        assert!(v.iter().any(|v| v.message.contains("missing")), "{v:?}");
        assert!(v.iter().all(|v| v.rule == "spec-exhaustive"));
    }

    const FLAGS_SRC_FIXTURE: &str = "\
const F_A: u32 = 1 << 0;\n\
const F_B: u32 = 1 << 1;\n\
fn encode(flags: &mut u32) { *flags |= F_A; *flags |= F_B; }\n\
fn decode(flags: u32) -> (bool, bool) { (flags & F_A != 0, flags & F_B != 0) }\n";

    const FLAGS_DOC_FIXTURE: &str = "\
<!-- PRESENCE_BITS:BEGIN -->\n\
| bit | const | field |\n\
|-----|-------|-------|\n\
| 0 | `F_A` | a |\n\
| 1 | `F_B` | b |\n\
<!-- PRESENCE_BITS:END -->\n";

    fn flags_check(src: &str, doc: &str) -> Vec<Violation> {
        check_flags(
            &parse_flags_source(&Source::parse("wire.rs", src)),
            parse_numbered_doc_table(doc, PRESENCE_BITS).as_deref(),
            Path::new("wire.rs"),
            Path::new("doc.md"),
        )
    }

    #[test]
    fn presence_bit_fixture_parses_and_agrees() {
        let facts = parse_flags_source(&Source::parse("wire.rs", FLAGS_SRC_FIXTURE));
        assert_eq!(facts.declared.len(), 2, "{facts:?}");
        assert!(flags_check(FLAGS_SRC_FIXTURE, FLAGS_DOC_FIXTURE).is_empty());
    }

    #[test]
    fn seeded_presence_bit_violations_fail() {
        // A declared bit with no encode site.
        let src = FLAGS_SRC_FIXTURE.replace("*flags |= F_B; ", "");
        let v = flags_check(&src, FLAGS_DOC_FIXTURE);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("no encode site"), "{v:?}");
        assert_eq!(v[0].line, 2);

        // Sharing a line with someone else's `|=` is not an encode site.
        let src = FLAGS_SRC_FIXTURE.replace("*flags |= F_B; ", "let b = F_B; *flags |= b; ");
        let v = flags_check(&src, FLAGS_DOC_FIXTURE);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("F_B (bit 1) has no encode site"));

        // No decode site.
        let src = FLAGS_SRC_FIXTURE.replace("flags & F_B != 0", "false");
        let v = flags_check(&src, FLAGS_DOC_FIXTURE);
        assert!(v[0].message.contains("no decode site"), "{v:?}");

        // Doc row with the wrong bit number.
        let doc = FLAGS_DOC_FIXTURE.replace("| 1 | `F_B` | b |", "| 2 | `F_B` | b |");
        let v = flags_check(FLAGS_SRC_FIXTURE, &doc);
        assert!(
            v.iter().any(|v| v.message.contains("does not match")),
            "{v:?}"
        );
        assert!(
            v.iter().any(|v| v.message.contains("no row in the doc")),
            "{v:?}"
        );

        // Duplicate bit value.
        let src = FLAGS_SRC_FIXTURE.replace("const F_B: u32 = 1 << 1;", "const F_B: u32 = 1 << 0;");
        let v = flags_check(&src, FLAGS_DOC_FIXTURE);
        assert!(
            v.iter().any(|v| v.message.contains("more than once")),
            "{v:?}"
        );

        // No declared bits + no table is fine (DFSPANS1 today).
        assert!(flags_check("fn f() {}", "# no table").is_empty());
        // Declared bits with no table is not.
        let v = flags_check(FLAGS_SRC_FIXTURE, "# no table");
        assert!(v.iter().any(|v| v.message.contains("missing")), "{v:?}");
    }
}
