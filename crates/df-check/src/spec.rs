//! Format-spec synchronisation check: each normative format document
//! under `docs/` must agree with the constants its codec actually uses.
//!
//! Both checked formats have the same shape — a magic, a version byte and
//! one ordered name table — so one [`Format`] descriptor says where each
//! side declares the three facts, and one parser pair and one differ
//! serve both (plain text parsing, no dependencies, same philosophy as
//! [`crate::lint`]):
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
//! The `df-spec-sync` binary runs the comparison over a repo tree and
//! exits nonzero on any mismatch; `ci.sh` gates on it, so editing either
//! side without the other fails CI.
//!
//! On top of the byte-level agreement, [`check_exhaustiveness`] (run by
//! the `df-audit` binary) enforces *coverage*: every DFR1 RPC kind in
//! the normative `RPC_KINDS` table must have a `kind()` encode arm, a
//! `decode_body` arm, and a doc-table row; every DFW1 presence bit
//! (`F_*` const) must have an encode site (`flags |= F_X`), a decode
//! site (`flags & F_X`), and a doc-table row. Adding kind 13 or bit 16
//! without documenting it is a CI failure, not a silent drift. DFSPANS1
//! declares no presence bits today; the same scan covers
//! `df_storage::persist` so any future `F_*` const there comes under
//! the rule automatically.

/// The facts one side (code or doc) declares about a format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FormatSpec {
    /// The frame magic, as text.
    pub magic: String,
    /// The format version byte.
    pub version: u8,
    /// The format's ordered name table, in encoding order (DFW1: the
    /// per-span record fields; DFSPANS1: the body sections).
    pub order: Vec<String>,
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

impl Format {
    /// Extract the facts from the codec's source text, recognising the
    /// three normative declarations by const name.
    pub fn parse_source(&self, src: &str) -> Result<FormatSpec, String> {
        let (magic_const, version_const) = (self.magic_const, self.version_const);
        let magic_decl = format!("const {magic_const}");
        let version_decl = format!("const {version_const}");
        let order_decl = format!("const {}", self.order_const);
        let mut magic = None;
        let mut version = None;
        let mut order = Vec::new();
        let mut in_order = false;
        for line in src.lines() {
            let t = line.trim();
            if t.starts_with("//") {
                continue;
            }
            if let Some(start) = t.find("b\"").filter(|_| t.contains(&magic_decl)) {
                let rest = &t[start + 2..];
                let end = rest
                    .find('"')
                    .ok_or(format!("unterminated {magic_const} byte string"))?;
                magic = Some(rest[..end].to_string());
            } else if t.contains(&version_decl) && t.contains('=') {
                let rhs = t
                    .split('=')
                    .nth(1)
                    .ok_or(format!("malformed {version_const}"))?;
                let num: String = rhs.chars().filter(char::is_ascii_digit).collect();
                version = Some(
                    num.parse::<u8>()
                        .map_err(|e| format!("{version_const} value: {e}"))?,
                );
            }
            if t.contains(&order_decl) && t.contains('[') {
                in_order = true;
            }
            if in_order {
                // Every string literal up to the closing `];` is a name
                // (the `&str` in the type position has no quotes).
                let mut rest = t;
                while let Some(start) = rest.find('"') {
                    let tail = &rest[start + 1..];
                    let Some(end) = tail.find('"') else { break };
                    if end > 0 {
                        order.push(tail[..end].to_string());
                    }
                    rest = &tail[end + 1..];
                }
                if t.contains("];") {
                    in_order = false;
                }
            }
        }
        Ok(FormatSpec {
            magic: magic.ok_or(format!("{magic_const} not found in source"))?,
            version: version.ok_or(format!("{version_const} not found in source"))?,
            order,
        })
    }

    /// Extract the facts from the format document's text: the first
    /// lines carrying the two bold labels, and the marked table's rows
    /// (header and separator rows have no backticked token).
    pub fn parse_doc(&self, doc: &str) -> Result<FormatSpec, String> {
        let (magic_label, version_label) = (self.magic_label, self.version_label);
        let begin = format!("<!-- {}:BEGIN -->", self.table);
        let end = format!("<!-- {}:END -->", self.table);
        let mut magic = None;
        let mut version = None;
        let mut order = Vec::new();
        let mut in_table = false;
        for line in doc.lines() {
            let t = line.trim();
            if magic.is_none() && t.contains(magic_label) {
                let m =
                    backticked(t).ok_or(format!("{magic_label} line has no backticked value"))?;
                magic = Some(m.to_string());
            }
            if version.is_none() && t.contains(version_label) {
                let v =
                    backticked(t).ok_or(format!("{version_label} line has no backticked value"))?;
                version = Some(
                    v.parse::<u8>()
                        .map_err(|e| format!("{version_label} value {v:?}: {e}"))?,
                );
            }
            if t == begin || t == end {
                in_table = t == begin;
            } else if in_table && t.starts_with('|') {
                order.extend(backticked(t).map(str::to_string));
            }
        }
        Ok(FormatSpec {
            magic: magic.ok_or(format!("{magic_label} line not found in doc"))?,
            version: version.ok_or(format!("{version_label} line not found in doc"))?,
            order,
        })
    }

    /// Compare the code-side and doc-side facts; one human-readable line
    /// per disagreement, empty when in sync.
    pub fn diff(&self, code: &FormatSpec, doc: &FormatSpec) -> Vec<String> {
        let (prefix, item) = (self.prefix, self.item);
        let mut out = Vec::new();
        if code.magic != doc.magic {
            out.push(format!(
                "{prefix}magic mismatch: code declares {:?}, doc declares {:?}",
                code.magic, doc.magic
            ));
        }
        if code.version != doc.version {
            out.push(format!(
                "{prefix}version mismatch: code declares {}, doc declares {}",
                code.version, doc.version
            ));
        }
        if code.order.len() != doc.order.len() {
            out.push(format!(
                "{item} count mismatch: code has {}, doc table has {}",
                code.order.len(),
                doc.order.len()
            ));
        }
        for (i, (c, d)) in code.order.iter().zip(&doc.order).enumerate() {
            if c != d {
                out.push(format!(
                    "{item} {i} mismatch: code says {c:?}, doc table says {d:?}"
                ));
            }
        }
        out
    }
}

/// Run the whole check over a repo root: the DFW1 wire spec
/// (`crates/df-types/src/wire.rs` ↔ `docs/WIRE_FORMAT.md`) and the
/// DFSPANS1 segment spec (`crates/df-storage/src/persist.rs` ↔
/// `docs/SEGMENT_FORMAT.md`), returning all mismatch lines (empty = in
/// sync).
pub fn check_tree(root: &std::path::Path) -> Result<Vec<String>, String> {
    let read = |rel: &str| {
        let path = root.join(rel);
        std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))
    };
    let mut out = Vec::new();
    for (format, src, doc) in [
        (DFW1, "crates/df-types/src/wire.rs", "docs/WIRE_FORMAT.md"),
        (
            DFSPANS1,
            "crates/df-storage/src/persist.rs",
            "docs/SEGMENT_FORMAT.md",
        ),
    ] {
        out.extend(format.diff(
            &format.parse_source(&read(src)?)?,
            &format.parse_doc(&read(doc)?)?,
        ));
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// Exhaustiveness: DFR1 RPC kinds and DFW1/DFSPANS1 presence bits
// ---------------------------------------------------------------------

use crate::lint::Violation;

/// Doc-side markers delimiting the normative RPC-kind table.
pub const RPC_KINDS_BEGIN: &str = "<!-- RPC_KINDS:BEGIN -->";
/// See [`RPC_KINDS_BEGIN`].
pub const RPC_KINDS_END: &str = "<!-- RPC_KINDS:END -->";
/// Doc-side markers delimiting the normative presence-bit table.
pub const PRESENCE_BITS_BEGIN: &str = "<!-- PRESENCE_BITS:BEGIN -->";
/// See [`PRESENCE_BITS_BEGIN`].
pub const PRESENCE_BITS_END: &str = "<!-- PRESENCE_BITS:END -->";

/// What the RPC codec source declares about its kinds. Every entry
/// carries the 1-indexed source line for error attribution.
#[derive(Debug, Clone, Default)]
pub struct RpcKindFacts {
    /// `RPC_KINDS` const entries: (variant name, kind byte, line).
    pub declared: Vec<(String, u8, usize)>,
    /// `RpcBody::Name { .. } => N` arms of `fn kind()` — the encode side.
    pub kind_arms: Vec<(String, u8, usize)>,
    /// `N =>` arms of `fn decode_body` — the decode side.
    pub decode_arms: Vec<(u8, usize)>,
}

/// Lines (1-indexed) of the brace-delimited region starting at the first
/// line containing `needle`, through the line where the brace depth
/// returns to zero. Line-based like the rest of this module; assumes no
/// unbalanced braces inside string literals in the region (true of the
/// codecs this parses).
fn brace_region<'a>(src: &'a str, needle: &str) -> Vec<(usize, &'a str)> {
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut opened = false;
    for (i, line) in src.lines().enumerate() {
        if out.is_empty() && !line.contains(needle) {
            continue;
        }
        out.push((i + 1, line));
        for c in line.chars() {
            match c {
                '{' => {
                    depth += 1;
                    opened = true;
                }
                '}' => depth -= 1,
                _ => {}
            }
        }
        if opened && depth <= 0 {
            break;
        }
    }
    out
}

/// Extract the RPC-kind facts from `crates/df-types/src/rpc.rs` source.
pub fn parse_rpc_kinds_source(src: &str) -> RpcKindFacts {
    let mut facts = RpcKindFacts::default();
    // `RPC_KINDS` const entries: `("Name", N)` tuples until `];`.
    let mut in_const = false;
    for (i, line) in src.lines().enumerate() {
        let t = line.trim();
        if t.starts_with("//") {
            continue;
        }
        if t.contains("const RPC_KINDS") {
            in_const = true;
        }
        if in_const {
            let mut rest = t;
            while let Some(start) = rest.find("(\"") {
                let tail = &rest[start + 2..];
                let Some(name_end) = tail.find('"') else {
                    break;
                };
                let name = &tail[..name_end];
                let after = tail[name_end + 1..].trim_start_matches([',', ' ']);
                let digits: String = after.chars().take_while(char::is_ascii_digit).collect();
                if let Ok(byte) = digits.parse::<u8>() {
                    facts.declared.push((name.to_string(), byte, i + 1));
                }
                rest = &tail[name_end + 1..];
            }
            if t.contains("];") {
                in_const = false;
            }
        }
    }
    // `fn kind()` arms: `RpcBody::Name { .. } => N,`.
    for (line_no, line) in brace_region(src, "fn kind(") {
        let t = line.trim();
        if t.starts_with("//") {
            continue;
        }
        let Some(at) = t.find("RpcBody::") else {
            continue;
        };
        let tail = &t[at + "RpcBody::".len()..];
        let name: String = tail
            .chars()
            .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
            .collect();
        let Some(arrow) = tail.find("=>") else {
            continue;
        };
        let rhs = tail[arrow + 2..].trim();
        let digits: String = rhs.chars().take_while(char::is_ascii_digit).collect();
        if let Ok(byte) = digits.parse::<u8>() {
            facts.kind_arms.push((name, byte, line_no));
        }
    }
    // `fn decode_body` arms: a trimmed line starting with digits then `=>`,
    // at the depth of the top-level `match kind` (fn body is depth 1, the
    // match block depth 2 — deeper digit arms belong to nested matches
    // like `span_present` and are not kind arms).
    let mut depth = 0i32;
    for (line_no, line) in brace_region(src, "fn decode_body(") {
        let t = line.trim();
        let digits: String = t.chars().take_while(char::is_ascii_digit).collect();
        if !digits.is_empty() && depth == 2 && t[digits.len()..].trim_start().starts_with("=>") {
            if let Ok(byte) = digits.parse::<u8>() {
                facts.decode_arms.push((byte, line_no));
            }
        }
        for c in line.chars() {
            match c {
                '{' => depth += 1,
                '}' => depth -= 1,
                _ => {}
            }
        }
    }
    facts
}

/// Parse a marker-delimited doc table whose rows are
/// `| <number> | `name` | … |`, returning (name, number, line) triples —
/// `None` when the markers are absent entirely.
pub fn parse_numbered_doc_table(
    doc: &str,
    begin: &str,
    end: &str,
) -> Option<Vec<(String, u8, usize)>> {
    let mut rows = Vec::new();
    let mut in_table = false;
    let mut seen = false;
    for (i, line) in doc.lines().enumerate() {
        let t = line.trim();
        if t == begin {
            in_table = true;
            seen = true;
            continue;
        }
        if t == end {
            in_table = false;
            continue;
        }
        if in_table && t.starts_with('|') {
            let first_cell = t.trim_start_matches('|');
            let num: String = first_cell
                .trim()
                .chars()
                .take_while(char::is_ascii_digit)
                .collect();
            let (Ok(n), Some(name)) = (num.parse::<u8>(), backticked(t)) else {
                continue;
            };
            rows.push((name.to_string(), n, i + 1));
        }
    }
    seen.then_some(rows)
}

/// Cross-check the RPC-kind facts: the `RPC_KINDS` const, the `kind()`
/// encode arms, the `decode_body` arms and the doc table must all name
/// the same kinds. `src_file`/`doc_file` are used for attribution only.
pub fn check_rpc_kinds(
    facts: &RpcKindFacts,
    doc_rows: Option<&[(String, u8, usize)]>,
    src_file: &std::path::Path,
    doc_file: &std::path::Path,
) -> Vec<Violation> {
    use std::collections::BTreeSet;
    let mut out = Vec::new();
    let v = |file: &std::path::Path, line: usize, message: String| Violation {
        file: file.to_path_buf(),
        line,
        rule: "spec-exhaustive",
        message,
    };
    if facts.declared.is_empty() {
        out.push(v(
            src_file,
            1,
            "normative RPC_KINDS const not found; declare every RPC kind as \
             (\"Name\", byte) entries"
                .to_string(),
        ));
        return out;
    }
    let declared: BTreeSet<(&str, u8)> = facts
        .declared
        .iter()
        .map(|(n, b, _)| (n.as_str(), *b))
        .collect();
    let declared_bytes: BTreeSet<u8> = facts.declared.iter().map(|(_, b, _)| *b).collect();
    if declared_bytes.len() != facts.declared.len() {
        let (n, b, line) = facts
            .declared
            .iter()
            .find(|(_, b, _)| facts.declared.iter().filter(|(_, b2, _)| b2 == b).count() > 1)
            .expect("duplicate exists");
        out.push(v(
            src_file,
            *line,
            format!("RPC_KINDS declares kind byte {b} more than once (at {n})"),
        ));
    }
    let arms: BTreeSet<(&str, u8)> = facts
        .kind_arms
        .iter()
        .map(|(n, b, _)| (n.as_str(), *b))
        .collect();
    for (n, b, line) in &facts.kind_arms {
        if !declared.contains(&(n.as_str(), *b)) {
            out.push(v(
                src_file,
                *line,
                format!("kind() encodes RpcBody::{n} as {b}, which RPC_KINDS does not declare"),
            ));
        }
    }
    for (n, b, line) in &facts.declared {
        if !arms.contains(&(n.as_str(), *b)) {
            out.push(v(
                src_file,
                *line,
                format!("RPC_KINDS declares {n} = {b} but kind() has no matching encode arm"),
            ));
        }
    }
    let decode_bytes: BTreeSet<u8> = facts.decode_arms.iter().map(|(b, _)| *b).collect();
    for (b, line) in &facts.decode_arms {
        if !declared_bytes.contains(b) {
            out.push(v(
                src_file,
                *line,
                format!("decode_body has an arm for kind {b}, which RPC_KINDS does not declare"),
            ));
        }
    }
    for (n, b, line) in &facts.declared {
        if !decode_bytes.contains(b) {
            out.push(v(
                src_file,
                *line,
                format!("RPC_KINDS declares {n} = {b} but decode_body has no arm for it"),
            ));
        }
    }
    match doc_rows {
        None => out.push(v(
            doc_file,
            1,
            format!(
                "doc is missing the {RPC_KINDS_BEGIN} … {RPC_KINDS_END} table for the \
                 declared RPC kinds"
            ),
        )),
        Some(rows) => {
            let doc_set: BTreeSet<(&str, u8)> =
                rows.iter().map(|(n, b, _)| (n.as_str(), *b)).collect();
            for (n, b, line) in rows {
                if !declared.contains(&(n.as_str(), *b)) {
                    out.push(v(
                        doc_file,
                        *line,
                        format!("doc table row {n} = {b} does not match any declared RPC kind"),
                    ));
                }
            }
            for (n, b, line) in &facts.declared {
                if !doc_set.contains(&(n.as_str(), *b)) {
                    out.push(v(
                        src_file,
                        *line,
                        format!("RPC kind {n} = {b} has no row in the doc's RPC_KINDS table"),
                    ));
                }
            }
        }
    }
    out
}

/// What a codec source declares about its presence bits.
#[derive(Debug, Clone, Default)]
pub struct FlagFacts {
    /// `const F_X: u32 = 1 << N;` declarations: (name, bit, line).
    pub declared: Vec<(String, u8, usize)>,
    /// Names seen in `… |= F_X` encode sites.
    pub encode_sites: Vec<String>,
    /// Names seen in `… & F_X` decode sites.
    pub decode_sites: Vec<String>,
}

fn contains_word(line: &str, word: &str) -> bool {
    let mut start = 0;
    while let Some(at) = line[start..].find(word) {
        let abs = start + at;
        let before_ok = abs == 0
            || !line.as_bytes()[abs - 1].is_ascii_alphanumeric()
                && line.as_bytes()[abs - 1] != b'_';
        let after = abs + word.len();
        let after_ok = after >= line.len()
            || !line.as_bytes()[after].is_ascii_alphanumeric() && line.as_bytes()[after] != b'_';
        if before_ok && after_ok {
            return true;
        }
        start = abs + word.len();
    }
    false
}

/// Extract presence-bit facts from a codec source: `F_*` consts declared
/// as `1 << N`, plus their encode (`|=`) and decode (`&`) sites.
pub fn parse_flags_source(src: &str) -> FlagFacts {
    let mut facts = FlagFacts::default();
    for (i, line) in src.lines().enumerate() {
        let t = line.trim();
        if t.starts_with("//") {
            continue;
        }
        if let Some(at) = t.find("const F_") {
            let tail = &t[at + "const ".len()..];
            let name: String = tail
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                .collect();
            if let Some(shift) = t.find("= 1 <<") {
                let digits: String = t[shift + "= 1 <<".len()..]
                    .trim_start()
                    .chars()
                    .take_while(char::is_ascii_digit)
                    .collect();
                if let Ok(bit) = digits.parse::<u8>() {
                    facts.declared.push((name, bit, i + 1));
                    continue;
                }
            }
        }
        // Site scan happens in a second pass once names are known.
    }
    for line in src.lines() {
        let t = line.trim();
        if t.starts_with("//") || t.contains("const F_") {
            continue;
        }
        for (name, _, _) in &facts.declared {
            if contains_word(t, name) {
                if t.contains("|=") {
                    facts.encode_sites.push(name.clone());
                }
                // A decode site tests the bit with bitwise-and: `flags & F_X`.
                // Require the `&` adjacent to the name so `&mut`/`&[u8]`
                // elsewhere on the line doesn't count.
                if t.contains(&format!("& {name}")) || t.contains(&format!("&{name}")) {
                    facts.decode_sites.push(name.clone());
                }
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
    doc_rows: Option<&[(String, u8, usize)]>,
    src_file: &std::path::Path,
    doc_file: &std::path::Path,
) -> Vec<Violation> {
    use std::collections::BTreeSet;
    let mut out = Vec::new();
    let v = |file: &std::path::Path, line: usize, message: String| Violation {
        file: file.to_path_buf(),
        line,
        rule: "spec-exhaustive",
        message,
    };
    let bits: BTreeSet<u8> = facts.declared.iter().map(|(_, b, _)| *b).collect();
    if bits.len() != facts.declared.len() {
        let (n, b, line) = facts
            .declared
            .iter()
            .find(|(_, b, _)| facts.declared.iter().filter(|(_, b2, _)| b2 == b).count() > 1)
            .expect("duplicate exists");
        out.push(v(
            src_file,
            *line,
            format!("presence bit {b} is declared more than once (at {n})"),
        ));
    }
    for (name, bit, line) in &facts.declared {
        if !facts.encode_sites.contains(name) {
            out.push(v(
                src_file,
                *line,
                format!("presence bit {name} (bit {bit}) has no encode site (`flags |= {name}`)"),
            ));
        }
        if !facts.decode_sites.contains(name) {
            out.push(v(
                src_file,
                *line,
                format!("presence bit {name} (bit {bit}) has no decode site (`flags & {name}`)"),
            ));
        }
    }
    match doc_rows {
        None => {
            if !facts.declared.is_empty() {
                out.push(v(
                    doc_file,
                    1,
                    format!(
                        "doc is missing the {PRESENCE_BITS_BEGIN} … {PRESENCE_BITS_END} table \
                         for the declared presence bits"
                    ),
                ));
            }
        }
        Some(rows) => {
            let declared: BTreeSet<(&str, u8)> = facts
                .declared
                .iter()
                .map(|(n, b, _)| (n.as_str(), *b))
                .collect();
            let doc_set: BTreeSet<(&str, u8)> =
                rows.iter().map(|(n, b, _)| (n.as_str(), *b)).collect();
            for (n, b, line) in rows {
                if !declared.contains(&(n.as_str(), *b)) {
                    out.push(v(
                        doc_file,
                        *line,
                        format!("doc table row {n} = bit {b} does not match any declared bit"),
                    ));
                }
            }
            for (n, b, line) in &facts.declared {
                if !doc_set.contains(&(n.as_str(), *b)) {
                    out.push(v(
                        src_file,
                        *line,
                        format!(
                            "presence bit {n} (bit {b}) has no row in the doc's PRESENCE_BITS \
                             table"
                        ),
                    ));
                }
            }
        }
    }
    out
}

/// Run the exhaustiveness checks over a repo root: DFR1 RPC kinds
/// (`rpc.rs` ↔ `docs/WIRE_FORMAT.md`), DFW1 presence bits (`wire.rs` ↔
/// `docs/WIRE_FORMAT.md`) and DFSPANS1 presence bits (`persist.rs` ↔
/// `docs/SEGMENT_FORMAT.md`; none declared today, so the scan simply
/// guards the future).
pub fn check_exhaustiveness(root: &std::path::Path) -> Result<Vec<Violation>, String> {
    let read = |rel: &str| {
        let path = root.join(rel);
        std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))
    };
    let rpc_src = read("crates/df-types/src/rpc.rs")?;
    let wire_src = read("crates/df-types/src/wire.rs")?;
    let persist_src = read("crates/df-storage/src/persist.rs")?;
    let wire_doc = read("docs/WIRE_FORMAT.md")?;
    let segment_doc = read("docs/SEGMENT_FORMAT.md")?;

    let rpc_path = std::path::Path::new("crates/df-types/src/rpc.rs");
    let wire_path = std::path::Path::new("crates/df-types/src/wire.rs");
    let persist_path = std::path::Path::new("crates/df-storage/src/persist.rs");
    let wire_doc_path = std::path::Path::new("docs/WIRE_FORMAT.md");
    let segment_doc_path = std::path::Path::new("docs/SEGMENT_FORMAT.md");

    let mut out = check_rpc_kinds(
        &parse_rpc_kinds_source(&rpc_src),
        parse_numbered_doc_table(&wire_doc, RPC_KINDS_BEGIN, RPC_KINDS_END).as_deref(),
        rpc_path,
        wire_doc_path,
    );
    out.extend(check_flags(
        &parse_flags_source(&wire_src),
        parse_numbered_doc_table(&wire_doc, PRESENCE_BITS_BEGIN, PRESENCE_BITS_END).as_deref(),
        wire_path,
        wire_doc_path,
    ));
    out.extend(check_flags(
        &parse_flags_source(&persist_src),
        parse_numbered_doc_table(&segment_doc, PRESENCE_BITS_BEGIN, PRESENCE_BITS_END).as_deref(),
        persist_path,
        segment_doc_path,
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

    fn assert_line(d: &[String], i: usize, want: String) {
        assert!(d[i].starts_with(&want), "line {i} of {d:?} is not {want:?}");
    }

    #[test]
    fn fixtures_parse_and_agree() {
        for (format, src, doc) in FIXTURES {
            let code = format.parse_source(src).expect("source parses");
            let doc = format.parse_doc(doc).expect("doc parses");
            assert_eq!(code, doc);
            assert!(format.diff(&code, &doc).is_empty());
        }
        let (format, src, _) = WIRE_FIXTURE;
        let code = format.parse_source(src).unwrap();
        assert_eq!((code.magic.as_str(), code.version), ("DFW1", 1));
        assert_eq!(code.order, ["span_id", "flags", "kind_tap"]);
        let (format, src, _) = SEGMENT_FIXTURE;
        let code = format.parse_source(src).unwrap();
        assert_eq!((code.magic.as_str(), code.version), ("DFSPANS1", 2));
        assert_eq!(code.order, ["spans", "rows"]);
    }

    #[test]
    fn seeded_magic_and_version_mismatches_fail() {
        for (format, src, doc) in FIXTURES {
            let code = format.parse_source(src).unwrap();
            let (magic, version) = (&code.magic, code.version);
            let prefix = format.prefix;

            let drifted = doc.replace(
                &format!("{} `{version}`", format.version_label),
                &format!("{} `9`", format.version_label),
            );
            let d = format.diff(&code, &format.parse_doc(&drifted).unwrap());
            assert_eq!(d.len(), 1, "{d:?}");
            assert_line(&d, 0, format!("{prefix}version mismatch"));

            // Magic drift, once seeded on each side.
            let drifted = doc.replace(&format!("`{magic}`"), "`DRIFTED`");
            let d = format.diff(&code, &format.parse_doc(&drifted).unwrap());
            assert_line(&d, 0, format!("{prefix}magic mismatch"));
            let drifted = src.replace(&format!("b\"{magic}\""), "b\"DRIFTED\"");
            let d = format.diff(
                &format.parse_source(&drifted).unwrap(),
                &format.parse_doc(doc).unwrap(),
            );
            assert_line(&d, 0, format!("{prefix}magic mismatch"));
        }
    }

    #[test]
    fn seeded_rename_reorder_and_dropped_row_fail() {
        for (format, src, doc) in FIXTURES {
            let code = format.parse_source(src).unwrap();
            let item = format.item;
            let tick = |name: &str| format!("`{name}`");
            let (first, second) = (tick(&code.order[0]), tick(&code.order[1]));
            let diff_of = |doc: &str| format.diff(&code, &format.parse_doc(doc).unwrap());

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
            assert!(format.parse_source("// nothing here").is_err());
            // A doc with magic/version but no marked table yields no
            // names — caught as a count mismatch rather than a parse error.
            let unmarked: Vec<&str> = doc.lines().filter(|l| !l.contains("<!--")).collect();
            let parsed = format.parse_doc(&unmarked.join("\n")).unwrap();
            assert!(parsed.order.is_empty());
            let d = format.diff(&format.parse_source(src).unwrap(), &parsed);
            assert!(d[0].contains("count mismatch"), "{d:?}");
        }
        // The other format's labels do not satisfy a parser.
        assert!(DFSPANS1.parse_doc(WIRE_FIXTURE.2).is_err());
        assert!(DFSPANS1.parse_source(WIRE_FIXTURE.1).is_err());
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
            &parse_rpc_kinds_source(src),
            parse_numbered_doc_table(doc, RPC_KINDS_BEGIN, RPC_KINDS_END).as_deref(),
            std::path::Path::new("rpc.rs"),
            std::path::Path::new("doc.md"),
        )
    }

    #[test]
    fn rpc_kind_fixture_parses_and_agrees() {
        let facts = parse_rpc_kinds_source(RPC_SRC_FIXTURE);
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
            &parse_flags_source(src),
            parse_numbered_doc_table(doc, PRESENCE_BITS_BEGIN, PRESENCE_BITS_END).as_deref(),
            std::path::Path::new("wire.rs"),
            std::path::Path::new("doc.md"),
        )
    }

    #[test]
    fn presence_bit_fixture_parses_and_agrees() {
        let facts = parse_flags_source(FLAGS_SRC_FIXTURE);
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

    /// The real tree is in sync (the same check ci.sh gates on, run from
    /// the workspace so `cargo test` alone catches drift).
    #[test]
    fn shipped_spec_matches_shipped_codec() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .canonicalize()
            .expect("workspace root");
        let mismatches = check_tree(&root).expect("both sides parse");
        assert!(
            mismatches.is_empty(),
            "spec drift:\n{}",
            mismatches.join("\n")
        );
        let v = check_exhaustiveness(&root).expect("exhaustiveness scan runs");
        assert!(
            v.is_empty(),
            "exhaustiveness drift:\n{}",
            v.iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}
