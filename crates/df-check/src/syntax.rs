//! How the lock-order pass reads a repository tree. Everything
//! [`crate::lock_order`] knows about Rust source it learns here: [`walk`]
//! reads each `*.rs` file under `crates/` once, [`lex`] turns it into
//! tokens that carry their line (comments dropped, string and char
//! literals kept whole as one token each), and [`Source::parse`] adds the
//! brace-matched item scan — the `fn` items and the single judgement of
//! which of them are test code. Findings are reported through the one
//! [`Violation`] type.
//!
//! This is deliberately *not* a Rust parser (std-only, no rustc
//! internals): it understands exactly as much structure as the pass
//! needs — token classes, bracket nesting, item boundaries — and nothing
//! more. The pass built on it is heuristic by design; its fixture, and
//! the lock-order edges pinned in `docs/LOCK_ORDER.txt`, are what keep
//! the heuristics honest.

use std::fmt;
use std::ops::Range;
use std::path::{Path, PathBuf};

/// One finding; prints as `file:line: [rule] message`.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Repo-relative path of the offending file.
    pub file: PathBuf,
    pub line: usize,
    pub rule: &'static str,
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file.display(),
            self.line,
            self.rule,
            self.message
        )
    }
}

/// Token classes produced by [`lex`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (`foo`, `fn`, `self`).
    Ident,
    /// Numeric literal (`42`, `0xFF`, `1_000`).
    Number,
    /// String, char or byte literal of any flavour (`"a"`, `b"a"`,
    /// `r#"a"#`, `'x'`, `b'\n'`).
    Literal,
    /// Punctuation; multi-character operators are one token (`::`, `->`,
    /// `=>`, `..=`, `+=`, `<<`, …).
    Punct,
}

/// One token of a source file.
#[derive(Debug, Clone, Copy)]
pub struct Token<'a> {
    pub kind: TokenKind,
    /// The token as written. Literals keep their prefix and quotes, so a
    /// string containing `{` never compares equal to the brace.
    pub text: &'a str,
    /// 1-based line the token starts on.
    pub line: usize,
}

/// Multi-character operators, longest first so `..=` wins over `..`.
const MULTI_PUNCT: &[&str] = &[
    "..=", "...", "<<=", ">>=", "::", "->", "=>", "..", "<<", ">>", "==", "!=", "<=", ">=", "&&",
    "||", "+=", "-=", "*=", "/=", "%=", "^=", "&=", "|=",
];

/// Rust keywords (strict + reserved-in-use); identifiers in this set are
/// never treated as lock names, call targets, or index receivers.
pub const KEYWORDS: &[&str] = &[
    "as", "async", "await", "break", "const", "continue", "crate", "dyn", "else", "enum", "extern",
    "false", "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub",
    "ref", "return", "self", "Self", "static", "struct", "super", "trait", "true", "type",
    "unsafe", "use", "where", "while",
];

/// Is `s` a Rust keyword?
pub fn is_keyword(s: &str) -> bool {
    KEYWORDS.contains(&s)
}

fn is_ident_byte(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_'
}

/// End of a quoted literal whose body starts at `i`: one past the first
/// unescaped `quote`, or the end of input.
fn quoted_end(b: &[u8], mut i: usize, quote: u8) -> usize {
    while i < b.len() {
        match b[i] {
            b'\\' => i += 2,
            c if c == quote => return i + 1,
            _ => i += 1,
        }
    }
    b.len()
}

/// If a string or byte literal starts at `i` (`"…"`, `b"…"`, `b'…'`,
/// `r"…"`, `r#"…"#`, `br#"…"#`), its end; `None` when the `b` / `r`
/// there begins an identifier (`r#try` included).
fn literal_at(b: &[u8], i: usize) -> Option<usize> {
    let mut j = i;
    if b[j] == b'b' {
        j += 1;
    }
    match *b.get(j)? {
        b'"' => Some(quoted_end(b, j + 1, b'"')),
        b'\'' if j > i => Some(quoted_end(b, j + 1, b'\'')),
        b'r' => {
            let hashes = b[j + 1..].iter().take_while(|&&c| c == b'#').count();
            let open = j + 1 + hashes;
            if b.get(open) != Some(&b'"') {
                return None;
            }
            // Closes at the first quote followed by the same number of
            // hashes; no escapes inside a raw string.
            let mut k = open + 1;
            while k < b.len() {
                let closes =
                    b[k] == b'"' && b[k + 1..].iter().take_while(|&&c| c == b'#').count() >= hashes;
                if closes {
                    return Some(k + 1 + hashes);
                }
                k += 1;
            }
            Some(b.len())
        }
        _ => None,
    }
}

/// Lex a source file. Comments (line, and block with nesting) and
/// lifetimes produce no token — `'a` dropped whole, or `&'a [u8]` in a
/// signature would read as identifier-then-index. This loop's last
/// statement is the one place a line number is computed.
pub fn lex(src: &str) -> Vec<Token<'_>> {
    let b = src.as_bytes();
    let mut toks = Vec::new();
    let mut line = 1;
    let mut i = 0;
    while i < b.len() {
        let start = i;
        let c = b[i];
        let mut kind = None;
        if c.is_ascii_whitespace() {
            i += 1;
        } else if b[i..].starts_with(b"//") {
            i += b[i..].iter().take_while(|&&c| c != b'\n').count();
        } else if b[i..].starts_with(b"/*") {
            let mut depth = 0usize;
            while i < b.len() {
                if b[i..].starts_with(b"/*") {
                    depth += 1;
                    i += 2;
                } else if b[i..].starts_with(b"*/") {
                    depth -= 1;
                    i += 2;
                    if depth == 0 {
                        break;
                    }
                } else {
                    i += 1;
                }
            }
        } else if let Some(end) = literal_at(b, i) {
            kind = Some(TokenKind::Literal);
            i = end;
        } else if c == b'\'' {
            // Char literal vs lifetime: a literal is an escape, or one
            // (possibly multi-byte) char directly followed by the tick.
            let first = src[i + 1..].chars().next().map_or(0, char::len_utf8);
            if b.get(i + 1) == Some(&b'\\') || b.get(i + 1 + first) == Some(&b'\'') {
                kind = Some(TokenKind::Literal);
                i = quoted_end(b, i + 1, b'\'');
            } else {
                i += 1;
                i += b[i..].iter().take_while(|&&c| is_ident_byte(c)).count();
            }
        } else if is_ident_byte(c) {
            // Numbers swallow alphanumerics and `_` (covers 0xFF, 1u32,
            // 1_000; `2.5` lexes as Number(2), Punct(.), Number(5), which
            // is fine: a number is never a lock name or a call).
            kind = Some(if c.is_ascii_digit() {
                TokenKind::Number
            } else {
                TokenKind::Ident
            });
            i += b[i..].iter().take_while(|&&c| is_ident_byte(c)).count();
        } else {
            kind = Some(TokenKind::Punct);
            let op = MULTI_PUNCT.iter().find(|op| src[i..].starts_with(**op));
            i += op.map_or_else(
                || src[i..].chars().next().map_or(1, char::len_utf8),
                |op| op.len(),
            );
        }
        if let Some(kind) = kind {
            toks.push(Token {
                kind,
                text: &src[start..i],
                line,
            });
        }
        line += b[start..i].iter().filter(|&&c| c == b'\n').count();
    }
    toks
}

/// Do the tokens from index `i` on spell exactly `pattern`, one token
/// per entry?
pub fn seq(tokens: &[Token<'_>], i: usize, pattern: &[&str]) -> bool {
    tokens
        .get(i..i + pattern.len())
        .is_some_and(|w| w.iter().zip(pattern).all(|(t, p)| t.text == *p))
}

/// Index of the token closing the bracket opened at `open` (`(`, `[` or
/// `{`; only that bracket kind is counted), or `tokens.len()` when it
/// never closes.
pub fn close_of(tokens: &[Token<'_>], open: usize) -> usize {
    let opener = tokens[open].text;
    let closer = match opener {
        "(" => ")",
        "[" => "]",
        _ => "}",
    };
    let mut depth = 0usize;
    for (k, t) in tokens.iter().enumerate().skip(open) {
        if t.text == opener {
            depth += 1;
        } else if t.text == closer {
            depth -= 1;
            if depth == 0 {
                return k;
            }
        }
    }
    tokens.len()
}

/// Scanning from `i`, the first `{` or `;` outside parentheses and
/// square brackets: where an item's or signature's header ends (`[u8; 4]`
/// in a type is skipped over).
fn header_end(tokens: &[Token<'_>], from: usize) -> Option<usize> {
    let mut depth = 0isize;
    (from..tokens.len()).find(|&i| {
        match tokens[i].text {
            "(" | "[" => depth += 1,
            ")" | "]" => depth -= 1,
            _ => {}
        }
        depth == 0 && matches!(tokens[i].text, "{" | ";")
    })
}

/// A named `fn` item with a body.
#[derive(Debug, Clone)]
pub struct FnItem<'a> {
    pub name: &'a str,
    /// Token-index range of the body, *exclusive* of the outer braces.
    pub body: Range<usize>,
    /// True when the item carries `#[test]` / `#[cfg(test)]` itself or
    /// sits inside an item that does (attributes may be stacked after
    /// it). Such an attribute covers its own item — up to its `;` or the
    /// close of its first brace block — and nothing after it. The only
    /// judge of what is test code.
    pub in_test: bool,
}

/// One source file, read and lexed once, with its item scan.
#[derive(Debug)]
pub struct Source<'a> {
    /// Repo-relative path, `/`-separated (`crates/df-server/src/lib.rs`).
    pub rel: &'a str,
    pub tokens: Vec<Token<'a>>,
    /// Every `fn` with a body, nested ones included, in source order.
    pub fns: Vec<FnItem<'a>>,
}

impl<'a> Source<'a> {
    /// Lex `text` and scan its items.
    pub fn parse(rel: &'a str, text: &'a str) -> Source<'a> {
        let tokens = lex(text);
        // Tokens before this index that follow a test-marking attribute
        // are test code (test items nest, so one bound suffices).
        let mut test_until = 0;
        let mut fns = Vec::new();
        let mut i = 0;
        while i < tokens.len() {
            if seq(&tokens, i, &["#", "["]) {
                // A run of stacked outer attributes, then the item they
                // sit on. A test-marking attribute covers that item — up
                // to its `;` or the close of its first brace block — and
                // nothing after it.
                let mut marks_test = false;
                while seq(&tokens, i, &["#", "["]) {
                    let close = close_of(&tokens, i + 1);
                    let attr: String = tokens[i + 2..close].iter().map(|t| t.text).collect();
                    marks_test |= attr == "test" || attr.contains("cfg(test");
                    i = close + 1;
                }
                if marks_test {
                    let end = match header_end(&tokens, i) {
                        Some(open) if tokens[open].text == "{" => close_of(&tokens, open),
                        Some(semi) => semi,
                        None => tokens.len(),
                    };
                    test_until = test_until.max(end + 1);
                }
                continue;
            }
            // `fn name … {`: a function with a body (`fn(u8)` types and
            // bodiless trait declarations are neither).
            let name = tokens.get(i + 1).filter(|t| t.kind == TokenKind::Ident);
            if let Some(name) = name.filter(|_| tokens[i].text == "fn") {
                let body = header_end(&tokens, i + 2).filter(|&k| tokens[k].text == "{");
                if let Some(open) = body {
                    fns.push(FnItem {
                        name: name.text,
                        body: open + 1..close_of(&tokens, open),
                        in_test: i < test_until,
                    });
                }
            }
            i += 1;
        }
        Source { rel, tokens, fns }
    }

    /// `(crate, top-level directory)` for a file under
    /// `crates/<crate>/<dir>/`, e.g. `("df-server", "src")`; empty
    /// strings for any other path.
    pub fn scope(&self) -> (&'a str, &'a str) {
        let mut parts = self.rel.split('/');
        match (parts.next(), parts.next(), parts.next(), parts.next()) {
            (Some("crates"), Some(krate), Some(dir), Some(_)) => (krate, dir),
            _ => ("", ""),
        }
    }
}

/// One `*.rs` file as [`walk`] read it.
#[derive(Debug)]
pub struct File {
    /// Repo-relative path, `/`-separated.
    pub rel: String,
    pub text: String,
}

/// Read every `*.rs` file under `<root>/crates/`, each once, in path
/// order. The vendored stand-ins (`<root>/vendor/`) are not first-party
/// and are not read. The only directory walker the static checks have.
pub fn walk(root: &Path) -> Result<Vec<File>, String> {
    let mut files = Vec::new();
    let mut dirs = vec![root.join("crates")];
    while let Some(dir) = dirs.pop() {
        let read_dir_err = |e| format!("read_dir {}: {e}", dir.display());
        for entry in std::fs::read_dir(&dir).map_err(read_dir_err)? {
            let path = entry.map_err(read_dir_err)?.path();
            if path.is_dir() {
                dirs.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                let text = std::fs::read_to_string(&path)
                    .map_err(|e| format!("read {}: {e}", path.display()))?;
                let rel = path.strip_prefix(root).unwrap_or(&path);
                files.push(File {
                    rel: rel.to_string_lossy().replace('\\', "/"),
                    text,
                });
            }
        }
    }
    files.sort_by(|a, b| Path::new(&a.rel).cmp(Path::new(&b.rel)));
    Ok(files)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(src: &str) -> Vec<&str> {
        lex(src).iter().map(|t| t.text).collect()
    }

    #[test]
    fn lexes_multi_char_operators_as_single_tokens() {
        let t = texts("fn f(a: &mut usize) -> u32 { *a += 1; a::b(c..=d) }");
        for op in ["->", "+=", "::", "..="] {
            assert!(t.contains(&op), "{op} in {t:?}");
        }
        // `->` must not produce a lone binary minus.
        assert!(!t.contains(&"-"));
    }

    #[test]
    fn lexes_numbers_and_idents() {
        let toks = lex("let x1 = 0xFF + 1_000;");
        let kinds: Vec<_> = toks.iter().map(|t| (t.kind, t.text)).collect();
        assert!(kinds.contains(&(TokenKind::Ident, "x1")));
        assert!(kinds.contains(&(TokenKind::Number, "0xFF")));
        assert!(kinds.contains(&(TokenKind::Number, "1_000")));
    }

    #[test]
    fn comments_vanish_and_nested_block_comments_close_where_they_should() {
        let src = "let a = 1; // std::sync\n/* outer /* inner */ still comment */ let b = 2;";
        assert_eq!(
            texts(src),
            ["let", "a", "=", "1", ";", "let", "b", "=", "2", ";"]
        );
        assert!(texts("/* never closed").is_empty());
    }

    #[test]
    fn string_literals_survive_as_one_literal_token_each() {
        let src = r####"f("std::sync {", b"by\"te", r"raw\", r#"ha"sh"#, br##"two"#"##, r#try)"####;
        let toks = lex(src);
        let strs: Vec<_> = toks
            .iter()
            .filter(|t| t.kind == TokenKind::Literal)
            .collect();
        let literals: Vec<_> = strs.iter().map(|t| t.text).collect();
        assert_eq!(
            literals,
            [
                r#""std::sync {""#,
                r#"b"by\"te""#,
                r#"r"raw\""#,
                r##"r#"ha"sh"#"##,
                r###"br##"two"#"##"###
            ]
        );
        // Literals keep their quotes as written, so none of them is
        // mistaken for the brace or the path it contains…
        assert!(!toks.iter().any(|t| t.text == "{" || t.text == "sync"));
        // …and `r#try` is an identifier, not an unterminated raw string.
        assert_eq!(texts(src)[texts(src).len() - 2], "try");
    }

    #[test]
    fn char_literals_are_tokens_and_lifetimes_are_not() {
        let toks = lex(
            r"fn f<'a>(x: &'a str) -> char { if x == 'x' || y == b'\'' { '\n' } else { 'é' } }",
        );
        let chars: Vec<_> = toks
            .iter()
            .filter(|t| t.kind == TokenKind::Literal)
            .collect();
        let chars: Vec<_> = chars.iter().map(|t| t.text).collect();
        assert_eq!(chars, ["'x'", r"b'\''", r"'\n'", "'é'"]);
        assert!(!toks.iter().any(|t| t.text == "a" || t.text == "'"));
    }

    #[test]
    fn tokens_carry_their_line_across_multi_line_literals_and_comments() {
        let src = "a\n\"two\nlines\" b\n/* c\n c */ d r#\"\n\n\"# e";
        let lines: Vec<_> = lex(src).iter().map(|t| (t.text, t.line)).collect();
        assert_eq!(
            lines,
            [
                ("a", 1),
                ("\"two\nlines\"", 2),
                ("b", 3),
                ("d", 5),
                ("r#\"\n\n\"#", 5),
                ("e", 7)
            ]
        );
    }

    #[test]
    fn seq_and_close_of_match_tokens_not_text() {
        let toks = lex("m . lock ( ) [ [ ( ] ) ] \"lock\"");
        assert!(seq(&toks, 1, &[".", "lock", "(", ")"]));
        assert!(!seq(&toks, 10, &["]", "lock"]), "a string is not an ident");
        assert!(
            !seq(&toks, 11, &["\"lock\"", ";"]),
            "pattern runs off the end"
        );
        assert_eq!(
            close_of(&toks, 5),
            10,
            "nests; only the opener's kind counts"
        );
        assert_eq!(close_of(&lex("{ {"), 0), 2, "unclosed: one past the end");
    }

    #[test]
    fn scan_finds_fns_and_bodies() {
        let src = "pub fn outer(x: u32) -> u32 { inner(x) }\n\
                   fn g<T: Clone>(v: Vec<[u8; 4]>) -> Option<T> where T: Default { None }\n\
                   trait T { fn decl(&self) -> u32; fn with_default(&self) -> u32 { 1 } }\n\
                   fn nest() { fn inner() { let x = 1; } inner(); }";
        let s = Source::parse("crates/df-types/src/wire.rs", src);
        assert_eq!(s.scope(), ("df-types", "src"));
        assert_eq!(Source::parse("x.rs", "").scope(), ("", ""));
        let names: Vec<_> = s.fns.iter().map(|f| f.name).collect();
        assert_eq!(names, ["outer", "g", "with_default", "nest", "inner"]);
        assert!(s.fns.iter().all(|f| !f.in_test));
        let body = |name| {
            let f = s.fns.iter().find(|f| f.name == name).unwrap();
            let texts: Vec<_> = s.tokens[f.body.clone()].iter().map(|t| t.text).collect();
            texts.join(" ")
        };
        assert_eq!(body("outer"), "inner ( x )");
        assert_eq!(body("g"), "None");
        assert_eq!(body("inner"), "let x = 1 ;");
    }

    #[test]
    fn a_test_attribute_covers_its_own_item_and_nothing_else() {
        let src = "#[test]\nfn t() { assert!(true) }\n\
                   #[cfg(test)]\n#[allow(dead_code)]\nmod tests { fn helper() {} }\n\
                   #[cfg(test)]\nuse std::fmt;\n\
                   #[cfg(test)]\nfn bodiless();\n\
                   fn prod() { x }\n\
                   #[derive(Debug)]\nstruct S { a: u8 }\n\
                   #[cfg(not(test))]\nfn also_prod() {}";
        let s = Source::parse("x.rs", src);
        let in_test = |name| s.fns.iter().find(|f| f.name == name).unwrap().in_test;
        assert!(in_test("t") && in_test("helper"));
        assert!(
            !in_test("prod") && !in_test("also_prod"),
            "prod() follows brace-less test items"
        );
    }
}
