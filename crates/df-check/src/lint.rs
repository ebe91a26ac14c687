//! `df-lint`: the sync-discipline source lint (token-level, no rustc
//! internals — a comment/string-aware scrubber plus token-sequence
//! matching, so it is fast, dependency-free, and robust to formatting).
//!
//! Five rules, all motivated by keeping the model checker honest:
//!
//! 1. **No raw `std::sync` in the sync-scoped crates** (`df-server`,
//!    `df-storage`, `df-cluster`). Code there must import the
//!    [`crate::sync`] shims, or the model tests silently stop seeing its
//!    lock/channel operations.
//! 2. **No `.unwrap()` on lock results outside `#[cfg(test)]`** —
//!    `.lock().unwrap()`, `.read().unwrap()`, `.write().unwrap()` turn a
//!    poisoned lock (a panic on another thread) into a cascading panic in
//!    whatever thread touches the lock next; production code must decide
//!    (`.expect` with a message explaining why poisoning is impossible,
//!    or recovery via `unwrap_or_else(|p| p.into_inner())`).
//! 3. **`#![forbid(unsafe_code)]` in every first-party crate root**
//!    (everything under `crates/`; the vendored stand-ins are excluded).
//! 4. **`std::fs` confined to the storage IO modules** in the
//!    sync-scoped crates: only `persist.rs` (the segment codec) and
//!    `disk_sched.rs` (the background IO thread) may touch the
//!    filesystem. Anywhere else — an ingest worker, a shard, the buffer
//!    pool itself — direct file IO would run under shard locks and
//!    bypass the disk scheduler's queue, counters and shutdown drain.
//! 5. **No OS threads in model-test files**: `thread::spawn` /
//!    `std::thread::scope` in a `*df_check_models*.rs` suite spawns a
//!    thread the model scheduler cannot pause or order, silently turning
//!    exhaustive exploration into a plain racy run; model code must use
//!    [`crate::model::spawn`].
//!
//! Run as `cargo run -p df-check --bin df-lint -- <repo-root>`; wired
//! into `ci.sh`. Exits nonzero iff any violation is found.

use std::fmt;
use std::path::{Path, PathBuf};

/// Crates whose sources must use the `df_check::sync` shims.
pub const SYNC_SCOPED_CRATES: &[&str] = &["df-server", "df-storage", "df-cluster"];

/// File names (within the sync-scoped crates) allowed to use `std::fs`
/// directly: the segment codec and the disk-scheduler IO thread.
pub const FS_ALLOWED_FILES: &[&str] = &["persist.rs", "disk_sched.rs"];

#[derive(Debug, Clone)]
pub struct Violation {
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

// ---------------------------------------------------------------------
// Source scrubbing
// ---------------------------------------------------------------------

/// Replace the contents of comments, string/char literals, and raw
/// strings with spaces, preserving newlines (so byte offsets map to the
/// original line numbers) and all code tokens. The result is safe for
/// naive token-sequence matching.
pub fn scrub(src: &str) -> String {
    let b = src.as_bytes();
    let mut out = Vec::with_capacity(b.len());
    let mut i = 0;

    let blank = |c: u8| if c == b'\n' { b'\n' } else { b' ' };

    while i < b.len() {
        let c = b[i];
        // Line comment.
        if c == b'/' && i + 1 < b.len() && b[i + 1] == b'/' {
            while i < b.len() && b[i] != b'\n' {
                out.push(blank(b[i]));
                i += 1;
            }
            continue;
        }
        // Block comment (nested).
        if c == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
            let mut depth = 0usize;
            while i < b.len() {
                if b[i] == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
                    depth += 1;
                    out.push(b' ');
                    out.push(b' ');
                    i += 2;
                } else if b[i] == b'*' && i + 1 < b.len() && b[i + 1] == b'/' {
                    depth -= 1;
                    out.push(b' ');
                    out.push(b' ');
                    i += 2;
                    if depth == 0 {
                        break;
                    }
                } else {
                    out.push(blank(b[i]));
                    i += 1;
                }
            }
            continue;
        }
        // Raw (byte) string: r"..." / r#"..."# / br#"..."#.
        let raw_start = if c == b'r' {
            Some(i + 1)
        } else if c == b'b' && i + 1 < b.len() && b[i + 1] == b'r' {
            Some(i + 2)
        } else {
            None
        };
        let prev_ident = i > 0 && (b[i - 1].is_ascii_alphanumeric() || b[i - 1] == b'_');
        if let Some(mut j) = raw_start.filter(|_| !prev_ident) {
            let mut hashes = 0;
            while j < b.len() && b[j] == b'#' {
                hashes += 1;
                j += 1;
            }
            if j < b.len() && b[j] == b'"' {
                // Emit the prefix as spaces, then consume to the closing
                // quote followed by the same number of hashes.
                out.extend(std::iter::repeat_n(b' ', j - i + 1));
                i = j + 1;
                'raw: while i < b.len() {
                    if b[i] == b'"' {
                        let mut k = i + 1;
                        let mut seen = 0;
                        while k < b.len() && b[k] == b'#' && seen < hashes {
                            seen += 1;
                            k += 1;
                        }
                        if seen == hashes {
                            out.extend(std::iter::repeat_n(b' ', k - i));
                            i = k;
                            break 'raw;
                        }
                    }
                    out.push(blank(b[i]));
                    i += 1;
                }
                continue;
            }
        }
        // String / byte-string literal.
        if c == b'"' || (c == b'b' && i + 1 < b.len() && b[i + 1] == b'"' && !prev_ident) {
            if c == b'b' {
                out.push(b' ');
                i += 1;
            }
            out.push(b' ');
            i += 1;
            while i < b.len() {
                if b[i] == b'\\' && i + 1 < b.len() {
                    out.push(b' ');
                    out.push(blank(b[i + 1]));
                    i += 2;
                    continue;
                }
                if b[i] == b'"' {
                    out.push(b' ');
                    i += 1;
                    break;
                }
                out.push(blank(b[i]));
                i += 1;
            }
            continue;
        }
        // Char literal vs lifetime.
        if c == b'\'' {
            let is_char = if i + 1 < b.len() && b[i + 1] == b'\\' {
                true
            } else {
                i + 2 < b.len() && b[i + 2] == b'\''
            };
            if is_char {
                out.push(b' ');
                i += 1;
                while i < b.len() {
                    if b[i] == b'\\' && i + 1 < b.len() {
                        out.push(b' ');
                        out.push(blank(b[i + 1]));
                        i += 2;
                        continue;
                    }
                    if b[i] == b'\'' {
                        out.push(b' ');
                        i += 1;
                        break;
                    }
                    out.push(blank(b[i]));
                    i += 1;
                }
            } else {
                // Lifetime: keep the tick (harmless) and move on.
                out.push(b'\'');
                i += 1;
            }
            continue;
        }
        out.push(c);
        i += 1;
    }
    String::from_utf8(out).expect("scrub only replaces ASCII bytes with spaces")
}

// ---------------------------------------------------------------------
// Token-sequence matching on scrubbed source
// ---------------------------------------------------------------------

fn is_ident(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_'
}

/// Match a sequence of literal tokens starting at `pos`, skipping
/// whitespace between (not within) tokens. Returns the end offset.
fn match_tokens(b: &[u8], mut pos: usize, tokens: &[&str]) -> Option<usize> {
    for (idx, tok) in tokens.iter().enumerate() {
        if idx > 0 {
            while pos < b.len() && (b[pos] as char).is_whitespace() {
                pos += 1;
            }
        }
        let t = tok.as_bytes();
        if pos + t.len() > b.len() || &b[pos..pos + t.len()] != t {
            return None;
        }
        // Identifier tokens must end at a word boundary.
        if is_ident(t[t.len() - 1]) && pos + t.len() < b.len() && is_ident(b[pos + t.len()]) {
            return None;
        }
        pos += t.len();
    }
    Some(pos)
}

fn line_of(src: &str, offset: usize) -> usize {
    src.as_bytes()[..offset]
        .iter()
        .filter(|&&c| c == b'\n')
        .count()
        + 1
}

/// Byte ranges of `#[cfg(test)] ... { ... }` regions (attribute through
/// the matching close brace of the next block), where the lock-unwrap
/// rule does not apply. Also used by the `df-audit` structural layer
/// ([`crate::syntax`]) to mark items as test code.
pub(crate) fn test_regions(scrubbed: &str) -> Vec<(usize, usize)> {
    let b = scrubbed.as_bytes();
    let mut regions = Vec::new();
    let mut i = 0;
    while i < b.len() {
        if b[i] == b'#' {
            if let Some(end) = match_tokens(b, i, &["#", "[", "cfg", "(", "test", ")", "]"]) {
                // Find the next block and skip to its matching brace.
                let mut j = end;
                while j < b.len() && b[j] != b'{' && b[j] != b'#' {
                    j += 1;
                }
                if j < b.len() && b[j] == b'{' {
                    let mut depth = 0usize;
                    let mut k = j;
                    while k < b.len() {
                        if b[k] == b'{' {
                            depth += 1;
                        } else if b[k] == b'}' {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        k += 1;
                    }
                    regions.push((i, k.min(b.len())));
                    i = k.min(b.len());
                }
            }
        }
        i += 1;
    }
    regions
}

fn in_regions(regions: &[(usize, usize)], pos: usize) -> bool {
    regions.iter().any(|&(a, z)| pos >= a && pos <= z)
}

/// Does the (scrubbed) crate root carry `#![forbid(unsafe_code)]`?
pub fn has_forbid_unsafe(scrubbed: &str) -> bool {
    let b = scrubbed.as_bytes();
    (0..b.len()).any(|i| {
        b[i] == b'#'
            && match_tokens(
                b,
                i,
                &["#", "!", "[", "forbid", "(", "unsafe_code", ")", "]"],
            )
            .is_some()
    })
}

/// Lint one source file (already read). `sync_scoped` enables the
/// `std::sync` import ban and the lock-unwrap ban.
pub fn lint_source(file: &Path, source: &str, sync_scoped: bool) -> Vec<Violation> {
    let mut out = Vec::new();
    if !sync_scoped {
        return out;
    }
    let scrubbed = scrub(source);
    let b = scrubbed.as_bytes();
    let tests = test_regions(&scrubbed);
    let fs_allowed = file
        .file_name()
        .and_then(|n| n.to_str())
        .is_some_and(|n| FS_ALLOWED_FILES.contains(&n));
    let mut i = 0;
    while i < b.len() {
        let boundary = i == 0 || !is_ident(b[i - 1]);
        // Rule 1: any `std :: sync` path, import or inline.
        if boundary && b[i] == b's' {
            if let Some(end) = match_tokens(b, i, &["std", "::", "sync"]) {
                out.push(Violation {
                    file: file.to_path_buf(),
                    line: line_of(&scrubbed, i),
                    rule: "std-sync-import",
                    message: "raw std::sync path; use the df_check::sync shims so model \
                              tests see this operation"
                        .to_string(),
                });
                i = end;
                continue;
            }
            // Rule 4: any `std :: fs` path outside the storage IO modules.
            if !fs_allowed {
                if let Some(end) = match_tokens(b, i, &["std", "::", "fs"]) {
                    out.push(Violation {
                        file: file.to_path_buf(),
                        line: line_of(&scrubbed, i),
                        rule: "fs-confinement",
                        message: "direct std::fs outside persist.rs/disk_sched.rs; route file \
                                  IO through the DiskScheduler so it never runs under shard \
                                  locks"
                            .to_string(),
                    });
                    i = end;
                    continue;
                }
            }
        }
        // Rule 2: `.lock().unwrap()` / `.read().unwrap()` / `.write().unwrap()`.
        if b[i] == b'.' && !in_regions(&tests, i) {
            for m in ["lock", "read", "write"] {
                if let Some(end) = match_tokens(b, i, &[".", m, "(", ")", ".", "unwrap", "(", ")"])
                {
                    out.push(Violation {
                        file: file.to_path_buf(),
                        line: line_of(&scrubbed, i),
                        rule: "lock-unwrap",
                        message: format!(
                            ".{m}().unwrap() outside tests propagates lock poisoning as a \
                             cascading panic; use .expect(\"why poisoning is impossible\") or \
                             recover via unwrap_or_else(|p| p.into_inner())"
                        ),
                    });
                    i = end;
                    break;
                }
            }
        }
        i += 1;
    }
    out
}

/// File-name predicate for the model-test-file rule: the df-check model
/// suites are `*df_check_models*.rs` under a crate's `tests/` directory.
pub fn is_model_test_file(file: &Path) -> bool {
    file.file_name()
        .and_then(|n| n.to_str())
        .is_some_and(|n| n.contains("df_check_models") && n.ends_with(".rs"))
}

/// Rule 5: OS threads in model-test files. `thread::spawn` and
/// `thread::scope` (with or without a `std::` prefix) create threads the
/// model scheduler cannot pause or order, so a model suite using them
/// silently degrades from exhaustive exploration to one racy run.
pub fn lint_model_test_source(file: &Path, source: &str) -> Vec<Violation> {
    let mut out = Vec::new();
    let scrubbed = scrub(source);
    let b = scrubbed.as_bytes();
    let mut i = 0;
    while i < b.len() {
        let boundary = i == 0 || !is_ident(b[i - 1]);
        if boundary && b[i] == b't' {
            for m in ["spawn", "scope"] {
                if let Some(end) = match_tokens(b, i, &["thread", "::", m]) {
                    out.push(Violation {
                        file: file.to_path_buf(),
                        line: line_of(&scrubbed, i),
                        rule: "model-thread-spawn",
                        message: format!(
                            "thread::{m} in a model-test file spawns an OS thread the model \
                             scheduler cannot see; use df_check::model::spawn so the checker \
                             controls every interleaving"
                        ),
                    });
                    i = end;
                    break;
                }
            }
        }
        i += 1;
    }
    out
}

// ---------------------------------------------------------------------
// Tree walking
// ---------------------------------------------------------------------

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
        let path = entry.path();
        if path.is_dir() {
            rust_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    out.sort();
    Ok(())
}

/// Lint a repository tree: every crate under `<root>/crates/` must have
/// `#![forbid(unsafe_code)]` in its root, and the sync-scoped crates are
/// scanned file-by-file for the import/unwrap rules. Vendored crates
/// (`<root>/vendor/`) are not touched.
pub fn lint_tree(root: &Path) -> Result<Vec<Violation>, String> {
    let crates_dir = root.join("crates");
    let mut violations = Vec::new();
    let entries = std::fs::read_dir(&crates_dir)
        .map_err(|e| format!("read_dir {}: {e}", crates_dir.display()))?;
    let mut crate_dirs: Vec<PathBuf> = entries
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();
    for crate_dir in crate_dirs {
        let crate_name = crate_dir
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or("")
            .to_string();
        let lib_rs = crate_dir.join("src").join("lib.rs");
        if lib_rs.is_file() {
            let source = std::fs::read_to_string(&lib_rs)
                .map_err(|e| format!("read {}: {e}", lib_rs.display()))?;
            if !has_forbid_unsafe(&scrub(&source)) {
                violations.push(Violation {
                    file: lib_rs.clone(),
                    line: 1,
                    rule: "forbid-unsafe",
                    message: "crate root is missing #![forbid(unsafe_code)]".to_string(),
                });
            }
        }
        if SYNC_SCOPED_CRATES.contains(&crate_name.as_str()) {
            let src = crate_dir.join("src");
            if src.is_dir() {
                let mut files = Vec::new();
                rust_files(&src, &mut files)?;
                for file in files {
                    let source = std::fs::read_to_string(&file)
                        .map_err(|e| format!("read {}: {e}", file.display()))?;
                    violations.extend(lint_source(&file, &source, true));
                }
            }
        }
        // Rule 5 applies to every crate's model-test suites.
        let tests_dir = crate_dir.join("tests");
        if tests_dir.is_dir() {
            let mut files = Vec::new();
            rust_files(&tests_dir, &mut files)?;
            for file in files.into_iter().filter(|f| is_model_test_file(f)) {
                let source = std::fs::read_to_string(&file)
                    .map_err(|e| format!("read {}: {e}", file.display()))?;
                violations.extend(lint_model_test_source(&file, &source));
            }
        }
    }
    Ok(violations)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scrub_blanks_comments_and_strings() {
        let src = "let a = \"std::sync\"; // std::sync\n/* std::sync */ let b = 'x';";
        let s = scrub(src);
        assert!(!s.contains("std::sync"), "scrubbed: {s}");
        assert!(s.contains("let a ="));
        assert!(s.contains("let b ="));
        assert_eq!(s.matches('\n').count(), src.matches('\n').count());
    }

    #[test]
    fn scrub_handles_raw_strings_and_lifetimes() {
        let src = "let r = r#\"std::sync::Mutex\"#; fn f<'a>(x: &'a str) {}";
        let s = scrub(src);
        assert!(!s.contains("std::sync"));
        assert!(s.contains("fn f<'a>"));
    }

    #[test]
    fn flags_std_sync_paths_but_not_shims() {
        let bad = "use std::sync::Mutex;\nlet m = std :: sync :: RwLock::new(0);";
        let v = lint_source(Path::new("x.rs"), bad, true);
        assert_eq!(v.len(), 2);
        assert!(v.iter().all(|v| v.rule == "std-sync-import"));
        assert_eq!(v[0].line, 1);
        assert_eq!(v[1].line, 2);

        let good = "use df_check::sync::{Arc, Mutex};\nuse df_check::sync::mpsc::sync_channel;";
        assert!(lint_source(Path::new("x.rs"), good, true).is_empty());

        // Out of scope: nothing flagged.
        assert!(lint_source(Path::new("x.rs"), bad, false).is_empty());
    }

    #[test]
    fn flags_lock_unwrap_outside_tests_only() {
        let bad = "fn f(m: &Mutex<u32>) { *m.lock().unwrap() += 1; }";
        let v = lint_source(Path::new("x.rs"), bad, true);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "lock-unwrap");

        let ok = "fn f(m: &Mutex<u32>) { *m.lock().expect(\"no panics hold this\") += 1; }\n\
                  fn g(r: Result<u32, ()>) { r.unwrap(); }";
        assert!(lint_source(Path::new("x.rs"), ok, true).is_empty());

        let in_tests = "#[cfg(test)]\nmod tests {\n fn f(m: &Mutex<u32>) { m.lock().unwrap(); }\n}";
        assert!(lint_source(Path::new("x.rs"), in_tests, true).is_empty());
    }

    #[test]
    fn flags_std_fs_outside_the_storage_io_modules() {
        let bad = "use std::fs;\npub fn f() { std :: fs :: read(\"x\").ok(); }";
        let v = lint_source(Path::new("store.rs"), bad, true);
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v.iter().all(|v| v.rule == "fs-confinement"));
        assert_eq!(v[0].line, 1);
        assert_eq!(v[1].line, 2);

        // The two storage IO modules are exempt, by file name.
        assert!(lint_source(Path::new("persist.rs"), bad, true).is_empty());
        assert!(lint_source(Path::new("src/disk_sched.rs"), bad, true).is_empty());

        // Out of scope: nothing flagged.
        assert!(lint_source(Path::new("store.rs"), bad, false).is_empty());

        // `std::fmt` and a local `fs` module are not `std::fs`.
        let ok = "use std::fmt;\nmod fs { pub fn read() {} }\npub fn g() { fs::read(); }";
        assert!(lint_source(Path::new("store.rs"), ok, true).is_empty());
    }

    #[test]
    fn flags_os_threads_in_model_test_files() {
        assert!(is_model_test_file(Path::new(
            "crates/df-server/tests/df_check_models.rs"
        )));
        assert!(!is_model_test_file(Path::new(
            "crates/df-server/tests/concurrency.rs"
        )));

        let bad = "fn round() { let t = std::thread::spawn(|| {}); t.join().unwrap(); }\n\
                   fn scoped() { thread::scope(|s| { s.spawn(|| {}); }); }";
        let v = lint_model_test_source(Path::new("df_check_models.rs"), bad);
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v.iter().all(|v| v.rule == "model-thread-spawn"));
        assert_eq!(v[0].line, 1);
        assert_eq!(v[1].line, 2);

        // model::spawn is the sanctioned API; a local `spawn` helper and
        // commented-out thread::spawn are fine too.
        let ok = "fn round() { let t = model::spawn(|| {}); t.join(); }\n\
                  // thread::spawn(|| {});\nfn h() { spawn(); }";
        assert!(lint_model_test_source(Path::new("df_check_models.rs"), ok).is_empty());
    }

    #[test]
    fn forbid_unsafe_detection() {
        assert!(has_forbid_unsafe(&scrub(
            "#![forbid(unsafe_code)]\npub fn f() {}"
        )));
        assert!(has_forbid_unsafe(&scrub("#! [ forbid ( unsafe_code ) ]")));
        assert!(!has_forbid_unsafe(&scrub(
            "// #![forbid(unsafe_code)]\npub fn f() {}"
        )));
        assert!(!has_forbid_unsafe(&scrub("#![deny(unsafe_code)]")));
    }
}
