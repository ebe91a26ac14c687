//! The token rules: sequence matching over [`crate::syntax`] tokens, so
//! comments, string contents and formatting never matter.
//!
//! Three rules:
//!
//! 1. **No `.unwrap()` on lock results outside `#[cfg(test)]`** —
//!    `.lock().unwrap()`, `.read().unwrap()`, `.write().unwrap()` turn a
//!    poisoned lock (a panic on another thread) into a cascading panic in
//!    whatever thread touches the lock next; production code must decide
//!    (`.expect` with a message explaining why poisoning is impossible,
//!    or recovery via `unwrap_or_else(|p| p.into_inner())`).
//! 2. **`#![forbid(unsafe_code)]` in every first-party crate root**
//!    (everything under `crates/`; the vendored stand-ins are excluded).
//! 3. **`std::fs` confined to the storage IO modules** in the
//!    sync-scoped crates: only `persist.rs` (the segment codec) and
//!    `disk_sched.rs` (the background IO thread) may touch the
//!    filesystem. Anywhere else — an ingest worker, a shard, the buffer
//!    pool itself — direct file IO would run under shard locks and
//!    bypass the disk scheduler's queue, counters and shutdown drain.
//!
//! Run by the `df-audit` binary with the other static passes.

use crate::syntax::{close_of, seq, Source, Token, Violation};

/// The crates that take locks and do file IO: rules 1 and 3 and the
/// static lock-order graph cover their `src/`.
pub const SYNC_SCOPED_CRATES: &[&str] = &["df-server", "df-storage", "df-cluster"];

/// File names (within the sync-scoped crates) allowed to use `std::fs`
/// directly: the segment codec and the disk-scheduler IO thread.
pub const FS_ALLOWED_FILES: &[&str] = &["persist.rs", "disk_sched.rs"];

/// Does the crate root carry `#![forbid(unsafe_code)]`?
pub fn has_forbid_unsafe(src: &Source<'_>) -> bool {
    let attr = ["#", "!", "[", "forbid", "(", "unsafe_code", ")", "]"];
    (0..src.tokens.len()).any(|i| seq(&src.tokens, i, &attr))
}

/// The modules a `std :: …` path at token `i` names: the next segment,
/// or for a grouped import (`std::{fs, sync::Mutex, io::{self, Read}}`)
/// the first segment of each entry of the group.
fn std_modules<'s, 'a>(toks: &'s [Token<'a>], i: usize) -> Vec<&'s Token<'a>> {
    if !seq(toks, i + 2, &["{"]) {
        return toks.get(i + 2).into_iter().collect();
    }
    let mut depth = 0usize;
    let mut firsts = Vec::new();
    for j in i + 2..close_of(toks, i + 2) {
        match toks[j].text {
            "{" => depth += 1,
            "}" => depth -= 1,
            _ if depth == 1 && matches!(toks[j - 1].text, "{" | ",") => firsts.push(&toks[j]),
            _ => {}
        }
    }
    firsts
}

/// Rules 1 and 3 over one file of a sync-scoped crate: the lock-unwrap
/// ban outside test code, and `std::fs` confinement.
pub fn lint_sync_scoped(src: &Source<'_>) -> Vec<Violation> {
    let mut out = Vec::new();
    let toks = &src.tokens;
    let fs_allowed = FS_ALLOWED_FILES.contains(&src.file_name());
    for i in 0..toks.len() {
        // Rule 3: any `std :: fs` path outside the storage IO modules.
        if !fs_allowed && seq(toks, i, &["std", "::"]) {
            for module in std_modules(toks, i).into_iter().filter(|m| m.text == "fs") {
                let message = "direct std::fs outside persist.rs/disk_sched.rs; route file IO \
                               through the DiskScheduler so it never runs under shard locks";
                out.push(src.violation(module.line, "fs-confinement", message.to_string()));
            }
        }
        // Rule 1: `.lock().unwrap()` / `.read().unwrap()` / `.write().unwrap()`.
        for m in ["lock", "read", "write"] {
            if !src.is_test(i) && seq(toks, i, &[".", m, "(", ")", ".", "unwrap", "(", ")"]) {
                out.push(src.violation(
                    toks[i].line,
                    "lock-unwrap",
                    format!(
                        ".{m}().unwrap() outside tests propagates lock poisoning as a \
                         cascading panic; use .expect(\"why poisoning is impossible\") or \
                         recover via unwrap_or_else(|p| p.into_inner())"
                    ),
                ));
            }
        }
    }
    out
}

/// Lint a parsed tree: every crate root `crates/<crate>/src/lib.rs` must
/// carry `#![forbid(unsafe_code)]` (rule 2), and the sources of the
/// sync-scoped crates get rules 1 and 3.
pub fn lint_tree(tree: &[Source<'_>]) -> Vec<Violation> {
    let mut out = Vec::new();
    for src in tree {
        let (krate, dir) = src.scope();
        if src.rel == format!("crates/{krate}/src/lib.rs") && !has_forbid_unsafe(src) {
            let message = "crate root is missing #![forbid(unsafe_code)]".to_string();
            out.push(src.violation(1, "forbid-unsafe", message));
        }
        if dir == "src" && SYNC_SCOPED_CRATES.contains(&krate) {
            out.extend(lint_sync_scoped(src));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sync_scoped(file: &str, text: &str) -> Vec<Violation> {
        lint_sync_scoped(&Source::parse(file, text))
    }

    #[test]
    fn flags_lock_unwrap_outside_tests_only() {
        let bad = "fn f(m: &Mutex<u32>) { *m.lock().unwrap() += 1; }";
        let v = sync_scoped("x.rs", bad);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "lock-unwrap");

        let ok = "fn f(m: &Mutex<u32>) { *m.lock().expect(\"no panics hold this\") += 1; }\n\
                  fn g(r: Result<u32, ()>) { r.unwrap(); }";
        assert!(sync_scoped("x.rs", ok).is_empty());

        let in_tests = "#[cfg(test)]\nmod tests {\n fn f(m: &Mutex<u32>) { m.lock().unwrap(); }\n}";
        assert!(sync_scoped("x.rs", in_tests).is_empty());
        // Further attributes between `#[cfg(test)]` and the item change nothing.
        let stacked = in_tests.replace("\nmod", "\n#[allow(clippy::unwrap_used)]\nmod");
        assert!(sync_scoped("x.rs", &stacked).is_empty());
    }

    #[test]
    fn flags_std_fs_outside_the_storage_io_modules() {
        let bad = "use std::fs;\npub fn f() { std :: fs :: read(\"x\").ok(); }";
        let v = sync_scoped("store.rs", bad);
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v.iter().all(|v| v.rule == "fs-confinement"));
        assert_eq!(v[0].line, 1);
        assert_eq!(v[1].line, 2);

        // Grouped imports name their modules one level down, nested
        // groups or not; `fs` deeper than the first segment is not std's.
        let grouped = "use std::{\n    io::{self, fs},\n    fs::File,\n};";
        let v = sync_scoped("store.rs", grouped);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!((v[0].rule, v[0].line), ("fs-confinement", 3));

        // The two storage IO modules are exempt, by file name.
        assert!(sync_scoped("persist.rs", bad).is_empty());
        assert!(sync_scoped("src/disk_sched.rs", bad).is_empty());

        // `std::fmt` and a local `fs` module are not `std::fs`.
        let ok = "use std::fmt;\nmod fs { pub fn read() {} }\npub fn g() { fs::read(); }";
        assert!(sync_scoped("store.rs", ok).is_empty());

        // Out of scope (not a sync-scoped crate's `src/`): nothing flagged.
        let elsewhere = Source::parse("crates/df-types/src/store.rs", bad);
        assert!(lint_tree(&[elsewhere]).is_empty());
        let scoped = Source::parse("crates/df-storage/src/store.rs", bad);
        assert_eq!(lint_tree(&[scoped]).len(), 2);
    }

    #[test]
    fn forbid_unsafe_detection() {
        let has = |text| has_forbid_unsafe(&Source::parse("lib.rs", text));
        assert!(has("#![forbid(unsafe_code)]\npub fn f() {}"));
        assert!(has("#! [ forbid ( unsafe_code ) ]"));
        assert!(!has("// #![forbid(unsafe_code)]\npub fn f() {}"));
        assert!(!has("#![deny(unsafe_code)]"));
        let root = Source::parse("crates/df-types/src/lib.rs", "pub fn f() {}");
        let v = lint_tree(&[root]);
        assert_eq!((v[0].rule, v[0].line), ("forbid-unsafe", 1), "{v:?}");
    }
}
