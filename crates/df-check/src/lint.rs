//! The sync-discipline rules: token-sequence matching over
//! [`crate::syntax`] tokens, so comments, string contents and formatting
//! never matter.
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
//! Run by the `df-audit` binary with the other static passes.

use crate::syntax::{close_of, seq, Source, Token, Violation};

/// Crates whose sources must use the `df_check::sync` shims.
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

/// Rules 1, 2 and 4 over one file of a sync-scoped crate: the `std::sync`
/// ban, the lock-unwrap ban outside test code, and `std::fs` confinement.
pub fn lint_sync_scoped(src: &Source<'_>) -> Vec<Violation> {
    let mut out = Vec::new();
    let toks = &src.tokens;
    let fs_allowed = FS_ALLOWED_FILES.contains(&src.file_name());
    for i in 0..toks.len() {
        if seq(toks, i, &["std", "::"]) {
            for module in std_modules(toks, i) {
                let (rule, message) = match module.text {
                    // Rule 1: any `std :: sync` path, import or inline.
                    "sync" => (
                        "std-sync-import",
                        "raw std::sync path; use the df_check::sync shims so model tests see \
                         this operation",
                    ),
                    // Rule 4: any `std :: fs` path outside the storage IO modules.
                    "fs" if !fs_allowed => (
                        "fs-confinement",
                        "direct std::fs outside persist.rs/disk_sched.rs; route file IO \
                         through the DiskScheduler so it never runs under shard locks",
                    ),
                    _ => continue,
                };
                out.push(src.violation(module.line, rule, message.to_string()));
            }
        }
        // Rule 2: `.lock().unwrap()` / `.read().unwrap()` / `.write().unwrap()`.
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

/// File-name predicate for the model-test-file rule: the df-check model
/// suites are `*df_check_models*.rs` under a crate's `tests/` directory.
pub fn is_model_test_file(src: &Source<'_>) -> bool {
    src.scope().1 == "tests" && src.file_name().contains("df_check_models")
}

/// Rule 5: OS threads in model-test files. `thread::spawn` and
/// `thread::scope` (with or without a `std::` prefix) create threads the
/// model scheduler cannot pause or order, so a model suite using them
/// silently degrades from exhaustive exploration to one racy run.
pub fn lint_model_test(src: &Source<'_>) -> Vec<Violation> {
    let mut out = Vec::new();
    for i in 0..src.tokens.len() {
        for m in ["spawn", "scope"] {
            if seq(&src.tokens, i, &["thread", "::", m]) {
                out.push(src.violation(
                    src.tokens[i].line,
                    "model-thread-spawn",
                    format!(
                        "thread::{m} in a model-test file spawns an OS thread the model \
                         scheduler cannot see; use df_check::model::spawn so the checker \
                         controls every interleaving"
                    ),
                ));
            }
        }
    }
    out
}

/// Lint a parsed tree: every crate root `crates/<crate>/src/lib.rs` must
/// carry `#![forbid(unsafe_code)]`, the sources of the sync-scoped crates
/// get rules 1, 2 and 4, and every crate's model-test suites get rule 5.
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
        if is_model_test_file(src) {
            out.extend(lint_model_test(src));
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
    fn flags_std_sync_paths_but_not_shims() {
        let bad = "use std::sync::Mutex;\nlet m = std :: sync :: RwLock::new(0);";
        let v = sync_scoped("x.rs", bad);
        assert_eq!(v.len(), 2);
        assert!(v.iter().all(|v| v.rule == "std-sync-import"));
        assert_eq!(v[0].line, 1);
        assert_eq!(v[1].line, 2);

        let good = "use df_check::sync::{Arc, Mutex};\nuse df_check::sync::mpsc::sync_channel;\n\
                    let s = \"std::sync\"; // std::sync\n/* std::sync */";
        assert!(sync_scoped("x.rs", good).is_empty());

        // Grouped imports name their modules one level down, nested
        // groups or not; `sync` deeper than the first segment is not std's.
        let grouped = "use std::{\n    io::{self, sync},\n    sync::Mutex,\n};";
        let v = sync_scoped("x.rs", grouped);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!((v[0].rule, v[0].line), ("std-sync-import", 3));

        // Out of scope (not a sync-scoped crate's `src/`): nothing flagged.
        let elsewhere = Source::parse("crates/df-types/src/x.rs", bad);
        assert!(lint_tree(&[elsewhere]).is_empty());
        let scoped = Source::parse("crates/df-server/src/x.rs", bad);
        assert_eq!(lint_tree(&[scoped]).len(), 2);
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

        let grouped = "use std::{fs, sync::Mutex};";
        let rules: Vec<_> = sync_scoped("store.rs", grouped)
            .iter()
            .map(|v| v.rule)
            .collect();
        assert_eq!(rules, ["fs-confinement", "std-sync-import"]);

        // The two storage IO modules are exempt, by file name.
        assert!(sync_scoped("persist.rs", bad).is_empty());
        assert!(sync_scoped("src/disk_sched.rs", bad).is_empty());

        // `std::fmt` and a local `fs` module are not `std::fs`.
        let ok = "use std::fmt;\nmod fs { pub fn read() {} }\npub fn g() { fs::read(); }";
        assert!(sync_scoped("store.rs", ok).is_empty());
    }

    #[test]
    fn flags_os_threads_in_model_test_files() {
        let bad = "fn round() { let t = std::thread::spawn(|| {}); t.join().unwrap(); }\n\
                   fn scoped() { thread::scope(|s| { s.spawn(|| {}); }); }";
        let suite = Source::parse("crates/df-server/tests/df_check_models.rs", bad);
        assert!(is_model_test_file(&suite));
        let v = lint_tree(&[suite]);
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v.iter().all(|v| v.rule == "model-thread-spawn"));
        assert_eq!(v[0].line, 1);
        assert_eq!(v[1].line, 2);
        let other = Source::parse("crates/df-server/tests/concurrency.rs", bad);
        assert!(!is_model_test_file(&other));
        assert!(lint_tree(&[other]).is_empty());

        // model::spawn is the sanctioned API; a local `spawn` helper and
        // commented-out thread::spawn are fine too.
        let ok = "fn round() { let t = model::spawn(|| {}); t.join(); }\n\
                  // thread::spawn(|| {});\nfn h() { spawn(); }";
        assert!(lint_model_test(&Source::parse("df_check_models.rs", ok)).is_empty());
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
