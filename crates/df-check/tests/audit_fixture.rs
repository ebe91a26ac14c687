//! Fixture tests for the `df-audit` binary: each rule's seed (see
//! `audit_fixtures/README.md`) planted in the base tree must fail with
//! the rule's name and the violating `file:line`, the untouched base
//! tree must pass, and the shipped repository tree must pass.

use std::path::{Path, PathBuf};
use std::process::Command;

fn fixtures_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/audit_fixtures")
}

/// The contents of one file of the fixture corpus.
fn fixture(rel: &str) -> String {
    std::fs::read_to_string(fixtures_dir().join(rel)).expect("read fixture file")
}

/// Run the binary over `root`: (exit success, stderr).
fn audit(root: &Path) -> (bool, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_df-audit"))
        .arg(root)
        .output()
        .expect("run df-audit");
    let stderr = String::from_utf8_lossy(&output.stderr).into_owned();
    (output.status.success(), stderr)
}

struct Fixture {
    root: PathBuf,
}

impl Fixture {
    /// A temp tree seeded with a full copy of `audit_fixtures/base/`.
    fn from_base(tag: &str) -> Self {
        let root =
            std::env::temp_dir().join(format!("df-audit-fixture-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        copy_tree(&fixtures_dir().join("base"), &root);
        Fixture { root }
    }

    /// Overwrite (or create) `rel` with `contents`.
    fn write(&self, rel: &str, contents: &str) {
        let path = self.root.join(rel);
        std::fs::create_dir_all(path.parent().expect("parent")).expect("create fixture dirs");
        std::fs::write(&path, contents).expect("write fixture file");
    }

    /// The tree must fail the audit with exactly `violations` findings,
    /// its stderr naming each of `expect` (rule ids and `file:line`s).
    fn fails(&self, violations: usize, expect: &[&str]) {
        let (ok, stderr) = audit(&self.root);
        assert!(!ok, "df-audit must exit nonzero; stderr:\n{stderr}");
        let count = format!("df-audit: {violations} violation(s)");
        for needle in expect.iter().chain([&count.as_str()]) {
            assert!(
                stderr.contains(needle),
                "stderr must contain {needle:?}:\n{stderr}"
            );
        }
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

fn copy_tree(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).expect("create fixture dir");
    for entry in std::fs::read_dir(from).expect("read fixture base") {
        let entry = entry.expect("fixture entry");
        let src = entry.path();
        let dst = to.join(entry.file_name());
        if src.is_dir() {
            copy_tree(&src, &dst);
        } else {
            std::fs::copy(&src, &dst).expect("copy fixture file");
        }
    }
}

const WIRE_RS: &str = "crates/df-types/src/wire.rs";

/// Every seed under `audit_fixtures/seeds/`: the file it replaces, how
/// many findings it plants, and what the failure must name.
const SEEDS: &[(&str, &str, usize, &[&str])] = &[
    (
        "decode_panic.rs",
        WIRE_RS,
        1,
        &["crates/df-types/src/wire.rs:4: [decode-panic]"],
    ),
    (
        "decode_index.rs",
        WIRE_RS,
        1,
        &["crates/df-types/src/wire.rs:4: [decode-index]"],
    ),
    (
        "decode_arith.rs",
        WIRE_RS,
        1,
        &["crates/df-types/src/wire.rs:4: [decode-arith]"],
    ),
    (
        "cfg_test_use.rs",
        WIRE_RS,
        1,
        &["crates/df-types/src/wire.rs:9: [decode-index]"],
    ),
    (
        "empty_allow.rs",
        WIRE_RS,
        2,
        &[
            "crates/df-types/src/wire.rs:5: [audit-allow]",
            "crates/df-types/src/wire.rs:6: [decode-index]",
        ],
    ),
    (
        "lock_cycle.rs",
        "crates/df-server/src/lib.rs",
        1,
        &["crates/df-server/src/lib.rs:29: [lock-order]"],
    ),
    (
        "grouped_import.rs",
        "crates/df-storage/src/store.rs",
        1,
        &["crates/df-storage/src/store.rs:6: [fs-confinement]"],
    ),
];

#[test]
fn every_seed_fails_with_its_rule_and_location() {
    for (seed, rel, violations, expect) in SEEDS {
        let fx = Fixture::from_base(seed);
        fx.write(rel, &fixture(&format!("seeds/{seed}")));
        fx.fails(*violations, expect);
    }
}

#[test]
fn sync_discipline_rules_fire_in_scope_and_only_there() {
    let fx = Fixture::from_base("sync");
    // Missing #![forbid(unsafe_code)] in one crate root…
    fx.write("crates/df-cluster/src/lib.rs", "pub fn nothing() {}\n");
    // …a lock unwrap outside tests (the one inside `mod tests` is fine)…
    fx.write(
        "crates/df-server/src/store.rs",
        "use std::sync::Mutex;\n\
         pub fn f(m: &Mutex<u32>) -> u32 { *m.lock().unwrap() }\n\
         #[cfg(test)]\nmod tests {\n  pub fn g(m: &super::Mutex<u32>) -> u32 { *m.lock().unwrap() }\n}\n",
    );
    // …and a shard doing its own file IO, while the segment codec and the
    // disk scheduler may.
    let io = "pub fn sneak() { let _ = std::fs::read(\"seg.dfspan\"); }\n";
    fx.write("crates/df-storage/src/store.rs", io);
    fx.write("crates/df-storage/src/disk_sched.rs", io);
    let persist = fixture("base/crates/df-storage/src/persist.rs") + io;
    fx.write("crates/df-storage/src/persist.rs", &persist);
    // The same text outside the sync-scoped crates is nobody's business.
    fx.write("crates/df-types/src/rogue.rs", io);
    fx.fails(
        3,
        &[
            "crates/df-cluster/src/lib.rs:1: [forbid-unsafe]",
            "crates/df-server/src/store.rs:2: [lock-unwrap]",
            "crates/df-storage/src/store.rs:1: [fs-confinement]",
        ],
    );
}

#[test]
fn base_tree_and_shipped_tree_pass() {
    let fx = Fixture::from_base("clean");
    let (ok, stderr) = audit(&fx.root);
    assert!(ok, "df-audit must pass the base tree:\n{stderr}");

    // crates/df-check -> crates -> repo root
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    assert!(
        root.join("crates/df-server").is_dir(),
        "repo layout changed? {root:?}"
    );
    let (ok, stderr) = audit(&root);
    assert!(ok, "shipped tree must audit clean:\n{stderr}");
}
