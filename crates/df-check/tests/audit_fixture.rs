//! Fixture tests for the `df-audit` binary: the AB/BA seed (see
//! `audit_fixtures/README.md`) planted in the base tree must fail with
//! the cycle's `file:line`, and the base tree and the shipped repository
//! tree must pass, printing exactly their lock-order edges.

use std::path::{Path, PathBuf};
use std::process::Command;

fn fixtures_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/audit_fixtures")
}

/// Run the binary over `root`: (exit success, stdout, stderr).
fn audit(root: &Path) -> (bool, String, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_df-audit"))
        .arg(root)
        .output()
        .expect("run df-audit");
    let text = |bytes: &[u8]| String::from_utf8_lossy(bytes).into_owned();
    (
        output.status.success(),
        text(&output.stdout),
        text(&output.stderr),
    )
}

/// A temp tree holding the fixture server's `lib.rs`, from `base/` or
/// from a seed, removed on drop.
struct Fixture {
    root: PathBuf,
}

impl Fixture {
    fn new(tag: &str, lib_rs: &str) -> Self {
        let root =
            std::env::temp_dir().join(format!("df-audit-fixture-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let src = root.join("crates/df-server/src");
        std::fs::create_dir_all(&src).expect("create fixture dirs");
        std::fs::copy(fixtures_dir().join(lib_rs), src.join("lib.rs")).expect("copy fixture");
        Fixture { root }
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

#[test]
fn lock_cycle_seed_fails_with_its_location() {
    let fx = Fixture::new("cycle", "seeds/lock_cycle.rs");
    let (ok, stdout, stderr) = audit(&fx.root);
    assert!(!ok, "df-audit must exit nonzero; stderr:\n{stderr}");
    assert_eq!(
        stdout,
        "df-server::gens -> df-server::store\ndf-server::store -> df-server::gens\n"
    );
    for needle in [
        "crates/df-server/src/lib.rs:29: [lock-order]",
        "df-audit: 1 violation(s)",
    ] {
        assert!(
            stderr.contains(needle),
            "stderr must contain {needle:?}:\n{stderr}"
        );
    }
}

#[test]
fn base_tree_and_shipped_tree_pass_and_print_their_edges() {
    let fx = Fixture::new("clean", "base/crates/df-server/src/lib.rs");
    let (ok, stdout, stderr) = audit(&fx.root);
    assert!(ok, "df-audit must pass the base tree:\n{stderr}");
    assert_eq!(stdout, "df-server::store -> df-server::gens\n");

    // crates/df-check -> crates -> repo root
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    assert!(
        root.join("crates/df-server").is_dir(),
        "repo layout changed? {root:?}"
    );
    let (ok, stdout, stderr) = audit(&root);
    assert!(ok, "shipped tree must audit clean:\n{stderr}");
    let pinned = std::fs::read_to_string(root.join("docs/LOCK_ORDER.txt")).expect("read pin");
    assert_eq!(stdout, pinned, "edges differ from docs/LOCK_ORDER.txt");
}
