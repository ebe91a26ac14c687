//! The `df-audit` binary: derive the static lock-order graph
//! ([`df_check::lock_order`]) of the repository's production sources,
//! print its edges to stdout as `held -> acquired` lines (the format of
//! `docs/LOCK_ORDER.txt`), and exit nonzero if any AB/BA cycle closes.
//! Usage: `df-audit [repo-root]` (default `.`).

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let root = std::env::args_os()
        .nth(1)
        .map_or_else(|| PathBuf::from("."), PathBuf::from);
    let analysis = match df_check::lock_order::analyze_locks(&root) {
        Ok(analysis) => analysis,
        Err(e) => {
            eprintln!("df-audit: error: {e}");
            return ExitCode::FAILURE;
        }
    };
    for (held, acquired) in analysis.edges.keys() {
        println!("{held} -> {acquired}");
    }
    if analysis.violations.is_empty() {
        return ExitCode::SUCCESS;
    }
    for v in &analysis.violations {
        eprintln!("{v}");
    }
    eprintln!("df-audit: {} violation(s)", analysis.violations.len());
    ExitCode::FAILURE
}
