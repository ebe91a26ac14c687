//! The `df-audit` binary: every static pass over the repository tree —
//! sync discipline ([`df_check::lint`]), decoder panic-totality and
//! static lock order ([`df_check::audit`]), spec ↔ codec agreement
//! ([`df_check::spec`]) — exiting nonzero if any violation is found.
//! Usage: `df-audit [repo-root]` (default `.`); `df-audit --graph
//! [repo-root]` prints the derived static lock-order graph instead of
//! auditing.

use std::path::PathBuf;
use std::process::ExitCode;

fn run(graph: bool, root: PathBuf) -> Result<ExitCode, String> {
    if graph {
        let analysis = df_check::audit::analyze_locks(&root)?;
        for ((held, acquired), site) in &analysis.edges {
            println!(
                "{held} -> {acquired}  (via {} at {}:{})",
                site.via, site.file, site.line
            );
        }
        for c in &analysis.creations {
            println!("lock {} created at {}:{}", c.name, c.file, c.line);
        }
        return Ok(ExitCode::SUCCESS);
    }
    let violations = df_check::audit::audit_tree(&root)?;
    if violations.is_empty() {
        println!("df-audit: clean");
        return Ok(ExitCode::SUCCESS);
    }
    for v in &violations {
        eprintln!("{v}");
    }
    eprintln!("df-audit: {} violation(s)", violations.len());
    Ok(ExitCode::FAILURE)
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let graph = args.first().is_some_and(|a| a == "--graph");
    if graph {
        args.remove(0);
    }
    let root = args
        .first()
        .map_or_else(|| PathBuf::from("."), PathBuf::from);
    run(graph, root).unwrap_or_else(|e| {
        eprintln!("df-audit: error: {e}");
        ExitCode::FAILURE
    })
}
