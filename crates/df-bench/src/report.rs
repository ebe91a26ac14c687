//! Plain-text rendering for figure harnesses: aligned tables, horizontal
//! bar charts, and JSON result persistence (under `results/`).

use std::fs;
use std::path::{Path, PathBuf};

/// Print a section header.
pub fn header(title: &str) {
    println!("\n==== {title} ====\n");
}

/// Print an aligned table. `rows` are already formatted cells.
pub fn table(columns: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = columns.iter().map(|c| c.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let head: Vec<String> = columns
        .iter()
        .enumerate()
        .map(|(i, c)| format!("{:<w$}", c, w = widths[i]))
        .collect();
    println!("  {}", head.join("  "));
    println!(
        "  {}",
        widths
            .iter()
            .map(|w| "-".repeat(*w))
            .collect::<Vec<_>>()
            .join("  ")
    );
    for row in rows {
        let cells: Vec<String> = row
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:<w$}", c, w = widths.get(i).copied().unwrap_or(0)))
            .collect();
        println!("  {}", cells.join("  "));
    }
}

/// Print a horizontal bar chart of (label, value) pairs.
pub fn bars(items: &[(String, f64)], unit: &str) {
    let max = items.iter().map(|(_, v)| *v).fold(0.0_f64, f64::max);
    let lw = items.iter().map(|(l, _)| l.len()).max().unwrap_or(0);
    for (label, value) in items {
        let n = if max > 0.0 {
            ((value / max) * 40.0).round() as usize
        } else {
            0
        };
        println!(
            "  {:<lw$}  {:>10.3} {unit}  {}",
            label,
            value,
            "#".repeat(n.max(if *value > 0.0 { 1 } else { 0 })),
        );
    }
}

/// The workspace root's `results/`, anchored at compile time so a harness
/// started from any directory rewrites the tracked snapshots
/// EXPERIMENTS.md quotes, not a `./results` beside the caller.
fn results_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results")
}

/// Persist a figure's results as JSON under `results/<name>.json` so
/// EXPERIMENTS.md can reference stable numbers. Best-effort (a read-only
/// checkout just skips it).
pub fn save_json(name: &str, value: &serde_json::Value) {
    let dir = results_dir();
    if fs::create_dir_all(&dir).is_err() {
        return;
    }
    let path = dir.join(format!("{name}.json"));
    if let Ok(body) = serde_json::to_string_pretty(value) {
        let _ = fs::write(&path, body);
        println!("\n[saved results/{name}.json]");
    }
}

/// A paper-vs-measured comparison line with a shape verdict.
pub fn compare(metric: &str, paper: f64, measured: f64, tolerance_factor: f64) {
    let ratio = if paper != 0.0 {
        measured / paper
    } else {
        f64::NAN
    };
    let ok = ratio.is_finite() && ratio >= 1.0 / tolerance_factor && ratio <= tolerance_factor;
    println!(
        "  {metric:<46} paper {paper:>12.3}   measured {measured:>12.3}   ratio {ratio:>6.2}x  {}",
        if ok { "[shape OK]" } else { "[differs]" }
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_and_bars_do_not_panic() {
        table(
            &["a", "b"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
        bars(&[("x".into(), 1.0), ("y".into(), 0.0)], "u");
        compare("m", 10.0, 12.0, 2.0);
    }

    #[test]
    fn results_dir_sits_in_the_workspace_root() {
        let dir = results_dir();
        assert!(dir.ends_with("results"));
        let manifest = fs::read_to_string(dir.with_file_name("Cargo.toml"))
            .expect("results/ has a manifest beside it");
        assert!(manifest.contains("[workspace]"), "not the workspace root");
    }
}
