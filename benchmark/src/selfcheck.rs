//! `selfcheck` and `compare`: the benchmark checking its own repeatability
//! the way the driver will, and two saved result sets against each other.

use crate::clock;
use crate::spec::{self, Better, Metric, END_TO_END, PER_LAYER};
use crate::stats::{median, quartiles};
use crate::workloads::Workload;
use serde_json::Value;
use std::collections::BTreeMap;
use std::process::Command;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Floors the traced run must clear for the trace to account for the rep.
const MIN_SELF_SUM: f64 = 0.95;
const MAX_OVERHEAD: f64 = 0.10;

type Values = BTreeMap<String, f64>;

/// The metrics of one result line.
fn metrics_of(result: &Value) -> Option<Values> {
    let mut out = Values::new();
    for (name, m) in result.get("metrics")?.as_object()? {
        out.insert(name.clone(), m.get("value")?.as_f64()?);
    }
    Some(out)
}

/// Run this binary once as a child and parse its result line.
fn child(w: Workload, seed: u64, seconds: u64, traced: bool) -> Result<Values, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", w.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or("");
    let result: Value = serde_json::from_str(line).map_err(|e| {
        format!(
            "{} seed {seed}: no result line ({e}); stderr: {}",
            w.name(),
            String::from_utf8_lossy(&out.stderr)
        )
    })?;
    if !out.status.success() || result.get("correct").and_then(Value::as_bool) != Some(true) {
        return Err(format!(
            "{} seed {seed}: run failed or incorrect: {line}",
            w.name()
        ));
    }
    metrics_of(&result).ok_or_else(|| format!("{} seed {seed}: malformed result", w.name()))
}

/// Workload → metric → one value per seed.
type Set = BTreeMap<&'static str, BTreeMap<String, Vec<f64>>>;

/// One set of runs: every workload (in the given order) on every seed.
fn run_set(order: &[Workload], seeds: &[u64], seconds: u64) -> Result<Set, String> {
    let mut set = Set::new();
    for &w in order {
        for &seed in seeds {
            eprintln!("  run {} seed {seed}", w.name());
            for (name, v) in child(w, seed, seconds, false)? {
                set.entry(w.name())
                    .or_default()
                    .entry(name)
                    .or_default()
                    .push(v);
            }
        }
    }
    Ok(set)
}

/// How much worse the worse of two medians is, as a share of the better.
fn gap(a: f64, b: f64) -> f64 {
    let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
    if lo <= 0.0 {
        0.0
    } else {
        hi / lo - 1.0
    }
}

/// Print one metric's row for two sets and say whether it is within `limit`.
fn row(w: &str, m: &Metric, a: &[f64], b: &[f64], limit: f64) -> bool {
    let (ma, mb) = (median(a), median(b));
    let (qa, qb) = (quartiles(a), quartiles(b));
    let g = gap(ma, mb);
    let ok = g <= limit;
    println!(
        "{w:16} {:22} {ma:>12.4} [{:.4} {:.4}] {mb:>12.4} [{:.4} {:.4}] {:>4} gap {:6.2}% bound {:5.1}% {}",
        m.name, qa[0], qa[2], qb[0], qb[2], m.unit, g * 100.0, limit * 100.0,
        if ok { "ok" } else { "OVER" }
    );
    ok
}

/// Print every end-to-end metric of two sets side by side; true when every
/// gap is within its bound.
fn sets_agree(a: &Set, b: &Set) -> bool {
    let mut ok = true;
    for w in Workload::ALL {
        for m in &END_TO_END {
            let bound = m.bound.expect("end-to-end metrics carry bounds");
            ok &= row(
                w.name(),
                m,
                &a[w.name()][m.name],
                &b[w.name()][m.name],
                bound,
            );
        }
    }
    ok
}

/// Busy-loop competitors, one per core, until dropped.
struct Hogs {
    stop: Arc<AtomicBool>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl Hogs {
    fn start() -> Hogs {
        let stop = Arc::new(AtomicBool::new(false));
        let threads = (0..clock::nproc())
            .map(|_| {
                let stop = Arc::clone(&stop);
                // Relaxed: the flag publishes nothing but itself.
                std::thread::spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        std::hint::spin_loop();
                    }
                })
            })
            .collect();
        Hogs { stop, threads }
    }
}

impl Drop for Hogs {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// Two idle sets in opposite workload order, one traced run per workload,
/// and optionally a third set under one CPU hog per core. True when every
/// end-to-end gap is within its bound and every traced run accounts for its
/// rep inside its workload's band. The rehearsal's gaps are printed beside
/// the idle ones and not gated: three busy threads on two cores is harsher
/// than anything the benchmark promises to absorb.
pub fn selfcheck(seeds: &[u64], seconds: u64, noise: bool) -> Result<bool, String> {
    let forward = Workload::ALL;
    let mut backward = forward;
    backward.reverse();
    eprintln!("selfcheck: first set");
    let a = run_set(&forward, seeds, seconds)?;
    eprintln!("selfcheck: second set, reverse order");
    let b = run_set(&backward, seeds, seconds)?;

    let mut ok = true;
    println!(
        "-- idle: first set against second, {} seed(s) each",
        seeds.len()
    );
    ok &= sets_agree(&a, &b);

    println!("-- traced: the trace accounts for the rep, the workload exercises its layer");
    for w in Workload::ALL {
        let t = child(w, seeds[0], seconds, true)?;
        let (lo, hi) = spec::dominant_band(w);
        let checks = [
            ("trace.dominant_share", t["trace.dominant_share"], lo, hi),
            (
                "trace.self_sum_share",
                t["trace.self_sum_share"],
                MIN_SELF_SUM,
                f64::INFINITY,
            ),
            (
                "trace.overhead_share",
                t["trace.overhead_share"],
                f64::NEG_INFINITY,
                MAX_OVERHEAD,
            ),
        ];
        for (name, v, lo, hi) in checks {
            let good = (lo..=hi).contains(&v);
            ok &= good;
            println!(
                "{:16} {name:22} {v:>8.4} want [{lo:.2}, {hi:.2}] {}",
                w.name(),
                if good { "ok" } else { "OUT" }
            );
        }
    }

    if noise {
        eprintln!("selfcheck: third set, one busy loop per core");
        let hogs = Hogs::start();
        let c = run_set(&forward, seeds, seconds)?;
        drop(hogs);
        println!(
            "-- rehearsal (reported, not gated): idle first set against a set run beside {} busy loops",
            clock::nproc()
        );
        sets_agree(&a, &c);
    }
    Ok(ok)
}

/// Medians of every metric over the result lines of one file.
fn load(path: &str) -> Result<Values, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut pooled: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for line in text.lines().filter(|l| l.trim_start().starts_with('{')) {
        let result: Value = serde_json::from_str(line).map_err(|e| format!("{path}: {e}"))?;
        for (name, v) in metrics_of(&result).ok_or_else(|| format!("{path}: not a result line"))? {
            pooled.entry(name).or_default().push(v);
        }
    }
    if pooled.is_empty() {
        return Err(format!("{path}: no result lines"));
    }
    Ok(pooled.into_iter().map(|(k, v)| (k, median(&v))).collect())
}

/// Compare two files of result lines (the same workload on both sides).
/// False when an end-to-end metric of `b` is worse than `a` beyond its
/// bound.
pub fn compare(a_path: &str, b_path: &str) -> Result<bool, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    let mut ok = true;
    for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
        let (Some(&va), Some(&vb)) = (a.get(m.name), b.get(m.name)) else {
            continue;
        };
        let change = if va == 0.0 { 0.0 } else { vb / va - 1.0 };
        let worse = match m.better {
            Better::Lower => change,
            Better::Higher => -change,
        };
        let verdict = match m.bound {
            Some(bound) if worse > bound => {
                ok = false;
                "REGRESSED"
            }
            Some(_) => "within bound",
            None => "",
        };
        println!(
            "{:48} {va:>14.4} {vb:>14.4} {:>5} {:+7.2}% {verdict}",
            m.name,
            m.unit,
            change * 100.0
        );
    }
    Ok(ok)
}
