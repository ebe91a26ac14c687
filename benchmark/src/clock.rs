//! The benchmark's clocks and process gauges.
//!
//! Cost and throughput numbers are **on-CPU time**: the sum over this
//! process's threads of the first field of `/proc/self/task/*/schedstat`
//! (nanoseconds the thread spent running). On an idle core that equals wall
//! time for this single-threaded, I/O-free pipeline; on a shared box it
//! leaves out the time a neighbour held the core, which is what made
//! wall-clock reps swing 70 % in the prototype. The kernel updates the field
//! at scheduler ticks (4 ms here), so it is read only around whole reps.
//!
//! Latencies are wall time from [`Instant`], taken around single calls
//! shorter than a millisecond and reported as medians.

use std::fs;
use std::sync::OnceLock;
use std::time::Instant;

static START: OnceLock<Instant> = OnceLock::new();

/// Pin the wall-clock origin; call first thing in `main`.
pub fn init() {
    START.get_or_init(Instant::now);
}

/// Wall nanoseconds since [`init`].
pub fn wall_ns() -> u64 {
    START.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Microseconds since `t`, for one latency sample.
pub fn us_since(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64 / 1e3
}

/// On-CPU nanoseconds of every live thread of this process since it
/// started. Falls back to `utime + stime` of `/proc/self/stat` (10 ms
/// ticks) where schedstat is not compiled in.
pub fn cpu_ns() -> u64 {
    schedstat_ns().unwrap_or_else(stat_ticks_ns)
}

fn schedstat_ns() -> Option<u64> {
    let mut total = 0u64;
    let mut seen = false;
    for entry in fs::read_dir("/proc/self/task").ok()? {
        // A thread may exit between readdir and open; its time is lost to
        // the sum either way, so skip it.
        let Ok(text) = fs::read_to_string(entry.ok()?.path().join("schedstat")) else {
            continue;
        };
        total += text.split_whitespace().next()?.parse::<u64>().ok()?;
        seen = true;
    }
    seen.then_some(total)
}

fn stat_ticks_ns() -> u64 {
    let Ok(text) = fs::read_to_string("/proc/self/stat") else {
        return wall_ns();
    };
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th of the line, so the 12th and 13th after the ')'.
    let tail = text.rsplit_once(')').map_or("", |(_, t)| t);
    let mut fields = tail.split_whitespace().skip(11);
    let ticks: u64 = fields
        .by_ref()
        .take(2)
        .filter_map(|f| f.parse::<u64>().ok())
        .sum();
    ticks * 10_000_000 // USER_HZ is 100 on every Linux ABI
}

/// Peak resident set (`VmHWM`) in MB, 0 if unreadable.
pub fn peak_rss_mb() -> f64 {
    let Ok(text) = fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Cores this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
