//! The model-checking executor: run a closure under every schedule (up to
//! a preemption bound, with state-hash dedup) and report the exact failing
//! interleaving, or prove the bounded space clean.
//!
//! * [`explore`] returns a [`CheckReport`] whether or not the closure
//!   failed — use it when a failure is the *expected* outcome (mutation
//!   tests) or when you want the exploration stats.
//! * [`check`] is the test-friendly wrapper: it panics with the rendered
//!   interleaving and decision vector on failure.
//! * [`replay`] re-executes one recorded decision vector deterministically
//!   — paste the `schedule` from a failure report to single-step a bug.
//! * [`spawn`]/[`JoinHandle`] are the thread API model closures use;
//!   outside a model execution (or in an unchecked build) they fall
//!   through to `std::thread`.
//!
//! Without the `checked` feature (or `--cfg df_check`) the scheduler is
//! not compiled at all and [`explore`] degrades to running the closure
//! once on plain `std` primitives; gate tests that need real exploration
//! on [`crate::is_checked`].

#[cfg(any(feature = "checked", df_check))]
use crate::sched;
#[cfg(any(feature = "checked", df_check))]
use std::sync::{Arc, Mutex};

/// Schedules explored before giving up (`complete: false`).
#[cfg(any(feature = "checked", df_check))]
const MAX_SCHEDULES: usize = 50_000;

/// Per-run decision cap — exceeding it fails the run as a probable
/// livelock ([`FailureKind::StepLimit`]).
#[cfg(any(feature = "checked", df_check))]
pub(crate) const MAX_STEPS: usize = 20_000;

/// Exploration settings. `Default` is a good starting point for protocol
/// models of 2–4 threads.
#[derive(Debug, Clone)]
pub struct CheckConfig {
    /// Preemption bound: schedules needing more involuntary context
    /// switches are not explored (2–3 finds almost all real bugs).
    pub max_preemptions: usize,
    /// Replay exactly this decision vector once instead of exploring.
    pub replay: Option<Vec<usize>>,
}

impl Default for CheckConfig {
    fn default() -> Self {
        CheckConfig {
            max_preemptions: 2,
            replay: None,
        }
    }
}

/// Why a schedule failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// A model thread panicked (an assertion in the closure failed).
    Panic,
    /// Every live thread was blocked.
    Deadlock,
    /// The lock-order graph contains a cycle that could block (reported
    /// even when every explored schedule passed).
    LockOrderCycle,
    /// A run exceeded the per-run cap of 20 000 scheduling decisions.
    StepLimit,
}

/// A failed schedule: what went wrong, the interleaving that led there
/// (one rendered line per granted operation, with source locations), and
/// the decision vector [`replay`] re-executes verbatim.
#[derive(Debug, Clone)]
pub struct Failure {
    pub kind: FailureKind,
    pub message: String,
    pub trace: Vec<String>,
    pub schedule: Vec<usize>,
}

impl Failure {
    pub fn render(&self) -> String {
        let mut out = format!(
            "{:?}: {}\nschedule {:?}\n",
            self.kind, self.message, self.schedule
        );
        for (i, line) in self.trace.iter().enumerate() {
            out.push_str(&format!("  {i:3}. {line}\n"));
        }
        out
    }
}

/// Outcome of an exploration.
#[derive(Debug)]
pub struct CheckReport {
    /// Schedules actually executed.
    pub schedules: usize,
    /// `true` iff the bounded, deduplicated schedule space was exhausted
    /// (nothing left to explore within the preemption bound).
    pub complete: bool,
    /// Runs cut short because their state hash had been seen before.
    pub states_pruned: usize,
    /// Lock-order cycles observed across all runs (deduplicated), each
    /// rendered as a `Kind#id (created src:line) -> ...` chain.
    pub lock_cycles: Vec<String>,
    /// The first failure encountered, if any.
    pub failure: Option<Failure>,
}

pub(crate) fn payload_msg(p: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

// ---------------------------------------------------------------------
// explore / check / replay
// ---------------------------------------------------------------------

/// Run `f` under DFS schedule exploration and return the report (no panic
/// on failure — assert on the report instead).
#[cfg(any(feature = "checked", df_check))]
pub fn explore<F>(cfg: CheckConfig, f: F) -> CheckReport
where
    F: Fn() + Send + Sync + 'static,
{
    let f = Arc::new(f);
    let mut report = CheckReport {
        schedules: 0,
        complete: false,
        states_pruned: 0,
        lock_cycles: Vec::new(),
        failure: None,
    };
    let replay_only = cfg.replay.is_some();
    let mut target = cfg.replay.clone().unwrap_or_default();
    let mut seen = std::collections::HashSet::new();
    loop {
        let sched = sched::Scheduler::new(target.clone(), std::mem::take(&mut seen));
        let body = Arc::clone(&f);
        let s2 = Arc::clone(&sched);
        let main = std::thread::Builder::new()
            .name("df-check-main".to_string())
            .spawn(move || sched::run_model_thread(s2, 0, Box::new(move || body())))
            .expect("spawn model main thread");
        let outcome = sched.finish_run(main);
        report.schedules += 1;
        report.states_pruned += outcome.pruned;
        seen = outcome.seen;
        for c in outcome.lock_cycles {
            if !report.lock_cycles.contains(&c) {
                report.lock_cycles.push(c);
            }
        }
        if let Some(failure) = outcome.failure {
            report.failure = Some(failure);
            return report;
        }
        if !report.lock_cycles.is_empty() {
            report.failure = Some(Failure {
                kind: FailureKind::LockOrderCycle,
                message: format!(
                    "lock-order cycle(s) could deadlock under some schedule: {}",
                    report.lock_cycles.join(" | ")
                ),
                trace: Vec::new(),
                schedule: outcome.decisions.iter().map(|d| d.chosen).collect(),
            });
            return report;
        }
        if replay_only {
            return report;
        }
        match sched::next_target(&outcome.decisions, cfg.max_preemptions) {
            Some(t) => target = t,
            None => {
                report.complete = true;
                return report;
            }
        }
        if report.schedules >= MAX_SCHEDULES {
            return report;
        }
    }
}

/// Unchecked fallback: run the closure once on plain `std`; a panic maps
/// to a [`FailureKind::Panic`] report with no trace.
#[cfg(not(any(feature = "checked", df_check)))]
pub fn explore<F>(_cfg: CheckConfig, f: F) -> CheckReport
where
    F: Fn() + Send + Sync + 'static,
{
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(&f));
    CheckReport {
        schedules: 1,
        complete: false,
        states_pruned: 0,
        lock_cycles: Vec::new(),
        failure: result.err().map(|p| Failure {
            kind: FailureKind::Panic,
            message: payload_msg(p),
            trace: Vec::new(),
            schedule: Vec::new(),
        }),
    }
}

/// [`explore`] with a test-friendly contract: panic with the rendered
/// interleaving (and replayable decision vector) on any failure, return
/// the report otherwise.
pub fn check<F>(cfg: CheckConfig, f: F) -> CheckReport
where
    F: Fn() + Send + Sync + 'static,
{
    let report = explore(cfg, f);
    if let Some(failure) = &report.failure {
        panic!("df-check failure\n{}", failure.render());
    }
    report
}

/// Deterministically re-execute one recorded decision vector (from
/// [`Failure::schedule`]) and return that single run's report.
pub fn replay<F>(schedule: Vec<usize>, f: F) -> CheckReport
where
    F: Fn() + Send + Sync + 'static,
{
    explore(
        CheckConfig {
            replay: Some(schedule),
            ..CheckConfig::default()
        },
        f,
    )
}

// ---------------------------------------------------------------------
// Thread API for model closures
// ---------------------------------------------------------------------

enum Imp<T> {
    Std(std::thread::JoinHandle<T>),
    #[cfg(any(feature = "checked", df_check))]
    Model {
        sched: Arc<sched::Scheduler>,
        tid: sched::Tid,
        slot: Arc<Mutex<Option<T>>>,
    },
}

/// Handle returned by [`spawn`]; [`JoinHandle::join`] returns the
/// closure's value (a panicked model thread fails the whole check, so
/// `join` does not surface per-thread errors).
pub struct JoinHandle<T>(Imp<T>);

impl<T> JoinHandle<T> {
    #[track_caller]
    pub fn join(self) -> T {
        match self.0 {
            Imp::Std(h) => h
                .join()
                .unwrap_or_else(|p| panic!("joined thread panicked: {}", payload_msg(p))),
            #[cfg(any(feature = "checked", df_check))]
            Imp::Model { sched, tid, slot } => {
                let ctx = sched::current().expect("model JoinHandle joined off-model");
                let _ = ctx.sched.yield_op(
                    ctx.tid,
                    sched::Op::join(tid),
                    std::panic::Location::caller(),
                );
                drop(sched);
                let mut guard = match slot.lock() {
                    Ok(g) => g,
                    Err(p) => p.into_inner(),
                };
                guard.take().expect("joined model thread stored its value")
            }
        }
    }
}

/// Spawn a thread. Inside a model execution this registers a new model
/// thread with the scheduler (the spawn is itself a yield point); outside
/// one it is `std::thread::spawn`.
#[track_caller]
pub fn spawn<T, F>(f: F) -> JoinHandle<T>
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    #[cfg(any(feature = "checked", df_check))]
    if let Some(ctx) = sched::current() {
        let site = std::panic::Location::caller();
        let slot = Arc::new(Mutex::new(None));
        let slot2 = Arc::clone(&slot);
        let grant = ctx
            .sched
            .yield_op(ctx.tid, sched::Op::new(sched::OpKind::Spawn), site);
        let sched::Grant::Spawned(child) = grant else {
            panic!("spawn yielded a non-spawn grant: {grant:?}");
        };
        let sched2 = Arc::clone(&ctx.sched);
        let handle = std::thread::Builder::new()
            .name(format!("df-check-{child}"))
            .spawn(move || {
                sched::run_model_thread(
                    sched2,
                    child,
                    Box::new(move || {
                        let value = f();
                        let mut guard = match slot2.lock() {
                            Ok(g) => g,
                            Err(p) => p.into_inner(),
                        };
                        *guard = Some(value);
                    }),
                )
            })
            .expect("spawn model thread");
        ctx.sched.os_thread_spawned(handle);
        return JoinHandle(Imp::Model {
            sched: Arc::clone(&ctx.sched),
            tid: child,
            slot,
        });
    }
    JoinHandle(Imp::Std(std::thread::spawn(f)))
}
