#![forbid(unsafe_code)]
//! # df-check — correctness tooling for the DeepFlow tree
//!
//! Every lock or channel interaction multiplies the interleaving space
//! faster than hand-written tests can cover it, and every decoder parses
//! bytes nobody vetted. This crate is the tooling that checks both, in
//! four layers — two the product compiles against, two that read its
//! source:
//!
//! 1. **[`sync`] — instrumented shims.** Drop-in stand-ins for
//!    `std::sync::{Mutex, RwLock, Condvar, Arc}`,
//!    `std::sync::atomic::AtomicUsize` and
//!    `std::sync::mpsc::sync_channel`. In a normal build they are plain
//!    re-exports of `std::sync` (zero cost). Under the `checked` feature
//!    (or `--cfg df_check`) they become thin wrappers that route every
//!    acquire/release/send/recv through the controlling scheduler *when
//!    the current thread belongs to a model execution* — and pass straight
//!    through to `std` otherwise, so retrofitted production code keeps
//!    exact `std` semantics even in checked builds.
//!
//! 2. **[`model`] — a schedule-exploring model checker.** [`model::check`]
//!    runs a closure repeatedly under depth-first schedule exploration:
//!    every sync op is a cooperative yield point, exactly one model thread
//!    runs between yield points, and the scheduler replays one schedule
//!    per path deterministically (loom-style, hand-rolled, std-only).
//!    Exploration is bounded by a preemption budget and deduplicated by a
//!    state hash, and a failing schedule is reported as the exact
//!    interleaving (with source locations) plus a decision vector that
//!    [`model::replay`] re-executes verbatim. Layered on the same
//!    instrumentation is a **lock-order graph** whose cycles flag
//!    potential deadlocks even on schedules that happen to pass.
//!
//! 3. **[`syntax`] — the one reader of the source tree.** A directory
//!    walk that reads each first-party `*.rs` file once, a lexer whose
//!    tokens carry their line (comments dropped, string literals kept as
//!    tokens), and a brace-matched item scan that finds `fn` bodies and is
//!    the only judge of what is test code. No rustc internals; every
//!    static pass is a function over its tokens and reports through its
//!    one `Violation` type.
//!
//! 4. **The static passes — [`lint`] and [`audit`]**, run together
//!    by the `df-audit` binary (one `ci.sh` stage; rule catalogue in
//!    `docs/LINTS.md`). [`lint`] is sync discipline: no raw `std::sync`
//!    in the sync-scoped crates (they must use the shims so the model
//!    tests stay honest), no `.lock().unwrap()`-style lock unwraps outside
//!    test code, `#![forbid(unsafe_code)]` in every first-party crate
//!    root, `std::fs` confined to the tiering layer, no OS threads in
//!    model-test files. [`audit`] is panic-totality of the designated
//!    total-decode modules (no `unwrap`/`panic!`, no slice indexing, no
//!    unchecked length arithmetic — with a justification-required
//!    `// df-audit: allow(...)` escape) and a static lock-order graph over
//!    the production sources, derived from shim call sites and call-graph
//!    propagation (AB/BA cycles fail CI; `ci.sh` also diffs its edges
//!    against the reviewed `docs/LOCK_ORDER.txt`). The format documents
//!    under `docs/` are not read here: each is checked by a plain test
//!    beside its codec (`df_types::{wire, rpc}`, `df_storage::persist`).
//!
//! The model tests live next to the code they check
//! (`df-server/tests/df_check_models.rs` and its df-storage / df-cluster
//! siblings); this crate's own tests exercise the checker itself
//! (deadlock detection, lock-order cycles, preemption bounds, replay
//! determinism) and each static rule against seeded fixture trees. See
//! `docs/ARCHITECTURE.md` § "Correctness tooling" for how to write a
//! `df-check` test.
//!
//! ## Example (degrades gracefully when `checked` is off)
//!
//! ```
//! use df_check::{model, sync};
//!
//! let report = model::explore(model::CheckConfig::default(), || {
//!     let counter = sync::Arc::new(sync::Mutex::new(0u32));
//!     let c2 = sync::Arc::clone(&counter);
//!     let t = model::spawn(move || {
//!         *c2.lock().expect("lock") += 1;
//!     });
//!     *counter.lock().expect("lock") += 1;
//!     t.join();
//!     assert_eq!(*counter.lock().expect("lock"), 2);
//! });
//! assert!(report.failure.is_none());
//! ```

pub mod audit;
pub mod lint;
pub mod model;
pub mod sync;
pub mod syntax;

#[cfg(any(feature = "checked", df_check))]
mod sched;

/// Whether this build has the instrumented scheduler compiled in (the
/// `checked` feature or `--cfg df_check`). When `false`, [`model::check`]
/// degrades to running the closure once with plain `std` primitives —
/// tests that need real exploration should skip themselves when this
/// returns `false` (and CI runs them with the feature on).
pub const fn is_checked() -> bool {
    cfg!(any(feature = "checked", df_check))
}
