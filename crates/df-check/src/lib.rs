#![forbid(unsafe_code)]
//! # df-check — the static passes over the DeepFlow tree
//!
//! Every decoder parses bytes nobody vetted, and every lock nesting is a
//! deadlock waiting for its mirror image. This crate reads the tree's
//! Rust source and checks both, in two layers:
//!
//! 1. **[`syntax`] — the one reader of the source tree.** A directory
//!    walk that reads each first-party `*.rs` file once, a lexer whose
//!    tokens carry their line (comments dropped, string literals kept as
//!    tokens), and a brace-matched item scan that finds `fn` bodies and is
//!    the only judge of what is test code. No rustc internals; every
//!    static pass is a function over its tokens and reports through its
//!    one `Violation` type.
//!
//! 2. **The static passes — [`lint`] and [`audit`]**, run together
//!    by the `df-audit` binary (one `ci.sh` stage; rule catalogue in
//!    `docs/LINTS.md`). [`lint`] is token rules: no
//!    `.lock().unwrap()`-style lock unwraps outside test code,
//!    `#![forbid(unsafe_code)]` in every first-party crate root, `std::fs`
//!    confined to the tiering layer. [`audit`] is panic-totality of the
//!    designated total-decode modules (no `unwrap`/`panic!`, no slice
//!    indexing, no unchecked length arithmetic — with a
//!    justification-required `// df-audit: allow(...)` escape) and a
//!    static lock-order graph over the production sources, derived from
//!    `.lock()`/`.read()`/`.write()` call sites and call-graph
//!    propagation (AB/BA cycles fail CI; `ci.sh` also diffs its edges
//!    against the reviewed `docs/LOCK_ORDER.txt`). The format documents
//!    under `docs/` are not read here: each is checked by a plain test
//!    beside its codec (`df_types::{wire, rpc}`, `df_storage::persist`).
//!
//! The crate's tests exercise each static rule against seeded fixture
//! trees (`tests/audit_fixture.rs`). Runtime concurrency invariants are
//! not checked here: each is a plain test on the real type, listed in
//! `docs/ARCHITECTURE.md` § "Correctness tooling".

pub mod audit;
pub mod lint;
pub mod syntax;
