#![forbid(unsafe_code)]
//! # df-check — the static lock-order graph of the DeepFlow tree
//!
//! Every lock nesting is a deadlock waiting for its mirror image, and no
//! rustc or clippy lint sees one across function calls. This crate reads
//! the tree's Rust source and derives the order in which its production
//! code takes locks, in two layers:
//!
//! 1. **[`syntax`] — the one reader of the source tree.** A directory
//!    walk that reads each first-party `*.rs` file once, a lexer whose
//!    tokens carry their line (comments dropped, literals kept as
//!    tokens), and a brace-matched item scan that finds `fn` bodies and is
//!    the only judge of what is test code. No rustc internals.
//!
//! 2. **[`lock_order`] — the static lock-order graph**, run by the
//!    `df-audit` binary (one `ci.sh` stage; see `docs/LINTS.md`). It is
//!    derived from `.lock()`/`.read()`/`.write()` call sites and
//!    call-graph propagation over the production sources of the
//!    sync-scoped crates. An AB/BA cycle fails CI, and `ci.sh` diffs the
//!    printed edges against the reviewed `docs/LOCK_ORDER.txt`.
//!
//! The tree's other source rules are rustc and clippy lints
//! (`unsafe_code`, `clippy::unwrap_used`, `disallowed_methods`, the
//! decoders' deny lists; tabled in `docs/LINTS.md`). The crate's tests
//! run the binary over a seeded fixture tree (`tests/audit_fixture.rs`).
//! Runtime concurrency invariants are not checked here: each is a plain
//! test on the real type, listed in `docs/ARCHITECTURE.md` § "Correctness
//! tooling".

pub mod lock_order;
pub mod syntax;
