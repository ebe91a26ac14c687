#!/usr/bin/env bash
# Tier-1 gate for this repo. Run from the workspace root:
#
#   ./ci.sh
#
# Everything builds against the vendored stand-in crates in vendor/ (see
# vendor/README.md), so no network access is required.
set -euo pipefail
cd "$(dirname "$0")"

# Line-count ratchet (ROADMAP "track the workspace line count"): tracked
# first-party Rust lines may not exceed the committed ceiling, and a PR
# that shrinks the tree lowers the ceiling so the gain cannot erode.
echo "==> line-count ratchet (docs/LOC_CEILING)"
loc=$(git ls-files '*.rs' | grep -v -e '^vendor/' -e '^benchmark/' | xargs cat | wc -l)
ceiling=$(cat docs/LOC_CEILING)
if [ "$loc" -gt "$ceiling" ]; then
  echo "first-party *.rs lines: $loc > ceiling $ceiling — remove code, or justify raising docs/LOC_CEILING" >&2
  exit 1
elif [ "$loc" -lt "$ceiling" ]; then
  echo "first-party *.rs lines: $loc < ceiling $ceiling — lower docs/LOC_CEILING to $loc in this PR"
fi
# No single file may grow (back) into a monolith: a tracked first-party
# *.rs file over MAX_FILE_LINES is split along its seams, not appended to.
MAX_FILE_LINES=1600
oversized=$(git ls-files '*.rs' | grep -v -e '^vendor/' -e '^benchmark/' | xargs wc -l \
  | awk -v max="$MAX_FILE_LINES" '$2 != "total" && $1 > max { print "  " $2 ": " $1 " lines" }')
if [ -n "$oversized" ]; then
  printf 'first-party *.rs files over %s lines:\n%s\n' "$MAX_FILE_LINES" "$oversized" >&2
  exit 1
fi

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

# The static passes, one binary over one read of the tree (docs/LINTS.md):
# the sync-discipline rules, decoder panic-totality over
# wire.rs/rpc.rs/persist.rs, the static lock-order graph (AB/BA cycles
# fail; the model suite cross-checks it against runtime-observed edges),
# and spec <-> codec agreement — docs/WIRE_FORMAT.md and
# docs/SEGMENT_FORMAT.md must match the codec constants (magic, version,
# field order) and cover every RPC kind and presence bit.
echo "==> df-audit (sync discipline, panic-totality, lock-order, spec sync)"
cargo run -q -p df-check --bin df-audit -- .

echo "==> cargo test"
cargo test --workspace -q

# The concurrency suite (per-shard ingest workers, bounded-staleness
# cache) re-runs with forced test-thread parallelism so
# its producer/worker threads contend with other test threads for real.
echo "==> concurrency tests under RUST_TEST_THREADS=8"
RUST_TEST_THREADS=8 cargo test -q --test concurrency
RUST_TEST_THREADS=8 cargo test -q -p df-server concurrent::

# Model-checking gates. df-check's own suite runs with the `checked`
# scheduler compiled in; the df-server model tests (including the
# mutation-detection tests) already ran checked inside the workspace test
# run above (dev-dependency feature unification), and re-run here under a
# bounded schedule budget so a 1-core CI box stays within its time box.
echo "==> df-check model suite (checked scheduler)"
cargo test -q -p df-check --features checked
DF_CHECK_MAX_SCHEDULES=2000 cargo test -q -p df-server --test df_check_models
DF_CHECK_MAX_SCHEDULES=2000 cargo test -q -p df-cluster --test df_check_models
DF_CHECK_MAX_SCHEDULES=2000 cargo test -q -p df-storage --test df_check_models

# The distributed-assembly differential suite (cluster vs the concurrent
# oracle at 1/2/4 nodes, plus loss-retry and partition-degradation): runs
# in the workspace pass above, re-run here by name so a failure is
# attributed to the distributed protocol rather than the umbrella run.
echo "==> distributed assembly differential suite"
cargo test -q -p df-cluster --test distributed

# Replication robustness gates: targeted failover / anti-entropy /
# crash-recovery tests, then the seeded chaos sweep (24 derived fault
# schedules — kill, partition+heal, kill+join, leave — asserting RF=2
# loses nothing and answers oracle-identically, and RF=1 degrades
# loudly). Both run in the workspace pass; re-run by name for
# attribution.
echo "==> replication / anti-entropy / crash-recovery suite"
cargo test -q -p df-cluster --test replication

echo "==> chaos fault-schedule sweep"
cargo test -q -p df-cluster --test chaos

# The six examples are the paper's §4 case studies, end to end; `cargo
# test` only compiles them.
echo "==> examples (release, each must exit 0)"
for example in examples/*.rs; do
  cargo run -q --release --example "$(basename "$example" .rs)" >/dev/null
done

# Doc gates cover the first-party crates; the vendored stand-ins in
# vendor/ are excluded (they are minimal API shims, not documentation
# surface).
FIRST_PARTY_EXCLUDES=(
  --exclude bytes --exclude serde --exclude serde_derive
  --exclude serde_json --exclude rand --exclude proptest --exclude criterion
)

echo "==> cargo doc (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace "${FIRST_PARTY_EXCLUDES[@]}"

echo "==> cargo test --doc"
cargo test --doc --workspace -q "${FIRST_PARTY_EXCLUDES[@]}"

echo "==> alg1 assembly bench (smoke, release, --test mode)"
cargo bench -p df-bench --bench alg1_assembly -- --test

echo "==> alg1 parallel ingest bench (smoke, release, --test mode)"
cargo bench -p df-bench --bench alg1_parallel -- --test

echo "==> distributed cluster assembly bench (smoke, release, --test mode)"
cargo bench -p df-bench --bench cluster_assembly -- --test

# The tiered-storage bench also *asserts* the LRU-K scan-resistance claim
# (K = 2 hit rate above plain LRU, K = 1, on a scan-then-point workload),
# so the smoke run is a correctness gate, not just a does-it-compile check.
echo "==> tiered storage buffer-pool bench (smoke, release, --test mode)"
cargo bench -p df-bench --bench storage_tiered -- --test

# The repo benchmark is its own workspace, so nothing above compiles it: a
# signature change in SpanStore / ShardedSpanStore / Server would break
# the instrument unnoticed. Build it, and check BENCHMARK.json is still
# what it describes.
echo "==> benchmark crate builds and describes BENCHMARK.json"
cargo build --release --offline --manifest-path benchmark/Cargo.toml
cargo run -q --release --offline --manifest-path benchmark/Cargo.toml -- describe | diff - BENCHMARK.json

echo "ci.sh: all gates passed"
