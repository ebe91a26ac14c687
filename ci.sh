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
# first-party Rust lines equal the committed ceiling. Above it the tree
# grew; below it the PR that shrank the tree did not lower the ceiling, and
# the slack would let the gain erode unseen.
echo "==> line-count ratchet (docs/LOC_CEILING)"
loc=$(git ls-files '*.rs' | grep -v -e '^vendor/' -e '^benchmark/' | xargs cat | wc -l)
ceiling=$(cat docs/LOC_CEILING)
if [ "$loc" -gt "$ceiling" ]; then
  echo "first-party *.rs lines: $loc > ceiling $ceiling — remove code, or justify raising docs/LOC_CEILING" >&2
  exit 1
elif [ "$loc" -lt "$ceiling" ]; then
  echo "first-party *.rs lines: $loc < ceiling $ceiling — lower docs/LOC_CEILING to $loc in this PR" >&2
  exit 1
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
# The architecture overview stays an overview (ROADMAP item 10's bar).
arch_lines=$(wc -l < docs/ARCHITECTURE.md)
if [ "$arch_lines" -gt 600 ]; then
  echo "docs/ARCHITECTURE.md: $arch_lines lines > 600 — say it shorter, or move detail to the module docs" >&2
  exit 1
fi
# The ledger stays regenerable: every tracked results/<name>.json has a
# save_json("<name>", ..) call in a figure binary that rewrites it.
bin_sources=$(cat crates/df-bench/src/bin/*.rs | tr -d ' \n')
for json in $(git ls-files 'results/*.json'); do
  name=$(basename "$json" .json)
  case "$bin_sources" in
    *"save_json(\"$name\""*) ;;
    *) echo "$json: no save_json(\"$name\" call under crates/df-bench/src/bin/ — delete it or restore its writer" >&2; exit 1 ;;
  esac
done

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

# The concurrency suite (per-shard ingest workers, trace cache under the
# shard read locks) re-runs with forced test-thread parallelism so its
# producer/worker threads contend with other test threads for real.
echo "==> concurrency tests under RUST_TEST_THREADS=8"
RUST_TEST_THREADS=8 cargo test -q --test concurrency
RUST_TEST_THREADS=8 cargo test -q -p df-server concurrent::

# df-check's own suite needs the `checked` scheduler compiled in by
# feature; the df-server / df-cluster / df-storage model suites already
# ran checked, each test under its own full schedule budget, in the
# workspace pass above (dev-dependency feature unification).
echo "==> df-check model suite (checked scheduler)"
cargo test -q -p df-check --features checked

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
  --exclude serde_json --exclude rand --exclude proptest
)

echo "==> cargo doc (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace "${FIRST_PARTY_EXCLUDES[@]}"

echo "==> cargo test --doc"
cargo test --doc --workspace -q "${FIRST_PARTY_EXCLUDES[@]}"

# The repo benchmark is its own workspace, so nothing above compiles it: a
# signature change in SpanStore / ShardedSpanStore / Server would break
# the instrument unnoticed. Build it, and check BENCHMARK.json is still
# what it describes. --locked: a manifest edit that would rewrite the
# frozen benchmark/Cargo.lock fails here instead of dirtying it.
echo "==> benchmark crate builds and describes BENCHMARK.json"
cargo build --release --offline --locked --manifest-path benchmark/Cargo.toml
cargo run -q --release --offline --manifest-path benchmark/Cargo.toml -- describe | diff - BENCHMARK.json

echo "ci.sh: all gates passed"
