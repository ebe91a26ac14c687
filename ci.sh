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

# The workspace lints (docs/LINTS.md) reach a crate only through its
# manifest's opt-in, so a new crate that forgets it would compile unsafe
# code unnoticed.
echo "==> the workspace lints and the source-rule attributes are in place"
for manifest in Cargo.toml crates/*/Cargo.toml; do
  awk '/^\[/ { in_lints = ($0 == "[lints]") } in_lints && /^workspace *= *true *$/ { found = 1 }
       END { exit !found }' "$manifest" \
    || { echo "$manifest: no [lints] section with workspace = true" >&2; exit 1; }
done
# The source rules also live in crate-root and module attributes, and
# deleting one compiles clean: check that each is still in place. Every
# product crate root forbids unsafe code (the workspace level is only
# deny, which a module could allow).
for lib in crates/*/src/lib.rs; do
  grep -qx '#!\[forbid(unsafe_code)\]' "$lib" \
    || { echo "$lib: no #![forbid(unsafe_code)]" >&2; exit 1; }
done
# require_deny FILE LINT...: FILE's #![deny(..)] block names each clippy LINT.
require_deny() {
  local file=$1 block lint
  shift
  block=$(awk '/^#!\[deny\(/ { on = 1 } on { print } on && /\)\]/ { on = 0 }' "$file")
  for lint in "$@"; do
    grep -qw "clippy::$lint" <<<"$block" \
      || { echo "$file: its #![deny(..)] lacks clippy::$lint (docs/LINTS.md)" >&2; exit 1; }
  done
}
for decoder in crates/df-types/src/wire/{mod,decode,dict}.rs crates/df-types/src/rpc.rs \
  crates/df-storage/src/persist.rs; do
  require_deny "$decoder" indexing_slicing arithmetic_side_effects unwrap_used expect_used panic \
    unreachable todo unimplemented panic_in_result_fn allow_attributes_without_reason
done
for parser in crates/df-protocols/src/lib.rs crates/df-agent/src/lib.rs; do
  require_deny "$parser" indexing_slicing unwrap_used expect_used panic todo unimplemented \
    allow_attributes_without_reason
done
for sync in crates/df-server/src/lib.rs crates/df-storage/src/lib.rs crates/df-cluster/src/lib.rs; do
  require_deny "$sync" unwrap_used disallowed_methods disallowed_types
done
# The std::fs ban of those three crates has one exception, persist.rs: a
# second module that allows it would compile clean, so check by text
# that no other file's allow/expect attribute names the lint.
fs_allowers=$(find crates/df-server/src crates/df-storage/src crates/df-cluster/src -name '*.rs' | sort \
  | while read -r file; do
      if awk '/#!?\[(allow|expect)\(/ { on = 1 } on && /clippy::disallowed_methods/ { found = 1 }
              on && /\)\]/ { on = 0 } END { exit !found }' "$file"; then
        echo "$file"
      fi
    done)
if [ "$fs_allowers" != "crates/df-storage/src/persist.rs" ]; then
  printf 'std::fs must be allowed in crates/df-storage/src/persist.rs alone; allowed in:\n%s\n' \
    "$fs_allowers" >&2
  exit 1
fi
# The lock rule (docs/LINTS.md): the same lint keeps every lock site of
# those crates on df_check, whose debug builds assert that no lock is
# taken while another is held. A method dropped from clippy.toml would
# let a std lock call bypass the count unseen.
for method in Mutex::lock RwLock::read RwLock::write Condvar::wait; do
  grep -q "path = \"std::sync::$method\"" clippy.toml \
    || { echo "clippy.toml: disallowed-methods lacks std::sync::$method (docs/LINTS.md)" >&2; exit 1; }
done

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo test"
cargo test --workspace -q

# The counted rows (tests/alloc_budget.rs): exact allocation and live-byte
# counts that do not move with the host. Each budget prints one `ledger:`
# line, shown here so every log carries the rows a change moved.
echo "==> counted rows (tests/alloc_budget.rs)"
cargo test -q --test alloc_budget -- --nocapture --test-threads=1 | grep -o 'ledger:.*'

# The concurrency suites (per-shard ingest workers, the trace cache beside
# the shard read locks, buffer-pool fetchers sharing one page-in or
# waiting for a frame) re-run with forced test-thread parallelism so their
# threads contend with other test threads for real. They are debug builds,
# so df_check asserts on every acquisition that no other guard is held.
echo "==> concurrency tests under RUST_TEST_THREADS=8"
RUST_TEST_THREADS=8 cargo test -q --test concurrency
RUST_TEST_THREADS=8 cargo test -q -p df-server concurrent::
RUST_TEST_THREADS=8 cargo test -q -p df-storage --test tiering

# The six examples are the paper's §4 case studies, end to end; `cargo
# test` only compiles them. Their output is deterministic, so each run's
# stdout must equal its golden file under examples/expected/: a change
# that alters what a case study prints fails here with the diff.
echo "==> examples (release, each must exit 0 and print its golden output)"
for example in examples/*.rs; do
  name=$(basename "$example" .rs)
  cargo run -q --release --example "$name" | diff -u "examples/expected/$name.txt" - \
    || { echo "examples/$name.rs: failed, or its stdout differs from examples/expected/$name.txt" >&2; exit 1; }
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

# A build does not show the answers are right. Each run checks its own
# (span lists, the Bookinfo trace shape, traces against the reference
# oracle), so a change that compiles but lists or assembles wrongly fails
# here.
echo "==> benchmark smoke run (each workload once, answers checked)"
for workload in bookinfo_e2e wire_ingest query_preloaded mixed_live; do
  result=$(cargo run -q --release --offline --manifest-path benchmark/Cargo.toml -- \
    --workload "$workload" --seed 1 --seconds 1 --trace 0 | tail -n 1)
  case "$result" in
    *'"correct":true'*'"failed":0,'*) ;;
    *) echo "benchmark $workload: want \"correct\":true and \"failed\":0, got: ${result:0:200}" >&2; exit 1 ;;
  esac
done

# The smoke runs above are untraced, so the probes that only a traced
# run takes (the cold tier's spill and page-in, the cluster, the threaded
# store) would break unseen. One traced run takes them all. The tier
# probe turns an IO error into a message and a metric of 0, so the
# segment size must also be nonzero.
echo "==> benchmark traced run (tier, cluster and threaded-store probes)"
result=$(cargo run -q --release --offline --manifest-path benchmark/Cargo.toml -- \
  --workload query_preloaded --seed 1 --seconds 1 --trace 1 | tail -n 1)
case "$result" in
  *'"correct":true'*'"failed":0,'*) ;;
  *) echo "traced benchmark: want \"correct\":true and \"failed\":0, got: ${result:0:200}" >&2; exit 1 ;;
esac
grep -Eq '"df-storage\.persist\.segment_bytes_per_span":\{"value":(0\.0*)?[1-9]' <<<"$result" \
  || { echo "traced benchmark: df-storage.persist.segment_bytes_per_span is missing or 0" >&2; exit 1; }

echo "ci.sh: all gates passed"
