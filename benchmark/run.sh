#!/usr/bin/env bash
# Builds the benchmark crate and runs it from the repository root.
#
#   benchmark/run.sh                       every workload, untraced + traced
#   benchmark/run.sh --workload hot_wire   one workload, untraced + traced
#   benchmark/run.sh --repeat 3 --seed 7   the suite three times, seeds 7, 8, 9
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                          one run; last stdout line is the result
#
# The suite writes $CARGO_TARGET_DIR/results.json and exits non-zero when
# any run had a failed operation or fewer than 2 000 operations.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target/benchmark}"
export CARGO_NET_OFFLINE=true
# Cargo reports on stderr; stdout stays the benchmark's own.
cargo build --release --quiet --manifest-path "$here/Cargo.toml"
exec "$CARGO_TARGET_DIR/release/xtwig-benchmark" --out-dir "$CARGO_TARGET_DIR" "$@"
