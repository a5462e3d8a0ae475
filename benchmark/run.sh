#!/usr/bin/env bash
# Build the benchmark package and run it. From the repository root:
#
#   benchmark/run.sh [--seed N] [--seconds S] [--trace] [--smoke] [--baseline]
#       every workload, each in its own process; results in benchmark/out/
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one workload; the last line is the PR driver's JSON object
#   benchmark/run.sh compare A.json B.json
#   benchmark/run.sh manifest            # prints BENCHMARK.json
#
# The build honours CARGO_TARGET_DIR (the PR driver sets it); otherwise
# cargo uses benchmark/target. Outside a checkout of the repository the
# path dependencies on ../crates are missing, the build fails, and this
# script exits non-zero without printing a result.
set -euo pipefail
here="$(dirname "${BASH_SOURCE[0]}")"
cargo build --release --quiet --offline --manifest-path "$here/Cargo.toml"
bin="${CARGO_TARGET_DIR:-$here/target}/release/benchmark"
case "${1:-}" in
  compare | manifest) exec "$bin" "$@" ;;
  *) exec "$bin" --out-dir "$here/out" "$@" ;;
esac
