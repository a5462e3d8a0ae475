#!/usr/bin/env sh
# Full local CI gate: formatting, lints, the whole workspace test suite
# (the raidx-verify checks included), the trace-export self-check, the
# golden simulated results and the benchmark package. Each check runs
# once: a failing test names itself in `cargo test` output, so no test
# file has a stage of its own. Run from the repository root. Fails fast on
# the first broken stage.
set -eu

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy (all targets, warnings are errors)"
# This stage owns the static rules (DESIGN "Static analysis"): the
# determinism bans (clippy.toml disallowed-methods/-types for wall clocks,
# RandomState and HashMap/HashSet iterator chains, plus
# iter_over_hash_type), unwrap_used everywhere and expect_used in
# sim-core/cdd, wildcard_enum_match_arm in cdd/raidx-core/sim-core,
# allow_attributes[_without_reason] (an ack is an #[expect] with a
# reason, and rustc rejects it once unfulfilled), dbg_macro, todo and
# rustc's missing_docs.
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo test (workspace)"
cargo test --workspace -q

echo "==> bench trace --smoke (trace/metrics export self-check)"
cargo run --release -p bench -- trace --smoke

echo "==> golden (simulated results byte-identical to the committed files)"
# `exp all` prints every table and rewrites results/fig5.csv and
# fig6.csv; an intentional change of a simulated number regenerates all
# three (EXPERIMENTS.md) in the same PR.
cargo run --release -p bench -- exp all | cmp - results/all_experiments.md
git diff --exit-code -- results/fig5.csv results/fig6.csv

echo "==> benchmark (own workspace: build, smoke run, parity + manifest tests)"
# benchmark/ is invisible to `cargo test --workspace`; without this stage
# a public-API change under crates/ can break it unnoticed.
bash benchmark/run.sh --smoke
cargo test --release -q --manifest-path benchmark/Cargo.toml

echo "==> loc (Rust lines per crate; informational, never fails)"
sh scripts/loc.sh || true

echo "ci.sh: all gates passed"
