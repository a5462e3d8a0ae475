#!/usr/bin/env sh
# Full local CI gate: formatting, lints, the whole workspace test suite,
# the trace-export self-check, the golden simulated results, the
# benchmark package, and every raidx-verify pass. Each check runs once:
# a failing test names itself in `cargo test` output and a failing pass
# in `bench verify`'s per-pass report, so no pass or test file has a stage
# of its own. Run from the repository root. Fails fast on the first
# broken stage.
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

echo "==> bench verify (plan lint, layout, determinism, model check + linearizability, fault sweep + lock record, module size + lint wiring, perf smoke, cache coherence)"
# Bare: the suite has no modes, so this is the run every other caller
# makes (tests/verify_smoke.rs repeats it under `cargo test`). perf-smoke
# requires deterministic work counters to equal its tables exactly (host
# time is benchmark/'s job):
# an intentional engine change pastes the fresh table the failure message
# prints into crates/verify/src/perf_smoke.rs.
cargo run --release -p bench -- verify

echo "==> loc (Rust lines per crate; informational, never fails)"
sh scripts/loc.sh || true

echo "ci.sh: all gates passed"
