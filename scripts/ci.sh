#!/usr/bin/env sh
# Full local CI gate: formatting, lints, the whole test suite, and the
# raidx-verify static-analysis passes. Run from the repository root.
# Fails fast on the first broken stage.
set -eu

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy (all targets, warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo test (workspace)"
cargo test --workspace -q

echo "==> trace_dump --smoke (trace/metrics export self-check)"
cargo run --release -p bench --bin trace_dump -- --smoke

echo "==> race-detect --smoke (happens-before race + commutativity audit)"
# Dedicated stage so a race regression names itself in the CI log
# instead of hiding inside the combined verify_all run below.
cargo run --release -p bench --bin verify_all -- --pass race-detect --smoke

echo "==> static-analysis (raidx-analyze parser rules + planted canaries)"
# Dedicated stage for the same reason: a new unacknowledged finding
# should name the offending rule family in the CI log directly.
cargo run --release -p bench --bin verify_all -- --pass static-analysis --smoke

echo "==> reconfig (epoch transitions: stale-epoch admission + reads vs model mid-rebalance)"
# Dedicated stage so a membership/rebalance regression names itself in
# the CI log; the fault-sweep reconfiguration cells also run in the
# combined verify_all stage below.
cargo test -q -p cdd --test reconfig

echo "==> cache (client block-cache edge cases + coherence gate)"
# Dedicated stage so a cache-coherence regression (stale read, missed
# invalidation, broken transparency) names itself in the CI log; the
# full pass also runs in the combined verify_all stage below.
cargo test -q -p cdd --test cache
cargo run --release -p bench --bin verify_all -- --pass cache-coherence --budget 20000

echo "==> perf-smoke (engine work counters vs the in-code baseline tables)"
# Gates deterministic work counters only; host time is benchmark/'s job.
# An intentional engine change pastes the fresh table the failure
# message prints into crates/verify/src/perf_smoke.rs.
cargo run --release -p bench --bin verify_all -- --pass perf-smoke

echo "==> golden (simulated results byte-identical to the committed files)"
# all_experiments prints every table and rewrites results/fig5.csv and
# fig6.csv; an intentional change of a simulated number regenerates all
# three (EXPERIMENTS.md) in the same PR.
cargo run --release -p bench --bin all_experiments | cmp - results/all_experiments.md
git diff --exit-code -- results/fig5.csv results/fig6.csv

echo "==> benchmark (own workspace: build, smoke run, parity + manifest tests)"
# benchmark/ is invisible to `cargo test --workspace`; without this stage
# a public-API change under crates/ can break it unnoticed.
bash benchmark/run.sh --smoke
cargo test --release -q --manifest-path benchmark/Cargo.toml

echo "==> verify_all (plan lint, lock order, layout, determinism, model check, linearizability, crash consistency, trace determinism, fault sweep, race detect, static analysis, perf smoke, cache coherence)"
# --budget bounds schedules explored per model-checking scenario and
# --smoke shrinks the fault-injection sweep to its CI subset, so the
# gate stays fast even as scenarios grow.
cargo run --release -p bench --bin verify_all -- --budget 20000 --smoke

echo "ci.sh: all gates passed"
