#!/usr/bin/env sh
# Full local CI gate: formatting, lints, rustdoc, the whole workspace test suite
# (the raidx-verify checks included), the trace-export self-check, the
# golden simulated results, the examples and the benchmark package. Each
# check runs once: a failing test names itself in `cargo test` output, so
# no test file has a stage of its own. Run from the repository root. Fails fast on
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

echo "==> cargo clippy (benchmark/, warnings are errors)"
# benchmark/ is its own workspace, so the stage above never lints it.
# Same clippy.toml, one lint allowed: disallowed_methods, which carries
# the wall-clock ban (`Instant::now`) that the host-timing benchmark
# exists to break. The stage only reads benchmark/.
cargo clippy --manifest-path benchmark/Cargo.toml --all-targets -- -D warnings \
    -A clippy::disallowed_methods

echo "==> cargo doc (rustdoc warnings are errors, private items included)"
# A dangling intra-doc link, or a public doc linking a crate-private item,
# fails here; neither the compiler, clippy nor the tests report it.
# Private items are documented too, so the links inside crate-private
# modules are checked as well.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --document-private-items

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

echo "==> examples (each must run to a zero exit)"
# clippy compiles the examples but nothing else runs them: a panic at
# run time surfaces only here.
cargo build --release --examples
for src in examples/*.rs; do
    name=$(basename "$src" .rs)
    echo "--> $name"
    cargo run --release --quiet --example "$name" > /dev/null
done

echo "==> benchmark (own workspace: build, smoke run, parity + manifest tests)"
# benchmark/ is invisible to `cargo test --workspace`; without this stage
# a public-API change under crates/ can break it unnoticed.
bash benchmark/run.sh --smoke
cargo test --release -q --manifest-path benchmark/Cargo.toml

echo "==> loc (Rust lines per crate; informational, never fails)"
sh scripts/loc.sh || true

echo "ci.sh: all gates passed"
