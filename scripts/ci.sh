#!/usr/bin/env sh
# Full local CI gate: formatting, lints, rustdoc, the whole workspace test suite
# (the raidx-verify checks included), the trace-export self-check, the
# golden simulated results, the examples, the benchmark package and the
# mutation table (every tests/mutants/*.patch must fail some test). Each
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

echo "==> mutants (every tests/mutants/*.patch must fail the tier-1 tests)"
# Each patch plants one single-hunk defect (DESIGN §7, "Mutation
# table"). HEAD is exported once into one scratch tree (`git archive`,
# so no worktree is registered in .git) and every mutant builds into one
# target directory, both under target/mutants, so each mutant rebuilds
# only what its patch touched. Per mutant: apply the patch, run the test
# half of tier-1 (the release build kills no mutant that compiles), print
# the tests that failed, revert. A patch that no longer applies, a mutant
# that does not compile and a mutant no test kills all fail the stage.
scratch=$PWD/target/mutants
rm -rf "$scratch/tree"
mkdir -p "$scratch/tree"
git archive HEAD | tar -x -C "$scratch/tree"
survivors=0
for patch in "$PWD"/tests/mutants/*.patch; do
    name=$(basename "$patch" .patch)
    if ! patch -d "$scratch/tree" -p1 -F0 -s < "$patch"; then
        echo "mutant $name: the patch no longer applies"
        exit 1
    fi
    log=$scratch/$name.log
    (cd "$scratch/tree" && CARGO_TARGET_DIR=$scratch/target \
        cargo test --no-fail-fast > "$log" 2>&1) || true
    patch -d "$scratch/tree" -p1 -R -s < "$patch"
    if grep -q '^error: could not compile' "$log"; then
        echo "mutant $name: does not compile (see $log)"
        exit 1
    fi
    # `Running <target> (target/debug/deps/<name>-<hash>)` opens each
    # test binary's output; a failed test prints `test <path> ... FAILED`.
    killers=$(awk '
        /^ *Running / { bin = $NF; sub(/.*\//, "", bin); sub(/-[0-9a-f]+\)$/, "", bin) }
        /^ *Doc-tests / { bin = $2 "(doc)" }
        / \.\.\. FAILED$/ { print "    " bin "::" $2 }' "$log")
    if [ -n "$killers" ]; then
        echo "mutant $name: killed by"
        echo "$killers"
    elif grep -q '^error: .*test failed' "$log"; then
        echo "mutant $name: killed (a test binary aborted; see $log)"
    else
        echo "mutant $name: SURVIVED"
        survivors=$((survivors + 1))
    fi
done
if [ "$survivors" -ne 0 ]; then
    echo "mutants: $survivors survived"
    exit 1
fi

echo "==> loc (Rust lines per crate; informational, never fails)"
sh scripts/loc.sh || true

echo "ci.sh: all gates passed"
