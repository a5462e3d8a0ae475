#!/usr/bin/env sh
# Rust lines per crate under crates/: total (every .rs file, tests and
# bins included) and non-test (each src/**/*.rs up to, not including, its
# first `#[cfg(test)]` line; an out-of-line `tests.rs` module counts as
# test). The figure the ROADMAP preamble's line
# target and CHANGES.md track. Informational: always exits 0. Run from the
# repository root.
printf '%-12s %8s %9s\n' crate total non-test
all_total=0
all_prod=0
for dir in crates/*/; do
    total=$(find "$dir" -name '*.rs' -exec cat {} + | wc -l)
    prod=$(find "${dir}src" -name '*.rs' ! -name tests.rs -exec awk '
        FNR == 1 { live = 1 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { live = 0 }
        live { n++ }
        END { print n + 0 }' {} +)
    printf '%-12s %8d %9d\n' "$(basename "$dir")" "$total" "$prod"
    all_total=$((all_total + total))
    all_prod=$((all_prod + prod))
done
printf '%-12s %8d %9d\n' total "$all_total" "$all_prod"
