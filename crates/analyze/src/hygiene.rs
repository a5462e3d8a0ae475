//! Rule family 5 — hygiene gates.
//!
//! Two small gates that keep the tree navigable:
//!
//! * `module-size` — production modules stay ≤ 450 lines (the PR-4
//!   cap); the files that predate the cap are grandfathered by exact
//!   path and may not grow new peers;
//! * `no-unwrap` — `unwrap()` / `expect()` outside `#[cfg(test)]` in
//!   the simulation core and the CDD data plane (`sim-core/`, `cdd/`),
//!   where a panic tears down the whole deterministic run; intentional
//!   invariant panics are acknowledged with `lint-ok(no-unwrap):`.
//!
//! Undocumented `pub` items are rustc's job: every crate carries
//! `#![warn(missing_docs)]` and CI runs clippy with `-D warnings`.

use crate::lexer::TokKind;
use crate::{Finding, ParsedFile};

/// Stable rule id for the module-size gate.
pub const RULE_SIZE: &str = "module-size";
/// Stable rule id for the unwrap/expect gate.
pub const RULE_UNWRAP: &str = "no-unwrap";

/// Production modules may not exceed this many lines.
pub const MODULE_LINE_CAP: usize = 450;

/// Files that predate the cap. Exact workspace-relative paths; nothing
/// may be added here without shrinking something else.
pub const GRANDFATHERED: [&str; 6] = [
    "sim-core/src/hb.rs",
    "sim-core/src/explore.rs",
    "sim-core/src/trace.rs",
    "sim-core/src/export.rs",
    "sim-core/src/metrics.rs",
    "cfs/src/fs.rs",
];

/// Crates whose non-test code may not `unwrap()`/`expect()`.
const NO_UNWRAP_PREFIXES: [&str; 2] = ["sim-core/", "cdd/"];

fn module_size(pf: &ParsedFile, out: &mut Vec<Finding>) {
    let lines = pf.lex.lines.len();
    if lines > MODULE_LINE_CAP && !GRANDFATHERED.contains(&pf.path.as_str()) {
        out.push(Finding {
            rule: RULE_SIZE,
            file: pf.path.clone(),
            line: 1,
            message: format!(
                "module is {lines} lines (cap {MODULE_LINE_CAP}); split it or shrink it — the \
                 grandfather list is closed"
            ),
            acknowledged: false,
        });
    }
}

fn no_unwrap(pf: &ParsedFile, out: &mut Vec<Finding>) {
    if !NO_UNWRAP_PREFIXES.iter().any(|p| pf.path.starts_with(p)) {
        return;
    }
    let toks = &pf.lex.tokens;
    for i in 0..toks.len() {
        let t = &toks[i];
        let call = t.kind == TokKind::Ident
            && (t.is_ident("unwrap") || t.is_ident("expect"))
            && i > 0
            && toks[i - 1].is_punct('.')
            && toks.get(i + 1).is_some_and(|n| n.is_punct('('));
        if call && !pf.in_test(t.line) {
            out.push(Finding {
                rule: RULE_UNWRAP,
                file: pf.path.clone(),
                line: t.line,
                message: format!(
                    "`.{}()` outside #[cfg(test)] — return an error or acknowledge the invariant",
                    t.text
                ),
                acknowledged: false,
            });
        }
    }
}

/// Run both hygiene gates over one parsed file.
pub fn scan(pf: &ParsedFile) -> Vec<Finding> {
    let mut out = Vec::new();
    module_size(pf, &mut out);
    no_unwrap(pf, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SourceFile;

    fn scan_path(path: &str, src: &str) -> Vec<Finding> {
        scan(&ParsedFile::parse(&SourceFile::new(path, src)))
    }

    #[test]
    fn oversized_module_flagged_unless_grandfathered() {
        let big = "// filler\n".repeat(MODULE_LINE_CAP + 1);
        let f = scan_path("cdd/src/fresh.rs", &big);
        assert!(f.iter().any(|x| x.rule == RULE_SIZE), "{f:?}");
        let g = scan_path("cfs/src/fs.rs", &big);
        assert!(!g.iter().any(|x| x.rule == RULE_SIZE), "{g:?}");
    }

    #[test]
    fn unwrap_flagged_in_core_crates_only_outside_tests() {
        let src = "\
fn f(v: Option<u32>) -> u32 { v.unwrap() }
#[cfg(test)]
mod tests {
    fn t(v: Option<u32>) -> u32 { v.expect(\"msg\") }
}
";
        let f = scan_path("sim-core/src/x.rs", src);
        assert_eq!(f.iter().filter(|x| x.rule == RULE_UNWRAP).count(), 1, "{f:?}");
        // Outside sim-core/cdd the gate does not apply.
        assert!(scan_path("bench/src/x.rs", src).iter().all(|x| x.rule != RULE_UNWRAP));
    }
}
