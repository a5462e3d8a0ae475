//! Rule family 5 — hygiene gates.
//!
//! Three small gates that keep the tree navigable:
//!
//! * `module-size` — production modules stay ≤ 450 lines (the PR-4
//!   cap); the files that predate the cap are grandfathered by exact
//!   path and may not grow new peers;
//! * `no-unwrap` — `unwrap()` / `expect()` outside `#[cfg(test)]` in
//!   the simulation core and the CDD data plane (`sim-core/`, `cdd/`),
//!   where a panic tears down the whole deterministic run; intentional
//!   invariant panics are acknowledged with `lint-ok(no-unwrap):`;
//! * `missing-docs` — publicly reachable `pub` items without a doc
//!   comment (trait-impl members excluded, mirroring rustc's
//!   `missing_docs` reachability rules).

use crate::lexer::TokKind;
use crate::parser::{Item, ItemKind};
use crate::{Finding, ParsedFile};

/// Stable rule id for the module-size gate.
pub const RULE_SIZE: &str = "module-size";
/// Stable rule id for the unwrap/expect gate.
pub const RULE_UNWRAP: &str = "no-unwrap";
/// Stable rule id for the pub-docs gate.
pub const RULE_DOCS: &str = "missing-docs";

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

/// Names of `pub` structs/enums/traits declared at reachable positions,
/// so inherent-impl members can inherit their visibility.
fn pub_type_names(items: &[Item], reachable: bool, out: &mut Vec<String>) {
    for it in items {
        let here = reachable && it.vis_pub;
        if here && matches!(it.kind, ItemKind::Struct | ItemKind::Enum | ItemKind::Trait) {
            out.push(it.name.clone());
        }
        if it.kind == ItemKind::Mod {
            pub_type_names(&it.children, here, out);
        }
    }
}

fn missing_docs_walk(
    pf: &ParsedFile,
    items: &[Item],
    reachable: bool,
    pub_types: &[String],
    out: &mut Vec<Finding>,
) {
    for it in items {
        if it.cfg_test {
            continue;
        }
        match it.kind {
            ItemKind::Mod => {
                let here = reachable && it.vis_pub;
                // `pub mod name;` declarations carry their docs as `//!`
                // inside the module file — only inline bodies need docs.
                if it.body.is_some() {
                    flag_if_undocumented(pf, it, reachable, out);
                }
                missing_docs_walk(pf, &it.children, here, pub_types, out);
            }
            ItemKind::Impl => {
                // Trait impls never need docs; inherent impls surface
                // their members iff the self type is pub here.
                if !it.impl_for_trait {
                    let type_pub = pub_types.iter().any(|n| n == &it.name);
                    missing_docs_walk(pf, &it.children, reachable && type_pub, pub_types, out);
                }
            }
            ItemKind::Trait => {
                flag_if_undocumented(pf, it, reachable, out);
                missing_docs_walk(pf, &it.children, reachable && it.vis_pub, pub_types, out);
            }
            ItemKind::Use | ItemKind::Macro => {}
            _ => flag_if_undocumented(pf, it, reachable, out),
        }
    }
}

fn flag_if_undocumented(pf: &ParsedFile, it: &Item, reachable: bool, out: &mut Vec<Finding>) {
    if reachable && it.vis_pub && !it.has_doc && !it.name.is_empty() {
        out.push(Finding {
            rule: RULE_DOCS,
            file: pf.path.clone(),
            line: it.line,
            message: format!("pub {:?} `{}` has no doc comment", it.kind, it.name),
            acknowledged: false,
        });
    }
}

/// Run all three hygiene gates over one parsed file.
pub fn scan(pf: &ParsedFile) -> Vec<Finding> {
    let mut out = Vec::new();
    module_size(pf, &mut out);
    no_unwrap(pf, &mut out);
    let mut pub_types = Vec::new();
    pub_type_names(&pf.items, true, &mut pub_types);
    missing_docs_walk(pf, &pf.items, true, &pub_types, &mut out);
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

    #[test]
    fn missing_docs_on_reachable_pub_items_only() {
        let src = "\
/// Documented.
pub fn fine() {}
pub fn bare() {}
mod private {
    pub fn hidden() {}
}
/// A type.
pub struct S;
impl S {
    pub fn method(&self) {}
}
impl std::fmt::Display for S {
    fn fmt(&self) {}
}
";
        let f = scan_path("cdd/src/x.rs", src);
        let docs: Vec<_> = f.iter().filter(|x| x.rule == RULE_DOCS).collect();
        // `bare` and the undocumented inherent method on pub S; the pub
        // fn inside a private mod and the Display impl member are not
        // reachable surface.
        assert_eq!(docs.len(), 2, "{docs:?}");
        assert!(docs.iter().any(|x| x.message.contains("`bare`")));
        assert!(docs.iter().any(|x| x.message.contains("`method`")));
    }
}
