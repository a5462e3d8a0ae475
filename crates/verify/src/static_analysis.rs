//! Pass 6 — module size and lint wiring: tier-1 runs no clippy, so of the static rules (DESIGN
//! "Static analysis") it checks the line cap and that the lints' configuration is still in place.

use crate::report::PassReport;
use std::path::{Path, PathBuf};

/// Production modules may not exceed this many lines.
const MODULE_LINE_CAP: usize = 450;

/// Files that predate the cap, by exact workspace-relative path; the list only shrinks.
const GRANDFATHERED: [&str; 1] = ["sim-core/src/explore.rs"];

/// The switches the lints hang on, as (file relative to `crates/`, text it must keep). No `#[expect]`
/// vouches for a lint level: an expectation raises its own lint whatever the crate or workspace says.
const WIRING: [(&str, &[&str]); 5] = [
    ("../clippy.toml", &["Instant::now\"", "::SystemTime\"", "RandomState\"", "HashMap::iter\""]),
    ("../Cargo.toml", &["unwrap_used =", "hash_type =", "allow_attributes =", "without_reason ="]),
    ("sim-core/src/lib.rs", &["(clippy::expect_used)", "(clippy::wildcard_enum_match_arm)"]),
    ("cdd/src/lib.rs", &["(clippy::expect_used)", "(clippy::wildcard_enum_match_arm)"]),
    ("core/src/lib.rs", &["(clippy::wildcard_enum_match_arm)"]),
];

/// The tree's one `disallowed_types` expectation: without the `SystemTime` ban clippy rejects it.
#[expect(clippy::disallowed_types, reason = "lint canary: the SystemTime ban must stay configured")]
const _: Option<std::time::SystemTime> = None;

/// Failure detail when `text` at workspace-relative `rel` is over the cap and not grandfathered.
fn oversized(rel: &str, text: &str) -> Option<String> {
    let n = text.lines().count();
    (n > MODULE_LINE_CAP && !GRANDFATHERED.contains(&rel))
        .then(|| format!("{rel} is {n} lines (cap {MODULE_LINE_CAP})"))
}

/// A private lint table drifts from the workspace's and misses every lint added there.
fn inherits_workspace_lints(manifest: &str) -> bool {
    manifest.contains("[lints]\nworkspace = true")
}

/// Every file under `dir` in path order; an unreadable directory reads as empty.
fn walk(dir: &Path) -> Vec<PathBuf> {
    let mut paths: Vec<_> =
        std::fs::read_dir(dir).into_iter().flatten().flatten().map(|e| e.path()).collect();
    paths.sort();
    paths.into_iter().flat_map(|p| if p.is_dir() { walk(&p) } else { vec![p] }).collect()
}

/// Run the pass over the workspace whose member crates live in `crates_dir`.
pub fn run_pass(crates_dir: &Path) -> PassReport {
    let mut report = PassReport::new("static-analysis");
    let read = |p: &Path| std::fs::read_to_string(p).unwrap_or_default();
    for p in walk(crates_dir) {
        let rel = p.strip_prefix(crates_dir).unwrap_or(&p).to_string_lossy();
        let (text, top) = (read(&p), rel.split('/').nth(1));
        if top == Some("Cargo.toml") {
            report.push("lint-wiring", inherits_workspace_lints(&text), format!("{rel} inherits"));
        } else if top == Some("src") && rel.ends_with(".rs") {
            if let Some(detail) = oversized(&rel, &text) {
                report.fail("module-size", detail);
            }
            if text.contains(concat!("lint-", "ok(")) {
                report.fail("lint-wiring", format!("{rel}: comment ack, not #[expect(clippy::…)]"));
            }
        }
    }
    for path in GRANDFATHERED {
        let n = read(&crates_dir.join(path)).lines().count();
        report.push(format!("grandfathered {path}"), n > MODULE_LINE_CAP, format!("{n} lines"));
    }
    for (file, needles) in WIRING {
        let (text, name) = (read(&crates_dir.join(file)), format!("lint-wiring {file}"));
        let gone: Vec<_> = needles.iter().filter(|n| !text.contains(**n)).collect();
        report.push(name, gone.is_empty(), format!("{} switches, gone: {gone:?}", needles.len()));
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    #[test]
    fn oversized_module_and_private_lint_table_are_flagged() {
        let big = "// filler\n".repeat(MODULE_LINE_CAP + 1);
        assert!(oversized("cdd/src/fresh.rs", &big).is_some());
        assert!(oversized("sim-core/src/explore.rs", &big).is_none(), "grandfathered");
        assert!(!inherits_workspace_lints("[package]\n\n[lints.clippy]\nunwrap_used = \"warn\"\n"));
    }
}
