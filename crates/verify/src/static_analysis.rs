//! Module size and lint wiring: tier-1 runs no clippy, so of the static rules (DESIGN "Static
//! analysis") these tests check the line cap and that the lints' configuration is still in place.

/// The tree's one `disallowed_types` expectation: without the `SystemTime` ban clippy rejects it.
#[expect(clippy::disallowed_types, reason = "lint canary: the SystemTime ban must stay configured")]
const _: Option<std::time::SystemTime> = None;

#[cfg(test)]
mod tests {
    use std::path::{Path, PathBuf};

    /// Production modules may not exceed this many lines.
    const MODULE_LINE_CAP: usize = 450;

    /// The switches the lints hang on, as (file relative to `crates/`, text it must keep). No
    /// `#[expect]` vouches for a lint level: an expectation raises its own lint whatever the crate
    /// or workspace says.
    const WIRING: [(&str, &[&str]); 5] = [
        (
            "../clippy.toml",
            &["Instant::now\"", "::SystemTime\"", "RandomState\"", "HashMap::iter\""],
        ),
        (
            "../Cargo.toml",
            &["unwrap_used =", "hash_type =", "allow_attributes =", "without_reason ="],
        ),
        ("sim-core/src/lib.rs", &["(clippy::expect_used)", "(clippy::wildcard_enum_match_arm)"]),
        ("cdd/src/lib.rs", &["(clippy::expect_used)", "(clippy::wildcard_enum_match_arm)"]),
        ("core/src/lib.rs", &["(clippy::wildcard_enum_match_arm)"]),
    ];

    /// Failure detail when `text` at workspace-relative `rel` is over the cap.
    fn oversized(rel: &str, text: &str) -> Option<String> {
        let n = text.lines().count();
        (n > MODULE_LINE_CAP).then(|| format!("{rel} is {n} lines (cap {MODULE_LINE_CAP})"))
    }

    /// A private lint table drifts from the workspace's and misses every lint added there.
    fn inherits_workspace_lints(manifest: &str) -> bool {
        manifest.contains("[lints]\nworkspace = true")
    }

    /// `crates/`, where the workspace's member crates live.
    fn crates_dir() -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
    }

    fn read(p: &Path) -> String {
        std::fs::read_to_string(p).unwrap_or_default()
    }

    /// Every file under `crates/` whose path below its crate (e.g. `src/lib.rs`) satisfies `keep`,
    /// in path order, with its path relative to `crates/`; an unreadable directory reads as empty.
    fn walk(keep: impl Fn(&str) -> bool) -> Vec<(String, PathBuf)> {
        fn all(dir: &Path) -> Vec<PathBuf> {
            let mut paths: Vec<_> =
                std::fs::read_dir(dir).into_iter().flatten().flatten().map(|e| e.path()).collect();
            paths.sort();
            paths.into_iter().flat_map(|p| if p.is_dir() { all(&p) } else { vec![p] }).collect()
        }
        let root = crates_dir();
        let rel = |p: &Path| p.strip_prefix(&root).unwrap_or(p).to_string_lossy().into_owned();
        let below_crate = |rel: &str| rel.split_once('/').map_or(String::new(), |(_, r)| r.into());
        all(&root)
            .into_iter()
            .map(|p| (rel(&p), p))
            .filter(|(r, _)| keep(&below_crate(r)))
            .collect()
    }

    #[test]
    fn every_module_is_under_the_line_cap() {
        let sources = walk(|p| p.starts_with("src/") && p.ends_with(".rs"));
        assert!(!sources.is_empty(), "the walk found no module");
        let over: Vec<_> = sources.iter().filter_map(|(rel, p)| oversized(rel, &read(p))).collect();
        assert!(over.is_empty(), "{over:#?}");
    }

    #[test]
    fn every_crate_inherits_the_workspace_lints() {
        let manifests = walk(|p| p == "Cargo.toml");
        assert!(!manifests.is_empty(), "the walk found no manifest");
        let private: Vec<_> =
            manifests.iter().filter(|(_, p)| !inherits_workspace_lints(&read(p))).collect();
        assert!(private.is_empty(), "no `[lints] workspace = true`: {private:?}");
    }

    #[test]
    fn the_lint_switches_and_bans_are_still_spelled_out() {
        for (file, needles) in WIRING {
            let text = read(&crates_dir().join(file));
            let gone: Vec<_> = needles.iter().filter(|n| !text.contains(**n)).collect();
            assert!(gone.is_empty(), "{file}: gone {gone:?}");
        }
        let comment_acks: Vec<_> = walk(|p| p.starts_with("src/") && p.ends_with(".rs"))
            .into_iter()
            .filter(|(_, p)| read(p).contains(concat!("lint-", "ok(")))
            .map(|(rel, _)| rel)
            .collect();
        assert!(
            comment_acks.is_empty(),
            "comment acks, not #[expect(clippy::…)]: {comment_acks:?}"
        );
    }

    #[test]
    fn oversized_module_and_private_lint_table_are_flagged() {
        let big = "// filler\n".repeat(MODULE_LINE_CAP + 1);
        assert!(oversized("cdd/src/fresh.rs", &big).is_some());
        assert!(oversized("cdd/src/fresh.rs", &big[10..]).is_none(), "exactly at the cap");
        assert!(!inherits_workspace_lints("[package]\n\n[lints.clippy]\nunwrap_used = \"warn\"\n"));
    }
}
