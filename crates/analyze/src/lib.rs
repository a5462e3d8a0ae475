#![warn(missing_docs)]
//! raidx-analyze — parser-based whole-workspace static analysis.
//!
//! Dependency-free lexer + item-level parser over the workspace's Rust
//! sources, plus the three rule families run by verify pass 11
//! (`static-analysis`):
//!
//! 1. `determinism` — scope-aware nondeterminism hazards (clock/entropy
//!    calls, unordered HashMap/HashSet iteration tracked through
//!    bindings), with item-granular `#[cfg(test)]` skipping.
//! 2. `wildcard-match` — `_` / binding-wildcard arms are banned in
//!    matches over safety-critical enums (`IoError`, `FaultEvent`,
//!    `TracePoint`, `ReadSource`).
//! 3. Hygiene gates — `module-size` (≤450-line cap with grandfathered
//!    files), `no-unwrap` (`unwrap`/`expect` outside tests in
//!    sim-core/cdd). Undocumented `pub` items are left to rustc's
//!    `missing_docs` lint, which every crate enables.
//!
//! Invariants a type can hold are not rules here: a lock-group grant
//! cannot leak because `cdd` code can only take one through
//! `IoSystem::with_grant`, and a fault trigger cannot name a point nobody
//! announces because `sim_core::FaultPlan` keys triggers by op index.
//!
//! Findings are acknowledged in source with a trailing
//! `lint-ok(<rule>): reason` comment on the finding line or the line
//! above — one syntax for every rule. Unused acknowledgements are
//! themselves findings (`stale-ack`).

pub mod determinism;
pub mod hygiene;
pub mod lexer;
pub mod matchexpr;
pub mod parser;
pub mod wildcard;

use std::fs;
use std::io;
use std::path::Path;

/// One static-analysis finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule family identifier (stable, kebab-case).
    pub rule: &'static str,
    /// Workspace-relative file label.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
    /// Suppressed by an in-source acknowledgement comment.
    pub acknowledged: bool,
}

impl Finding {
    /// Render as `rule file:line message`.
    pub fn render(&self) -> String {
        format!("[{}] {}:{} {}", self.rule, self.file, self.line, self.message)
    }
}

/// An in-memory source file handed to [`analyze_files`].
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Workspace-relative label, e.g. `cdd/src/system.rs`.
    pub path: String,
    /// Full file text.
    pub text: String,
}

impl SourceFile {
    /// Convenience constructor.
    pub fn new(path: impl Into<String>, text: impl Into<String>) -> Self {
        Self { path: path.into(), text: text.into() }
    }
}

/// A lexed + parsed source file, shared across rule families.
pub struct ParsedFile {
    /// Workspace-relative label.
    pub path: String,
    /// Token stream + line views.
    pub lex: lexer::FileLex,
    /// Item tree.
    pub items: Vec<parser::Item>,
    /// 1-based line spans under `#[cfg(test)]`.
    pub test_spans: Vec<(usize, usize)>,
}

impl ParsedFile {
    fn parse(sf: &SourceFile) -> Self {
        let lex = lexer::lex(&sf.text);
        let items = parser::parse_items(&lex);
        let test_spans = parser::test_line_spans(&items);
        Self { path: sf.path.clone(), lex, items, test_spans }
    }

    /// Is `line` inside a `#[cfg(test)]` item?
    pub fn in_test(&self, line: usize) -> bool {
        parser::in_spans(&self.test_spans, line)
    }
}

// The ack marker is assembled from pieces so the analyzer never flags
// its own definition.
const LINT_OK: &str = concat!("lint", "-ok(");

/// Rules acknowledged by a `lint-ok(<rule>): …` comment covering `line`
/// (the marker suppresses findings on its own line and the next line).
fn acks_covering(pf: &ParsedFile, line: usize) -> Vec<String> {
    let mut out = Vec::new();
    for probe in [line, line.saturating_sub(1)] {
        if probe == 0 {
            continue;
        }
        let Some(view) = pf.lex.lines.get(probe - 1) else { continue };
        if view.doc {
            continue; // doc comments mentioning the marker are not acks
        }
        if let Some(comment) = view.comment.as_deref() {
            let mut rest = comment;
            while let Some(pos) = rest.find(LINT_OK) {
                rest = &rest[pos + LINT_OK.len()..];
                if let Some(close) = rest.find(')') {
                    out.push(rest[..close].trim().to_string());
                    rest = &rest[close..];
                }
            }
        }
    }
    out
}

/// Apply `lint-ok` acknowledgements: mark matching findings, and emit a
/// stale-ack finding for every marker that suppressed nothing.
fn apply_acks(files: &[ParsedFile], findings: &mut Vec<Finding>) {
    for f in findings.iter_mut() {
        if let Some(pf) = files.iter().find(|p| p.path == f.file) {
            if acks_covering(pf, f.line).iter().any(|r| r == f.rule) {
                f.acknowledged = true;
            }
        }
    }
    // Stale markers: a lint-ok whose (rule, covered lines) matched no
    // finding is itself a defect — it hides nothing and rots.
    let mut stale = Vec::new();
    for pf in files {
        for (idx, view) in pf.lex.lines.iter().enumerate() {
            let line = idx + 1;
            if !view.comment.as_deref().is_some_and(|c| c.contains(LINT_OK)) {
                continue;
            }
            for rule in acks_covering(pf, line) {
                // This marker covers `line` and `line + 1`.
                let used = findings.iter().any(|f| {
                    f.file == pf.path
                        && f.rule == rule
                        && f.acknowledged
                        && (f.line == line || f.line == line + 1)
                });
                if !used {
                    stale.push(Finding {
                        rule: "stale-ack",
                        file: pf.path.clone(),
                        line,
                        message: format!("{LINT_OK}{rule}) acknowledges nothing here"),
                        acknowledged: false,
                    });
                }
            }
        }
    }
    findings.extend(stale);
}

/// Run every rule family over the given in-memory files.
pub fn analyze_files(files: &[SourceFile]) -> Vec<Finding> {
    let parsed: Vec<ParsedFile> = files.iter().map(ParsedFile::parse).collect();
    let mut findings = Vec::new();
    for pf in &parsed {
        findings.extend(determinism::scan(pf));
        findings.extend(wildcard::scan(pf));
        findings.extend(hygiene::scan(pf));
    }
    apply_acks(&parsed, &mut findings);
    findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    findings
}

/// Should this directory be skipped? The walk covers production `src/`
/// trees only.
fn skip_dir(name: &str) -> bool {
    matches!(name, "target" | "tests" | "benches" | ".git" | "results")
}

/// Collect every production `.rs` file under `root` (the `crates/`
/// directory), labelled relative to it.
pub fn collect_sources(root: &Path) -> io::Result<Vec<SourceFile>> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let mut entries: Vec<_> =
            fs::read_dir(&dir)?.collect::<Result<Vec<_>, _>>()?.into_iter().collect();
        entries.sort_by_key(|e| e.file_name());
        for entry in entries {
            let path = entry.path();
            let name = entry.file_name().to_string_lossy().into_owned();
            if path.is_dir() {
                if !skip_dir(&name) {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                let label =
                    path.strip_prefix(root).unwrap_or(&path).to_string_lossy().replace('\\', "/");
                out.push(SourceFile { path: label, text: fs::read_to_string(&path)? });
            }
        }
    }
    out.sort_by(|a, b| a.path.cmp(&b.path));
    Ok(out)
}

/// Analyze every production source file under `root` (the workspace's
/// `crates/` directory).
pub fn analyze_workspace(root: &Path) -> io::Result<Vec<Finding>> {
    Ok(analyze_files(&collect_sources(root)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lint_ok_ack_suppresses_and_stale_ack_flags() {
        // Planted unwrap and wall-clock read in a non-test sim-core file,
        // each acknowledged under its own rule by the one marker syntax.
        let acked = SourceFile::new(
            "sim-core/src/canary.rs",
            "pub fn f(v: Option<u32>) -> u32 {\n    \
             // lint-ok(determinism): canary\n    let t = Instant::now();\n    \
             v.unwrap() // lint-ok(no-unwrap): canary\n}\n",
        );
        let findings = analyze_files(&[acked]);
        for rule in ["no-unwrap", "determinism"] {
            let hits: Vec<_> = findings.iter().filter(|f| f.rule == rule).collect();
            assert_eq!(hits.len(), 1, "{rule}: {findings:?}");
            assert!(hits[0].acknowledged, "{rule}");
        }
        assert!(!findings.iter().any(|f| f.rule == "stale-ack"));

        // A marker that covers nothing is flagged as stale.
        let stale = SourceFile::new(
            "sim-core/src/canary.rs",
            "// lint-ok(no-unwrap): nothing here\npub fn f() {}\n",
        );
        let findings = analyze_files(&[stale]);
        assert!(findings.iter().any(|f| f.rule == "stale-ack" && !f.acknowledged));
    }
}
