//! Pass 11 — parser-based whole-workspace static analysis.
//!
//! Drives [`raidx_analyze`] over every production source file under
//! `crates/` and reports each finding as a spanned check: acknowledged
//! findings pass (and carry `acknowledged: true` into the `--json`
//! output), unacknowledged findings fail the pass. Three rule families
//! run (see the analyzer crate docs): scope-aware determinism hazards,
//! the wildcard-match ban on safety-critical enums, and the hygiene
//! gates (module size, `unwrap`/`expect`).
//!
//! In the house style of passes 2–10, the pass first proves each family
//! can still detect a planted defect: every canary snippet below is
//! analyzed in memory and must produce its expected finding.

use crate::report::PassReport;
use raidx_analyze::{analyze_files, analyze_workspace, Finding, SourceFile};
use std::path::Path;

/// The rule families the pass summarizes, in report order.
const FAMILIES: [&str; 5] =
    ["determinism", "wildcard-match", "module-size", "no-unwrap", "stale-ack"];

/// One planted-defect canary: analyzing `file` must yield a finding of
/// `rule`.
struct Canary {
    name: &'static str,
    rule: &'static str,
    file: SourceFile,
}

fn canaries() -> Vec<Canary> {
    let wall_clock = "fn f() -> u64 {\n    let t = Instant::now();\n    t.as_nanos()\n}\n";
    let wild = "fn f(e: IoError) -> u32 {\n    match e {\n        IoError::DataLoss { lb } => \
                lb as u32,\n        _ => 0,\n    }\n}\n";
    let unwrap = "pub fn f(v: Option<u32>) -> u32 {\n    v.unwrap()\n}\n";
    let oversized = "// filler\n".repeat(raidx_analyze::hygiene::MODULE_LINE_CAP + 1);
    vec![
        Canary {
            name: "canary: determinism wall clock",
            rule: "determinism",
            file: SourceFile::new("sim-core/src/canary.rs", wall_clock),
        },
        Canary {
            name: "canary: wildcard arm over IoError",
            rule: "wildcard-match",
            file: SourceFile::new("cdd/src/canary.rs", wild),
        },
        Canary {
            name: "canary: unwrap outside tests",
            rule: "no-unwrap",
            file: SourceFile::new("sim-core/src/canary.rs", unwrap),
        },
        Canary {
            name: "canary: oversized module",
            rule: "module-size",
            file: SourceFile::new("cdd/src/canary.rs", &oversized),
        },
    ]
}

fn run_canaries(report: &mut PassReport) {
    for c in canaries() {
        let findings = analyze_files(&[c.file]);
        let hits = findings.iter().filter(|f| f.rule == c.rule && !f.acknowledged).count();
        report.push(
            c.name,
            hits > 0,
            format!("planted defect detected by `{}` ({hits} findings)", c.rule),
        );
    }
}

fn report_findings(report: &mut PassReport, findings: &[Finding]) {
    for family in FAMILIES {
        let total = findings.iter().filter(|f| f.rule == family).count();
        let acked = findings.iter().filter(|f| f.rule == family && f.acknowledged).count();
        report.ok(
            format!("family: {family}"),
            format!("{total} findings, {acked} acknowledged, {} open", total - acked),
        );
    }
    for f in findings {
        report.push_spanned(
            f.rule,
            f.acknowledged,
            format!("{}:{} {}", f.file, f.line, f.message),
            f.file.clone(),
            f.line,
            f.acknowledged,
        );
    }
}

/// Run the full pass over the workspace rooted at `crates_dir`.
pub fn run_pass(crates_dir: &Path) -> PassReport {
    let mut report = PassReport::new("static-analysis");
    run_canaries(&mut report);
    match analyze_workspace(crates_dir) {
        Ok(findings) => report_findings(&mut report, &findings),
        Err(e) => report.fail("workspace scan", format!("scan failed: {e}")),
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_canaries_fire() {
        let mut report = PassReport::new("static-analysis");
        run_canaries(&mut report);
        assert!(report.all_ok(), "{}", report.render());
        // Every rule that can fire on source text has a canary
        // (`stale-ack` is exercised by the analyzer's own unit test).
        let rules: std::collections::BTreeSet<_> = canaries().iter().map(|c| c.rule).collect();
        assert_eq!(rules.len(), FAMILIES.len() - 1, "{rules:?}");
    }

    #[test]
    fn clean_tree_passes_end_to_end() {
        let crates = Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("crates dir");
        let report = run_pass(crates);
        assert!(report.all_ok(), "{}", report.render());
        // Acknowledged findings surface as passing spanned checks.
        assert!(report.checks.iter().any(|c| c.acknowledged && c.ok));
    }
}
