//! Pass 11 — parser-based whole-workspace static analysis.
//!
//! Drives [`raidx_analyze`] over every production source file under
//! `crates/` and reports each finding as a spanned check: acknowledged
//! findings pass (and carry `acknowledged: true` into the `--json`
//! output), unacknowledged findings fail the pass. Five rule families
//! run (see the analyzer crate docs): scope-aware determinism hazards,
//! fault-trigger/trace-point conformance, the wildcard-match ban on
//! safety-critical enums, cdd lock-grant discipline, and the hygiene
//! gates (module size, `unwrap`/`expect`).
//!
//! In the house style of passes 2–10, the pass first proves each family
//! can still detect a planted defect: every canary snippet below is
//! analyzed in memory and must produce (or, for the clean twins, not
//! produce) its expected finding.

use crate::report::PassReport;
use raidx_analyze::{analyze_files, analyze_workspace, Finding, SourceFile};
use std::path::Path;

/// The rule families the pass summarizes, in report order.
const FAMILIES: [&str; 7] = [
    "determinism",
    "fault-trigger",
    "wildcard-match",
    "lock-discipline",
    "module-size",
    "no-unwrap",
    "stale-ack",
];

/// One planted-defect canary: analyzing `files` must yield a finding of
/// `rule` exactly when `expect_hit`.
struct Canary {
    name: &'static str,
    rule: &'static str,
    expect_hit: bool,
    files: Vec<SourceFile>,
}

fn canaries() -> Vec<Canary> {
    let wall_clock = "fn f() -> u64 {\n    let t = Instant::now();\n    t.as_nanos()\n}\n";
    let ghost_trigger =
        "fn arm(plan: &mut Plan) {\n    plan.at_point(\"ghost-canary-point\", 1, fault());\n}\n";
    let live_trigger =
        "fn arm(plan: &mut Plan) {\n    plan.at_point(\"live-canary-point\", 1, fault());\n}\n";
    let announce = "fn tick(inj: &mut Inj) {\n    inj.hit_point(\"live-canary-point\");\n}\n";
    let wild = "fn f(e: IoError) -> u32 {\n    match e {\n        IoError::DataLoss { lb } => \
                lb as u32,\n        _ => 0,\n    }\n}\n";
    let leak = "fn leaky(&mut self) -> Result<(), IoError> {\n    let h = \
                self.locks.acquire(c, lb, n).map_err(IoError::Lock)?;\n    work(h.id());\n    \
                Ok(())\n}\n";
    let unwrap = "pub fn f(v: Option<u32>) -> u32 {\n    v.unwrap()\n}\n";
    let oversized = "// filler\n".repeat(raidx_analyze::hygiene::MODULE_LINE_CAP + 1);
    vec![
        Canary {
            name: "canary: determinism wall clock",
            rule: "determinism",
            expect_hit: true,
            files: vec![SourceFile::new("sim-core/src/canary.rs", wall_clock)],
        },
        Canary {
            name: "canary: unannounced fault trigger",
            rule: "fault-trigger",
            expect_hit: true,
            files: vec![SourceFile::new("verify/src/canary.rs", ghost_trigger)],
        },
        Canary {
            name: "canary: announced trigger is clean",
            rule: "fault-trigger",
            expect_hit: false,
            files: vec![
                SourceFile::new("verify/src/canary.rs", live_trigger),
                SourceFile::new("workloads/src/canary.rs", announce),
            ],
        },
        Canary {
            name: "canary: wildcard arm over IoError",
            rule: "wildcard-match",
            expect_hit: true,
            files: vec![SourceFile::new("cdd/src/canary.rs", wild)],
        },
        Canary {
            name: "canary: leaked lock grant",
            rule: "lock-discipline",
            expect_hit: true,
            files: vec![SourceFile::new("cdd/src/canary.rs", leak)],
        },
        Canary {
            name: "canary: unwrap outside tests",
            rule: "no-unwrap",
            expect_hit: true,
            files: vec![SourceFile::new("sim-core/src/canary.rs", unwrap)],
        },
        Canary {
            name: "canary: oversized module",
            rule: "module-size",
            expect_hit: true,
            files: vec![SourceFile::new("cdd/src/canary.rs", &oversized)],
        },
    ]
}

fn run_canaries(report: &mut PassReport) {
    for c in canaries() {
        let findings = analyze_files(&c.files);
        let hits = findings.iter().filter(|f| f.rule == c.rule && !f.acknowledged).count();
        let ok = (hits > 0) == c.expect_hit;
        let detail = if c.expect_hit {
            format!("planted defect detected by `{}` ({hits} findings)", c.rule)
        } else {
            format!("clean twin produced {hits} `{}` findings (want 0)", c.rule)
        };
        report.push(c.name, ok, detail);
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
        // ≥5 rule families are exercised by the canary battery.
        let rules: std::collections::BTreeSet<_> = canaries().iter().map(|c| c.rule).collect();
        assert!(rules.len() >= 5, "{rules:?}");
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
