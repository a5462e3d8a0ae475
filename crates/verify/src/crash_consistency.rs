//! Pass 5 — crash-consistency audit of the OSM/checkpoint write
//! protocols.
//!
//! Drives [`checkpoint::crash`]: enumerate a crash after **every prefix**
//! of the physical write schedules of (a) the double-buffered two-level
//! checkpoint commit and (b) the OSM write-behind mirror flush, and
//! verify that recovery — transient from the local image, permanent from
//! the striped copy, journal replay for the mirror — always reconstructs
//! a consistent image. The pass sweeps several region sizes and includes
//! a canary with a planted early-commit ordering bug the audit must
//! catch.

use crate::report::PassReport;
use checkpoint::crash::{audit_two_level, audit_write_behind, CrashAudit, CrashDefect};

/// Append a check for one audit result to `rep`.
fn push_audit(rep: &mut PassReport, name: String, a: &CrashAudit) {
    if a.clean() {
        rep.ok(
            name,
            format!(
                "{} crash points, {} cell checks, all recoveries consistent",
                a.crash_points, a.checks
            ),
        );
    } else {
        let first = &a.findings[0];
        rep.fail(name, format!("{} inconsistent recoveries; first: {first}", a.findings.len()));
    }
}

/// Audit both protocols at one region size with one (possibly planted)
/// defect, appending two checks to `rep`.
pub fn check_protocols(rep: &mut PassReport, blocks: usize, defect: CrashDefect) {
    push_audit(rep, format!("two-level commit, {blocks} blocks"), &audit_two_level(blocks, defect));
    push_audit(
        rep,
        format!("write-behind flush, {blocks} blocks"),
        &audit_write_behind(blocks, defect),
    );
}

/// Run the crash-consistency pass: clean sweeps over region sizes plus
/// the defect canary.
pub fn run_pass() -> PassReport {
    let mut rep = PassReport::new("crash-consistency");
    for blocks in 1..=4 {
        check_protocols(&mut rep, blocks, CrashDefect::None);
    }
    let canary = audit_two_level(3, CrashDefect::EarlyCommit);
    rep.push(
        "canary: planted early commit is caught",
        !canary.clean(),
        if canary.clean() {
            "audit missed a commit record written before the image flushes".to_string()
        } else {
            format!("caught {} inconsistent recoveries", canary.findings.len())
        },
    );
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_pass_reports_zero_findings() {
        let rep = run_pass();
        assert!(rep.all_ok(), "{}", rep.render());
        assert_eq!(rep.checks.len(), 9);
    }

    #[test]
    fn seeded_early_commit_fails_the_check() {
        let mut rep = PassReport::new("crash-consistency");
        check_protocols(&mut rep, 3, CrashDefect::EarlyCommit);
        assert_eq!(rep.failures(), 1, "{}", rep.render());
        assert!(rep.checks[0].detail.contains("transient"), "{}", rep.checks[0].detail);
    }

    #[test]
    fn seeded_late_journal_fails_the_check() {
        let mut rep = PassReport::new("crash-consistency");
        check_protocols(&mut rep, 2, CrashDefect::LateJournal);
        assert_eq!(rep.failures(), 1, "{}", rep.render());
        assert!(rep.checks[1].detail.contains("mirror"), "{}", rep.checks[1].detail);
    }

    #[test]
    fn seeded_in_place_checkpoint_fails_the_check() {
        let mut rep = PassReport::new("crash-consistency");
        check_protocols(&mut rep, 2, CrashDefect::InPlaceCheckpoint);
        assert!(rep.failures() >= 1, "{}", rep.render());
    }
}
