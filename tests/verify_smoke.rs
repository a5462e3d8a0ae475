//! Tier-1 hook into the verify suite: `cargo test -q` at the repository
//! root must not be green while a `bench verify` pass is red, so this runs
//! every pass in the `raidx_verify` registry — in full, like every other
//! caller: the suite has no reduced mode. It is the one test that runs a
//! whole pass; the crates' unit tests check the passes' parts and their
//! seeded defects.

use raidx_verify::{run_pass, PASSES};

#[test]
fn every_verify_pass_is_green() {
    assert_eq!(PASSES.len(), 8);
    let reports: Vec<_> = PASSES.iter().map(|&(name, _)| run_pass(name)).collect();
    let failed: Vec<String> =
        reports.iter().filter(|report| !report.all_ok()).map(|report| report.render()).collect();
    assert!(failed.is_empty(), "verify passes failed:\n{}", failed.join("\n"));
    // No pass lost or gained a row unnoticed.
    let checks: Vec<(&str, usize)> =
        reports.iter().map(|r| (r.pass.as_str(), r.checks.len())).collect();
    assert_eq!(checks.iter().map(|&(_, n)| n).sum::<usize>(), 228, "{checks:?}");
}
