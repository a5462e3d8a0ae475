//! Tier-1 hook into the verify suite: `cargo test -q` at the repository
//! root must not be green while a `bench verify` pass is red, so this runs
//! every pass in the `raidx_verify` registry — in full, like every other
//! caller: the suite has no reduced mode.

use raidx_verify::{run_pass, PASSES};

#[test]
fn every_verify_pass_is_green() {
    assert_eq!(PASSES.len(), 10);
    let failed: Vec<String> = PASSES
        .iter()
        .map(|&(name, _)| run_pass(name))
        .filter(|report| !report.all_ok())
        .map(|report| report.render())
        .collect();
    assert!(failed.is_empty(), "verify passes failed:\n{}", failed.join("\n"));
}
