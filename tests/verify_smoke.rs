//! Tier-1 hook into the verify suite: `cargo test -q` at the repository
//! root must not be green while a `verify_all` pass is red, so this runs
//! every pass in the `raidx_verify` registry at its smoke size.

use raidx_verify::{run_pass, PASSES};

/// Schedules explored per model-checking scenario. Small enough for the
/// debug profile; every scenario in the suite still explores to
/// completion within it (a truncated exploration fails its check).
const BUDGET: u64 = 2000;

#[test]
fn every_verify_pass_is_green_at_smoke_size() {
    assert_eq!(PASSES.len(), 13);
    let failed: Vec<String> = PASSES
        .iter()
        .map(|&(name, _)| run_pass(name, BUDGET, true))
        .filter(|report| !report.all_ok())
        .map(|report| report.render())
        .collect();
    assert!(failed.is_empty(), "verify passes failed:\n{}", failed.join("\n"));
}
