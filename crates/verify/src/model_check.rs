//! Pass 4 — `raidx-model`: exhaustive interleaving exploration of CDD
//! lock-protocol scenarios, each history checked for linearizability.
//!
//! Each scenario from [`cdd::scenarios`] is a small multi-client program
//! over the real [`cdd::LockGroupTable`]; the [`sim_core::explore`]
//! scheduler enumerates every thread interleaving (with sleep-set
//! pruning), checking after every step that
//!
//! * no two clients hold overlapping grants (exclusive write permission),
//! * every store write is covered by a grant the writer holds,
//! * no schedule deadlocks (a client blocked forever is a lost wakeup),
//!
//! and at the end of every schedule that its read/write history is
//! linearizable ([`check_history`], Wing–Gong against a sequential
//! block-store spec).
//!
//! Each scenario is explored once. The pass explores the clean scenarios
//! (which must come back with zero findings) and four *canaries*:
//! deliberately defective scenarios the checker must flag — guarding
//! against the checker itself rotting into a pass-everything no-op.
//!
//! The schedule budget is [`Explorer::default`]'s `max_schedules`
//! (100,000; the largest scenario explores 698). It is not a parameter:
//! a search it truncates fails its row.

use crate::linearizability::check_history;
use crate::report::PassReport;
use cdd::scenarios::{scenario_cache, scenario_contended, scenario_epoch, scenario_reader};
use cdd::{CddModel, Defect, Scenario};
use sim_core::explore::{Exploration, Explorer};

/// Append the row of one scenario's exploration `r` to `rep`: it fails on
/// any invariant/step/deadlock/leaf finding *or* if the budget truncated
/// coverage (an unexplored schedule is an unverified claim).
fn push_exploration(rep: &mut PassReport, name: &str, r: &Exploration) {
    let (schedules, steps, pruned) = (r.schedules, r.steps, r.pruned);
    match (&r.failure, r.truncated) {
        (Some(f), _) => rep.fail(name, f.to_string()),
        (None, true) => rep
            .fail(name, format!("budget exhausted after {schedules} schedules ({pruned} pruned)")),
        (None, false) => rep.ok(
            name,
            format!(
                "{schedules} schedules, {steps} steps, {pruned} branches pruned, all invariants \
                 hold, every history linearizable"
            ),
        ),
    }
}

/// Explore `sc`, linearizability-checking the history of every schedule.
fn explore(sc: Scenario) -> Exploration {
    let blocks = sc.blocks;
    Explorer::default().explore_with(&CddModel::new(sc), |s| check_history(blocks, &s.history))
}

/// Explore one scenario, appending one check to `rep`.
pub fn check_scenario(rep: &mut PassReport, sc: Scenario) {
    let name = sc.name;
    push_exploration(rep, name, &explore(sc));
}

/// Append the canary row for the planted `defect` in `sc`: exploring it
/// must find a failure.
fn check_canary(rep: &mut PassReport, sc: Scenario, defect: &str) {
    let name = format!("canary: planted {defect} is caught");
    match explore(sc).failure {
        Some(f) => rep.ok(name, format!("caught: {f}")),
        None => rep.fail(name, format!("checker missed a planted {defect}")),
    }
}

/// Run the model-check pass: every clean scenario plus the canaries.
pub fn run_pass() -> PassReport {
    let mut rep = PassReport::new("model-check");
    for sc in cdd::scenarios::SCENARIOS {
        check_scenario(&mut rep, sc(Defect::None));
    }
    // Each canary must be caught the way its `Defect` variant's doc says.
    check_canary(&mut rep, scenario_contended(Defect::DoubleGrant), "double grant");
    check_canary(&mut rep, scenario_reader(Defect::UnlockedRead), "unlocked read");
    check_canary(&mut rep, scenario_epoch(Defect::UnsyncedReconfig), "unsynced migration");
    check_canary(&mut rep, scenario_cache(Defect::SkipInvalidate), "skipped invalidation");
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The one finding of exploring `sc`.
    fn finding(sc: Scenario) -> String {
        let mut rep = PassReport::new("model-check");
        check_scenario(&mut rep, sc);
        assert_eq!(rep.failures(), 1, "{}", rep.render());
        rep.checks[0].detail.clone()
    }

    #[test]
    fn clean_pass_reports_zero_findings() {
        let rep = run_pass();
        assert!(rep.all_ok(), "{}", rep.render());
        assert!(rep.checks.iter().all(|c| !c.detail.starts_with("0 ")), "{}", rep.render());
        assert_eq!(rep.checks.len(), 9);
    }

    #[test]
    fn seeded_double_grant_fails_the_check() {
        let detail = finding(scenario_contended(Defect::DoubleGrant));
        assert!(detail.contains("invariant"), "{detail}");
    }

    #[test]
    fn seeded_lost_wakeup_fails_the_check() {
        let detail = finding(scenario_contended(Defect::SkipWakeup));
        assert!(detail.contains("deadlock"), "{detail}");
    }

    #[test]
    fn seeded_skip_invalidate_produces_stale_read() {
        let detail = finding(scenario_cache(Defect::SkipInvalidate));
        assert!(detail.contains("no linearization"), "{detail}");
    }

    #[test]
    fn seeded_unlocked_read_fails_the_check() {
        let detail = finding(scenario_reader(Defect::UnlockedRead));
        assert!(detail.contains("leaf check"), "{detail}");
    }

    #[test]
    fn seeded_unsynced_reconfig_produces_stale_read() {
        let detail = finding(scenario_epoch(Defect::UnsyncedReconfig));
        assert!(detail.contains("no linearization"), "{detail}");
    }

    #[test]
    fn seeded_early_release_produces_torn_read() {
        finding(scenario_reader(Defect::EarlyRelease));
    }

    #[test]
    fn an_exhausted_budget_fails_the_row() {
        let mut rep = PassReport::new("model-check");
        let tiny = Explorer { max_schedules: 2, ..Explorer::default() };
        let r = tiny.explore(&CddModel::new(cdd::scenarios::scenario_three(Defect::None)));
        push_exploration(&mut rep, "three-clients", &r);
        assert_eq!(rep.failures(), 1, "{}", rep.render());
        assert!(rep.checks[0].detail.contains("budget"), "{}", rep.checks[0].detail);
    }
}
