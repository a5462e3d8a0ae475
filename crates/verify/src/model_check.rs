//! Pass 4 — `raidx-model`: exhaustive interleaving exploration of CDD
//! lock-protocol scenarios.
//!
//! Each scenario from [`cdd::proto`] is a small multi-client program over
//! the real [`cdd::LockGroupTable`]; the [`sim_core::explore`] scheduler
//! enumerates every thread interleaving (with sleep-set pruning),
//! checking after every step that
//!
//! * no two clients hold overlapping grants (exclusive write permission),
//! * every store write is covered by a grant the writer holds,
//! * no schedule deadlocks (a client blocked forever is a lost wakeup).
//!
//! The pass explores the clean scenarios (which must come back with zero
//! findings) and one *canary*: a deliberately defective scenario the
//! checker must flag — guarding against the checker itself rotting into
//! a pass-everything no-op.
//!
//! The schedule budget is [`Explorer::default`]'s `max_schedules`
//! (100,000; the largest scenario explores 698). It is not a parameter:
//! a search it truncates fails its row.

use crate::report::PassReport;
use cdd::proto::{
    scenario_cache, scenario_contended, scenario_epoch, scenario_reader, scenario_three, CddModel,
    Scenario,
};
use cdd::Defect;
use sim_core::explore::{Exploration, Explorer};

/// Append the row of one scenario's exploration `r` to `rep`: it fails on
/// any invariant/step/deadlock/leaf finding *or* if the budget truncated
/// coverage (an unexplored schedule is an unverified claim); a clean,
/// complete search reports `clean`.
pub(crate) fn push_exploration(rep: &mut PassReport, name: &str, r: &Exploration, clean: String) {
    match (&r.failure, r.truncated) {
        (Some(f), _) => rep.fail(name, f.to_string()),
        (None, true) => rep.fail(
            name,
            format!("budget exhausted after {} schedules ({} pruned)", r.schedules, r.pruned),
        ),
        (None, false) => rep.ok(name, clean),
    }
}

/// Append the canary row `name`: exploring the planted `defect` must have
/// found a failure.
pub(crate) fn push_canary(rep: &mut PassReport, name: &str, r: &Exploration, defect: &str) {
    match &r.failure {
        Some(f) => rep.ok(name, format!("caught: {f}")),
        None => rep.fail(name, format!("checker missed a planted {defect}")),
    }
}

/// Explore one scenario, appending one check to `rep`.
pub fn check_scenario(rep: &mut PassReport, sc: Scenario) {
    let name = sc.name;
    let r = Explorer::default().explore(&CddModel::new(sc));
    let clean = format!(
        "{} schedules, {} steps, {} branches pruned, all invariants hold",
        r.schedules, r.steps, r.pruned
    );
    push_exploration(rep, name, &r, clean);
}

/// Run the model-check pass: all clean scenarios plus the defect canary.
pub fn run_pass() -> PassReport {
    let mut rep = PassReport::new("model-check");
    check_scenario(&mut rep, scenario_contended(Defect::None));
    check_scenario(&mut rep, scenario_reader(Defect::None));
    check_scenario(&mut rep, scenario_three(Defect::None));
    check_scenario(&mut rep, scenario_epoch(Defect::None));
    check_scenario(&mut rep, scenario_cache(Defect::None));
    // Canary: the checker must still catch a planted double grant.
    let canary =
        Explorer::default().explore(&CddModel::new(scenario_contended(Defect::DoubleGrant)));
    push_canary(&mut rep, "canary: planted double grant is caught", &canary, "double grant");
    rep
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdd::proto::scenario_contended;

    #[test]
    fn clean_pass_reports_zero_findings() {
        let rep = run_pass();
        assert!(rep.all_ok(), "{}", rep.render());
        assert_eq!(rep.checks.len(), 6);
    }

    #[test]
    fn seeded_double_grant_fails_the_check() {
        let mut rep = PassReport::new("model-check");
        check_scenario(&mut rep, scenario_contended(Defect::DoubleGrant));
        assert_eq!(rep.failures(), 1, "{}", rep.render());
        assert!(rep.checks[0].detail.contains("invariant"), "{}", rep.checks[0].detail);
    }

    #[test]
    fn seeded_lost_wakeup_fails_the_check() {
        let mut rep = PassReport::new("model-check");
        check_scenario(&mut rep, scenario_contended(Defect::SkipWakeup));
        assert_eq!(rep.failures(), 1, "{}", rep.render());
        assert!(rep.checks[0].detail.contains("deadlock"), "{}", rep.checks[0].detail);
    }

    #[test]
    fn an_exhausted_budget_fails_the_row() {
        let mut rep = PassReport::new("model-check");
        let tiny = Explorer { max_schedules: 2, ..Explorer::default() };
        let r = tiny.explore(&CddModel::new(scenario_three(Defect::None)));
        push_exploration(&mut rep, "three-clients", &r, String::new());
        assert_eq!(rep.failures(), 1, "{}", rep.render());
        assert!(rep.checks[0].detail.contains("budget"), "{}", rep.checks[0].detail);
    }
}
