//! Pass 4 — `raidx-model`: exhaustive interleaving exploration of CDD
//! lock-protocol scenarios, each history checked for linearizability.
//!
//! Each scenario from [`cdd::scenarios`] is a small multi-client program
//! over the real [`cdd::LockGroupTable`], [`cdd::Placer`] and
//! [`cdd::cache::CacheSet`]; the [`sim_core::explore`] scheduler
//! enumerates every thread interleaving (with sleep-set pruning),
//! checking after every step that
//!
//! * no two clients hold overlapping grants (exclusive write permission),
//! * every store write is covered by a grant the writer holds,
//! * no schedule deadlocks (a client blocked forever is a lost wakeup),
//!
//! and at the end of every schedule that its read/write history is
//! linearizable ([`check_history`], Wing–Gong against a sequential
//! block-store spec) and that the placer ends with no migration in
//! flight. A row also proves its mechanism ran: summed over the leaves,
//! a scenario with cached readers must show cache hits and
//! invalidations, and one with an epoch transition prints that every
//! leaf drained.
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
use cdd::{CddModel, Defect, ProtoOp, Scenario};
use sim_core::explore::{Exploration, Explorer};

/// What the leaves of one exploration left in the real cache and placer.
#[derive(Debug, Default)]
struct Leaves {
    /// Cache hits, summed over the leaves.
    hits: u64,
    /// Cache invalidations, summed over the leaves.
    invalidations: u64,
    /// Leaves whose placer has a migration in flight or is off the epoch
    /// the scenario's transitions lead to.
    undrained: u64,
}

/// The placer epoch every leaf of `sc` must end at: `add_spare` and
/// `begin_promote` each append one per transition.
fn final_epoch(sc: &Scenario) -> u64 {
    let reconfigs = sc.scripts.iter().flatten().filter(|op| matches!(op, ProtoOp::Reconfig { .. }));
    2 * reconfigs.count() as u64
}

/// Whether `sc`'s mechanisms ran, judged from its `leaves`: `Ok` with the
/// text its row appends, `Err` with why the row fails.
fn evidence(sc: &Scenario, leaves: &Leaves) -> Result<String, String> {
    let epoch = final_epoch(sc);
    if leaves.undrained > 0 {
        let n = leaves.undrained;
        return Err(format!("{n} leaves end with a migration in flight or off epoch {epoch}"));
    }
    let mut text = String::new();
    if epoch > 0 {
        text += &format!(", every leaf drained at epoch {epoch}");
    }
    if sc.scripts.iter().flatten().any(|op| matches!(op, ProtoOp::CachedReadGroup { .. })) {
        let (hits, invalidations) = (leaves.hits, leaves.invalidations);
        let sums = format!("{hits} cache hits and {invalidations} invalidations over all leaves");
        if hits == 0 || invalidations == 0 {
            return Err(format!("the cache never ran both ways: {sums}"));
        }
        text += &format!(", {sums}");
    }
    Ok(text)
}

/// Append the row of one scenario's exploration `r` to `rep`: it fails on
/// any invariant/step/deadlock/leaf finding, if the budget truncated
/// coverage (an unexplored schedule is an unverified claim), or if the
/// `evidence` that its mechanisms ran is missing.
fn push_exploration(
    rep: &mut PassReport,
    name: &str,
    r: &Exploration,
    evidence: Result<String, String>,
) {
    let (schedules, steps, pruned) = (r.schedules, r.steps, r.pruned);
    match (&r.failure, r.truncated, evidence) {
        (Some(f), _, _) => rep.fail(name, f.to_string()),
        (None, true, _) => rep
            .fail(name, format!("budget exhausted after {schedules} schedules ({pruned} pruned)")),
        (None, false, Err(missing)) => rep.fail(name, format!("{schedules} schedules: {missing}")),
        (None, false, Ok(more)) => rep.ok(
            name,
            format!(
                "{schedules} schedules, {steps} steps, {pruned} branches pruned, all invariants \
                 hold, every history linearizable{more}"
            ),
        ),
    }
}

/// Explore `sc`, linearizability-checking the history of every schedule
/// and summing what its leaves left in the cache and placer.
fn explore(sc: &Scenario) -> (Exploration, Leaves) {
    let (blocks, epoch) = (sc.blocks, final_epoch(sc));
    let mut leaves = Leaves::default();
    let r = Explorer::default().explore_with(&CddModel::new(sc.clone()), |s| {
        let stats = s.cache.stats();
        leaves.hits += stats.hits;
        leaves.invalidations += stats.invalidations;
        leaves.undrained += u64::from(s.placer.migration().is_some() || s.placer.epoch() != epoch);
        check_history(blocks, &s.history)
    });
    (r, leaves)
}

/// Explore one scenario, appending one check to `rep`.
pub fn check_scenario(rep: &mut PassReport, sc: Scenario) {
    let (r, leaves) = explore(&sc);
    push_exploration(rep, sc.name, &r, evidence(&sc, &leaves));
}

/// Append the canary row for the planted `defect` in `sc`: exploring it
/// must find a failure.
fn check_canary(rep: &mut PassReport, sc: Scenario, defect: &str) {
    let name = format!("canary: planted {defect} is caught");
    match explore(&sc).0.failure {
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
    fn an_exhausted_budget_fails_the_row() {
        let mut rep = PassReport::new("model-check");
        let tiny = Explorer { max_schedules: 2, ..Explorer::default() };
        let r = tiny.explore(&CddModel::new(cdd::scenarios::scenario_three(Defect::None)));
        push_exploration(&mut rep, "three-clients", &r, Ok(String::new()));
        assert_eq!(rep.failures(), 1, "{}", rep.render());
        assert!(rep.checks[0].detail.contains("budget"), "{}", rep.checks[0].detail);
    }

    /// A cache row whose leaves show no invalidation, and a migration row
    /// with a leaf still draining, fail.
    #[test]
    fn a_row_whose_mechanism_did_not_run_fails() {
        let cache = scenario_cache(Defect::None);
        let no_inv = Leaves { hits: 3, ..Leaves::default() };
        let err = evidence(&cache, &no_inv).expect_err("no invalidation accepted");
        assert!(err.contains("3 cache hits and 0 invalidations"), "{err}");
        let epoch = scenario_epoch(Defect::None);
        let err = evidence(&epoch, &Leaves { undrained: 1, ..Leaves::default() })
            .expect_err("undrained leaf accepted");
        assert!(err.contains("off epoch 2"), "{err}");
        assert_eq!(
            evidence(&epoch, &Leaves::default()),
            Ok(", every leaf drained at epoch 2".into())
        );
    }
}
