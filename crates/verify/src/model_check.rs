//! `raidx-model`: exhaustive interleaving exploration of CDD lock-protocol
//! scenarios, each history checked for linearizability.
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
//! linearizable ([`crate::linearizability::check_history`], Wing–Gong
//! against a sequential block-store spec) and that the placer ends with no
//! migration in flight. A scenario also proves its mechanism ran: summed
//! over the leaves, one with cached readers must show cache hits and
//! invalidations, and every leaf of one with an epoch transition must end
//! drained at the transition's epoch.
//!
//! Each clean scenario is explored once, and its (schedules, steps,
//! pruned) counts are pinned. The `seeded_*` tests plant protocol defects
//! ([`cdd::Defect`]) the checker must flag — guarding against the checker
//! rotting into a pass-everything no-op.
//!
//! The schedule budget is [`sim_core::explore::Explorer::default`]'s
//! `max_schedules` (100,000; the largest scenario explores 698). It is not
//! a parameter: a search it truncates fails.

#[cfg(test)]
mod tests {
    use crate::linearizability::check_history;
    use cdd::scenarios::{scenario_cache, scenario_contended, scenario_epoch, scenario_reader};
    use cdd::{CddModel, Defect, ProtoOp, Scenario};
    use sim_core::explore::{Exploration, Explorer};

    /// (scenario, schedules, steps, pruned branches) of each clean
    /// scenario's exploration, in [`cdd::scenarios::SCENARIOS`] order.
    const EXPLORED: [(&str, u64, u64, u64); 5] = [
        ("contended-writers", 4, 32, 4),
        ("writer-reader", 4, 32, 4),
        ("three-clients", 60, 540, 84),
        ("epoch-migration", 698, 4668, 466),
        ("cache-coherence", 30, 179, 70),
    ];

    /// What the leaves of one exploration left in the real cache and placer.
    #[derive(Debug, Default)]
    struct Leaves {
        /// Cache hits, summed over the leaves.
        hits: u64,
        /// Cache invalidations, summed over the leaves.
        invalidations: u64,
        /// Leaves whose placer has a migration in flight or is off the
        /// epoch the scenario's transitions lead to.
        undrained: u64,
    }

    /// The placer epoch every leaf of `sc` must end at: `add_spare` and
    /// `begin_promote` each append one per transition.
    fn final_epoch(sc: &Scenario) -> u64 {
        let reconfigs =
            sc.scripts.iter().flatten().filter(|op| matches!(op, ProtoOp::Reconfig { .. }));
        2 * reconfigs.count() as u64
    }

    /// Whether `sc`'s mechanisms ran, judged from its `leaves`: `Err` with
    /// why not.
    fn evidence(sc: &Scenario, leaves: &Leaves) -> Result<(), String> {
        if leaves.undrained > 0 {
            let (n, epoch) = (leaves.undrained, final_epoch(sc));
            return Err(format!("{n} leaves end with a migration in flight or off epoch {epoch}"));
        }
        let cached =
            sc.scripts.iter().flatten().any(|op| matches!(op, ProtoOp::CachedReadGroup { .. }));
        let (hits, invalidations) = (leaves.hits, leaves.invalidations);
        if cached && (hits == 0 || invalidations == 0) {
            return Err(format!(
                "the cache never ran both ways: {hits} cache hits and {invalidations} \
                 invalidations over all leaves"
            ));
        }
        Ok(())
    }

    /// Why a scenario's exploration `r` fails: any invariant, step,
    /// deadlock or leaf finding, a search the budget truncated (an
    /// unexplored schedule is an unverified claim), or missing `evidence`
    /// that its mechanisms ran.
    fn verdict(r: &Exploration, evidence: Result<(), String>) -> Result<(), String> {
        let (schedules, pruned) = (r.schedules, r.pruned);
        match (&r.failure, r.truncated, evidence) {
            (Some(f), _, _) => Err(f.to_string()),
            (None, true, _) => {
                Err(format!("budget exhausted after {schedules} schedules ({pruned} pruned)"))
            }
            (None, false, Err(missing)) => Err(format!("{schedules} schedules: {missing}")),
            (None, false, Ok(())) => Ok(()),
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
            leaves.undrained +=
                u64::from(s.placer.migration().is_some() || s.placer.epoch() != epoch);
            check_history(blocks, &s.history)
        });
        (r, leaves)
    }

    #[test]
    fn every_scenario_keeps_its_invariants_in_every_interleaving() {
        let mut fresh = Vec::new();
        for sc in cdd::scenarios::SCENARIOS.map(|f| f(Defect::None)) {
            let (r, leaves) = explore(&sc);
            if let Err(e) = verdict(&r, evidence(&sc, &leaves)) {
                panic!("{}: {e}", sc.name);
            }
            fresh.push((sc.name, r.schedules, r.steps, r.pruned));
        }
        assert_eq!(fresh, EXPLORED, "fresh table: {fresh:?}");
    }

    /// Why exploring `sc` fails.
    fn finding(sc: Scenario) -> String {
        let (r, leaves) = explore(&sc);
        verdict(&r, evidence(&sc, &leaves)).expect_err("planted defect not caught")
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
        let tiny = Explorer { max_schedules: 2, ..Explorer::default() };
        let r = tiny.explore(&CddModel::new(cdd::scenarios::scenario_three(Defect::None)));
        let err = verdict(&r, Ok(())).expect_err("a truncated search passed");
        assert!(err.contains("budget"), "{err}");
    }

    /// A cache scenario whose leaves show no invalidation, and a migration
    /// scenario with a leaf still draining, fail.
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
        assert_eq!(evidence(&epoch, &Leaves::default()), Ok(()));
    }
}
