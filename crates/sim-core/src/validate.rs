//! Static validation of [`Plan`] DAGs before execution.
//!
//! A malformed plan either deadlocks the engine (a barrier nobody else
//! reaches, a barrier parked inside a detached subtree) or panics deep in
//! the event loop (an unknown resource id). This module rejects those
//! shapes *before* any event fires, with an error that names the offending
//! node. [`Engine::validate`](crate::Engine::validate) checks one plan
//! against the engine's registered resources and barriers;
//! [`Engine::validate_jobs`](crate::Engine::validate_jobs) additionally
//! cross-checks barrier participant counts across a whole job set, which is
//! where the silent-deadlock bugs live.

use crate::demand::Demand;
use crate::plan::{BarrierId, Plan};
use crate::resource::ResourceId;
use std::collections::HashMap;

/// A defect found in a [`Plan`] (or a set of plans) by static validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// A `Use` leaf names a resource that was never registered.
    UnknownResource {
        /// The out-of-range id.
        res: ResourceId,
        /// Number of registered resources at validation time.
        registered: usize,
    },
    /// A `Barrier` leaf names a barrier that was never registered; the
    /// task would panic on arrival.
    UnregisteredBarrier {
        /// The unknown barrier.
        id: BarrierId,
    },
    /// A `Barrier` nested inside a `Background` subtree: the detached task
    /// would park on the barrier and count toward its quota, silently
    /// changing (usually deadlocking) the synchronization.
    BarrierInBackground {
        /// The barrier inside the detached subtree.
        id: BarrierId,
    },
    /// An empty `Seq` node — always a plan-construction bug (use
    /// `Plan::Noop` for an intentional no-op).
    EmptySeq,
    /// An empty `Par` node — always a plan-construction bug.
    EmptyPar,
    /// A transfer demand of zero bytes: it completes in zero time yet
    /// occupies a queue slot, which skews utilization statistics.
    ZeroByteUse {
        /// The resource the empty demand targets.
        res: ResourceId,
    },
    /// Across a job set: the number of tasks that concurrently arrive at a
    /// barrier does not match its registered participant count, so the
    /// barrier either never opens (deadlock) or opens early.
    ParticipantMismatch {
        /// The barrier in question.
        id: BarrierId,
        /// Participants declared via `register_barrier`.
        registered: usize,
        /// Concurrent arrivals implied by the job set's plans.
        arriving: usize,
    },
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::UnknownResource { res, registered } => {
                write!(f, "plan uses unregistered resource {res:?} ({registered} registered)")
            }
            PlanError::UnregisteredBarrier { id } => {
                write!(f, "plan waits on unregistered barrier {id:?}")
            }
            PlanError::BarrierInBackground { id } => {
                write!(f, "barrier {id:?} inside a Background subtree (detached waiter)")
            }
            PlanError::EmptySeq => write!(f, "empty Seq node (use Plan::Noop)"),
            PlanError::EmptyPar => write!(f, "empty Par node (use Plan::Noop)"),
            PlanError::ZeroByteUse { res } => {
                write!(f, "zero-byte transfer demand at resource {res:?}")
            }
            PlanError::ParticipantMismatch { id, registered, arriving } => write!(
                f,
                "barrier {id:?} registered for {registered} participants but {arriving} arrive"
            ),
        }
    }
}

impl std::error::Error for PlanError {}

/// What a plan is validated against: the registered resources and barriers
/// of the engine that will execute it.
#[derive(Debug, Clone, Default)]
pub struct PlanContext {
    /// Number of registered resources (ids are dense, so a bound suffices).
    pub resources: usize,
    /// Registered barriers and their participant counts.
    pub barriers: HashMap<BarrierId, usize>,
}

/// Severity classes of [`PlanError`], used to pick which checks gate
/// spawning (debug assertions) versus full linting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strictness {
    /// Only defects that panic or deadlock the engine outright: unknown
    /// resources, unregistered barriers, barriers in background subtrees.
    Structural,
    /// Everything, including hygiene defects (empty combinators,
    /// zero-byte demands).
    Strict,
}

fn demand_is_empty_transfer(d: &Demand) -> bool {
    !matches!(d, Demand::Busy(_)) && d.bytes() == 0
}

/// Walk `plan`, collecting every defect (not just the first).
pub fn lint_plan(plan: &Plan, ctx: &PlanContext, strictness: Strictness) -> Vec<PlanError> {
    let mut errs = Vec::new();
    walk(plan, ctx, strictness, false, &mut errs);
    errs
}

fn walk(
    plan: &Plan,
    ctx: &PlanContext,
    strictness: Strictness,
    in_background: bool,
    errs: &mut Vec<PlanError>,
) {
    match plan {
        Plan::Noop | Plan::Delay(_) => {}
        Plan::Use { res, demand } => {
            if res.index() >= ctx.resources {
                errs.push(PlanError::UnknownResource { res: *res, registered: ctx.resources });
            }
            if strictness == Strictness::Strict && demand_is_empty_transfer(demand) {
                errs.push(PlanError::ZeroByteUse { res: *res });
            }
        }
        Plan::Seq(v) => walk_seq(v, ctx, strictness, in_background, errs),
        Plan::Shared(v) => walk_seq(v, ctx, strictness, in_background, errs),
        Plan::Par(v) => {
            if v.is_empty() && strictness == Strictness::Strict {
                errs.push(PlanError::EmptyPar);
            }
            for p in v {
                walk(p, ctx, strictness, in_background, errs);
            }
        }
        Plan::Background(p) => walk(p, ctx, strictness, true, errs),
        Plan::Barrier(id) => {
            if !ctx.barriers.contains_key(id) {
                errs.push(PlanError::UnregisteredBarrier { id: *id });
            }
            if in_background {
                errs.push(PlanError::BarrierInBackground { id: *id });
            }
        }
    }
}

/// The steps of a `Seq` or a `Shared`: the two differ only in who owns them.
fn walk_seq(
    steps: &[Plan],
    ctx: &PlanContext,
    strictness: Strictness,
    in_background: bool,
    errs: &mut Vec<PlanError>,
) {
    if steps.is_empty() && strictness == Strictness::Strict {
        errs.push(PlanError::EmptySeq);
    }
    for p in steps {
        walk(p, ctx, strictness, in_background, errs);
    }
}

/// Concurrent arrivals this plan contributes to each barrier per cycle:
/// `Par` children arrive together (sum); `Seq` children and `Shared`
/// steps arrive on successive cycles (max); `Background` subtrees are
/// excluded (they are already an error).
pub fn barrier_arrivals(plan: &Plan, out: &mut HashMap<BarrierId, usize>) {
    fn successive(steps: &[Plan], acc: &mut HashMap<BarrierId, usize>) {
        let mut max: HashMap<BarrierId, usize> = HashMap::new();
        for p in steps {
            let mut child = HashMap::new();
            arrivals(p, &mut child);
            #[expect(
                clippy::iter_over_hash_type,
                reason = "commutative max-merge, order-insensitive."
            )]
            for (id, n) in child {
                let e = max.entry(id).or_insert(0);
                *e = (*e).max(n);
            }
        }
        #[expect(
            clippy::iter_over_hash_type,
            reason = "commutative addition into the accumulator."
        )]
        for (id, n) in max {
            *acc.entry(id).or_insert(0) += n;
        }
    }
    fn arrivals(plan: &Plan, acc: &mut HashMap<BarrierId, usize>) {
        match plan {
            Plan::Barrier(id) => {
                *acc.entry(*id).or_insert(0) += 1;
            }
            Plan::Seq(v) => successive(v, acc),
            Plan::Shared(v) => successive(v, acc),
            Plan::Par(v) => {
                for p in v {
                    arrivals(p, acc);
                }
            }
            Plan::Noop | Plan::Delay(_) | Plan::Use { .. } | Plan::Background(_) => {}
        }
    }
    let mut acc = HashMap::new();
    arrivals(plan, &mut acc);
    #[expect(clippy::iter_over_hash_type, reason = "commutative addition into the output map.")]
    for (id, n) in acc {
        *out.entry(id).or_insert(0) += n;
    }
}

/// Validate a whole job set: every plan individually, plus the cross-job
/// barrier participant accounting.
pub fn lint_jobs(plans: &[Plan], ctx: &PlanContext) -> Vec<PlanError> {
    let mut errs = Vec::new();
    let mut arriving: HashMap<BarrierId, usize> = HashMap::new();
    for p in plans {
        walk(p, ctx, Strictness::Strict, false, &mut errs);
        barrier_arrivals(p, &mut arriving);
    }
    #[expect(
        clippy::disallowed_methods,
        reason = "sorted immediately below so the error list is deterministic."
    )]
    let mut ordered: Vec<(BarrierId, usize)> =
        ctx.barriers.iter().map(|(&id, &needed)| (id, needed)).collect();
    ordered.sort_by_key(|(id, _)| id.0);
    for (id, needed) in ordered {
        let n = arriving.get(&id).copied().unwrap_or(0);
        if n != needed && n > 0 {
            errs.push(PlanError::ParticipantMismatch { id, registered: needed, arriving: n });
        }
    }
    errs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{background, barrier, par, seq, shared, use_res};
    use crate::time::SimDuration;

    fn ctx() -> PlanContext {
        PlanContext { resources: 2, barriers: [(BarrierId(1), 2)].into_iter().collect() }
    }

    fn disk(res: u32, bytes: u64) -> Plan {
        use_res(ResourceId(res), Demand::DiskWrite { offset: 0, bytes })
    }

    #[test]
    fn clean_plan_passes() {
        let p = seq(vec![disk(0, 64), par(vec![disk(1, 32), barrier(BarrierId(1))])]);
        assert!(lint_plan(&p, &ctx(), Strictness::Strict).is_empty());
    }

    #[test]
    fn unknown_resource_rejected() {
        let p = disk(7, 64);
        let errs = lint_plan(&p, &ctx(), Strictness::Structural);
        assert!(matches!(errs[0], PlanError::UnknownResource { .. }));
    }

    #[test]
    fn unregistered_barrier_rejected() {
        let errs = lint_plan(&barrier(BarrierId(9)), &ctx(), Strictness::Structural);
        assert!(matches!(errs[0], PlanError::UnregisteredBarrier { .. }));
    }

    #[test]
    fn barrier_in_background_rejected() {
        let p = seq(vec![disk(0, 64), background(seq(vec![barrier(BarrierId(1))]))]);
        let errs = lint_plan(&p, &ctx(), Strictness::Structural);
        assert_eq!(errs, vec![PlanError::BarrierInBackground { id: BarrierId(1) }]);
    }

    #[test]
    fn hygiene_only_in_strict() {
        let p = seq(vec![Plan::Seq(Vec::new()), Plan::Par(Vec::new()), disk(0, 0)]);
        assert!(lint_plan(&p, &ctx(), Strictness::Structural).is_empty());
        let errs = lint_plan(&p, &ctx(), Strictness::Strict);
        assert_eq!(errs.len(), 3, "{errs:?}");
        // An empty `Shared` is an empty `Seq`.
        assert!(lint_plan(&shared(Vec::new()), &ctx(), Strictness::Structural).is_empty());
        assert_eq!(
            lint_plan(&shared(Vec::new()), &ctx(), Strictness::Strict),
            [PlanError::EmptySeq]
        );
    }

    #[test]
    fn defects_inside_shared_steps_are_reported() {
        let b = BarrierId(1);
        let p = seq(vec![
            shared(vec![disk(0, 64), disk(7, 64), disk(1, 0)]),
            background(shared(vec![disk(0, 8), barrier(b)])),
            par(vec![shared(vec![barrier(b)]), disk(1, 8)]),
        ]);
        assert_eq!(
            lint_plan(&p, &ctx(), Strictness::Strict),
            [
                PlanError::UnknownResource { res: ResourceId(7), registered: 2 },
                PlanError::ZeroByteUse { res: ResourceId(1) },
                PlanError::BarrierInBackground { id: b },
            ]
        );
    }

    #[test]
    fn busy_demand_is_not_a_zero_byte_transfer() {
        let p = use_res(ResourceId(0), Demand::Busy(SimDuration::from_micros(1)));
        assert!(lint_plan(&p, &ctx(), Strictness::Strict).is_empty());
    }

    #[test]
    fn participant_accounting_seq_vs_par() {
        // Two jobs: one arrives twice sequentially (two cycles, one
        // concurrent arrival), one arrives in two parallel branches.
        let b = BarrierId(1);
        let j0 = seq(vec![barrier(b), disk(0, 8), barrier(b)]);
        let j1 = par(vec![barrier(b), barrier(b)]);
        let mut arr = HashMap::new();
        barrier_arrivals(&j0, &mut arr);
        assert_eq!(arr[&b], 1);
        barrier_arrivals(&j1, &mut arr);
        assert_eq!(arr[&b], 3);
        // `Shared` steps count as `Seq` children do: successive cycles,
        // and a `Par` among them still arrives together.
        let j2 = shared(vec![barrier(b), disk(0, 8), j1.clone(), barrier(b)]);
        let mut arr = HashMap::new();
        barrier_arrivals(&j2, &mut arr);
        assert_eq!(arr[&b], 2);
        barrier_arrivals(&par(vec![j2, shared(vec![barrier(b)])]), &mut arr);
        assert_eq!(arr[&b], 5);
    }

    #[test]
    fn job_set_mismatch_detected() {
        let b = BarrierId(1); // registered for 2
        let plans = vec![barrier(b)]; // only one job arrives
        let errs = lint_jobs(&plans, &ctx());
        assert!(
            errs.iter().any(|e| matches!(
                e,
                PlanError::ParticipantMismatch { registered: 2, arriving: 1, .. }
            )),
            "{errs:?}"
        );
    }

    #[test]
    fn job_set_exact_match_passes() {
        let b = BarrierId(1);
        let plans = vec![barrier(b), seq(vec![disk(0, 4), barrier(b)])];
        assert!(lint_jobs(&plans, &ctx()).is_empty());
    }
}
