//! Static validation of [`Plan`] DAGs before execution.
//!
//! A malformed plan either deadlocks the engine (a barrier nobody else
//! reaches, a barrier parked inside a detached subtree) or panics deep in
//! the event loop (an unknown resource id). This module rejects those
//! shapes *before* any event fires, with an error that names the offending
//! node. [`Engine::validate`](crate::Engine::validate) checks one plan
//! against the engine's registered resources and barriers.

use crate::demand::Demand;
use crate::plan::{BarrierId, Plan};
use crate::resource::ResourceId;
use std::collections::HashSet;

/// A defect found in a [`Plan`] by static validation.
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
        }
    }
}

impl std::error::Error for PlanError {}

/// What a plan is validated against: the registered resources and barriers
/// of the engine that will execute it.
#[derive(Debug, Clone, Default)]
pub(crate) struct PlanContext {
    /// Number of registered resources (ids are dense, so a bound suffices).
    pub(crate) resources: usize,
    /// Registered barriers.
    pub(crate) barriers: HashSet<BarrierId>,
}

/// Severity classes of [`PlanError`], used to pick which checks gate
/// spawning (debug assertions) versus full linting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Strictness {
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
pub(crate) fn lint_plan(plan: &Plan, ctx: &PlanContext, strictness: Strictness) -> Vec<PlanError> {
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
        Plan::Seq(v) => {
            if v.is_empty() && strictness == Strictness::Strict {
                errs.push(PlanError::EmptySeq);
            }
            for p in v {
                walk(p, ctx, strictness, in_background, errs);
            }
        }
        Plan::Par(v) => {
            if v.is_empty() && strictness == Strictness::Strict {
                errs.push(PlanError::EmptyPar);
            }
            for p in v {
                walk(p, ctx, strictness, in_background, errs);
            }
        }
        Plan::Fan(f) => {
            // The `Par` of the arms' chains, with each shared step walked
            // once rather than once per arm.
            if strictness == Strictness::Strict {
                if f.arms.is_empty() {
                    errs.push(PlanError::EmptyPar);
                }
                if f.head.is_empty() && f.tail.is_empty() && f.arms.iter().any(|a| a.is_empty()) {
                    errs.push(PlanError::EmptySeq);
                }
            }
            for p in f.head.iter().chain(f.arms.iter().flat_map(|a| a.iter())).chain(&f.tail) {
                walk(p, ctx, strictness, in_background, errs);
            }
        }
        Plan::Background(p) => walk(p, ctx, strictness, true, errs),
        Plan::Barrier(id) => {
            if !ctx.barriers.contains(id) {
                errs.push(PlanError::UnregisteredBarrier { id: *id });
            }
            if in_background {
                errs.push(PlanError::BarrierInBackground { id: *id });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{background, barrier, fan, par, seq, use_res};
    use crate::time::SimDuration;

    fn ctx() -> PlanContext {
        PlanContext { resources: 2, barriers: [BarrierId(1)].into_iter().collect() }
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
    }

    #[test]
    fn an_empty_fan_is_an_empty_par() {
        let empty = fan(Vec::new(), Vec::new(), Vec::new());
        assert!(lint_plan(&empty, &ctx(), Strictness::Structural).is_empty());
        assert_eq!(lint_plan(&empty, &ctx(), Strictness::Strict), [PlanError::EmptyPar]);
        // An arm whose whole chain is empty is an empty `Seq`.
        let hollow = fan(Vec::new(), vec![Vec::new().into()], Vec::new());
        assert_eq!(lint_plan(&hollow, &ctx(), Strictness::Strict), [PlanError::EmptySeq]);
        let tailed = fan(Vec::new(), vec![Vec::new().into()], vec![disk(0, 8)]);
        assert!(lint_plan(&tailed, &ctx(), Strictness::Strict).is_empty());
    }

    #[test]
    fn defects_in_a_fans_head_arm_or_tail_are_reported() {
        let b = BarrierId(1);
        let arms = || vec![vec![disk(0, 8)].into(), vec![disk(7, 64)].into()];
        let p = seq(vec![
            fan(vec![disk(1, 0)], arms(), vec![disk(1, 8)]),
            fan(vec![barrier(b)], vec![vec![disk(0, 8)].into()], vec![disk(5, 8)]),
            background(fan(vec![disk(0, 8)], vec![vec![barrier(b)].into()], Vec::new())),
        ]);
        assert_eq!(
            lint_plan(&p, &ctx(), Strictness::Strict),
            [
                PlanError::ZeroByteUse { res: ResourceId(1) },
                PlanError::UnknownResource { res: ResourceId(7), registered: 2 },
                PlanError::UnknownResource { res: ResourceId(5), registered: 2 },
                PlanError::BarrierInBackground { id: b },
            ]
        );
    }

    #[test]
    fn busy_demand_is_not_a_zero_byte_transfer() {
        let p = use_res(ResourceId(0), Demand::Busy(SimDuration::from_micros(1)));
        assert!(lint_plan(&p, &ctx(), Strictness::Strict).is_empty());
    }
}
