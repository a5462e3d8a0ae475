//! Plans: explicit DAGs of simulated activity.
//!
//! Instead of coroutines, a simulated operation is described up front as a
//! [`Plan`] tree which the engine interprets. This keeps the engine
//! deterministic and lets higher layers (the RAID engines) express structure
//! directly: a full-stripe write is `par(per-disk chains)`, RAID-x's deferred
//! image flush is `background(...)`, and an MPI-style barrier is
//! `barrier(id)`.

use crate::demand::Demand;
use crate::resource::ResourceId;
use crate::time::SimDuration;

/// Identifier for a named cross-job barrier (see [`Engine::register_barrier`](crate::Engine::register_barrier)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BarrierId(pub u32);

/// A tree of simulated activity.
#[derive(Debug, Clone)]
pub enum Plan {
    /// Completes immediately.
    Noop,
    /// Pure passage of simulated time, consuming no resource.
    Delay(SimDuration),
    /// Queue `demand` at `res` and hold it for the model-computed service
    /// time.
    Use {
        /// Target resource.
        res: ResourceId,
        /// Work requested from it.
        demand: Demand,
    },
    /// Children run one after another.
    Seq(Vec<Plan>),
    /// Children run concurrently; the node completes when all do.
    Par(Vec<Plan>),
    /// Child runs detached: the node completes immediately while the child
    /// continues concurrently (RAID-x background image flushes, write-behind
    /// caches). Detached work still occupies resources and is drained before
    /// [`Engine::run`](crate::Engine::run) returns. It is the engine's
    /// second traffic class: at every resource a waiting demand of a
    /// detached task (the child and all its descendants) starts only when
    /// no foreground demand waits there. Service is never preempted, so a
    /// foreground demand waits for at most the one background demand
    /// already in service; nothing ages a background demand forward, so a
    /// foreground that keeps a resource's queue non-empty starves it there.
    Background(Box<Plan>),
    /// Block until every registered participant of the barrier arrives; the
    /// barrier then resets (cyclic, like `MPI_Barrier`).
    Barrier(BarrierId),
}

impl Plan {
    /// Total bytes demanded from disks by this plan (foreground and
    /// background), useful for sanity-checking workload construction.
    pub fn disk_bytes(&self) -> u64 {
        match self {
            Plan::Use { demand, .. } if (demand.is_disk_read() || demand.is_disk_write()) => {
                demand.bytes()
            }
            Plan::Seq(v) | Plan::Par(v) => v.iter().map(Plan::disk_bytes).sum(),
            Plan::Background(p) => p.disk_bytes(),
            Plan::Noop | Plan::Delay(_) | Plan::Use { .. } | Plan::Barrier(_) => 0,
        }
    }

    /// Number of `Use` leaves in the plan.
    pub fn leaf_count(&self) -> usize {
        match self {
            Plan::Use { .. } => 1,
            Plan::Seq(v) | Plan::Par(v) => v.iter().map(Plan::leaf_count).sum(),
            Plan::Background(p) => p.leaf_count(),
            Plan::Noop | Plan::Delay(_) | Plan::Barrier(_) => 0,
        }
    }

    /// Flatten nested empty/singleton combinators (cheap cosmetic
    /// normalization; the engine does not require it).
    #[expect(clippy::wildcard_enum_match_arm, reason = "unflattened children are kept whole")]
    pub fn simplify(self) -> Plan {
        match self {
            Plan::Seq(v) => {
                let mut out: Vec<Plan> = Vec::with_capacity(v.len());
                for p in v {
                    match p.simplify() {
                        Plan::Noop => {}
                        Plan::Seq(inner) => out.extend(inner),
                        other => out.push(other),
                    }
                }
                match out.len() {
                    0 => Plan::Noop,
                    #[expect(
                        clippy::expect_used,
                        reason = "arm guarded by the len()==1 match above"
                    )]
                    1 => out.pop().expect("len checked"),
                    _ => Plan::Seq(out),
                }
            }
            Plan::Par(v) => {
                let mut out: Vec<Plan> = Vec::with_capacity(v.len());
                for p in v {
                    match p.simplify() {
                        Plan::Noop => {}
                        Plan::Par(inner) => out.extend(inner),
                        other => out.push(other),
                    }
                }
                match out.len() {
                    0 => Plan::Noop,
                    #[expect(
                        clippy::expect_used,
                        reason = "arm guarded by the len()==1 match above"
                    )]
                    1 => out.pop().expect("len checked"),
                    _ => Plan::Par(out),
                }
            }
            Plan::Background(p) => match p.simplify() {
                Plan::Noop => Plan::Noop,
                other => Plan::Background(Box::new(other)),
            },
            other @ (Plan::Noop | Plan::Delay(_) | Plan::Use { .. } | Plan::Barrier(_)) => other,
        }
    }
}

/// Sequential composition.
pub fn seq(children: Vec<Plan>) -> Plan {
    Plan::Seq(children)
}

/// Parallel composition (fork/join).
pub fn par(children: Vec<Plan>) -> Plan {
    Plan::Par(children)
}

/// A single resource usage.
pub fn use_res(res: ResourceId, demand: Demand) -> Plan {
    Plan::Use { res, demand }
}

/// Pure delay.
pub fn delay(d: SimDuration) -> Plan {
    Plan::Delay(d)
}

/// Detached (fire-and-forget) child.
pub fn background(p: Plan) -> Plan {
    Plan::Background(Box::new(p))
}

/// Cyclic barrier wait.
pub fn barrier(id: BarrierId) -> Plan {
    Plan::Barrier(id)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn disk_use(bytes: u64) -> Plan {
        use_res(ResourceId(0), Demand::DiskWrite { offset: 0, bytes })
    }

    #[test]
    fn disk_bytes_sums_recursively() {
        let p = seq(vec![
            disk_use(100),
            par(vec![disk_use(200), background(disk_use(300))]),
            use_res(ResourceId(1), Demand::NetXfer { bytes: 999 }),
        ]);
        assert_eq!(p.disk_bytes(), 600);
        assert_eq!(p.leaf_count(), 4);
    }

    #[test]
    fn simplify_collapses_trivia() {
        let p = seq(vec![
            Plan::Noop,
            seq(vec![disk_use(1), Plan::Noop]),
            par(vec![]),
            background(Plan::Noop),
        ])
        .simplify();
        assert!(matches!(p, Plan::Use { .. }), "expected single Use, got {p:?}");
    }

    #[test]
    fn simplify_keeps_structure() {
        let p = par(vec![disk_use(1), disk_use(2)]).simplify();
        assert!(matches!(p, Plan::Par(ref v) if v.len() == 2));
        assert_eq!(p.disk_bytes(), 3);
    }
}
