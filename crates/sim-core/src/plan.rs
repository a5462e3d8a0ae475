//! Plans: explicit DAGs of simulated activity.
//!
//! Instead of coroutines, a simulated operation is described up front as a
//! [`Plan`] tree which the engine interprets. This keeps the engine
//! deterministic and lets higher layers (the RAID engines) express structure
//! directly: a full-stripe write is `par(per-disk chains)`, RAID-x's deferred
//! image flush is `background(...)`, and an MPI-style barrier is
//! `barrier(id)`.
//!
//! A plan is owned by the request it describes and freed as the engine
//! walks it. The one exception is [`Plan::Fan`]: a sub-plan that is a
//! constant of the system (the CDD lock broadcast of one client) is built
//! once behind an `Arc` and every request carries a handle to it.

use std::sync::Arc;

use crate::demand::Demand;
use crate::resource::ResourceId;
use crate::time::SimDuration;

/// The steps of a [`Plan::Fan`]: one chain per arm, `head ++ arm ++ tail`,
/// with every step stored once. An arm is itself shared, so one arm may
/// sit in many fans. Steps should be leaves (`Use`, `Delay`, `Barrier`,
/// `Noop`): a non-leaf step is deep-cloned each time a task enters it,
/// which is correct but gives back what sharing saves.
#[derive(Debug)]
pub struct Fan {
    /// Steps every arm's chain starts with.
    pub head: Vec<Plan>,
    /// The arms, one chain and one task each.
    pub arms: Vec<Arc<[Plan]>>,
    /// Steps every arm's chain ends with.
    pub tail: Vec<Plan>,
}

impl Fan {
    /// Step `at` of arm `arm`'s chain `head ++ arms[arm] ++ tail`, or
    /// `None` past its end.
    pub(crate) fn step(&self, arm: usize, at: usize) -> Option<&Plan> {
        let body = &self.arms[arm];
        match at.checked_sub(self.head.len()) {
            None => self.head.get(at),
            Some(i) if i < body.len() => body.get(i),
            Some(i) => self.tail.get(i - body.len()),
        }
    }

    /// The steps of arm `arm`'s chain, in order.
    pub fn chain(&self, arm: usize) -> impl Iterator<Item = &Plan> {
        self.head.iter().chain(self.arms[arm].iter()).chain(&self.tail)
    }

    /// Every step of every arm's chain, as they run: the head and the
    /// tail once per arm.
    pub fn chains(&self) -> impl Iterator<Item = &Plan> {
        (0..self.arms.len()).flat_map(|arm| self.chain(arm))
    }
}

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
    /// A fan of chains with a common head and tail, run exactly like
    /// `par(arms.map(|a| seq(head ++ a ++ tail)))` (see [`Fan`]), but
    /// immutable and shared: cloning the node copies a handle, and each arm
    /// task walks the fan by index, cloning one step at a time and never
    /// freeing or copying a buffer. Meant for a sub-plan that is the same
    /// for every request — build it once, keep it as long as the system
    /// that issues it, push a clone per request.
    Fan(Arc<Fan>),
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
            Plan::Fan(f) => f.chains().map(Plan::disk_bytes).sum(),
            Plan::Background(p) => p.disk_bytes(),
            Plan::Noop | Plan::Delay(_) | Plan::Use { .. } | Plan::Barrier(_) => 0,
        }
    }

    /// Number of `Use` leaves in the plan.
    pub fn leaf_count(&self) -> usize {
        match self {
            Plan::Use { .. } => 1,
            Plan::Seq(v) | Plan::Par(v) => v.iter().map(Plan::leaf_count).sum(),
            Plan::Fan(f) => f.chains().map(Plan::leaf_count).sum(),
            Plan::Background(p) => p.leaf_count(),
            Plan::Noop | Plan::Delay(_) | Plan::Barrier(_) => 0,
        }
    }
}

/// Sequential composition.
pub fn seq(children: Vec<Plan>) -> Plan {
    Plan::Seq(children)
}

/// A shared fan: `par(arms.map(|a| seq(head ++ a ++ tail)))` with every
/// step stored once (see [`Plan::Fan`]).
pub fn fan(head: Vec<Plan>, arms: Vec<Arc<[Plan]>>, tail: Vec<Plan>) -> Plan {
    Plan::Fan(Arc::new(Fan { head, arms, tail }))
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
            fan(
                vec![disk_use(400), Plan::Noop],
                vec![vec![seq(vec![disk_use(500)])].into(), Vec::new().into()],
                vec![disk_use(600)],
            ),
        ]);
        // The head and tail run once per arm.
        assert_eq!(p.disk_bytes(), 600 + 2 * 1000 + 500);
        assert_eq!(p.leaf_count(), 4 + 2 * 2 + 1);
    }

    #[test]
    fn a_fan_step_walks_head_arm_tail() {
        let f = Fan {
            head: vec![disk_use(1), disk_use(2)],
            arms: vec![
                vec![disk_use(10)].into(),
                Vec::new().into(),
                vec![disk_use(30), disk_use(31)].into(),
            ],
            tail: vec![disk_use(9)],
        };
        for arm in 0..3 {
            let walked: Vec<u64> =
                (0..).map_while(|at| f.step(arm, at)).map(Plan::disk_bytes).collect();
            let chained: Vec<u64> = f.chain(arm).map(Plan::disk_bytes).collect();
            assert_eq!(walked, chained, "arm {arm}");
        }
        assert_eq!(f.chain(2).map(Plan::disk_bytes).collect::<Vec<_>>(), [1, 2, 30, 31, 9]);
        assert!(f.step(1, 3).is_none());
    }
}
