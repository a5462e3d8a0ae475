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
//! walks it. The one exception is [`Plan::Shared`]: a sub-plan that is a
//! constant of the system (the CDD lock broadcast of one client) is built
//! once behind an `Arc` and every request carries a handle to it.

use std::sync::Arc;

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
    /// Steps run one after another, exactly like [`Plan::Seq`], but the
    /// steps are immutable and shared: cloning the node copies a handle,
    /// and the engine walks the buffer by index, cloning one step at a time
    /// and never freeing or copying the buffer itself. Meant for a
    /// sub-plan that is the same for every request — build it once, keep
    /// it as long as the system that issues it, push a clone per request.
    /// Steps should be leaves (`Use`, `Delay`, `Barrier`, `Noop`): a
    /// non-leaf step is deep-cloned each time a task enters it, which is
    /// correct but gives back what sharing saves.
    Shared(Arc<[Plan]>),
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
            Plan::Shared(v) => v.iter().map(Plan::disk_bytes).sum(),
            Plan::Background(p) => p.disk_bytes(),
            Plan::Noop | Plan::Delay(_) | Plan::Use { .. } | Plan::Barrier(_) => 0,
        }
    }

    /// Number of `Use` leaves in the plan.
    pub fn leaf_count(&self) -> usize {
        match self {
            Plan::Use { .. } => 1,
            Plan::Seq(v) | Plan::Par(v) => v.iter().map(Plan::leaf_count).sum(),
            Plan::Shared(v) => v.iter().map(Plan::leaf_count).sum(),
            Plan::Background(p) => p.leaf_count(),
            Plan::Noop | Plan::Delay(_) | Plan::Barrier(_) => 0,
        }
    }
}

/// Sequential composition.
pub fn seq(children: Vec<Plan>) -> Plan {
    Plan::Seq(children)
}

/// Sequential composition of immutable, shared steps (see [`Plan::Shared`]).
pub fn shared(steps: Vec<Plan>) -> Plan {
    Plan::Shared(steps.into())
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
            shared(vec![disk_use(400), Plan::Noop, seq(vec![disk_use(500)])]),
        ]);
        assert_eq!(p.disk_bytes(), 1500);
        assert_eq!(p.leaf_count(), 6);
    }
}
