//! Resource queueing: arrival, service start and completion.
//!
//! Every resource keeps two queues, one per traffic class: demands of
//! foreground tasks and demands of detached ([`Plan::Background`]) ones.
//! A waiting foreground demand always starts before a waiting background
//! one; service is never preempted, and within a class the order is
//! arrival order (or the model's pick among that class).
//!
//! A queue entry is 40 bytes — who waits, since when, and the queued
//! [`Demand`], which moves into the slot when service starts. A
//! completion thus reads the next demand from the queue it pops, and a
//! non-FIFO model picks over the entries themselves; neither touches the
//! waiting task's slot.
//!
//! [`Plan::Background`]: crate::plan::Plan::Background

use std::collections::VecDeque;

use super::{Engine, EventKind, TaskId};
use crate::demand::Demand;
use crate::resource::{ResourceId, ResourceStats, ServiceModel};
use crate::time::SimTime;
use crate::trace::TraceEvent;

/// A task waiting for a resource with the demand it presented.
struct Waiter {
    task: TaskId,
    enqueued: SimTime,
    demand: Demand,
}

/// The demand a resource is serving, and for whom.
struct InService {
    task: TaskId,
    demand: Demand,
}

/// Internal resource record owned by the engine.
pub(super) struct ResourceSlot {
    pub(super) name: String,
    model: Box<dyn ServiceModel>,
    /// [`ServiceModel::is_fifo`], asked once at registration.
    fifo: bool,
    /// Waiters by traffic class: `[foreground, background]`.
    queues: [VecDeque<Waiter>; 2],
    current: Option<InService>,
    pub(super) stats: ResourceStats,
    /// Service-time multiplier applied on top of the model (1 = nominal).
    /// Fault injection uses this for "slow but alive" components, so any
    /// [`ServiceModel`] degrades uniformly without knowing about faults.
    pub(super) slowdown: u64,
}

impl ResourceSlot {
    pub(super) fn new(name: String, model: Box<dyn ServiceModel>) -> Self {
        ResourceSlot {
            name,
            fifo: model.is_fifo(),
            model,
            queues: [VecDeque::new(), VecDeque::new()],
            current: None,
            stats: ResourceStats::default(),
            slowdown: 1,
        }
    }
}

impl Engine {
    /// `tid` presents `demand` at `rid`: service starts at once on an idle
    /// resource, otherwise the task joins the queue.
    pub(super) fn enqueue(&mut self, rid: ResourceId, tid: TaskId, demand: Demand) {
        let now = self.now;
        let detached = self.tasks[tid.index()].detached;
        let slot = &mut self.resources[rid.index()];
        let [fg, bg] = &mut slot.queues;
        let depth = fg.len() + bg.len() + usize::from(slot.current.is_some()) + 1;
        slot.stats.max_queue = slot.stats.max_queue.max(depth);
        if let Some(tr) = &self.tracer {
            let (kind, bytes) = ((&demand).into(), demand.bytes());
            tr.record(
                now,
                TraceEvent::Enqueued { res: rid.0, task: tid.0, kind, bytes, depth, detached },
            );
            self.stats.on_tracer_records(1);
        }
        if slot.current.is_some() {
            let queue = if detached { bg } else { fg };
            queue.push_back(Waiter { task: tid, enqueued: now, demand });
        } else {
            self.start_service(rid, tid, demand, now, detached);
        }
    }

    /// Put `demand` of the task `tid` (background iff `detached`), which
    /// arrived at `enqueued`, into service on the idle resource `rid` and
    /// schedule its completion.
    fn start_service(
        &mut self,
        rid: ResourceId,
        tid: TaskId,
        demand: Demand,
        enqueued: SimTime,
        detached: bool,
    ) {
        let now = self.now;
        let slot = &mut self.resources[rid.index()];
        let waited = now.since(enqueued);
        let st = slot.model.service_time(&demand, now) * slot.slowdown;
        slot.stats.queue_wait += waited;
        slot.stats.busy += st;
        slot.stats.ops += 1;
        slot.stats.bytes += demand.bytes();
        if detached {
            slot.stats.bg_ops += 1;
            slot.stats.bg_queue_wait += waited;
        }
        let done_at = now + st;
        if let Some(tr) = &self.tracer {
            tr.record(
                now,
                TraceEvent::ServiceStarted {
                    res: rid.0,
                    task: tid.0,
                    kind: (&demand).into(),
                    bytes: demand.bytes(),
                    waited_ns: waited.as_nanos(),
                    done_at_ns: done_at.as_nanos(),
                    detached,
                },
            );
            self.stats.on_tracer_records(1);
        }
        slot.current = Some(InService { task: tid, demand });
        self.schedule(done_at, EventKind::ResourceDone(rid));
    }

    /// The demand in service at `rid` completed: start the next waiter —
    /// from the foreground queue unless it is empty; the head of that
    /// queue, or the model's pick from it on a non-FIFO resource — and
    /// resume the served task.
    pub(super) fn resource_done(&mut self, rid: ResourceId) {
        let slot = &mut self.resources[rid.index()];
        #[expect(
            clippy::expect_used,
            reason = "resource-done events are only queued for busy slots"
        )]
        let done = slot.current.take().expect("resource-done with idle resource");
        if let Some(tr) = &self.tracer {
            tr.record(
                self.now,
                TraceEvent::ServiceFinished {
                    res: rid.0,
                    task: done.task.0,
                    kind: (&done.demand).into(),
                    bytes: done.demand.bytes(),
                    detached: self.tasks[done.task.index()].detached,
                },
            );
            self.stats.on_tracer_records(1);
        }
        // Background is served only when no foreground demand waits.
        let detached = slot.queues[0].is_empty();
        let queue = &mut slot.queues[usize::from(detached)];
        let next = match queue.len() {
            n if n >= 2 && !slot.fifo => {
                self.stats.on_queue_scan(n);
                let mut pending = queue.iter().map(|w| &w.demand);
                let idx = slot.model.select_next(&mut pending);
                assert!(
                    idx < n,
                    "service model of `{}` picked pending demand {idx} of {n}",
                    slot.name
                );
                queue.remove(idx)
            }
            _ => queue.pop_front(),
        };
        if let Some(Waiter { task, enqueued, demand }) = next {
            self.start_service(rid, task, demand, enqueued, detached);
        }
        self.advance(done.task);
    }
}

#[cfg(test)]
mod tests {
    use super::Waiter;
    use std::mem::size_of;

    /// Deep queues are scanned entry by entry on non-FIFO resources.
    #[test]
    fn a_queue_entry_stays_small() {
        assert!(size_of::<Waiter>() <= 40, "Waiter is {} bytes", size_of::<Waiter>());
    }
}
