//! Task lifecycle: spawning plan instances, stepping them in place and
//! retiring them.
//!
//! A task walks its plan through a stack of frames. The innermost frame is
//! stored inline, so stepping a `Seq` chain touches the task and the plan
//! buffer only; outer frames sit in a `Vec` whose capacity a freed slot
//! keeps for its next tenant. Plan memory is released progressively: a
//! `Seq`'s buffer is freed the moment its iterator runs dry. A `Fan` is
//! the exception by design: each of its arm tasks holds a handle, the arm
//! and a position, each step is cloned out as it is reached, and the
//! buffers belong to whoever built the fan — any number of live tasks may
//! be inside one at once.

use std::sync::Arc;

use super::{Engine, EventKind, JobId, TaskId};
use crate::demand::Demand;
use crate::plan::{Fan, Plan};
use crate::trace::TraceEvent;

/// A position in a plan: what remains to run at one nesting level.
pub(super) enum Frame {
    /// A lone plan node not yet entered (`None` once taken).
    One(Option<Plan>),
    /// The remaining children of a `Seq`.
    Seq(std::vec::IntoIter<Plan>),
    /// One arm's chain of a `Fan`: the arm, and the position of the next
    /// step in `head ++ arm ++ tail`.
    Fan(Arc<Fan>, usize, usize),
}

impl Frame {
    /// Enter `plan`: a `Seq` is walked through its own iterator, anything
    /// else runs as a one-shot frame.
    #[expect(
        clippy::wildcard_enum_match_arm,
        reason = "any node that is not a chain runs as a one-shot frame"
    )]
    pub(super) fn enter(plan: Plan) -> Frame {
        match plan {
            Plan::Seq(v) => Frame::Seq(v.into_iter()),
            other => Frame::One(Some(other)),
        }
    }

    fn next(&mut self) -> Option<Plan> {
        match self {
            Frame::One(p) => p.take(),
            Frame::Seq(it) => it.next(),
            Frame::Fan(fan, arm, at) => {
                let step = fan.step(*arm, *at)?.clone();
                *at += 1;
                Some(step)
            }
        }
    }
}

pub(super) struct Task {
    /// Innermost frame.
    top: Frame,
    /// Enclosing frames, outermost first.
    outer: Vec<Frame>,
    /// The demand this task has queued at a resource, until service starts.
    pub(super) waiting: Option<Demand>,
    parent: Option<TaskId>,
    /// Outstanding `Par` children; the task resumes when this hits zero.
    join_remaining: usize,
    /// Set on the root task of a foreground job.
    job: Option<JobId>,
    /// Detached (`Background`) tasks don't gate job completion but do gate
    /// `run()` returning.
    pub(super) detached: bool,
    /// False while the slot sits on the free list.
    pub(super) live: bool,
}

impl Task {
    /// The demand of a task that sits in a resource queue.
    pub(super) fn queued_demand(&self) -> &Demand {
        #[expect(clippy::expect_used, reason = "enqueue stores the demand with every queue entry")]
        self.waiting.as_ref().expect("queued task holds no demand")
    }
}

impl Engine {
    pub(super) fn new_task(
        &mut self,
        top: Frame,
        parent: Option<TaskId>,
        job: Option<JobId>,
        detached: bool,
    ) -> TaskId {
        self.live_total += 1;
        let mut task = Task {
            top,
            outer: Vec::new(),
            waiting: None,
            parent,
            join_remaining: 0,
            job,
            detached,
            live: true,
        };
        let tid = if let Some(idx) = self.free_tasks.pop() {
            self.stats.on_task_spawn(false);
            let slot = &mut self.tasks[idx as usize];
            debug_assert!(!slot.live && slot.outer.is_empty());
            // The new tenant inherits the slot's frame-stack capacity.
            std::mem::swap(&mut task.outer, &mut slot.outer);
            *slot = task;
            TaskId(idx)
        } else {
            self.stats.on_task_spawn(true);
            #[expect(clippy::expect_used, reason = "u32 task-id space is a sim capacity invariant")]
            let idx = u32::try_from(self.tasks.len()).expect("too many tasks");
            self.tasks.push(task);
            TaskId(idx)
        };
        if let Some(tr) = &self.tracer {
            let parent = parent.map(|p| p.0);
            tr.record(self.now, TraceEvent::TaskSpawned { task: tid.0, parent, detached });
            self.stats.on_tracer_records(1);
        }
        tid
    }

    /// Drive `tid` forward until it suspends or completes.
    pub(super) fn advance(&mut self, tid: TaskId) {
        assert!(self.tasks[tid.index()].live, "advancing a dead task");
        loop {
            let task = &mut self.tasks[tid.index()];
            let Some(next) = task.top.next() else {
                // The dry frame is dropped here, freeing its plan buffer.
                match task.outer.pop() {
                    Some(frame) => task.top = frame,
                    None => {
                        task.top = Frame::One(None);
                        self.finish_task(tid);
                        return;
                    }
                }
                continue;
            };
            match next {
                Plan::Noop => {}
                Plan::Delay(d) => {
                    self.schedule(self.now + d, EventKind::Resume(tid));
                    return;
                }
                Plan::Use { res, demand } => {
                    self.enqueue(res, tid, demand);
                    return;
                }
                Plan::Seq(v) => {
                    let enclosing = std::mem::replace(&mut task.top, Frame::Seq(v.into_iter()));
                    task.outer.push(enclosing);
                }
                Plan::Par(v) => {
                    if v.is_empty() {
                        continue;
                    }
                    task.join_remaining = v.len();
                    // Children of a detached (background) subtree are
                    // themselves background work.
                    let det = task.detached;
                    for child in v {
                        let ct = self.new_task(Frame::enter(child), Some(tid), None, det);
                        self.advance(ct);
                    }
                    return;
                }
                Plan::Fan(fan) => {
                    // Spawned and driven exactly as the `Par` of its chains.
                    let arms = fan.arms.len();
                    if arms == 0 {
                        continue;
                    }
                    task.join_remaining = arms;
                    let det = task.detached;
                    for arm in 0..arms {
                        let top = Frame::Fan(Arc::clone(&fan), arm, 0);
                        let ct = self.new_task(top, Some(tid), None, det);
                        self.advance(ct);
                    }
                    return;
                }
                Plan::Background(p) => {
                    // Spawn detached and keep going; the child is driven from
                    // a fresh event so its resource queueing interleaves
                    // fairly with the parent's continuation.
                    let ct = self.new_task(Frame::enter(*p), None, None, true);
                    self.schedule(self.now, EventKind::Resume(ct));
                }
                Plan::Barrier(id) => {
                    let b = self
                        .barriers
                        .get_mut(&id)
                        .unwrap_or_else(|| panic!("barrier {id:?} not registered"));
                    let filled = b.waiting.len() + 1 == b.needed;
                    // (cycle count, tasks released) once the barrier opens.
                    let opened = if filled {
                        b.cycles += 1;
                        let cycle = b.cycles;
                        let waiters = std::mem::take(&mut b.waiting);
                        let released = waiters.len() + 1;
                        for w in waiters {
                            self.schedule(self.now, EventKind::Resume(w));
                        }
                        Some((cycle, released))
                    } else {
                        b.waiting.push(tid);
                        None
                    };
                    if let Some(tr) = &self.tracer {
                        let (barrier, task) = (id.0, tid.0);
                        let event = match opened {
                            Some((cycle, released)) => {
                                TraceEvent::BarrierOpened { barrier, task, cycle, released }
                            }
                            None => TraceEvent::BarrierWaited { barrier, task },
                        };
                        tr.record(self.now, event);
                        self.stats.on_tracer_records(1);
                    }
                    if !filled {
                        return;
                    }
                    // The arriving task falls through the open barrier.
                }
            }
        }
    }

    fn finish_task(&mut self, tid: TaskId) {
        let task = &mut self.tasks[tid.index()];
        task.live = false;
        let (detached, job, parent) = (task.detached, task.job, task.parent);
        self.live_total -= 1;
        self.free_tasks.push(tid.0);
        if let Some(tr) = &self.tracer {
            tr.record(self.now, TraceEvent::TaskFinished { task: tid.0, detached });
            self.stats.on_tracer_records(1);
        }
        if let Some(job) = job {
            self.jobs[job.index()].end = Some(self.now);
            if let Some(tr) = &self.tracer {
                tr.record(self.now, TraceEvent::JobFinished { job: job.0 });
                self.stats.on_tracer_records(1);
            }
            self.live_foreground -= 1;
            if self.now > self.foreground_end {
                self.foreground_end = self.now;
            }
        }
        if let Some(parent) = parent {
            let p = &mut self.tasks[parent.index()];
            assert!(p.live, "parent died before child");
            p.join_remaining -= 1;
            if p.join_remaining == 0 {
                self.advance(parent);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::{Frame, Task};
    use crate::plan::Plan;
    use std::mem::size_of;

    /// The engine's per-event cost tracks these (64-bit targets): a plan
    /// node is moved or cloned per step, a task is touched per event.
    #[test]
    fn plan_nodes_frames_and_tasks_stay_small() {
        assert!(size_of::<Plan>() <= 32, "Plan is {} bytes", size_of::<Plan>());
        assert!(size_of::<Frame>() <= 40, "Frame is {} bytes", size_of::<Frame>());
        assert!(size_of::<Task>() <= 120, "Task is {} bytes", size_of::<Task>());
    }
}
