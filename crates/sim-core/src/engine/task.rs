//! Task lifecycle: spawning plan instances, stepping them in place and
//! retiring them.
//!
//! A task walks its plan through a stack of frames. The innermost frame is
//! stored inline, so stepping a `Seq` chain touches the task and the plan
//! buffer only; outer frames sit behind one pointer, in a `Vec` whose
//! capacity a freed slot keeps for its next tenant. Plan memory is
//! released progressively: a `Seq`'s buffer is freed the moment its
//! iterator runs dry. A `Fan` is the exception by design: each of its arm
//! tasks holds a handle, the arm and a position, each step is cloned out
//! as it is reached, and the buffers belong to whoever built the fan —
//! any number of live tasks may be inside one at once.
//!
//! A task slot is one 64-byte cache line (pinned by a unit test): the
//! inline frame, the outer-stack pointer, `u32` links to the parent and
//! the job, a `u32` join count and two flags. A queued demand waits in
//! its resource-queue entry, not here, so a completion never touches the
//! slot of the task it starts next.

use std::sync::Arc;

use super::{Engine, EventKind, JobId, TaskId};
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

/// A task or job index, or none: half the size of an `Option<u32>`.
#[derive(Clone, Copy)]
struct Link(u32);

impl Link {
    /// No task or job; never a valid index (see [`Link::to`]).
    const NONE: Link = Link(u32::MAX);

    /// A link to index `i`, which must not be `u32::MAX`.
    fn to(i: u32) -> Link {
        assert_ne!(i, u32::MAX, "index reserved for no link");
        Link(i)
    }

    fn get(self) -> Option<u32> {
        (self.0 != u32::MAX).then_some(self.0)
    }
}

pub(super) struct Task {
    /// Innermost frame.
    top: Frame,
    /// Enclosing frames, outermost first; allocated by the first `Seq`
    /// nested in a chain.
    #[expect(
        clippy::box_collection,
        reason = "one pointer, not a Vec's three words, keeps the slot one cache line"
    )]
    outer: Option<Box<Vec<Frame>>>,
    parent: Link,
    /// Set on the root task of a foreground job.
    job: Link,
    /// Outstanding `Par` children; the task resumes when this hits zero.
    join_remaining: u32,
    /// Detached (`Background`) tasks don't gate job completion but do gate
    /// `run()` returning.
    pub(super) detached: bool,
    /// False while the slot sits on the free list.
    pub(super) live: bool,
}

impl Task {
    /// Set the join count to `children` spawned at once.
    fn join(&mut self, children: usize) {
        #[expect(clippy::expect_used, reason = "u32 fork width is a sim capacity invariant")]
        let n = u32::try_from(children).expect("too many children in one fork");
        self.join_remaining = n;
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
            outer: None,
            parent: parent.map_or(Link::NONE, |p| Link::to(p.0)),
            join_remaining: 0,
            job: job.map_or(Link::NONE, |j| Link::to(j.0)),
            detached,
            live: true,
        };
        let tid = if let Some(idx) = self.free_tasks.pop() {
            self.stats.on_task_spawn(false);
            let slot = &mut self.tasks[idx as usize];
            debug_assert!(!slot.live && slot.outer.as_ref().is_none_or(|o| o.is_empty()));
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
                match task.outer.as_mut().and_then(|o| o.pop()) {
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
                    task.outer.get_or_insert_with(Box::default).push(enclosing);
                }
                Plan::Par(v) => {
                    if v.is_empty() {
                        continue;
                    }
                    task.join(v.len());
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
                    task.join(arms);
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
        let (detached, job, parent) = (task.detached, task.job.get(), task.parent.get());
        self.live_total -= 1;
        self.free_tasks.push(tid.0);
        if let Some(tr) = &self.tracer {
            tr.record(self.now, TraceEvent::TaskFinished { task: tid.0, detached });
            self.stats.on_tracer_records(1);
        }
        if let Some(job) = job {
            self.jobs[job as usize].end = Some(self.now);
            if let Some(tr) = &self.tracer {
                tr.record(self.now, TraceEvent::JobFinished { job });
                self.stats.on_tracer_records(1);
            }
            self.live_foreground -= 1;
            if self.now > self.foreground_end {
                self.foreground_end = self.now;
            }
        }
        if let Some(parent) = parent {
            let p = &mut self.tasks[parent as usize];
            assert!(p.live, "parent died before child");
            p.join_remaining -= 1;
            if p.join_remaining == 0 {
                self.advance(TaskId(parent));
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
    /// node is moved or cloned per step, a task is touched per event and
    /// must stay one cache line.
    #[test]
    fn plan_nodes_frames_and_tasks_stay_small() {
        assert!(size_of::<Plan>() <= 32, "Plan is {} bytes", size_of::<Plan>());
        assert!(size_of::<Frame>() <= 40, "Frame is {} bytes", size_of::<Frame>());
        assert!(size_of::<Task>() <= 64, "Task is {} bytes", size_of::<Task>());
    }
}
