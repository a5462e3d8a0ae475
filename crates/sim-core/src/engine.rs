//! The discrete-event engine.
//!
//! The engine owns resources, tasks, barriers and the event heap. It is
//! fully deterministic: event ties are broken by insertion order, service
//! models are invoked in simulated-time order, and no wall-clock or OS
//! entropy is consulted anywhere.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

use crate::demand::Demand;
use crate::plan::{BarrierId, Plan};
use crate::prof::EngineStats;
use crate::resource::{Pending, ResourceId, ResourceSlot, ResourceStats, ServiceModel};
use crate::time::{SimDuration, SimTime};
use crate::trace::{TracePoint, Tracer};
use crate::validate::{lint_jobs, lint_plan, PlanContext, PlanError, Strictness};

/// Opaque handle to a spawned foreground job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct JobId(pub(crate) u32);

impl JobId {
    /// Index of this job in [`Engine::jobs`] (spawn order).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Handle to a task (an executing plan instance). Internal granularity:
/// every `Par` child is its own task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TaskId(pub(crate) u32);

impl TaskId {
    /// Index of this task's slot in the engine's task table.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Completion record for a foreground job.
#[derive(Debug, Clone)]
pub struct JobRecord {
    /// Caller-supplied label (e.g. `"client-3/large-read"`).
    pub label: String,
    /// Simulated time the job became runnable.
    pub start: SimTime,
    /// Simulated completion time of the job's foreground plan
    /// (`None` until it finishes).
    pub end: Option<SimTime>,
}

impl JobRecord {
    /// Foreground latency of the job; panics if the job has not finished.
    /// Prefer [`JobRecord::try_latency`] anywhere an unfinished job can be
    /// observed (deadlocked runs, mid-run inspection, partial drains).
    pub fn latency(&self) -> SimDuration {
        self.try_latency().expect("job not finished") // lint-ok(no-unwrap): caller contract: latency() is only for finished jobs
    }

    /// Foreground latency of the job, or `None` if it has not finished.
    pub fn try_latency(&self) -> Option<SimDuration> {
        Some(self.end?.since(self.start))
    }
}

#[derive(Debug, PartialEq, Eq)]
enum EventKind {
    Resume(TaskId),
    ResourceDone(ResourceId),
    StartJob(TaskId),
}

#[derive(Debug, PartialEq, Eq)]
struct Event {
    time: SimTime,
    seq: u64,
    kind: EventKind,
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

enum Frame {
    Seq(std::vec::IntoIter<Plan>),
}

struct Task {
    frames: Vec<Frame>,
    parent: Option<TaskId>,
    /// Outstanding `Par` children; the task resumes when this hits zero.
    join_remaining: usize,
    /// Set on the root task of a foreground job.
    job: Option<JobId>,
    /// Detached (`Background`) tasks don't gate job completion but do gate
    /// `run()` returning.
    detached: bool,
}

struct BarrierState {
    needed: usize,
    waiting: Vec<TaskId>,
    /// Number of completed barrier cycles (diagnostics).
    cycles: u64,
}

/// Error returned by [`Engine::run`] when simulation cannot make progress.
#[derive(Debug)]
pub struct DeadlockError {
    /// Simulated time at which the event heap drained.
    pub at: SimTime,
    /// Human-readable description of what is still waiting.
    pub detail: String,
}

impl std::fmt::Display for DeadlockError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "simulation deadlocked at {}: {}", self.at, self.detail)
    }
}
impl std::error::Error for DeadlockError {}

/// Summary of a completed run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Time the last event (foreground or background) completed.
    pub end: SimTime,
    /// Time the last *foreground* job completed (background flushes may
    /// continue past this; the gap is exactly the overhead OSM hides).
    pub foreground_end: SimTime,
}

/// The discrete-event simulation engine. See the crate docs for the model.
pub struct Engine {
    now: SimTime,
    seq: u64,
    events: BinaryHeap<Reverse<Event>>,
    resources: Vec<ResourceSlot>,
    tasks: Vec<Option<Task>>,
    free_tasks: Vec<u32>,
    barriers: HashMap<BarrierId, BarrierState>,
    jobs: Vec<JobRecord>,
    live_foreground: usize,
    live_total: usize,
    foreground_end: SimTime,
    /// Optional observer of engine events; `None` keeps every emission
    /// site a single branch (the zero-cost-when-disabled guarantee).
    tracer: Option<Box<dyn Tracer>>,
    /// Deterministic lifetime work counters (always on — plain integer
    /// bumps on paths that already touch the counted structures).
    stats: EngineStats,
}

impl Default for Engine {
    fn default() -> Self {
        Self::new()
    }
}

impl Engine {
    /// A fresh engine at t = 0 with no resources.
    pub fn new() -> Self {
        Engine {
            now: SimTime::ZERO,
            seq: 0,
            events: BinaryHeap::new(),
            resources: Vec::new(),
            tasks: Vec::new(),
            free_tasks: Vec::new(),
            barriers: HashMap::new(),
            jobs: Vec::new(),
            live_foreground: 0,
            live_total: 0,
            foreground_end: SimTime::ZERO,
            tracer: None,
            stats: EngineStats::default(),
        }
    }

    /// Install a [`Tracer`] that observes every engine event from now on
    /// (replacing any previous one). See [`crate::trace`] for the event
    /// model; [`crate::trace::EventLog`] is the stock recorder.
    pub fn set_tracer(&mut self, tracer: Box<dyn Tracer>) {
        self.tracer = Some(tracer);
    }

    /// Remove and return the installed tracer, restoring no-op tracing.
    pub fn clear_tracer(&mut self) -> Option<Box<dyn Tracer>> {
        self.tracer.take()
    }

    /// Deterministic lifetime work counters: events dispatched, heap
    /// pushes and peak population, task spawns and slot allocations,
    /// queue-scan iterations, tracer dispatches. Always collected,
    /// identical across hosts for the same workload.
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Register a resource with a service model; returns its handle.
    pub fn add_resource(
        &mut self,
        name: impl Into<String>,
        model: Box<dyn ServiceModel>,
    ) -> ResourceId {
        let id = ResourceId(u32::try_from(self.resources.len()).expect("too many resources")); // lint-ok(no-unwrap): u32 resource-id space is a sim capacity invariant
        self.resources.push(ResourceSlot::new(name.into(), model));
        id
    }

    /// Declare a cyclic barrier with `participants` members. All
    /// participants must be declared before any task waits on it.
    pub fn register_barrier(&mut self, id: BarrierId, participants: usize) {
        assert!(participants > 0, "barrier needs at least one participant");
        let prev = self
            .barriers
            .insert(id, BarrierState { needed: participants, waiting: Vec::new(), cycles: 0 });
        assert!(prev.is_none(), "barrier {id:?} registered twice");
    }

    /// The validation context implied by this engine's registered
    /// resources and barriers.
    pub fn plan_context(&self) -> PlanContext {
        PlanContext {
            resources: self.resources.len(),
            // det-ok: collected into another map, order cannot be observed.
            barriers: self.barriers.iter().map(|(&id, b)| (id, b.needed)).collect(),
        }
    }

    /// Statically validate a plan against this engine: rejects unknown
    /// resources, unregistered barriers, barriers inside `Background`
    /// subtrees, empty `Seq`/`Par` combinators and zero-byte transfer
    /// demands. Returns every defect found, not just the first.
    pub fn validate(&self, plan: &Plan) -> Result<(), Vec<PlanError>> {
        let errs = lint_plan(plan, &self.plan_context(), Strictness::Strict);
        if errs.is_empty() {
            Ok(())
        } else {
            Err(errs)
        }
    }

    /// Validate a whole job set before spawning: every plan individually
    /// (strict) plus cross-job barrier participant accounting — the class
    /// of defect that silently deadlocks [`Engine::run`].
    pub fn validate_jobs(&self, plans: &[Plan]) -> Result<(), Vec<PlanError>> {
        let errs = lint_jobs(plans, &self.plan_context());
        if errs.is_empty() {
            Ok(())
        } else {
            Err(errs)
        }
    }

    /// Spawn a foreground job whose plan becomes runnable immediately.
    pub fn spawn_job(&mut self, label: impl Into<String>, plan: Plan) -> JobId {
        self.spawn_job_at(label, self.now, plan)
    }

    /// Spawn a foreground job that becomes runnable at `start` (must not be
    /// in the past).
    ///
    /// Debug builds statically validate the plan's structural soundness
    /// (unknown resources, unregistered barriers, detached barrier
    /// waiters) before accepting it; call [`Engine::validate`] for the
    /// full strict lint.
    pub fn spawn_job_at(&mut self, label: impl Into<String>, start: SimTime, plan: Plan) -> JobId {
        assert!(start >= self.now, "cannot start a job in the past");
        #[cfg(debug_assertions)]
        {
            let errs = lint_plan(&plan, &self.plan_context(), Strictness::Structural);
            assert!(errs.is_empty(), "structurally invalid plan: {errs:?}");
        }
        let job = JobId(u32::try_from(self.jobs.len()).expect("too many jobs")); // lint-ok(no-unwrap): u32 job-id space is a sim capacity invariant
        self.jobs.push(JobRecord { label: label.into(), start, end: None });
        if let Some(tr) = self.tracer.as_mut() {
            let label = self.jobs[job.0 as usize].label.as_str();
            tr.record(start, TracePoint::JobSpawned { job, label });
            self.stats.on_tracer_records(1);
        }
        self.live_foreground += 1;
        let tid = self.new_task(plan, None, Some(job), false);
        self.schedule(start, EventKind::StartJob(tid));
        job
    }

    /// Run until every event is processed and every task (including
    /// background tasks) has completed.
    pub fn run(&mut self) -> Result<RunReport, DeadlockError> {
        while let Some(Reverse(ev)) = self.events.pop() {
            self.step(ev);
        }
        if self.live_total > 0 {
            return Err(DeadlockError { at: self.now, detail: self.diagnose_stall() });
        }
        Ok(RunReport { end: self.now, foreground_end: self.foreground_end })
    }

    /// Run every event scheduled at or before `t`, then advance the clock
    /// to exactly `t` and return it. Remaining events stay queued, and —
    /// unlike [`Engine::run`] — live tasks after the partial drain are not
    /// a deadlock: the caller typically mutates system state (injects a
    /// fault, spawns recovery jobs) and then resumes with `run_until` or a
    /// final [`Engine::run`]. This is the engine hook the fault-injection
    /// layer uses to pause a simulation mid-workload at a scheduled
    /// instant; [`crate::fault::FaultPlan`] supplies the instants.
    pub fn run_until(&mut self, t: SimTime) -> SimTime {
        assert!(t >= self.now, "cannot run into the past");
        while self.events.peek().is_some_and(|Reverse(ev)| ev.time <= t) {
            let Reverse(ev) = self.events.pop().expect("peeked event vanished"); // lint-ok(no-unwrap): peek on the same non-empty heap one line up
            self.step(ev);
        }
        self.now = t;
        self.now
    }

    /// Multiply every *subsequent* service time on `id` by `factor`
    /// (`1` restores nominal speed). Demands already in service keep
    /// their original completion time. Models a degraded-but-alive
    /// component, e.g. a disk stuck in media-retry mode.
    pub fn set_resource_slowdown(&mut self, id: ResourceId, factor: u64) {
        assert!(factor >= 1, "slowdown factor must be >= 1");
        self.resources[id.index()].slowdown = factor;
    }

    /// Current slowdown factor of a resource (`1` = nominal).
    pub fn resource_slowdown(&self, id: ResourceId) -> u64 {
        self.resources[id.index()].slowdown
    }

    /// Records of all spawned jobs, in spawn order.
    pub fn jobs(&self) -> &[JobRecord] {
        &self.jobs
    }

    /// Statistics for one resource.
    pub fn resource_stats(&self, id: ResourceId) -> &ResourceStats {
        &self.resources[id.index()].stats
    }

    /// Name given to a resource at registration.
    pub fn resource_name(&self, id: ResourceId) -> &str {
        &self.resources[id.index()].name
    }

    /// Iterate over `(id, name, stats)` for every resource.
    pub fn resources(&self) -> impl Iterator<Item = (ResourceId, &str, &ResourceStats)> {
        self.resources
            .iter()
            .enumerate()
            .map(|(i, slot)| (ResourceId(i as u32), slot.name.as_str(), &slot.stats))
    }

    /// Number of completed cycles of a registered barrier.
    pub fn barrier_cycles(&self, id: BarrierId) -> u64 {
        self.barriers.get(&id).map_or(0, |b| b.cycles)
    }

    /// Dispatch one popped event: advance the clock to it and drive its
    /// consequences to quiescence.
    fn step(&mut self, ev: Event) {
        debug_assert!(ev.time >= self.now, "time went backwards");
        self.now = ev.time;
        self.stats.on_event();
        match ev.kind {
            EventKind::Resume(t) | EventKind::StartJob(t) => self.advance(t),
            EventKind::ResourceDone(r) => self.resource_done(r),
        }
    }

    fn schedule(&mut self, time: SimTime, kind: EventKind) {
        let seq = self.seq;
        self.seq += 1;
        self.events.push(Reverse(Event { time, seq, kind }));
        self.stats.on_heap_push(self.events.len());
    }

    fn new_task(
        &mut self,
        plan: Plan,
        parent: Option<TaskId>,
        job: Option<JobId>,
        detached: bool,
    ) -> TaskId {
        self.live_total += 1;
        let task = Task {
            frames: vec![Frame::Seq(vec![plan].into_iter())],
            parent,
            join_remaining: 0,
            job,
            detached,
        };
        let tid = if let Some(idx) = self.free_tasks.pop() {
            self.stats.on_task_spawn(false);
            self.tasks[idx as usize] = Some(task);
            TaskId(idx)
        } else {
            self.stats.on_task_spawn(true);
            let idx = u32::try_from(self.tasks.len()).expect("too many tasks"); // lint-ok(no-unwrap): u32 task-id space is a sim capacity invariant
            self.tasks.push(Some(task));
            TaskId(idx)
        };
        if let Some(tr) = self.tracer.as_mut() {
            tr.record(self.now, TracePoint::TaskSpawned { task: tid, parent, detached });
            self.stats.on_tracer_records(1);
        }
        tid
    }

    /// Drive `tid` forward until it suspends or completes.
    fn advance(&mut self, tid: TaskId) {
        let mut task = self.tasks[tid.0 as usize].take().expect("advancing a dead task"); // lint-ok(no-unwrap): scheduler only advances tasks it just dequeued
        loop {
            let next = match task.frames.last_mut() {
                None => {
                    self.finish_task(tid, task);
                    return;
                }
                Some(Frame::Seq(it)) => it.next(),
            };
            match next {
                None => {
                    task.frames.pop();
                }
                Some(Plan::Noop) => {}
                Some(Plan::Delay(d)) => {
                    self.tasks[tid.0 as usize] = Some(task);
                    self.schedule(self.now + d, EventKind::Resume(tid));
                    return;
                }
                Some(Plan::Use { res, demand }) => {
                    self.tasks[tid.0 as usize] = Some(task);
                    self.enqueue(res, tid, demand);
                    return;
                }
                Some(Plan::Seq(v)) => {
                    task.frames.push(Frame::Seq(v.into_iter()));
                }
                Some(Plan::Par(v)) => {
                    if v.is_empty() {
                        continue;
                    }
                    task.join_remaining = v.len();
                    // Children of a detached (background) subtree are
                    // themselves background work.
                    let det = task.detached;
                    self.tasks[tid.0 as usize] = Some(task);
                    for child in v {
                        let ct = self.new_task(child, Some(tid), None, det);
                        self.advance(ct);
                    }
                    return;
                }
                Some(Plan::Background(p)) => {
                    // Spawn detached and keep going; the child is driven from
                    // a fresh event so its resource queueing interleaves
                    // fairly with the parent's continuation.
                    let ct = self.new_task(*p, None, None, true);
                    self.schedule(self.now, EventKind::Resume(ct));
                }
                Some(Plan::Barrier(id)) => {
                    let b = self
                        .barriers
                        .get_mut(&id)
                        .unwrap_or_else(|| panic!("barrier {id:?} not registered"));
                    if b.waiting.len() + 1 == b.needed {
                        b.cycles += 1;
                        let cycle = b.cycles;
                        let waiters = std::mem::take(&mut b.waiting);
                        let released = waiters.len() + 1;
                        for w in waiters {
                            self.schedule(self.now, EventKind::Resume(w));
                        }
                        if let Some(tr) = self.tracer.as_mut() {
                            tr.record(
                                self.now,
                                TracePoint::BarrierOpened {
                                    barrier: id,
                                    task: tid,
                                    cycle,
                                    released,
                                },
                            );
                            self.stats.on_tracer_records(1);
                        }
                        // current task falls through the barrier
                    } else {
                        b.waiting.push(tid);
                        if let Some(tr) = self.tracer.as_mut() {
                            tr.record(
                                self.now,
                                TracePoint::BarrierWaited { barrier: id, task: tid },
                            );
                            self.stats.on_tracer_records(1);
                        }
                        self.tasks[tid.0 as usize] = Some(task);
                        return;
                    }
                }
            }
        }
    }

    fn finish_task(&mut self, tid: TaskId, task: Task) {
        self.live_total -= 1;
        self.free_tasks.push(tid.0);
        if let Some(tr) = self.tracer.as_mut() {
            tr.record(self.now, TracePoint::TaskFinished { task: tid, detached: task.detached });
            self.stats.on_tracer_records(1);
        }
        if let Some(job) = task.job {
            self.jobs[job.0 as usize].end = Some(self.now);
            if let Some(tr) = self.tracer.as_mut() {
                tr.record(self.now, TracePoint::JobFinished { job });
                self.stats.on_tracer_records(1);
            }
            self.live_foreground -= 1;
            if self.now > self.foreground_end {
                self.foreground_end = self.now;
            }
        }
        if let Some(parent) = task.parent {
            let p = self.tasks[parent.0 as usize].as_mut().expect("parent died before child"); // lint-ok(no-unwrap): parent slot outlives children by Par construction
            p.join_remaining -= 1;
            if p.join_remaining == 0 {
                self.advance(parent);
            }
        }
    }

    fn enqueue(&mut self, rid: ResourceId, tid: TaskId, demand: Demand) {
        let now = self.now;
        let detached = self.tasks[tid.0 as usize].as_ref().is_some_and(|t| t.detached);
        let slot = &mut self.resources[rid.index()];
        let pending = Pending { task: tid, demand, enqueued: now };
        let mut start_at = None;
        if slot.current.is_none() {
            let st = slot.model.service_time(&pending.demand, now) * slot.slowdown;
            slot.stats.busy += st;
            slot.stats.ops += 1;
            slot.stats.bytes += pending.demand.bytes();
            start_at = Some(now + st);
        }
        let depth = slot.depth() + 1;
        if depth > slot.stats.max_queue {
            slot.stats.max_queue = depth;
        }
        if let Some(tr) = self.tracer.as_mut() {
            let demand = &pending.demand;
            tr.record(now, TracePoint::Enqueued { res: rid, task: tid, demand, depth, detached });
            self.stats.on_tracer_records(1);
            if let Some(done_at) = start_at {
                tr.record(
                    now,
                    TracePoint::ServiceStarted {
                        res: rid,
                        task: tid,
                        demand,
                        waited: SimDuration::ZERO,
                        done_at,
                        detached,
                    },
                );
                self.stats.on_tracer_records(1);
            }
        }
        if start_at.is_some() {
            slot.current = Some(pending);
        } else {
            slot.queue.push_back(pending);
        }
        if let Some(t) = start_at {
            self.schedule(t, EventKind::ResourceDone(rid));
        }
    }

    fn resource_done(&mut self, rid: ResourceId) {
        let now = self.now;
        let slot = &mut self.resources[rid.index()];
        let done = slot.current.take().expect("resource-done with idle resource"); // lint-ok(no-unwrap): resource-done events are only queued for busy slots
        let mut next_done = None;
        let next = if slot.queue.is_empty() {
            None
        } else if slot.queue.len() == 1 {
            slot.queue.pop_front()
        } else {
            // Let the service model pick (FIFO by default; disks may
            // reorder by offset — SSTF/elevator).
            self.stats.on_queue_scan(slot.queue.len());
            let demands: Vec<&Demand> = slot.queue.iter().map(|p| &p.demand).collect();
            let idx = slot.model.select_next(&demands);
            debug_assert!(idx < slot.queue.len(), "select_next out of range");
            slot.queue.remove(idx.min(slot.queue.len() - 1))
        };
        if let Some(next) = next {
            let waited = now.since(next.enqueued);
            slot.stats.queue_wait += waited;
            let st = slot.model.service_time(&next.demand, now) * slot.slowdown;
            slot.stats.busy += st;
            slot.stats.ops += 1;
            slot.stats.bytes += next.demand.bytes();
            let done_at = now + st;
            if let Some(tr) = self.tracer.as_mut() {
                let d_det = self.tasks[done.task.0 as usize].as_ref().is_some_and(|t| t.detached);
                let n_det = self.tasks[next.task.0 as usize].as_ref().is_some_and(|t| t.detached);
                tr.record(
                    now,
                    TracePoint::ServiceFinished {
                        res: rid,
                        task: done.task,
                        demand: &done.demand,
                        detached: d_det,
                    },
                );
                tr.record(
                    now,
                    TracePoint::ServiceStarted {
                        res: rid,
                        task: next.task,
                        demand: &next.demand,
                        waited,
                        done_at,
                        detached: n_det,
                    },
                );
                self.stats.on_tracer_records(2);
            }
            slot.current = Some(next);
            next_done = Some(done_at);
        } else if let Some(tr) = self.tracer.as_mut() {
            let d_det = self.tasks[done.task.0 as usize].as_ref().is_some_and(|t| t.detached);
            tr.record(
                now,
                TracePoint::ServiceFinished {
                    res: rid,
                    task: done.task,
                    demand: &done.demand,
                    detached: d_det,
                },
            );
            self.stats.on_tracer_records(1);
        }
        if let Some(t) = next_done {
            self.schedule(t, EventKind::ResourceDone(rid));
        }
        self.advance(done.task);
    }

    fn diagnose_stall(&self) -> String {
        let mut waiting_barrier = 0usize;
        // det-ok: commutative sum, iteration order cannot be observed.
        for b in self.barriers.values() {
            waiting_barrier += b.waiting.len();
        }
        let live = self.tasks.iter().filter(|t| t.is_some()).count();
        let detached = self.tasks.iter().flatten().filter(|t| t.detached).count();
        format!(
            "{live} live tasks ({} foreground jobs unfinished, {detached} detached), \
             {waiting_barrier} parked on barriers (a barrier's participant count probably \
             exceeds the number of jobs that reach it)",
            self.live_foreground
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{background, barrier, delay, par, seq, use_res};
    use crate::resource::FixedRate;

    fn busy(d: u64) -> Demand {
        Demand::Busy(SimDuration::from_micros(d))
    }

    #[test]
    fn empty_run_finishes_at_zero() {
        let mut e = Engine::new();
        let r = e.run().unwrap();
        assert_eq!(r.end, SimTime::ZERO);
    }

    #[test]
    fn seq_adds_durations() {
        let mut e = Engine::new();
        let r = e.add_resource("cpu", Box::new(FixedRate::per_op(SimDuration::ZERO)));
        e.spawn_job("j", seq(vec![use_res(r, busy(10)), use_res(r, busy(20))]));
        let rep = e.run().unwrap();
        assert_eq!(rep.end, SimTime(30_000));
        assert_eq!(e.jobs()[0].latency(), SimDuration::from_micros(30));
        assert_eq!(e.resource_stats(r).ops, 2);
    }

    #[test]
    fn par_on_one_resource_serializes() {
        let mut e = Engine::new();
        let r = e.add_resource("disk", Box::new(FixedRate::per_op(SimDuration::ZERO)));
        e.spawn_job("j", par(vec![use_res(r, busy(10)), use_res(r, busy(10))]));
        let rep = e.run().unwrap();
        assert_eq!(rep.end, SimTime(20_000));
        assert_eq!(e.resource_stats(r).max_queue, 2);
    }

    #[test]
    fn par_on_two_resources_overlaps() {
        let mut e = Engine::new();
        let a = e.add_resource("a", Box::new(FixedRate::per_op(SimDuration::ZERO)));
        let b = e.add_resource("b", Box::new(FixedRate::per_op(SimDuration::ZERO)));
        e.spawn_job("j", par(vec![use_res(a, busy(10)), use_res(b, busy(10))]));
        let rep = e.run().unwrap();
        assert_eq!(rep.end, SimTime(10_000));
    }

    #[test]
    fn fifo_queueing_and_wait_stats() {
        let mut e = Engine::new();
        let r = e.add_resource("disk", Box::new(FixedRate::per_op(SimDuration::ZERO)));
        e.spawn_job("j1", use_res(r, busy(100)));
        e.spawn_job("j2", use_res(r, busy(100)));
        e.run().unwrap();
        // Second job waited the full first service.
        assert_eq!(e.resource_stats(r).queue_wait, SimDuration::from_micros(100));
        assert_eq!(e.jobs()[1].latency(), SimDuration::from_micros(200));
    }

    #[test]
    fn background_does_not_gate_job_but_gates_run() {
        let mut e = Engine::new();
        let r = e.add_resource("disk", Box::new(FixedRate::per_op(SimDuration::ZERO)));
        e.spawn_job("j", seq(vec![use_res(r, busy(10)), background(use_res(r, busy(1000)))]));
        let rep = e.run().unwrap();
        assert_eq!(e.jobs()[0].latency(), SimDuration::from_micros(10));
        assert_eq!(rep.foreground_end, SimTime(10_000));
        assert_eq!(rep.end, SimTime(1_010_000));
    }

    #[test]
    fn background_competes_for_resources() {
        let mut e = Engine::new();
        let r = e.add_resource("disk", Box::new(FixedRate::per_op(SimDuration::ZERO)));
        // Background write issued first occupies the disk; the foreground
        // read then queues behind it.
        e.spawn_job(
            "j",
            seq(vec![
                background(use_res(r, busy(50))),
                delay(SimDuration::from_micros(1)),
                use_res(r, busy(10)),
            ]),
        );
        e.run().unwrap();
        assert_eq!(e.jobs()[0].latency(), SimDuration::from_micros(60));
    }

    #[test]
    fn barrier_synchronizes_jobs() {
        let mut e = Engine::new();
        let bid = BarrierId(7);
        e.register_barrier(bid, 3);
        let r = e.add_resource("cpu", Box::new(FixedRate::per_op(SimDuration::ZERO)));
        for i in 0..3u64 {
            e.spawn_job(
                format!("c{i}"),
                seq(vec![
                    use_res(r, busy(10 * (i + 1))),
                    barrier(bid),
                    delay(SimDuration::from_micros(5)),
                ]),
            );
        }
        e.run().unwrap();
        // cpu serializes: arrivals at 10, 30, 60us; barrier opens at 60us.
        for j in e.jobs() {
            assert_eq!(j.end.unwrap(), SimTime(65_000));
        }
        assert_eq!(e.barrier_cycles(bid), 1);
    }

    #[test]
    fn barrier_is_cyclic() {
        let mut e = Engine::new();
        let bid = BarrierId(0);
        e.register_barrier(bid, 2);
        for _ in 0..2 {
            e.spawn_job(
                "c",
                seq(vec![barrier(bid), delay(SimDuration::from_micros(1)), barrier(bid)]),
            );
        }
        e.run().unwrap();
        assert_eq!(e.barrier_cycles(bid), 2);
    }

    #[test]
    fn unfilled_barrier_deadlocks_with_diagnosis() {
        let mut e = Engine::new();
        let bid = BarrierId(1);
        e.register_barrier(bid, 2);
        e.spawn_job("only", barrier(bid));
        let err = e.run().unwrap_err();
        assert!(err.detail.contains("parked on barriers"), "{}", err.detail);
    }

    #[test]
    fn delayed_job_start() {
        let mut e = Engine::new();
        e.spawn_job_at("late", SimTime(5_000), delay(SimDuration::from_micros(1)));
        let rep = e.run().unwrap();
        assert_eq!(rep.end, SimTime(6_000));
        assert_eq!(e.jobs()[0].start, SimTime(5_000));
        assert_eq!(e.jobs()[0].latency(), SimDuration::from_micros(1));
    }

    #[test]
    fn nested_par_seq_pipeline() {
        // Two chunks flowing through two stages overlap: total = 3 stage times.
        let mut e = Engine::new();
        let s1 = e.add_resource("s1", Box::new(FixedRate::per_op(SimDuration::ZERO)));
        let s2 = e.add_resource("s2", Box::new(FixedRate::per_op(SimDuration::ZERO)));
        let chunk = |_: u32| seq(vec![use_res(s1, busy(10)), use_res(s2, busy(10))]);
        e.spawn_job("xfer", par(vec![chunk(0), chunk(1)]));
        let rep = e.run().unwrap();
        assert_eq!(rep.end, SimTime(30_000));
    }

    #[test]
    fn determinism_same_seed_same_result() {
        let build = || {
            let mut e = Engine::new();
            let r = e.add_resource("d", Box::new(FixedRate::per_op(SimDuration::from_micros(3))));
            for i in 0..50u64 {
                e.spawn_job(
                    format!("j{i}"),
                    par(vec![use_res(r, busy(i % 7 + 1)), use_res(r, busy(i % 3 + 1))]),
                );
            }
            let rep = e.run().unwrap();
            (rep.end, e.resource_stats(r).queue_wait)
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn custom_queue_discipline_reorders_service() {
        // A model that always serves the *largest* pending demand first.
        struct LargestFirst;
        impl crate::resource::ServiceModel for LargestFirst {
            fn service_time(&mut self, demand: &Demand, _now: SimTime) -> SimDuration {
                SimDuration::from_micros(demand.bytes().max(1))
            }
            fn select_next(&mut self, pending: &[&Demand]) -> usize {
                pending
                    .iter()
                    .enumerate()
                    .max_by_key(|(_, d)| d.bytes())
                    .map(|(i, _)| i)
                    .unwrap_or(0)
            }
        }
        let mut e = Engine::new();
        let r = e.add_resource("d", Box::new(LargestFirst));
        // Jobs arrive in size order 1, 5, 3 (bytes). The first grabs the
        // resource; afterwards service order must be 5 then 3.
        let j1 = e.spawn_job("a", crate::plan::use_res(r, Demand::NetXfer { bytes: 1 }));
        let j5 = e.spawn_job("b", crate::plan::use_res(r, Demand::NetXfer { bytes: 5 }));
        let j3 = e.spawn_job("c", crate::plan::use_res(r, Demand::NetXfer { bytes: 3 }));
        e.run().unwrap();
        let end = |j: JobId| e.jobs()[j.0 as usize].end.unwrap();
        assert!(end(j1) < end(j5), "first-come starts first");
        assert!(end(j5) < end(j3), "largest pending served before smaller");
    }

    #[test]
    fn run_until_pauses_mid_workload_and_resumes() {
        let mut e = Engine::new();
        let r = e.add_resource("d", Box::new(FixedRate::per_op(SimDuration::ZERO)));
        e.spawn_job("j", seq(vec![use_res(r, busy(10)), use_res(r, busy(10))]));
        // Pause between the two service completions: exactly one op done.
        let at = e.run_until(SimTime(15_000));
        assert_eq!(at, SimTime(15_000));
        assert_eq!(e.now(), SimTime(15_000));
        assert_eq!(e.resource_stats(r).ops, 2); // second already in service
        assert!(e.jobs()[0].end.is_none(), "job must still be in flight");
        // A job spawned at the pause point interleaves with the remainder.
        e.spawn_job("late", use_res(r, busy(5)));
        let rep = e.run().unwrap();
        assert_eq!(rep.end, SimTime(25_000));
        assert_eq!(e.jobs()[0].end, Some(SimTime(20_000)));
    }

    #[test]
    fn run_until_advances_clock_past_all_events() {
        let mut e = Engine::new();
        let r = e.add_resource("d", Box::new(FixedRate::per_op(SimDuration::ZERO)));
        e.spawn_job("j", use_res(r, busy(10)));
        assert_eq!(e.run_until(SimTime(1_000_000)), SimTime(1_000_000));
        assert_eq!(e.jobs()[0].end, Some(SimTime(10_000)));
        let rep = e.run().unwrap();
        assert_eq!(rep.end, SimTime(1_000_000));
    }

    #[test]
    fn resource_slowdown_scales_subsequent_service() {
        let mut e = Engine::new();
        let r = e.add_resource("d", Box::new(FixedRate::per_op(SimDuration::ZERO)));
        assert_eq!(e.resource_slowdown(r), 1);
        e.spawn_job("healthy", use_res(r, busy(10)));
        e.run().unwrap();
        assert_eq!(e.jobs()[0].latency(), SimDuration::from_micros(10));
        e.set_resource_slowdown(r, 4);
        e.spawn_job("degraded", use_res(r, busy(10)));
        e.run().unwrap();
        assert_eq!(e.jobs()[1].latency(), SimDuration::from_micros(40));
        e.set_resource_slowdown(r, 1);
        e.spawn_job("recovered", use_res(r, busy(10)));
        e.run().unwrap();
        assert_eq!(e.jobs()[2].latency(), SimDuration::from_micros(10));
    }

    #[test]
    fn task_slots_are_reused() {
        let mut e = Engine::new();
        let r = e.add_resource("d", Box::new(FixedRate::per_op(SimDuration::ZERO)));
        for _ in 0..1000 {
            e.spawn_job("j", use_res(r, busy(1)));
        }
        e.run().unwrap();
        // Every slot must be back on the free list once the run drains.
        assert_eq!(e.free_tasks.len(), e.tasks.len());
        // Re-running a fresh batch reuses the freed slots instead of growing.
        let before = e.tasks.len();
        for _ in 0..500 {
            e.spawn_job("j2", use_res(r, busy(1)));
        }
        e.run().unwrap();
        assert_eq!(e.tasks.len(), before);
    }
}
