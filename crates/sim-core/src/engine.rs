//! The discrete-event engine.
//!
//! The engine owns resources, tasks, barriers and the event heap. It is
//! fully deterministic: event ties are broken by insertion order, service
//! models are invoked in simulated-time order, and no wall-clock or OS
//! entropy is consulted anywhere. This module holds the public surface
//! and the event loop; `engine::task` steps plan instances and
//! `engine::queue` runs the resource queues.

mod queue;
mod task;

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

use crate::plan::{BarrierId, Plan};
use crate::prof::EngineStats;
use crate::resource::{ResourceId, ResourceStats, ServiceModel};
use crate::time::{SimDuration, SimTime};
use crate::trace::{TraceEvent, Tracer};
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
    #[expect(clippy::expect_used, reason = "caller contract: latency() is only for finished jobs")]
    pub fn latency(&self) -> SimDuration {
        self.try_latency().expect("job not finished")
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
    resources: Vec<queue::ResourceSlot>,
    /// Task slots; the dead ones are listed in `free_tasks`.
    tasks: Vec<task::Task>,
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
    /// demands inspected by non-FIFO picks, tracer dispatches. Always
    /// collected, identical across hosts for the same workload.
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
        #[expect(clippy::expect_used, reason = "u32 resource-id space is a sim capacity invariant")]
        let id = ResourceId(u32::try_from(self.resources.len()).expect("too many resources"));
        self.resources.push(queue::ResourceSlot::new(name.into(), model));
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
            #[expect(
                clippy::disallowed_methods,
                reason = "collected into another map, order cannot be observed."
            )]
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
        #[expect(clippy::expect_used, reason = "u32 job-id space is a sim capacity invariant")]
        let job = JobId(u32::try_from(self.jobs.len()).expect("too many jobs"));
        self.jobs.push(JobRecord { label: label.into(), start, end: None });
        if let Some(tr) = self.tracer.as_mut() {
            let label = self.jobs[job.index()].label.clone();
            tr.record(start, TraceEvent::JobSpawned { job: job.0, label });
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
            #[expect(clippy::expect_used, reason = "peek on the same non-empty heap one line up")]
            let Reverse(ev) = self.events.pop().expect("peeked event vanished");
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

    fn diagnose_stall(&self) -> String {
        let mut waiting_barrier = 0usize;
        #[expect(
            clippy::iter_over_hash_type,
            clippy::disallowed_methods,
            reason = "commutative sum, iteration order cannot be observed."
        )]
        for b in self.barriers.values() {
            waiting_barrier += b.waiting.len();
        }
        let detached = self.tasks.iter().filter(|t| t.live && t.detached).count();
        format!(
            "{} live tasks ({} foreground jobs unfinished, {detached} detached), \
             {waiting_barrier} parked on barriers (a barrier's participant count probably \
             exceeds the number of jobs that reach it)",
            self.live_total, self.live_foreground
        )
    }
}
