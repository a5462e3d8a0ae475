//! Deterministic tracing: one owned event type behind a zero-cost hook.
//!
//! [`TraceEvent`] is the only event type and [`Tracer::record`] the only
//! way one is reported. The engine owns an optional boxed [`Tracer`] (see
//! [`Engine::set_tracer`](crate::Engine::set_tracer)) and so does the CDD
//! I/O system, for its protocol-level [`TraceEvent::Access`] events; a
//! clone of one [`EventLog`] installed in both yields one merged stream,
//! which is also the only record of lock-group grants and releases.
//! Every emission site builds its event inside the `if let Some(tracer)`
//! branch, so with no tracer installed a site costs that one branch and
//! constructs nothing. With a tracer installed the engine reports every
//! job/task transition, resource acquire→service→release step and barrier
//! wait **at simulated time** — wall clocks never appear in trace
//! records, which is what makes traces reproducible bit-for-bit across
//! same-seed runs (the `determinism` verify pass enforces exactly that).
//!
//! Two implementations ship here:
//!
//! * [`NoopTracer`] — discards everything (the explicit form of the
//!   default behaviour).
//! * [`EventLog`] — keeps the [`TimedEvent`] stream behind a cloneable
//!   handle, so callers keep a handle, install a clone in the engine,
//!   run, and read the events back afterwards.

use std::sync::{Arc, Mutex, MutexGuard};

use crate::demand::Demand;
use crate::time::SimTime;

/// Classification of a [`Demand`] carried inside owned trace events
/// (the demand itself stays with the engine).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DemandKind {
    /// Fixed busy time (CPU work, firmware overhead).
    Busy,
    /// Disk read.
    DiskRead,
    /// Disk write.
    DiskWrite,
    /// Network port transfer.
    Net,
    /// I/O bus transfer.
    Bus,
    /// CPU protocol work for a message.
    CpuMsg,
}

impl DemandKind {
    /// Short stable label, used by exporters and fingerprints.
    pub fn label(self) -> &'static str {
        match self {
            DemandKind::Busy => "busy",
            DemandKind::DiskRead => "disk_read",
            DemandKind::DiskWrite => "disk_write",
            DemandKind::Net => "net",
            DemandKind::Bus => "bus",
            DemandKind::CpuMsg => "cpu_msg",
        }
    }
}

impl From<&Demand> for DemandKind {
    fn from(d: &Demand) -> Self {
        match d {
            Demand::Busy(_) => DemandKind::Busy,
            Demand::DiskRead { .. } => DemandKind::DiskRead,
            Demand::DiskWrite { .. } => DemandKind::DiskWrite,
            Demand::NetXfer { .. } => DemandKind::Net,
            Demand::BusXfer { .. } => DemandKind::Bus,
            Demand::CpuMsg { .. } => DemandKind::CpuMsg,
        }
    }
}

/// What a [`TraceEvent::Access`] event did to its cell range.
///
/// `Acquire`/`Release` are synchronization accesses (lock-group grant
/// and surrender); `Read`/`Write` are data accesses. The
/// happens-before analyzer ([`crate::hb`]) derives lock edges from the
/// former and checks the latter for races and lock coverage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum AccessKind {
    /// A data read of the cell range.
    Read,
    /// A data write of the cell range.
    Write,
    /// A lock-group grant covering the cell range.
    Acquire,
    /// A lock-group release of the cell range.
    Release,
}

impl AccessKind {
    /// Short stable label, used by exporters and fingerprints.
    pub fn label(self) -> &'static str {
        match self {
            AccessKind::Read => "read",
            AccessKind::Write => "write",
            AccessKind::Acquire => "acquire",
            AccessKind::Release => "release",
        }
    }
}

/// One engine or protocol event, owned: ids are indices, a demand is
/// reduced to its ([`DemandKind`], bytes) and the job label is cloned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// A foreground job was spawned; it becomes runnable at the stamped
    /// time (which may be later than the spawn call).
    JobSpawned {
        /// The new job.
        job: u32,
        /// Caller-supplied job label.
        label: String,
    },
    /// A foreground job's plan completed.
    JobFinished {
        /// The finished job.
        job: u32,
    },
    /// A task (plan instance) was created.
    TaskSpawned {
        /// The new task.
        task: u32,
        /// Parent task for `Par` children.
        parent: Option<u32>,
        /// True for detached (`Background`) tasks.
        detached: bool,
    },
    /// A task completed.
    TaskFinished {
        /// The finished task.
        task: u32,
        /// True for detached (`Background`) tasks.
        detached: bool,
    },
    /// A demand arrived at a resource (it may start service immediately;
    /// if so a `ServiceStarted` event follows at the same time).
    Enqueued {
        /// The resource index.
        res: u32,
        /// The requesting task.
        task: u32,
        /// Demand classification.
        kind: DemandKind,
        /// Demand payload bytes.
        bytes: u64,
        /// Queue depth after arrival (queued + in service).
        depth: usize,
        /// True if the requesting task is detached.
        detached: bool,
    },
    /// A demand entered service on a resource.
    ServiceStarted {
        /// The resource index.
        res: u32,
        /// The task being served.
        task: u32,
        /// Demand classification.
        kind: DemandKind,
        /// Demand payload bytes.
        bytes: u64,
        /// Nanoseconds spent queued before service began.
        waited_ns: u64,
        /// Simulated completion time of the service, in nanoseconds.
        done_at_ns: u64,
        /// True if the served task is detached.
        detached: bool,
    },
    /// A demand completed service and released the resource.
    ServiceFinished {
        /// The resource index.
        res: u32,
        /// The task that was served.
        task: u32,
        /// Demand classification.
        kind: DemandKind,
        /// Demand payload bytes.
        bytes: u64,
        /// True if the served task is detached.
        detached: bool,
    },
    /// A task parked on a barrier that is not yet full.
    BarrierWaited {
        /// The barrier id.
        barrier: u32,
        /// The parked task.
        task: u32,
    },
    /// A barrier filled and released its waiters.
    BarrierOpened {
        /// The barrier id.
        barrier: u32,
        /// The arriving task that filled the barrier (it falls through
        /// without parking; the waiters were announced by
        /// [`TraceEvent::BarrierWaited`]).
        task: u32,
        /// Completed cycle count after this opening.
        cycle: u64,
        /// Tasks released (waiters plus the arriving task).
        released: usize,
    },
    /// A protocol-level cell access — emitted outside the engine by
    /// instrumented subsystems (the CDD lock/write path, the OSM image
    /// queue) through a shared tracer, and consumed by the
    /// happens-before analyzer ([`crate::hb`]). `task` is an *actor*
    /// id in the analyzer's namespace (an engine task index or a
    /// protocol actor such as a client node); `cell` is a namespaced
    /// cell id covering `len` consecutive cells.
    Access {
        /// Acting thread of control (engine task index or protocol actor).
        task: u32,
        /// First cell touched (namespaced; see `sim_core::hb` helpers).
        cell: u64,
        /// Number of consecutive cells touched.
        len: u64,
        /// What the access did.
        kind: AccessKind,
    },
}

/// Observer of engine events. Implementations must not consult wall
/// clocks or other nondeterminism sources: a tracer runs *inside* the
/// simulation loop and its outputs are covered by the determinism
/// audits.
pub trait Tracer: Send {
    /// Record one event stamped with the simulated time `at`.
    fn record(&mut self, at: SimTime, event: TraceEvent);
}

/// A tracer that discards every event (the explicit form of the engine's
/// default behaviour; useful for measuring tracer overhead).
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopTracer;

impl Tracer for NoopTracer {
    fn record(&mut self, _at: SimTime, _event: TraceEvent) {}
}

/// A [`TraceEvent`] stamped with the simulated time it occurred.
/// Events recorded at the same instant keep emission order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimedEvent {
    /// Simulated time of the event.
    pub at: SimTime,
    /// The event.
    pub event: TraceEvent,
}

/// A recording tracer behind a cloneable handle.
///
/// Clone the log, hand one clone to the engine via
/// [`Engine::set_tracer`](crate::Engine::set_tracer), keep the other,
/// and read [`EventLog::events`] after the run. The shared buffer is a
/// mutex only so the handle stays `Send`; the engine is single-threaded,
/// so the lock is never contended.
#[derive(Debug, Clone, Default)]
pub struct EventLog {
    events: Arc<Mutex<Vec<TimedEvent>>>,
}

impl EventLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    fn buf(&self) -> MutexGuard<'_, Vec<TimedEvent>> {
        #[expect(
            clippy::expect_used,
            reason = "single-threaded sim: the event-log mutex cannot poison"
        )]
        self.events.lock().expect("event log poisoned")
    }

    /// Snapshot of all recorded events, in emission order.
    pub fn events(&self) -> Vec<TimedEvent> {
        self.buf().clone()
    }

    /// Take all recorded events, leaving the log empty.
    pub fn take(&self) -> Vec<TimedEvent> {
        std::mem::take(&mut *self.buf())
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.buf().len()
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Tracer for EventLog {
    fn record(&mut self, at: SimTime, event: TraceEvent) {
        self.buf().push(TimedEvent { at, event });
    }
}

/// Render one timed event as a stable single-line text form. The
/// `determinism` verify pass fingerprints these lines; the format
/// only needs to be stable within a build, not across versions.
pub fn render_event(ev: &TimedEvent) -> String {
    format!("{} {:?}", ev.at.as_nanos(), ev.event)
}

#[cfg(test)]
#[expect(clippy::wildcard_enum_match_arm, reason = "tests pick one event kind out of the stream")]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::plan::{background, barrier, par, seq, use_res};
    use crate::resource::FixedRate;
    use crate::{BarrierId, SimDuration};

    fn busy(us: u64) -> Demand {
        Demand::Busy(SimDuration::from_micros(us))
    }

    #[test]
    fn event_log_records_job_and_service_lifecycle() {
        let mut e = Engine::new();
        let r = e.add_resource("disk0", Box::new(FixedRate::per_op(SimDuration::ZERO)));
        let log = EventLog::new();
        e.set_tracer(Box::new(log.clone()));
        e.spawn_job("w", seq(vec![use_res(r, busy(10)), use_res(r, busy(20))]));
        e.run().unwrap();
        let evs = log.events();
        assert!(!evs.is_empty());
        let spawned =
            evs.iter().filter(|t| matches!(t.event, TraceEvent::JobSpawned { .. })).count();
        let finished =
            evs.iter().filter(|t| matches!(t.event, TraceEvent::JobFinished { .. })).count();
        assert_eq!((spawned, finished), (1, 1));
        let starts: Vec<_> =
            evs.iter().filter(|t| matches!(t.event, TraceEvent::ServiceStarted { .. })).collect();
        let ends =
            evs.iter().filter(|t| matches!(t.event, TraceEvent::ServiceFinished { .. })).count();
        assert_eq!((starts.len(), ends), (2, 2));
        // Second service starts when the first ends, at simulated 10us.
        assert_eq!(starts[1].at, SimTime(10_000));
    }

    #[test]
    fn enqueue_depth_counts_queued_and_in_service() {
        let mut e = Engine::new();
        let r = e.add_resource("d", Box::new(FixedRate::per_op(SimDuration::ZERO)));
        let log = EventLog::new();
        e.set_tracer(Box::new(log.clone()));
        e.spawn_job("j", par(vec![use_res(r, busy(10)), use_res(r, busy(10))]));
        e.run().unwrap();
        let depths: Vec<usize> = log
            .events()
            .iter()
            .filter_map(|t| match t.event {
                TraceEvent::Enqueued { depth, .. } => Some(depth),
                _ => None,
            })
            .collect();
        assert_eq!(depths, vec![1, 2]);
    }

    #[test]
    fn detached_flag_marks_background_service() {
        let mut e = Engine::new();
        let r = e.add_resource("d", Box::new(FixedRate::per_op(SimDuration::ZERO)));
        let log = EventLog::new();
        e.set_tracer(Box::new(log.clone()));
        e.spawn_job(
            "j",
            seq(vec![
                use_res(r, Demand::DiskWrite { offset: 0, bytes: 4096 }),
                background(use_res(r, Demand::DiskWrite { offset: 4096, bytes: 4096 })),
            ]),
        );
        e.run().unwrap();
        let flags: Vec<bool> = log
            .events()
            .iter()
            .filter_map(|t| match t.event {
                TraceEvent::ServiceFinished { kind: DemandKind::DiskWrite, detached, .. } => {
                    Some(detached)
                }
                _ => None,
            })
            .collect();
        assert_eq!(flags, vec![false, true]);
    }

    #[test]
    fn barrier_events_count_waiters_and_cycles() {
        let mut e = Engine::new();
        let bid = BarrierId(3);
        e.register_barrier(bid, 2);
        let log = EventLog::new();
        e.set_tracer(Box::new(log.clone()));
        for _ in 0..2 {
            e.spawn_job("c", barrier(bid));
        }
        e.run().unwrap();
        let evs = log.events();
        let waited =
            evs.iter().filter(|t| matches!(t.event, TraceEvent::BarrierWaited { .. })).count();
        let opened: Vec<_> = evs
            .iter()
            .filter_map(|t| match t.event {
                TraceEvent::BarrierOpened { cycle, released, .. } => Some((cycle, released)),
                _ => None,
            })
            .collect();
        assert_eq!(waited, 1);
        assert_eq!(opened, vec![(1, 2)]);
    }

    #[test]
    fn clear_tracer_returns_and_stops_recording() {
        let mut e = Engine::new();
        let r = e.add_resource("d", Box::new(FixedRate::per_op(SimDuration::ZERO)));
        let log = EventLog::new();
        e.set_tracer(Box::new(log.clone()));
        e.spawn_job("j", use_res(r, busy(1)));
        e.run().unwrap();
        let n = log.len();
        assert!(n > 0);
        assert!(e.clear_tracer().is_some());
        e.spawn_job("j2", use_res(r, busy(1)));
        e.run().unwrap();
        assert_eq!(log.len(), n, "no events after the tracer was removed");
    }

    #[test]
    fn render_event_is_stable_within_a_run() {
        let ev = TimedEvent { at: SimTime(42), event: TraceEvent::JobFinished { job: 7 } };
        assert_eq!(render_event(&ev), render_event(&ev.clone()));
        assert!(render_event(&ev).starts_with("42 "));
    }
}
