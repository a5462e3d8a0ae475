//! The benchmark's own seeded load generators.
//!
//! Each driver turns a seed into inputs up front (`gen_inputs`), then
//! issues only those inputs to the layers through their public functions.
//! The drivers repeat the protocols of `workloads::{run_parallel_io,
//! run_andrew, run_zipf}` call for call — `tests/parity.rs` holds them to
//! the same simulated results and engine event counts — and add what a
//! benchmark needs and the experiment binaries do not: seeded payloads,
//! verification of every byte read, failures counted instead of panics,
//! and a span around every call into a layer.

pub mod andrew;
pub mod fig5;
pub mod zipf;

use std::time::Instant;

use sim_core::{DeadlockError, Engine, JobId, Plan, RunReport};

use crate::spans::Tracer;

/// What one driver run observed. Everything here is simulated or counted,
/// so it must repeat exactly from one repetition to the next.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Outcome {
    /// Operations issued (a client burst, a file-system call, a block op).
    pub attempted: u64,
    /// Operations that returned an error, read wrong bytes, or were lost
    /// to a deadlocked run.
    pub failed: u64,
    /// Payload bytes the measured phase moved.
    pub payload_bytes: u64,
    /// Simulated nanoseconds until the last foreground job finished.
    pub foreground_ns: u64,
    /// Simulated nanoseconds until background traffic drained too.
    pub drain_ns: u64,
    /// Simulated latency of every measured foreground job.
    pub job_lat_ns: Vec<u64>,
    /// Simulated nanoseconds per phase (Andrew only).
    pub phase_ns: Vec<u64>,
}

impl Outcome {
    /// Mark every operation failed: the run deadlocked, so none of its
    /// results can be trusted.
    pub fn fail_all(&mut self) {
        self.failed = self.attempted.max(1);
    }
}

/// The engine plus the recorder, so every `spawn_job` and `run` the
/// drivers make is spanned in one place — and the clock the benchmark's
/// own output checks run on.
pub struct Sim<'a> {
    /// The engine the store under test was built in.
    pub engine: &'a mut Engine,
    /// Span recorder ([`Tracer::off`] in untraced repetitions).
    pub tr: &'a Tracer,
    /// Host nanoseconds spent in [`Sim::check`] so far.
    pub checked_ns: u64,
}

impl<'a> Sim<'a> {
    /// A driver context over `engine`, recording into `tr`.
    pub fn new(engine: &'a mut Engine, tr: &'a Tracer) -> Self {
        Sim { engine, tr, checked_ns: 0 }
    }

    /// Run one of the benchmark's own checks of an output (`true` = the
    /// output is right). Comparing what was read costs about what the
    /// read path under test costs, so checks run off the measured clock:
    /// their host time is summed here and under `verify.check` spans, and
    /// the caller takes both out of the measured phase.
    pub fn check(&mut self, ok: impl FnOnce() -> bool) -> bool {
        let _g = self.tr.span("verify.check");
        let t = Instant::now();
        let ok = ok();
        self.checked_ns += t.elapsed().as_nanos() as u64;
        ok
    }

    /// `Engine::spawn_job` under an `engine.spawn` span.
    pub fn spawn(&mut self, label: String, plan: Plan) -> JobId {
        let _g = self.tr.span("engine.spawn");
        self.engine.spawn_job(label, plan)
    }

    /// `Engine::run` under an `engine.run` span.
    pub fn run(&mut self) -> Result<RunReport, DeadlockError> {
        let _g = self.tr.span("engine.run");
        self.engine.run()
    }

    /// Simulated latency of a finished job, in nanoseconds.
    pub fn latency_ns(&self, job: JobId) -> Option<u64> {
        self.engine.jobs().get(job.index())?.try_latency().map(|d| d.as_nanos())
    }
}
