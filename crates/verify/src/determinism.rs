//! Determinism of the seeded workload, event by event.
//!
//! The whole reproduction rests on the simulator being a pure function of
//! its configuration: the property tests replay seeds, the experiment
//! harness compares architectures run in separate engines, regressions
//! are diffed run-over-run, and the Perfetto/CSV exporters assume a trace
//! can be reproduced (a trace you cannot reproduce is a trace you cannot
//! debug from). Per architecture the audit runs the same seeded cluster
//! workload three times in fresh engines:
//!
//! * twice with an [`EventLog`] installed in the engine — the two runs
//!   must emit **byte-identical** event streams (every job spawn, queue
//!   arrival, service start/finish and barrier opening, in the same
//!   order at the same simulated nanosecond) and agree on the end-of-run
//!   aggregates (job completion records and per-resource statistics,
//!   fingerprinted by [`engine_fingerprint`]);
//! * once untraced — its aggregates must match the traced runs', so
//!   the tracer does not perturb what it watches.
//!
//! Two runs can agree on totals while interleaving events differently,
//! which is why the stream is compared and not only the aggregates. Both
//! fingerprints are pinned per architecture, so a change that moves any
//! event fails too. A *perturbation canary* swaps one adjacent event pair
//! in a copy of a recorded stream and asserts both the diff and the
//! fingerprint catch it — guarding against the comparator degenerating
//! into a constant.

use raidx_core::Arch;
use sim_core::trace::{render_event, EventLog, TimedEvent};
use sim_core::{fnv1a, Engine};
use workloads::parallel_io::{run_parallel_io, IoPattern, ParallelIoConfig};

/// Render every end-of-run observable of a finished engine as one line
/// per job and per resource (stable, human-diffable).
pub fn trace_lines(engine: &Engine) -> Vec<String> {
    let mut lines = Vec::new();
    for (i, j) in engine.jobs().iter().enumerate() {
        let end = j.end.map_or(u64::MAX, |t| t.as_nanos());
        lines.push(format!("job {i} {} start={} end={end}", j.label, j.start.as_nanos()));
    }
    for (_, name, stats) in engine.resources() {
        lines.push(format!(
            "res {name} busy={} ops={} bytes={} wait={} maxq={}",
            stats.busy.as_nanos(),
            stats.ops,
            stats.bytes,
            stats.queue_wait.as_nanos(),
            stats.max_queue
        ));
    }
    lines
}

/// FNV-1a fingerprint over an engine's end-of-run aggregates
/// ([`trace_lines`]).
pub fn engine_fingerprint(engine: &Engine) -> u64 {
    fnv1a(trace_lines(engine).iter().flat_map(|line| [line.as_str(), "\n"]))
}

/// FNV-1a fingerprint over a rendered event stream.
pub fn stream_fingerprint(events: &[TimedEvent]) -> u64 {
    fnv1a(events.iter().map(|ev| render_event(ev) + "\n"))
}

/// First index at which `a` and `b` differ, with both sides rendered; a
/// length mismatch is reported at the first missing index, in `unit`s.
fn first_divergence<T: PartialEq>(
    a: &[T],
    b: &[T],
    render: impl Fn(&T) -> String,
    unit: &str,
) -> Option<(usize, String, String)> {
    let differing = a.iter().zip(b).position(|(x, y)| x != y);
    differing.map(|i| (i, render(&a[i]), render(&b[i]))).or_else(|| {
        let (la, lb) = (a.len(), b.len());
        (la != lb).then(|| (la.min(lb), format!("{la} {unit}"), format!("{lb} {unit}")))
    })
}

/// First divergence between two event streams, as
/// `(index, run A line, run B line)`.
pub fn diff_streams(a: &[TimedEvent], b: &[TimedEvent]) -> Option<(usize, String, String)> {
    first_divergence(a, b, render_event, "events")
}

/// Outcome of the three-run audit for one architecture.
#[derive(Debug, Clone)]
pub struct DeterminismReport {
    /// Architecture audited.
    pub arch: Arch,
    /// [`stream_fingerprint`] of the first traced run.
    pub stream_fingerprint: u64,
    /// Events the first traced run recorded.
    pub events: usize,
    /// [`engine_fingerprint`] of the first traced run.
    pub engine_fingerprint: u64,
    /// Aggregate lines compared.
    pub lines: usize,
    /// The first disagreement between any two of the three runs.
    pub divergence: Option<String>,
}

impl DeterminismReport {
    /// True when the three runs agree and observed something.
    pub fn deterministic(&self) -> bool {
        self.divergence.is_none() && self.events > 0 && self.lines > 0
    }
}

/// One run of the Figure-5 style workload; traced, an [`EventLog`]
/// records the engine, and the stream is empty when `traced` is false.
fn one_run(arch: Arch, traced: bool) -> (Vec<TimedEvent>, Engine) {
    let (mut engine, mut sys) = cdd::testkit::shape(4, 2, 8 << 20, arch);
    let log = EventLog::new();
    if traced {
        engine.set_tracer(log.clone());
    }
    let cfg = ParallelIoConfig {
        clients: 4,
        pattern: IoPattern::LargeWrite,
        large_bytes: 256 << 10,
        repeats: 2,
        ..Default::default()
    };
    run_parallel_io(&mut engine, &mut sys, &cfg).expect("workload failed");
    (log.events(), engine)
}

/// Run the workload twice traced and once untraced and compare: the
/// traced streams with each other, then every run's aggregates.
pub fn audit_workload(arch: Arch) -> DeterminismReport {
    let (stream_a, engine_a) = one_run(arch, true);
    let (stream_b, engine_b) = one_run(arch, true);
    let (_, bare) = one_run(arch, false);
    let lines = trace_lines(&engine_a);
    let lines_differ = |other: &Engine, what: &str| {
        first_divergence(&lines, &trace_lines(other), String::clone, "lines")
            .map(|(i, a, b)| format!("{what} aggregates diverged at line {i}: `{a}` vs `{b}`"))
    };
    let divergence = diff_streams(&stream_a, &stream_b)
        .map(|(i, a, b)| format!("traced streams diverged at event {i}: `{a}` vs `{b}`"))
        .or_else(|| lines_differ(&engine_b, "traced"))
        .or_else(|| lines_differ(&bare, "untraced"));
    DeterminismReport {
        arch,
        stream_fingerprint: stream_fingerprint(&stream_a),
        events: stream_a.len(),
        engine_fingerprint: engine_fingerprint(&engine_a),
        lines: lines.len(),
        divergence,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::SimTime;

    /// (architecture, stream fingerprint, aggregate fingerprint) of each
    /// architecture's audited run, in [`Arch::ALL`] order.
    const FINGERPRINTS: [(Arch, u64, u64); 4] = [
        (Arch::Raid5, 0xf2a6_4669_d366_7a95, 0x455f_92d0_1cbe_a90f),
        (Arch::Chained, 0xdcae_4495_455a_eb6f, 0x410a_6b96_ce4e_37a3),
        (Arch::Raid10, 0xf427_1fa4_fe5b_78bc, 0xc733_fcfd_16c2_c2de),
        (Arch::RaidX, 0x555c_cab2_e060_c8f9, 0x0eb7_52ef_4a82_216b),
    ];

    #[test]
    fn every_arch_replays_byte_identically() {
        let mut fresh = Vec::new();
        for arch in Arch::ALL {
            let a = audit_workload(arch);
            let why = a.divergence.as_deref().unwrap_or("the run observed nothing");
            assert!(a.deterministic(), "{arch:?}: {why}");
            fresh.push((arch, a.stream_fingerprint, a.engine_fingerprint));
        }
        let table: String = fresh
            .iter()
            .map(|(arch, s, e)| format!("    (Arch::{arch:?}, 0x{s:016x}, 0x{e:016x}),\n"))
            .collect();
        assert_eq!(fresh, FINGERPRINTS, "fresh table:\n{table}");
    }

    /// Perturbation canary: one adjacent pair swapped in a real stream is
    /// caught by both the diff and the fingerprint.
    #[test]
    fn a_swapped_event_pair_is_caught() {
        let (stream, _) = one_run(Arch::ALL[0], true);
        let mut perturbed = stream.clone();
        let mid = perturbed.len() / 2;
        perturbed.swap(mid - 1, mid);
        assert!(diff_streams(&stream, &perturbed).is_some(), "the diff missed the reorder");
        assert_ne!(stream_fingerprint(&stream), stream_fingerprint(&perturbed));
    }

    /// Seeded divergence: different workloads must produce different
    /// fingerprints (the hash actually observes the trace).
    #[test]
    fn fingerprint_distinguishes_runs() {
        let fp = |arch| engine_fingerprint(&one_run(arch, false).1);
        assert_ne!(fp(Arch::RaidX), fp(Arch::Raid5));
    }

    #[test]
    fn fingerprint_sensitive_to_a_single_job() {
        let mut a = Engine::new();
        let mut b = Engine::new();
        for e in [&mut a, &mut b] {
            let d = e.add_resource("disk", Box::new(sim_core::FixedRate::rate(1 << 20)));
            e.spawn_job(
                "w",
                sim_core::plan::use_res(d, sim_core::Demand::DiskWrite { offset: 0, bytes: 4096 }),
            );
        }
        b.spawn_job("extra", sim_core::Plan::Delay(sim_core::SimDuration::from_micros(1)));
        a.run().expect("run a");
        b.run().expect("run b");
        assert_ne!(engine_fingerprint(&a), engine_fingerprint(&b));
    }

    #[test]
    fn fingerprint_observes_event_content_and_order() {
        let mk = |bytes: u64| TimedEvent {
            at: SimTime(10),
            event: sim_core::TraceEvent::ServiceFinished {
                res: 0,
                task: 1,
                kind: sim_core::DemandKind::DiskWrite,
                bytes,
                detached: false,
            },
        };
        let a = vec![mk(1), mk(2)];
        let b = vec![mk(2), mk(1)];
        assert_ne!(stream_fingerprint(&a), stream_fingerprint(&b));
        assert!(diff_streams(&a, &b).is_some());
        assert_eq!(diff_streams(&a, &a.clone()), None);
        assert_eq!(diff_streams(&a, &a[..1]).map(|(i, ..)| i), Some(1), "length mismatch");
    }
}
