//! Pass 7 — happens-before race detection and commutativity audit.
//!
//! The model checker (pass 4) proves ordering properties exhaustively on
//! tiny scenarios; this pass scales the same concern to full-size runs.
//! It records the merged engine + protocol trace of a seeded scripted
//! workload (one [`sim_core::EventLog`] clone installed in both the
//! [`sim_core::Engine`] and the [`cdd::IoSystem`]) and feeds it to the
//! FastTrack-style vector-clock analyzer in [`sim_core::hb`], which
//! flags:
//!
//! * conflicting SIOS cell accesses unordered by fork/join/barrier/lock
//!   happens-before edges (a protocol data race),
//! * protocol writes not covered by a live lock-group grant,
//! * same-timestamp events with overlapping footprints (a commutativity
//!   violation that would make same-instant dispatch order-sensitive).
//!
//! Structure of the pass:
//!
//! 1. **Clean sweep** — scripted multi-client workloads (fault-free and
//!    with a transient-outage fault plan) across all four architectures
//!    must analyze clean, with real accesses and sync edges observed and
//!    every trigger of the plan fired by script end.
//! 2. **Detector determinism** — a double run must produce
//!    bit-identical [`HbAnalysis`] fingerprints.
//! 3. **Observer neutrality** — a traced run must be result-identical
//!    (shadow model, op counts, final simulated time, engine event
//!    fingerprint) to an untraced run: the detector may not perturb what
//!    it watches.
//! 4. **Planted defects** — three seeded defect classes (a dropped
//!    lock grant, a skipped barrier, two same-tick disk services on one
//!    resource) must each be detected, and ddmin shrinking
//!    ([`sim_core::check::shrink_list`]) must produce a strictly smaller
//!    trace window still exhibiting the same finding.

use std::collections::BTreeMap;

use cdd::{FaultEvent, FaultInjector};
use raidx_core::Arch;
use sim_core::check::{shrink_list, Gen};
use sim_core::hb::{self, analyze};
use sim_core::trace::{AccessKind, EventLog, TimedEvent, TraceEvent};
use sim_core::{FaultPlan, HbAnalysis, SimTime, ViolationKind};
use workloads::op_script::{gen_script, run_script};

use crate::determinism::engine_fingerprint;
use crate::report::PassReport;

/// Script shape shared by every run of the pass.
const CLIENTS: usize = 4;
const REGION_BLOCKS: u64 = 64;
const SCRIPT_SEED: u64 = 0xC0FFEE;
/// Script length of every run of the pass.
const NOPS: usize = 80;
/// Disk hit by the transient-outage fault plan.
const TARGET_DISK: usize = 1;
/// Client that drives recovery.
const DRIVER: usize = 0;

/// What one scripted run produced, for cross-run comparison.
struct RunResult {
    /// Merged engine + protocol event stream (empty when untraced).
    events: Vec<TimedEvent>,
    /// Shadow model of successful writes.
    model: BTreeMap<u64, u8>,
    completed: usize,
    failed: usize,
    stale_reads: usize,
    /// Simulated end time of the whole script.
    end: SimTime,
    /// Fingerprint of the engine's own job/latency trace.
    engine_fp: u64,
    /// Fault triggers the script never reached.
    pending_faults: usize,
}

fn transient_plan(inject_at: usize, repair_at: usize) -> FaultPlan<FaultEvent> {
    let mut plan = FaultPlan::new();
    plan.at_op(inject_at as u64, FaultEvent::DiskTransient { disk: TARGET_DISK });
    plan.at_op(repair_at as u64, FaultEvent::DiskRecover { disk: TARGET_DISK, client: DRIVER });
    plan
}

/// One seeded scripted run: `traced` installs a shared [`EventLog`] in
/// both the engine and the I/O system; `plan` attaches a fault plan.
/// Same arguments ⇒ same behavior (pass 3 property).
fn scripted_run(
    arch: Arch,
    nops: usize,
    traced: bool,
    plan: Option<FaultPlan<FaultEvent>>,
) -> RunResult {
    let (mut engine, mut sys) = cdd::testkit::shape(4, 2, 8 << 20, arch);
    let log = EventLog::new();
    if traced {
        engine.set_tracer(Box::new(log.clone()));
        sys.set_tracer(Box::new(log.clone()));
    }
    let ops = gen_script(&mut Gen::new(SCRIPT_SEED), CLIENTS, REGION_BLOCKS, nops);
    let mut injector = plan.map(FaultInjector::new);
    let out = run_script(&mut engine, &mut sys, &ops, injector.as_mut())
        .expect("scripted workload aborted");
    RunResult {
        events: log.events(),
        model: out.model,
        completed: out.completed,
        failed: out.failed,
        stale_reads: out.stale_reads,
        end: engine.now(),
        engine_fp: engine_fingerprint(&engine),
        pending_faults: injector.map_or(0, |inj| inj.pending()),
    }
}

fn analysis_summary(a: &HbAnalysis) -> String {
    format!(
        "{} events ({} accesses), {} actors, {} sync edges, fingerprint {:016x}",
        a.events,
        a.accesses,
        a.actors,
        a.sync_edges,
        a.fingerprint()
    )
}

/// One clean-sweep cell: the run's stream must analyze clean and be
/// substantive, and its fault plan (if any) must have fired completely.
fn check_clean(report: &mut PassReport, label: String, run: &RunResult) {
    let analysis = analyze(&run.events);
    let substantive = analysis.accesses > 0 && analysis.sync_edges > 0;
    let detail = if run.pending_faults > 0 {
        format!("{} fault trigger(s) still pending at script end", run.pending_faults)
    } else if !substantive {
        format!("stream not substantive: {}", analysis_summary(&analysis))
    } else if analysis.clean() {
        analysis_summary(&analysis)
    } else {
        format!("{} violations, first: {}", analysis.violations.len(), analysis.violations[0])
    };
    report.push(label, analysis.clean() && substantive && run.pending_faults == 0, detail);
}

/// Plant 1: strip one client op's lock grant (its `Acquire` and the
/// matching `Release`) out of a real stream. The op's SIOS write is then
/// uncovered — the covered-write discipline defect.
fn plant_dropped_grant(events: &[TimedEvent]) -> Option<(Vec<TimedEvent>, u64, u32)> {
    let (acq_idx, actor, cell, len) =
        events.iter().enumerate().find_map(|(i, te)| match te.event {
            TraceEvent::Access { task, cell, len, kind: AccessKind::Acquire }
                if task & hb::PROTOCOL_ACTOR_BASE != 0 =>
            {
                Some((i, task, cell, len))
            }
            _ => None,
        })?;
    let rel_idx =
        events.iter().enumerate().skip(acq_idx + 1).find_map(|(i, te)| match te.event {
            TraceEvent::Access { task, cell: c, len: l, kind: AccessKind::Release }
                if task == actor && c == cell && l == len =>
            {
                Some(i)
            }
            _ => None,
        })?;
    let planted = events
        .iter()
        .enumerate()
        .filter(|&(i, _)| i != acq_idx && i != rel_idx)
        .map(|(_, te)| te.clone())
        .collect();
    Some((planted, cell, actor))
}

/// Plant 2: append a task pair whose writes to one fresh cell are
/// ordered by a barrier — then drop the barrier events. Appending to a
/// real stream proves the detector works inside full-size traces, not
/// just toy ones.
fn plant_skipped_barrier(events: &[TimedEvent], skip_barrier: bool) -> Vec<TimedEvent> {
    // Cell and task ids chosen outside anything the workload produces.
    let cell = hb::sios_cell(1 << 20);
    let (ta, tb) = (900_000u32, 900_001u32);
    let t0 = 1_000_000_000u64;
    let mut out = events.to_vec();
    let mut push = |at: u64, event: TraceEvent| out.push(TimedEvent { at: SimTime(at), event });
    push(t0, TraceEvent::TaskSpawned { task: ta, parent: None, detached: false });
    push(t0, TraceEvent::TaskSpawned { task: tb, parent: None, detached: false });
    push(t0 + 1, TraceEvent::Access { task: ta, cell, len: 1, kind: AccessKind::Write });
    if !skip_barrier {
        push(t0 + 2, TraceEvent::BarrierWaited { barrier: 7001, task: ta });
        push(t0 + 3, TraceEvent::BarrierOpened { barrier: 7001, task: tb, cycle: 1, released: 2 });
    }
    push(t0 + 4, TraceEvent::Access { task: tb, cell, len: 1, kind: AccessKind::Write });
    out
}

/// Plant 3: duplicate a real disk-write `ServiceStarted` under a foreign
/// task at the same timestamp on the same resource — the same-instant
/// dispatch commutativity defect.
fn plant_same_tick_service(events: &[TimedEvent]) -> Option<(Vec<TimedEvent>, u32, u32)> {
    let foreign_task = 900_002u32;
    let (idx, res, task) = events.iter().enumerate().find_map(|(i, te)| match te.event {
        TraceEvent::ServiceStarted { res, task, kind: sim_core::DemandKind::DiskWrite, .. } => {
            Some((i, res, task))
        }
        _ => None,
    })?;
    let mut planted = events.to_vec();
    let mut twin = planted[idx].clone();
    if let TraceEvent::ServiceStarted { task, .. } = &mut twin.event {
        *task = foreign_task;
    }
    planted.insert(idx + 1, twin);
    Some((planted, res, task))
}

/// Check one planted defect: it must be detected under `key_kind`, and
/// ddmin shrinking must yield a strictly smaller window still exhibiting
/// the same finding.
fn check_plant(
    report: &mut PassReport,
    name: &str,
    planted: &[TimedEvent],
    key_kind: ViolationKind,
    matches: impl Fn(&sim_core::HbViolation) -> bool,
) {
    let analysis = analyze(planted);
    let Some(v) = analysis.violations.iter().find(|v| v.kind == key_kind && matches(v)) else {
        report.fail(
            name.to_string(),
            format!(
                "planted defect not detected; findings: {:?}",
                analysis.violations.iter().map(|v| v.kind).collect::<Vec<_>>()
            ),
        );
        return;
    };
    // Sound because the analyzer is total on sub-streams.
    let exhibits = |w: &[TimedEvent]| analyze(w).violations.iter().any(|f| f.key() == v.key());
    let window = shrink_list(planted, exhibits);
    let still = exhibits(&window);
    let shrunk = window.len() < planted.len();
    report.push(
        name.to_string(),
        still && shrunk,
        format!(
            "detected `{}`; window shrunk {} → {} events{}",
            v,
            planted.len(),
            window.len(),
            if still { "" } else { " BUT the shrunk window lost the finding" }
        ),
    );
}

/// Run the race-detection pass.
pub fn run_pass() -> PassReport {
    let mut report = PassReport::new("race-detect");

    // 1. Clean sweep: every architecture, fault-free and faulted.
    let mut canonical: Option<Vec<TimedEvent>> = None;
    for arch in Arch::ALL {
        for faulted in [false, true] {
            let plan = faulted.then(|| transient_plan(NOPS / 3, 2 * NOPS / 3));
            let run = scripted_run(arch, NOPS, true, plan);
            let label =
                format!("{arch:?} {} workload", if faulted { "faulted" } else { "fault-free" });
            check_clean(&mut report, label, &run);
            if !faulted && canonical.is_none() {
                canonical = Some(run.events.clone());
            }
        }
    }

    // 2. Detector determinism: double run, identical analysis fingerprints.
    {
        let arch = Arch::RaidX;
        let a = analyze(&scripted_run(arch, NOPS, true, None).events);
        let b = analyze(&scripted_run(arch, NOPS, true, None).events);
        report.push(
            "double-run analysis fingerprint",
            a.fingerprint() == b.fingerprint(),
            format!("{:016x} vs {:016x}", a.fingerprint(), b.fingerprint()),
        );
    }

    // 3. Observer neutrality: tracing must not change results.
    for arch in Arch::ALL {
        let traced = scripted_run(arch, NOPS, true, None);
        let bare = scripted_run(arch, NOPS, false, None);
        let identical = traced.model == bare.model
            && traced.completed == bare.completed
            && traced.failed == bare.failed
            && traced.stale_reads == bare.stale_reads
            && traced.end == bare.end
            && traced.engine_fp == bare.engine_fp;
        report.push(
            format!("{arch:?} traced run result-identical to untraced"),
            identical,
            if identical {
                format!("model/ops/end-time/engine-fp all agree (end {})", traced.end)
            } else {
                format!(
                    "divergence: model {} vs {} blocks, ops {}/{} vs {}/{}, end {} vs {}, \
                     fp {:016x} vs {:016x}",
                    traced.model.len(),
                    bare.model.len(),
                    traced.completed,
                    traced.failed,
                    bare.completed,
                    bare.failed,
                    traced.end,
                    bare.end,
                    traced.engine_fp,
                    bare.engine_fp
                )
            },
        );
    }

    // 4. Planted defects over the canonical real stream.
    let canonical = canonical.expect("at least one traced run recorded");
    match plant_dropped_grant(&canonical) {
        Some((planted, cell, actor)) => check_plant(
            &mut report,
            "planted defect: dropped lock grant",
            &planted,
            ViolationKind::UncoveredWrite,
            |v| v.cell >= cell && v.actors.0 == actor,
        ),
        None => report.fail("planted defect: dropped lock grant", "stream has no lock grants"),
    }
    {
        let control = plant_skipped_barrier(&canonical, false);
        let planted = plant_skipped_barrier(&canonical, true);
        let control_clean = analyze(&control).clean();
        if control_clean {
            check_plant(
                &mut report,
                "planted defect: skipped barrier",
                &planted,
                ViolationKind::WriteWrite,
                |v| v.cell == hb::sios_cell(1 << 20),
            );
        } else {
            report.fail(
                "planted defect: skipped barrier",
                "control stream (barrier intact) was not clean",
            );
        }
    }
    match plant_same_tick_service(&canonical) {
        Some((planted, res, task)) => check_plant(
            &mut report,
            "planted defect: same-tick disk services",
            &planted,
            ViolationKind::SameTickService,
            |v| v.cell == u64::from(res) && v.actors.0 == task,
        ),
        None => report.fail("planted defect: same-tick disk services", "stream has no disk writes"),
    }

    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pass_is_green() {
        let report = run_pass();
        assert!(report.all_ok(), "{}", report.render());
    }

    #[test]
    fn unreached_trigger_fails_the_clean_sweep_cell() {
        // The repair is planted past the end of the script.
        let run = scripted_run(Arch::RaidX, 30, true, Some(transient_plan(10, 30)));
        assert_eq!(run.pending_faults, 1);
        let mut report = PassReport::new("race-detect");
        check_clean(&mut report, "planted".into(), &run);
        assert!(!report.all_ok(), "{}", report.render());
        assert!(report.render().contains("still pending"), "{}", report.render());
    }

    #[test]
    fn traced_stream_carries_protocol_accesses() {
        let run = scripted_run(Arch::RaidX, 40, true, None);
        let accesses =
            run.events.iter().filter(|te| matches!(te.event, TraceEvent::Access { .. })).count();
        assert!(accesses > 0, "IoSystem tracer emitted no access events");
        // RAID-x write-behind must surrender images somewhere in 40 ops.
        let image_writes = run
            .events
            .iter()
            .filter(|te| match te.event {
                TraceEvent::Access { cell, kind: AccessKind::Write, .. } => {
                    hb::cell_ns(cell) == hb::IMAGE_NS
                }
                _ => false,
            })
            .count();
        assert!(image_writes > 0, "no image surrenders traced on RAID-x");
    }

    #[test]
    fn all_three_plants_have_material() {
        let run = scripted_run(Arch::RaidX, 40, true, None);
        assert!(plant_dropped_grant(&run.events).is_some(), "no grant to drop");
        assert!(plant_same_tick_service(&run.events).is_some(), "no disk write to twin");
    }
}
