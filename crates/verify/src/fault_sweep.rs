//! Fault-injection sweep.
//!
//! Enumerates single-fault injection points across every architecture
//! (one test per architecture) and asserts the properties the fault
//! subsystem promises:
//!
//! * **Zero lost blocks** — a deterministic op script runs while one
//!   fault (permanent disk failure, transient outage, NIC partition,
//!   whole-node crash, or disk slowdown) fires mid-workload and is later
//!   repaired (transient resync, partition heal, node restart, or a full
//!   rebuild). No read of the run may return bytes other than the
//!   script's shadow model's; afterwards the array must be
//!   byte-identical to that model, the scrub must find every redundancy
//!   relation consistent, no parked blocks, offline disks or partitions
//!   may remain, and no trigger of the plan may still be pending (an op
//!   index the script never reached is a repair that never ran).
//! * **Determinism under faults** — each scenario runs twice with one
//!   [`EventLog`] installed in the engine; the full event streams must
//!   fingerprint identically. Same seed + same
//!   [`FaultInjector`] schedule ⇒ the same execution, which is what makes an injected
//!   failure debuggable. One FNV-1a digest over each architecture's
//!   `name fingerprint` lines is pinned, so a change that moves any event
//!   of any cell fails too.
//! * **Work actually ran** — the cell took at least one lock-group
//!   grant ([`IoSystem::lock_grants`]), and a post-script rebuild or
//!   rebalance restores at least one block.
//!
//! The sweep uses a 4-node × 1-disk array so every injected fault is a
//! *single* fault to each redundancy group — the regime all four
//! layouts are specified to survive.

use cdd::{FaultEvent, FaultInjector, IoSystem};
use raidx_core::Arch;
use sim_core::check::Gen;
use sim_core::trace::EventLog;
use sim_core::SimTime;
use workloads::op_script::{check_against_model, gen_script, run_script, with_rereads, ScriptOp};

use crate::determinism::stream_fingerprint;

/// The fault classes the sweep injects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Permanent disk failure; repaired by a full rebuild after the
    /// script drains.
    Permanent,
    /// Transient disk outage; repaired mid-script by a parked-block
    /// resync.
    Transient,
    /// NIC partition of one node; healed mid-script.
    Partition,
    /// Whole-node crash; restarted mid-script.
    Crash,
    /// Disk slowdown (timing-only fault), injected on a *timed* trigger;
    /// restored mid-script.
    Slow,
    /// Membership reconfiguration: a spare is hot-added at the injection
    /// point and the target disk retired onto it a few ops later, so the
    /// script's tail runs against an in-flight migration. Drained after
    /// the script via the incremental rebalance.
    Reconfig,
    /// Whole-disk replace (`DiskAdd` + `DiskRemove` as one event) fired
    /// at the injection point; the migration drains after the script.
    Replace,
}

impl FaultKind {
    /// Every fault class, in sweep order.
    pub const ALL: [FaultKind; 7] = [
        FaultKind::Permanent,
        FaultKind::Transient,
        FaultKind::Partition,
        FaultKind::Crash,
        FaultKind::Slow,
        FaultKind::Reconfig,
        FaultKind::Replace,
    ];

    /// True for the membership-reconfiguration classes, which leave a
    /// migration in flight for the scenario to drain after the script.
    pub fn is_reconfig(self) -> bool {
        matches!(self, FaultKind::Reconfig | FaultKind::Replace)
    }
}

/// One cell of the sweep: an architecture, a fault class and the op
/// index the fault fires at.
#[derive(Debug, Clone, Copy)]
pub struct SweepScenario {
    /// Architecture under test.
    pub arch: Arch,
    /// Fault class injected.
    pub kind: FaultKind,
    /// Script op index the fault fires before.
    pub inject_at: usize,
    /// Run with the client block cache enabled, on a script that re-reads
    /// so the cache actually serves. Every cell asserts that no read
    /// served stale bytes at any point; a cached cell additionally that
    /// the cache served some, so the fault classes swept here (disk
    /// loss, node crash, reconfiguration) are shown invisible through
    /// the cache's flush/invalidation hooks.
    pub cached: bool,
}

/// What one scenario run observed.
#[derive(Debug)]
pub struct SweepOutcome {
    /// Fingerprint of the full traced event stream.
    pub fingerprint: u64,
    /// Everything that violated the recovery contract (empty = clean).
    pub problems: Vec<String>,
}

const TARGET_DISK: usize = 3;
const TARGET_NODE: usize = 3;
/// Node driving recovery traffic (also the read-back client).
const DRIVER: usize = 0;
const CLIENTS: usize = 2;
const NOPS: usize = 40;
const REGION_BLOCKS: u64 = 64;
const SCRIPT_SEED: u64 = 0x00fa_0157;
/// Ops between injection and the matching repair event.
const REPAIR_GAP: u64 = 6;

impl SweepScenario {
    /// The cell's op script (re-reading in the cached cells).
    pub fn script(&self) -> Vec<ScriptOp> {
        let ops = gen_script(&mut Gen::new(SCRIPT_SEED), CLIENTS, REGION_BLOCKS, NOPS);
        if self.cached {
            with_rereads(ops)
        } else {
            ops
        }
    }
}

/// The sweep grid: every architecture × every fault class × three
/// injection points (early, middle, late), plus the cached cells.
pub fn scenarios() -> Vec<SweepScenario> {
    let mut out = Vec::new();
    for arch in Arch::ALL {
        for kind in FaultKind::ALL {
            for inject_at in [2, 18, 32] {
                out.push(SweepScenario { arch, kind, inject_at, cached: false });
            }
        }
    }
    // Cached cells: the fault classes whose flush/invalidation hooks the
    // cache must ride (media loss → rebuild, node crash → client flush,
    // membership epoch bump → global flush), at the middle point.
    for arch in Arch::ALL {
        for kind in [FaultKind::Permanent, FaultKind::Crash, FaultKind::Reconfig] {
            out.push(SweepScenario { arch, kind, inject_at: 18, cached: true });
        }
    }
    out
}

fn build_plan(kind: FaultKind, inject_at: usize) -> FaultInjector {
    let inject = inject_at as u64;
    let repair = inject + REPAIR_GAP;
    let mut plan = FaultInjector::new();
    match kind {
        FaultKind::Permanent => {
            plan.at_op(inject, FaultEvent::DiskFail { disk: TARGET_DISK });
        }
        FaultKind::Transient => {
            plan.at_op(inject, FaultEvent::DiskTransient { disk: TARGET_DISK });
            plan.at_op(repair, FaultEvent::DiskRecover { disk: TARGET_DISK, client: DRIVER });
        }
        FaultKind::Partition => {
            plan.at_op(inject, FaultEvent::NicPartition { node: TARGET_NODE });
            plan.at_op(repair, FaultEvent::NicHeal { node: TARGET_NODE, client: DRIVER });
        }
        FaultKind::Crash => {
            plan.at_op(inject, FaultEvent::NodeCrash { node: TARGET_NODE });
            plan.at_op(repair, FaultEvent::NodeRestart { node: TARGET_NODE, client: DRIVER });
        }
        FaultKind::Slow => {
            // Timed trigger: exercises the run_until-driven path.
            plan.at(SimTime(1_500_000), FaultEvent::DiskSlow { disk: TARGET_DISK, factor: 6 });
            plan.at_op(repair, FaultEvent::DiskSlow { disk: TARGET_DISK, factor: 1 });
        }
        FaultKind::Reconfig => {
            plan.at_op(inject, FaultEvent::DiskAdd);
            plan.at_op(repair, FaultEvent::DiskRemove { disk: TARGET_DISK });
        }
        FaultKind::Replace => {
            plan.at_op(inject, FaultEvent::DiskReplace { disk: TARGET_DISK });
        }
    }
    plan
}

fn post_recovery_problems(sys: &mut IoSystem, kind: FaultKind) -> Vec<String> {
    let mut problems = Vec::new();
    if kind != FaultKind::Slow {
        if sys.faults().iter().next().is_some() {
            problems.push("permanent faults remain after recovery".into());
        }
        if sys.offline_disks().iter().next().is_some() {
            problems.push("disks still offline after recovery".into());
        }
        if !sys.partitions().is_empty() {
            problems.push("partitions remain after recovery".into());
        }
        if sys.parked_total() != 0 {
            problems.push(format!("{} blocks still parked after recovery", sys.parked_total()));
        }
    }
    if kind.is_reconfig() {
        if sys.migration_pending() != 0 {
            problems.push(format!("{} blocks still pending migration", sys.migration_pending()));
        }
        if sys.slot_of(TARGET_DISK).is_some() {
            problems.push("retired disk still serves a slot".into());
        }
        if sys.epoch() < 2 {
            problems.push(format!("epoch {} after add+remove, expected >= 2", sys.epoch()));
        }
    }
    if let Err(e) = sys.scrub() {
        problems.push(format!("post-recovery scrub failed: {e}"));
    }
    problems
}

/// Run one scenario once: `ops` ([`SweepScenario::script`]) with the fault
/// plan attached, repair (rebuild for the permanent class), then the full
/// recovery contract check. `cache` is `sc.cached`, or `false` to replay a
/// cached cell's re-reading script as its uncached twin.
pub fn run_scenario(sc: &SweepScenario, ops: &[ScriptOp], cache: bool) -> SweepOutcome {
    let cdd_cfg = cdd::CddConfig {
        cache: cache.then_some(cdd::CacheConfig { capacity_blocks: 32 }),
        ..cdd::CddConfig::default()
    };
    let (mut engine, mut sys) = cdd::testkit::shape_with(4, 1, 8 << 20, sc.arch, cdd_cfg);
    let log = EventLog::new();
    engine.set_tracer(log.clone());
    let mut inj = build_plan(sc.kind, sc.inject_at);

    let mut problems = Vec::new();
    match run_script(&mut engine, &mut sys, ops, Some(&mut inj)) {
        Ok(out) => {
            if inj.pending() != 0 {
                problems.push(format!("{} trigger(s) pending at script end", inj.pending()));
            }
            // After the script the permanent class rebuilds, under whatever
            // background flushes are still live, and the reconfiguration
            // classes drain the in-flight migration, like an operator
            // finishing a rebalance. Either must restore something.
            let repair = match sc.kind {
                FaultKind::Permanent => Some(sys.rebuild_disk(DRIVER, TARGET_DISK, None)),
                kind if kind.is_reconfig() => Some(sys.rebalance(DRIVER, None)),
                _ => None,
            };
            match repair {
                Some(Ok(o)) => {
                    if !o.finished {
                        problems.push("repair did not finish".into());
                    }
                    if let Some(lb) = o.lost {
                        problems.push(format!("repair lost block {lb}"));
                    }
                    // `Replace @op2` swaps the disk before the script writes to it.
                    if o.restored == 0 && !(sc.kind == FaultKind::Replace && sc.inject_at == 2) {
                        problems.push("repair restored no block".into());
                    }
                    engine.spawn_job("repair", o.plan);
                    engine.run().expect("repair deadlocked");
                }
                Some(Err(e)) => problems.push(format!("repair failed: {e}")),
                None => {}
            }
            if out.failed > 0 {
                problems.push(format!("{} ops failed under a single tolerated fault", out.failed));
            }
            // No read — before, during or after the fault, cached or
            // not — may serve bytes other than the model's.
            if out.stale_reads > 0 {
                problems.push(format!("{} stale reads", out.stale_reads));
            }
            if cache {
                // The cached cells' extra contract: the cache must
                // actually have served some reads.
                match sys.cache_stats() {
                    Some(stats) if stats.hits > 0 => {}
                    Some(_) => problems.push("cache never served a read".into()),
                    None => problems.push("cached cell ran without a cache".into()),
                }
            }
            problems.extend(post_recovery_problems(&mut sys, sc.kind));
            match check_against_model(&mut sys, DRIVER, &out.model) {
                Ok(Ok(())) => {}
                Ok(Err(lb)) => problems.push(format!("block {lb} diverged from the shadow model")),
                Err(e) => problems.push(format!("model read-back failed: {e}")),
            }
        }
        Err(e) => problems.push(format!("script aborted: {e}")),
    }
    if sys.lock_grants() == 0 {
        problems.push("the cell took no grant".into());
    }
    SweepOutcome { fingerprint: stream_fingerprint(&log.events()), problems }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::check::run_cases;
    use sim_core::fnv1a;

    /// FNV-1a digest of each architecture's grid lines ([`check_grid`]).
    const DIGESTS: [(Arch, u64); 4] = [
        (Arch::Raid5, 0xc6d2_aa7b_b3f9_6a1c),
        (Arch::Chained, 0x34c9_c6e1_8a03_732d),
        (Arch::Raid10, 0x4a55_5208_1cc7_de11),
        (Arch::RaidX, 0x0482_967e_2b59_ea96),
    ];

    /// Run every cell of `arch`'s grid twice — both runs must be clean and
    /// fingerprint-identical, and a cached cell must differ from its
    /// uncached twin — then pin the digest of its `name fingerprint` lines.
    fn check_grid(arch: Arch) {
        let (mut lines, mut failed) = (String::new(), Vec::new());
        for sc in scenarios().into_iter().filter(|sc| sc.arch == arch) {
            let ops = sc.script();
            let a = run_scenario(&sc, &ops, sc.cached);
            let b = run_scenario(&sc, &ops, sc.cached);
            let cached = if sc.cached { " cached" } else { "" };
            let name = format!("{:?} {:?} @op{}{cached}", sc.arch, sc.kind, sc.inject_at);
            let mut problems = a.problems;
            if a.fingerprint != b.fingerprint {
                let (fa, fb) = (a.fingerprint, b.fingerprint);
                problems.push(format!("nondeterministic under faults: {fa:016x} vs {fb:016x}"));
            }
            if sc.cached && run_scenario(&sc, &ops, false).fingerprint == a.fingerprint {
                problems
                    .push("cache changed nothing: fingerprint equals the uncached twin's".into());
            }
            if !problems.is_empty() {
                failed.push(format!("{name}: {}", problems.join("; ")));
            }
            lines += &format!("{name} {:016x}\n", a.fingerprint);
        }
        assert!(failed.is_empty(), "cells broke the recovery contract:\n{}", failed.join("\n"));
        let digest = fnv1a([&lines]);
        let pinned = DIGESTS.iter().find(|d| d.0 == arch).map(|d| d.1);
        assert_eq!(Some(digest), pinned, "fresh digest 0x{digest:016x} of\n{lines}");
    }

    #[test]
    fn raid5_fault_grid() {
        check_grid(Arch::Raid5);
    }

    #[test]
    fn chained_fault_grid() {
        check_grid(Arch::Chained);
    }

    #[test]
    fn raid10_fault_grid() {
        check_grid(Arch::Raid10);
    }

    #[test]
    fn raidx_fault_grid() {
        check_grid(Arch::RaidX);
    }

    #[test]
    fn full_grid_enumerates_all_cells() {
        // 4 arch × 7 kinds × 3 points, plus 4 arch × 3 cached cells.
        assert_eq!(scenarios().len(), 4 * 7 * 3 + 4 * 3);
        assert_eq!(scenarios().iter().filter(|s| s.cached).count(), 12);
    }

    #[test]
    fn unreached_trigger_fails_the_cell() {
        // Injected so late that the repair's op index lies past the end
        // of the script: the timed slowdown fires, the restore never
        // does.
        let sc = SweepScenario {
            arch: Arch::RaidX,
            kind: FaultKind::Slow,
            inject_at: NOPS,
            cached: false,
        };
        let out = run_scenario(&sc, &sc.script(), false);
        assert!(out.problems.iter().any(|p| p.contains("pending")), "{:?}", out.problems);
    }

    /// Satellite property: random op scripts with a random single fault
    /// injected at a random position, across every architecture and ≥8
    /// seeds each — post-recovery contents must be byte-identical to a
    /// fault-free reference run of the same script.
    #[test]
    fn random_single_fault_recovery_matches_fault_free_reference() {
        for arch in Arch::ALL {
            run_cases(&format!("fault-recovery-{arch:?}"), 8, |g| {
                let nops = g.usize_in(20..36);
                let inject_at = g.usize_in(1..nops - REPAIR_GAP as usize - 1);
                let kind = [
                    FaultKind::Permanent,
                    FaultKind::Transient,
                    FaultKind::Partition,
                    FaultKind::Crash,
                ][g.usize_in(0..4)];
                let ops = gen_script(g, CLIENTS, REGION_BLOCKS, nops);

                // Faulted run.
                let (mut engine, mut sys) = cdd::testkit::shape(4, 1, 8 << 20, arch);
                let mut inj = build_plan(kind, inject_at);
                let out = run_script(&mut engine, &mut sys, &ops, Some(&mut inj))
                    .expect("faulted script run");
                assert_eq!(inj.pending(), 0, "a trigger was never reached");
                if kind == FaultKind::Permanent {
                    let out = sys.rebuild_disk(DRIVER, TARGET_DISK, None).expect("rebuild");
                    assert_eq!(out.lost, None, "a single fault lost a block");
                    engine.spawn_job("rebuild", out.plan);
                    engine.run().expect("rebuild run");
                }
                assert_eq!(out.failed, 0, "single fault must be tolerated");

                // Fault-free reference run of the same script.
                let (mut ref_engine, mut ref_sys) = cdd::testkit::shape(4, 1, 8 << 20, arch);
                let ref_out =
                    run_script(&mut ref_engine, &mut ref_sys, &ops, None).expect("reference run");
                assert_eq!(
                    out.model, ref_out.model,
                    "faulted run acknowledged a different write set"
                );
                assert_eq!(
                    check_against_model(&mut sys, DRIVER, &ref_out.model).expect("read-back"),
                    Ok(()),
                    "post-recovery contents diverge from the fault-free reference"
                );
                assert_eq!(sys.parked_total(), 0);
                sys.scrub().expect("post-recovery scrub");
            });
        }
    }
}
