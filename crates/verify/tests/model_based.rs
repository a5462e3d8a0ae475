//! Model-based property test of the single I/O space under any fault
//! sequence. Random op scripts run against the array, and the oracle is
//! `workloads::op_script`'s shadow model: the bytes of every write that
//! succeeded. Between ops, disks fail, go offline and come back, are
//! rebuilt or replaced, and nodes crash and restart — applied as
//! [`FaultEvent`]s through a [`FaultInjector`], with no regard for what
//! the layout tolerates. The contract:
//!
//! * every read returns the model's bytes, `DataLoss` or `Unreachable` —
//!   never other bytes, however many copies a fault sequence took;
//! * while the disks out have never been more than the layout tolerates,
//!   no op and no repair reports `DataLoss`, and `Unreachable` only while
//!   a node is cut off;
//! * after a full repair, scrub finds every live copy consistent, and a
//!   run that never saw `DataLoss` leaves no parked copy and reads every
//!   block back.
//!
//! Writes run up to two stripes, so RAID-5 full-stripe writes — the path
//! that computes parity from the new blocks alone — happen under faults.
//!
//! Each architecture runs the same scenarios twice: uncached, and behind
//! a four-block client cache whose entries are the plane's own block
//! handles — a handle that outlived the overwrite invalidating it would
//! read back a stale tag.

use cdd::{CacheConfig, CddConfig, FaultEvent, FaultInjector, IoError, IoSystem};
use raidx_core::{Arch, FaultSet};
use sim_core::check::{run_cases, Gen};
use sim_core::Engine;
use workloads::op_script::{run_op, with_rereads, ScriptOp, ScriptOutcome};

/// One node per client: a 4 × 2 array, whose RAID-5 stripe is 7 blocks.
const NODES: usize = 4;
/// Six RAID-5 stripes: small, so that ranges are re-read and overwritten.
const REGION_BLOCKS: u64 = 42;
/// Longest write, in blocks: two RAID-5 stripes.
const MAX_WRITE: u64 = 14;
/// Longest read, in blocks: what the four-block cache holds, so a
/// re-read can hit.
const MAX_READ: u64 = 4;

#[derive(Debug, Clone)]
enum Step {
    /// One scripted read or write.
    Op(ScriptOp),
    /// Fail the active disk `pick` selects, for good.
    Fail { pick: usize },
    /// Take the active disk `pick` selects transiently offline.
    Transient { pick: usize },
    /// Bring back the lowest-numbered offline disk of a running node.
    Recover,
    /// Rebuild the lowest-numbered failed disk.
    Rebuild,
    /// Replace the active disk `pick` selects with a new one, then
    /// rebalance onto it.
    Replace { pick: usize },
    /// Crash node `pick` (modulo the node count).
    Crash { pick: usize },
    /// Restart the lowest-numbered crashed node.
    Restart,
}

/// A write (twice as likely) or a read, from any node, inside the region.
fn draw_op(g: &mut Gen) -> ScriptOp {
    let client = g.usize_in(0..NODES);
    let write = g.weighted(&[2, 1]) == 0;
    let blocks = g.u64_in(1..if write { MAX_WRITE } else { MAX_READ } + 1);
    let lb = g.u64_in(0..REGION_BLOCKS - blocks + 1);
    if write {
        ScriptOp::Write { client, lb, blocks, tag: g.u8() | 1 }
    } else {
        ScriptOp::Read { client, lb, blocks }
    }
}

fn draw_step(g: &mut Gen) -> Step {
    match g.weighted(&[16, 1, 1, 2, 2, 1, 1, 2]) {
        0 => Step::Op(draw_op(g)),
        1 => Step::Fail { pick: g.usize_in(0..64) },
        2 => Step::Transient { pick: g.usize_in(0..64) },
        3 => Step::Recover,
        4 => Step::Rebuild,
        5 => Step::Replace { pick: g.usize_in(0..64) },
        6 => Step::Crash { pick: g.usize_in(0..64) },
        _ => Step::Restart,
    }
}

/// One run: the array, its fault schedule and what the ops observed.
struct Run {
    arch: Arch,
    engine: Engine,
    sys: IoSystem,
    faults: FaultInjector,
    out: ScriptOutcome,
    /// Steps taken so far: the op index a fault event is scheduled at.
    at: usize,
    /// Whether any op or repair reported `DataLoss`.
    lost: bool,
    /// Whether the disks out were ever a set the layout does not
    /// tolerate. Until they are, `DataLoss` fails the test.
    exceeded: bool,
    /// Writes that covered a whole parity stripe and succeeded while a
    /// disk was out.
    degraded_full_stripes: usize,
}

impl Run {
    /// Note the outcome of an op or a repair: `Ok`, `DataLoss` (a block
    /// is gone, or out of reach of the media still online) once the
    /// faults have exceeded what the layout tolerates, or `Unreachable`
    /// while a node is cut off; anything else fails the test.
    fn note<T>(&mut self, what: &dyn std::fmt::Debug, r: Result<T, IoError>) -> Option<T> {
        match r {
            Ok(v) => return Some(v),
            Err(IoError::DataLoss { .. }) if self.exceeded => self.lost = true,
            Err(IoError::Unreachable { .. }) if !self.sys.partitions().is_empty() => {}
            Err(e) => panic!(
                "{:?}: {what:?}: {e} (failed: {:?}, offline: {:?}, tolerance exceeded: {})",
                self.arch,
                self.sys.faults().iter().collect::<Vec<_>>(),
                self.sys.offline_disks().iter().collect::<Vec<_>>(),
                self.exceeded,
            ),
        }
        None
    }

    /// Fold the disks out right now into `exceeded`.
    fn check_tolerance(&mut self) {
        let out = self.sys.storage_faults();
        let slots: FaultSet = out.iter().filter_map(|g| self.sys.slot_of(g)).collect();
        self.exceeded |= !self.sys.layout().tolerates(&slots);
    }

    /// Whether a write of `blocks` blocks at `lb` covers a whole parity
    /// stripe.
    fn full_stripe(&self, lb: u64, blocks: u64) -> bool {
        let layout = self.sys.layout();
        layout.locate_parity(lb).is_some()
            && (lb..lb + blocks).any(|x| {
                let members = layout.stripe_blocks(layout.stripe_of(x).0);
                members.iter().all(|m| (lb..lb + blocks).contains(m))
            })
    }

    fn op(&mut self, op: ScriptOp) {
        let result = run_op(&mut self.engine, &mut self.sys, self.at, op, &mut self.out);
        if let ScriptOp::Write { lb, blocks, .. } = op {
            let degraded = !self.sys.storage_faults().is_empty();
            if result.is_ok() && degraded && self.full_stripe(lb, blocks) {
                self.degraded_full_stripes += 1;
            }
        }
        self.note(&op, result);
        assert_eq!(
            self.out.stale_reads, 0,
            "{:?}: {op:?} read bytes the model never held",
            self.arch
        );
    }

    /// Fire `ev` now, through the injector.
    fn fire(&mut self, ev: FaultEvent) -> Result<usize, IoError> {
        let at = self.at as u64;
        self.faults.at_op(at, ev);
        self.faults.hit_op(at, &mut self.engine, &mut self.sys)
    }

    /// Run a repair's plan to completion.
    fn settle(&mut self, plan: sim_core::Plan) {
        self.engine.spawn_job("repair", plan);
        self.engine.run().expect("repair deadlocked");
    }

    fn active_disk(&self, pick: usize) -> usize {
        let ndisks = self.sys.cluster().ndisks();
        let active: Vec<usize> = (0..ndisks).filter(|&g| self.sys.slot_of(g).is_some()).collect();
        active[pick % active.len()]
    }

    fn crashed(&self, node: usize) -> bool {
        self.sys.partitions().is_partitioned(node)
    }

    fn node_of(&self, disk: usize) -> usize {
        self.sys.cluster().node_of_disk(disk)
    }

    fn step(&mut self, step: &Step) {
        match *step {
            Step::Op(op) => {
                // A read runs twice, the second time through the cache.
                for op in with_rereads(vec![op]) {
                    self.op(op);
                }
            }
            Step::Fail { pick } => {
                let disk = self.active_disk(pick);
                if !self.sys.faults().contains(disk) {
                    let r = self.fire(FaultEvent::DiskFail { disk });
                    self.note(step, r);
                }
            }
            Step::Transient { pick } => {
                let disk = self.active_disk(pick);
                if !self.sys.storage_faults().contains(disk) {
                    let r = self.fire(FaultEvent::DiskTransient { disk });
                    self.note(step, r);
                }
            }
            Step::Recover => {
                let offline =
                    self.sys.offline_disks().iter().find(|&g| !self.crashed(self.node_of(g)));
                if let Some(disk) = offline {
                    let client = self.node_of(disk);
                    let r = self.fire(FaultEvent::DiskRecover { disk, client });
                    self.note(step, r);
                }
            }
            Step::Rebuild => {
                let failed = self.sys.faults().iter().next();
                if let Some(disk) = failed {
                    let r = self.sys.rebuild_disk(self.node_of(disk), disk);
                    if let Some((plan, _)) = self.note(step, r) {
                        self.settle(plan);
                    }
                }
            }
            Step::Replace { pick } => {
                if self.sys.migration_pending() == 0 {
                    let disk = self.active_disk(pick);
                    let client = self.node_of(disk);
                    let r = self.fire(FaultEvent::DiskReplace { disk });
                    self.note(step, r);
                    let r = self.sys.rebalance(client, None);
                    if let Some(outcome) = self.note(step, r) {
                        self.settle(outcome.plan);
                    }
                }
            }
            Step::Crash { pick } => {
                let node = pick % NODES;
                if !self.crashed(node) {
                    let r = self.fire(FaultEvent::NodeCrash { node });
                    self.note(step, r);
                }
            }
            Step::Restart => {
                if let Some(node) = (0..NODES).find(|&n| self.crashed(n)) {
                    let r = self.fire(FaultEvent::NodeRestart { node, client: node });
                    self.note(step, r);
                }
            }
        }
        self.at += 1;
        self.check_tolerance();
    }

    /// Resync every online disk that still has parked copies.
    fn resync_all(&mut self) {
        for disk in 0..self.sys.cluster().ndisks() {
            if self.sys.parked_blocks(disk) > 0 && !self.sys.storage_faults().contains(disk) {
                let r = self.sys.resync_parked(0, disk);
                if let Some((plan, _)) = self.note(&"resync", r) {
                    self.settle(plan);
                }
            }
        }
    }

    /// Repair everything, like an operator after the storm: restart the
    /// nodes, bring the disks back and resync — a resync whose source is
    /// still out reports the loss, and the next resync retries — then
    /// rebuild, finish the migration and resync again.
    fn full_repair(&mut self) {
        let crashed: Vec<usize> = (0..NODES).filter(|&n| self.crashed(n)).collect();
        for node in crashed {
            let r = self.fire(FaultEvent::NodeRestart { node, client: node });
            self.note(&"restart", r);
        }
        let offline: Vec<usize> = self.sys.offline_disks().iter().collect();
        for disk in offline {
            let r = self.fire(FaultEvent::DiskRecover { disk, client: 0 });
            self.note(&"recover", r);
        }
        self.resync_all();
        let failed: Vec<usize> = self.sys.faults().iter().collect();
        for disk in failed {
            let r = self.sys.rebuild_disk(0, disk);
            if let Some((plan, _)) = self.note(&"final rebuild", r) {
                self.settle(plan);
            }
        }
        let r = self.sys.rebalance(0, None);
        if let Some(outcome) = self.note(&"final rebalance", r) {
            self.settle(outcome.plan);
        }
        self.resync_all();
    }
}

/// What one scenario observed.
struct Seen {
    /// Blocks the client caches served.
    hits: u64,
    /// Whether the run lost a block.
    lost: bool,
    /// Whether the faults ever exceeded what the layout tolerates.
    exceeded: bool,
    /// Full-stripe writes that succeeded while a disk was out.
    degraded_full_stripes: usize,
}

/// Runs `steps` and reports what the run saw.
fn run_scenario(arch: Arch, cache: Option<CacheConfig>, steps: &[Step]) -> Seen {
    // Tiny disks keep the plane small.
    let cfg = CddConfig { cache, ..CddConfig::default() };
    let (engine, sys) = cdd::testkit::shape_with(NODES, 2, 8 << 20, arch, cfg);
    let (faults, out) = (FaultInjector::new(), ScriptOutcome::default());
    let mut run = Run {
        arch,
        engine,
        sys,
        faults,
        out,
        at: 0,
        lost: false,
        exceeded: false,
        degraded_full_stripes: 0,
    };
    for step in steps {
        run.step(step);
    }
    run.full_repair();

    let sys = &mut run.sys;
    assert!(sys.faults().is_empty() && sys.offline_disks().is_empty(), "{arch:?}: disks out");
    assert!(sys.partitions().is_empty(), "{arch:?}: a node is still cut off");
    sys.scrub().unwrap_or_else(|e| panic!("{arch:?}: scrub after full repair: {e}"));
    if !run.lost {
        assert_eq!(sys.parked_total(), 0, "{arch:?}: parked copies outlived a loss-free repair");
        assert_eq!(sys.migration_pending(), 0, "{arch:?}: the migration did not drain");
    }
    // Every block reads the model's bytes, or — in a run that lost some —
    // `DataLoss`.
    let lost = run.lost;
    for lb in 0..REGION_BLOCKS {
        let read = ScriptOp::Read { client: 0, lb, blocks: 1 };
        let result = run_op(&mut run.engine, &mut run.sys, run.at, read, &mut run.out);
        match result {
            Ok(()) => {}
            Err(IoError::DataLoss { .. }) if lost => {}
            Err(e) => panic!("{arch:?}: block {lb} after full repair: {e}"),
        }
    }
    assert_eq!(
        run.out.stale_reads, 0,
        "{arch:?}: a repaired block read bytes the model never held"
    );
    Seen {
        hits: run.sys.cache_stats().map_or(0, |s| s.hits),
        lost: run.lost,
        exceeded: run.exceeded,
        degraded_full_stripes: run.degraded_full_stripes,
    }
}

fn agree_with_model(name: &str, arch: Arch) {
    for cache in [None, Some(CacheConfig { capacity_blocks: 4 })] {
        let (mut hits, mut runs_lost, mut runs_tolerated, mut runs) = (0, 0, 0, 0);
        let mut degraded_full_stripes = 0;
        run_cases(name, 24, |g| {
            let steps = g.vec_of(1..40, draw_step);
            let seen = run_scenario(arch, cache, &steps);
            hits += seen.hits;
            runs += 1;
            runs_lost += usize::from(seen.lost);
            runs_tolerated += usize::from(!seen.exceeded);
            degraded_full_stripes += seen.degraded_full_stripes;
        });
        // A cached run that never hit says nothing about cached handles.
        assert_eq!(cache.is_some(), hits > 0, "{arch:?}: {hits} cache hits with {cache:?}");
        // Every half of the oracle ran: some run lost a block, some lost
        // none, and some never went past what the layout tolerates.
        assert!(
            0 < runs_lost && runs_lost < runs,
            "{arch:?}: {runs_lost} of {runs} runs lost a block"
        );
        assert!(runs_tolerated > 0, "{arch:?}: every run exceeded the layout's tolerance");
        // RAID-5 wrote whole stripes while degraded.
        if arch == Arch::Raid5 {
            assert!(degraded_full_stripes > 0, "no degraded full-stripe write");
        }
    }
}

#[test]
fn raidx_agrees_with_model() {
    agree_with_model("raidx_agrees_with_model", Arch::RaidX);
}

#[test]
fn raid10_agrees_with_model() {
    agree_with_model("raid10_agrees_with_model", Arch::Raid10);
}

#[test]
fn chained_agrees_with_model() {
    agree_with_model("chained_agrees_with_model", Arch::Chained);
}

#[test]
fn raid5_agrees_with_model() {
    agree_with_model("raid5_agrees_with_model", Arch::Raid5);
}
