//! Model-based property test of the single I/O space under any fault
//! sequence — the repository's one fault harness. Random op scripts run
//! against the array, and the oracle is `workloads::op_script`'s shadow
//! model: the bytes of every write that succeeded. Between ops, disks
//! fail, go offline and come back, slow down on timed triggers, are
//! rebuilt, replaced, hot-added and retired (the ops after a retirement
//! run against its in-flight migration until a rebalance drains it),
//! nodes crash and restart, and NICs are cut off and healed — applied as
//! [`FaultEvent`]s through a [`FaultInjector`], with no regard for what
//! the layout tolerates. About a quarter of the runs only cut and heal
//! NICs: a partition takes no media, so such a run never loses a block.
//! The contract:
//!
//! * every read returns the model's bytes, `DataLoss` or `Unreachable` —
//!   never other bytes, however many copies a fault sequence took;
//! * while the disks out — failed, offline, or holding a copy a write
//!   skipped — have never been more than the layout tolerates, no op and
//!   no repair reports `DataLoss`, and `Unreachable` only while a node is
//!   cut off;
//! * a repair that loses a block still returns its plan, which runs;
//! * after a full repair, every trigger has fired, scrub finds every live
//!   copy consistent, no migration is left draining, and a run that never
//!   saw `DataLoss` leaves no parked copy and reads every block back;
//! * the work ran: every successful write took a grant, and some repair
//!   restored a block.
//!
//! Writes run up to two stripes, so RAID-5 full-stripe writes — the path
//! that computes parity from the new blocks alone — happen under faults.
//!
//! Each scenario runs uncached and behind a four-block client cache whose
//! entries are the plane's own block handles — a handle that outlived the
//! overwrite invalidating it would read back a stale tag — and each of
//! those twice, with the engine's event stream recorded. The two runs
//! must fingerprint identically (same seed and schedule, same
//! execution); a cached run that hit must differ from its uncached twin;
//! and one FNV-1a digest per architecture over every case's two
//! fingerprints is pinned in [`DIGESTS`], so a change that moves any
//! event of any case fails.

use std::panic::{catch_unwind, AssertUnwindSafe};

use cdd::{CacheConfig, CddConfig, FaultEvent, FaultInjector, IoError, IoSystem, RestoreOutcome};
use raidx_core::{Arch, FaultSet};
use raidx_verify::determinism::{diff_streams, stream_fingerprint};
use sim_core::check::{run_cases, Gen};
use sim_core::trace::{EventLog, TimedEvent};
use sim_core::{fnv1a, Engine, SimDuration};
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
/// Longest delay of a timed slowdown, in simulated nanoseconds: a few
/// ops, so most fire before a later step and some only in the final
/// drain.
const MAX_SLOW_DELAY_NS: u64 = 20_000_000;
/// Cases per architecture.
const CASES: u64 = 24;

/// FNV-1a digest, per architecture, of its cases' `case uncached cached`
/// fingerprint lines ([`agree_with_model`]).
const DIGESTS: [(Arch, u64); 4] = [
    (Arch::Raid5, 0x77d1_a329_ba74_80d8),
    (Arch::Chained, 0x8780_5a5a_01f5_748a),
    (Arch::Raid10, 0xbe8c_5bf9_ced1_b766),
    (Arch::RaidX, 0x1c65_377f_7145_d53d),
];

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
    /// Hot-add a spare.
    Add,
    /// Retire the active disk `pick` selects onto the oldest spare, if
    /// one is registered, and leave the migration in flight: the steps up
    /// to the next rebalance run against it.
    Remove { pick: usize },
    /// Drain the in-flight migration.
    Rebalance,
    /// Slow the active disk `pick` selects down by `factor` (1 restores
    /// full speed), `delay_ns` of simulated time from now.
    Slow { pick: usize, factor: u64, delay_ns: u64 },
    /// Crash node `pick` (modulo the node count).
    Crash { pick: usize },
    /// Restart the lowest-numbered node cut off, crashed or partitioned.
    Restart,
    /// Cut node `pick`'s NIC off (modulo the node count).
    Partition { pick: usize },
    /// Heal the lowest-numbered node cut off, and resync its disks.
    Heal,
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
    match g.weighted(&[16, 1, 1, 2, 2, 1, 1, 1, 1, 1, 1, 2, 1, 2]) {
        0 => Step::Op(draw_op(g)),
        1 => Step::Fail { pick: g.usize_in(0..64) },
        2 => Step::Transient { pick: g.usize_in(0..64) },
        3 => Step::Recover,
        4 => Step::Rebuild,
        5 => Step::Replace { pick: g.usize_in(0..64) },
        6 => Step::Add,
        7 => Step::Remove { pick: g.usize_in(0..64) },
        8 => Step::Rebalance,
        9 => Step::Slow {
            pick: g.usize_in(0..64),
            factor: g.u64_in(1..7),
            delay_ns: g.u64_in(0..MAX_SLOW_DELAY_NS),
        },
        10 => Step::Crash { pick: g.usize_in(0..64) },
        11 => Step::Restart,
        12 => Step::Partition { pick: g.usize_in(0..64) },
        _ => Step::Heal,
    }
}

/// An op, a NIC cut or a heal: the alphabet of a partition-only run.
fn draw_partition_step(g: &mut Gen) -> Step {
    match g.weighted(&[8, 1, 1]) {
        0 => Step::Op(draw_op(g)),
        1 => Step::Partition { pick: g.usize_in(0..64) },
        _ => Step::Heal,
    }
}

/// What one scenario observed.
#[derive(Debug, Default)]
struct Seen {
    /// Fingerprint of the engine's whole event stream.
    fingerprint: u64,
    /// Blocks the client caches served.
    hits: u64,
    /// Whether any op or repair reported `DataLoss`.
    lost: bool,
    /// Ops and repairs that reported `Unreachable`.
    unreachable: usize,
    /// Whether the disks out were ever a set the layout does not
    /// tolerate. Until they are, `DataLoss` fails the test.
    exceeded: bool,
    /// Writes that covered a whole parity stripe and succeeded while a
    /// disk was out.
    degraded_full_stripes: usize,
    /// Writes that succeeded.
    writes: u64,
    /// Blocks the rebuilds, resyncs and rebalances wrote.
    restored: usize,
    /// Node crashes that fired with mirror images still buffered.
    buffered_crashes: usize,
}

/// One run: the array, its fault schedule and what the ops observed.
struct Run {
    arch: Arch,
    engine: Engine,
    sys: IoSystem,
    log: EventLog,
    faults: FaultInjector,
    out: ScriptOutcome,
    /// Steps taken so far: the op index a fault event is scheduled at.
    at: usize,
    /// Spares added and not yet promoted.
    spares: usize,
    seen: Seen,
}

impl Run {
    fn new(arch: Arch, cache: Option<CacheConfig>) -> Run {
        // Tiny disks keep the plane small.
        let cfg = CddConfig { cache, ..CddConfig::default() };
        let (mut engine, sys) = cdd::testkit::shape_with(NODES, 2, 8 << 20, arch, cfg);
        let log = EventLog::new();
        engine.set_tracer(log.clone());
        Run {
            arch,
            engine,
            sys,
            log,
            faults: FaultInjector::new(),
            out: ScriptOutcome::default(),
            at: 0,
            spares: 0,
            seen: Seen::default(),
        }
    }

    /// Note the outcome of an op or a repair: `Ok`, `DataLoss` (a block
    /// is gone, or out of reach of the media still online) once the
    /// faults have exceeded what the layout tolerates, or `Unreachable`
    /// while a node is cut off; anything else fails the test.
    fn note<T>(&mut self, what: &dyn std::fmt::Debug, r: Result<T, IoError>) -> Option<T> {
        match r {
            Ok(v) => return Some(v),
            Err(IoError::DataLoss { .. }) if self.seen.exceeded => self.seen.lost = true,
            Err(IoError::Unreachable { .. }) if !self.sys.partitions().is_empty() => {
                self.seen.unreachable += 1;
            }
            Err(e) => panic!(
                "{:?}: {what:?}: {e} (failed: {:?}, offline: {:?}, tolerance exceeded: {})",
                self.arch,
                self.sys.faults().iter().collect::<Vec<_>>(),
                self.sys.offline_disks().iter().collect::<Vec<_>>(),
                self.seen.exceeded,
            ),
        }
        None
    }

    /// Fold the disks out right now into `exceeded`: failed, offline, or
    /// holding a parked copy — a copy a write skipped behind a partition
    /// is as stale as one on a disk that was offline.
    fn check_tolerance(&mut self) {
        let out = self.sys.storage_faults();
        let stale = |g: &usize| out.contains(*g) || self.sys.parked_blocks(*g) > 0;
        let disks = 0..self.sys.cluster().ndisks();
        let slots: FaultSet = disks.filter(stale).filter_map(|g| self.sys.slot_of(g)).collect();
        self.seen.exceeded |= !self.sys.layout().tolerates(&slots);
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
        if let (ScriptOp::Write { lb, blocks, .. }, Ok(())) = (op, &result) {
            self.seen.writes += 1;
            if !self.sys.storage_faults().is_empty() && self.full_stripe(lb, blocks) {
                self.seen.degraded_full_stripes += 1;
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

    /// Note a repair's outcome: its plan runs to completion, and a lost
    /// block counts as the `DataLoss` it is.
    fn repair(&mut self, what: &dyn std::fmt::Debug, r: Result<RestoreOutcome, IoError>) {
        if let Some(outcome) = self.note(what, r) {
            self.seen.restored += outcome.restored;
            self.engine.spawn_job("repair", outcome.plan);
            self.engine.run().expect("repair deadlocked");
            if let Some(lb) = outcome.lost {
                self.note::<()>(what, Err(IoError::DataLoss { lb }));
            }
        }
    }

    /// Drain the in-flight migration, if any, driven from `client`.
    fn rebalance(&mut self, what: &dyn std::fmt::Debug, client: usize) {
        let r = self.sys.rebalance(client, None);
        self.repair(what, r);
    }

    fn active_disk(&self, pick: usize) -> usize {
        let ndisks = self.sys.cluster().ndisks();
        let active: Vec<usize> = (0..ndisks).filter(|&g| self.sys.slot_of(g).is_some()).collect();
        active[pick % active.len()]
    }

    fn cut_off(&self, node: usize) -> bool {
        self.sys.partitions().is_partitioned(node)
    }

    fn node_of(&self, disk: usize) -> usize {
        self.sys.cluster().node_of_disk(disk)
    }

    fn step(&mut self, step: &Step) {
        // A timed trigger fires before the first step that finds the clock
        // past it.
        let r = self.faults.poll(&mut self.engine, &mut self.sys);
        self.note(&"timed trigger", r);
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
                    self.sys.offline_disks().iter().find(|&g| !self.cut_off(self.node_of(g)));
                if let Some(disk) = offline {
                    let client = self.node_of(disk);
                    let r = self.fire(FaultEvent::DiskRecover { disk, client });
                    self.note(step, r);
                }
            }
            Step::Rebuild => {
                let failed = self.sys.faults().iter().next();
                if let Some(disk) = failed {
                    let r = self.sys.rebuild_disk(self.node_of(disk), disk, None);
                    self.repair(step, r);
                }
            }
            Step::Replace { pick } => {
                // One migration at a time: an earlier retirement's drains
                // first.
                self.rebalance(step, 0);
                let disk = self.active_disk(pick);
                let client = self.node_of(disk);
                let r = self.fire(FaultEvent::DiskReplace { disk });
                self.note(step, r);
                self.rebalance(step, client);
            }
            Step::Add => {
                let r = self.fire(FaultEvent::DiskAdd);
                if self.note(step, r).is_some() {
                    self.spares += 1;
                }
            }
            Step::Remove { pick } => {
                if self.spares > 0 {
                    self.rebalance(step, 0);
                    let disk = self.active_disk(pick);
                    let r = self.fire(FaultEvent::DiskRemove { disk });
                    if self.note(step, r).is_some() {
                        self.spares -= 1;
                    }
                }
            }
            Step::Rebalance => self.rebalance(step, 0),
            Step::Slow { pick, factor, delay_ns } => {
                let disk = self.active_disk(pick);
                let due = self.engine.now() + SimDuration::from_nanos(delay_ns);
                self.faults.at(due, FaultEvent::DiskSlow { disk, factor });
            }
            Step::Crash { pick } => {
                let node = pick % NODES;
                if !self.cut_off(node) {
                    if self.sys.pending_image_blocks() > 0 {
                        self.seen.buffered_crashes += 1;
                    }
                    let r = self.fire(FaultEvent::NodeCrash { node });
                    self.note(step, r);
                }
            }
            Step::Restart => {
                if let Some(node) = (0..NODES).find(|&n| self.cut_off(n)) {
                    let r = self.fire(FaultEvent::NodeRestart { node, client: node });
                    self.note(step, r);
                }
            }
            Step::Partition { pick } => {
                let node = pick % NODES;
                if !self.cut_off(node) {
                    let r = self.fire(FaultEvent::NicPartition { node });
                    self.note(step, r);
                }
            }
            Step::Heal => {
                if let Some(node) = (0..NODES).find(|&n| self.cut_off(n)) {
                    let r = self.fire(FaultEvent::NicHeal { node, client: node });
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
                self.repair(&"resync", r);
            }
        }
    }

    /// Repair everything, like an operator after the storm: fire the
    /// timed triggers still due, restart the nodes cut off, bring the
    /// disks back and resync — a resync whose source is still out reports
    /// the loss, and the next resync retries — then rebuild, finish the
    /// migration and resync again.
    fn full_repair(&mut self) {
        let r = self.faults.drain_timed(&mut self.engine, &mut self.sys);
        self.note(&"timed trigger", r);
        self.engine.run().expect("timed trigger drain deadlocked");
        let cut_off: Vec<usize> = (0..NODES).filter(|&n| self.cut_off(n)).collect();
        for node in cut_off {
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
            let r = self.sys.rebuild_disk(0, disk, None);
            self.repair(&"final rebuild", r);
        }
        self.rebalance(&"final rebalance", 0);
        self.resync_all();
    }

    /// Repair everything, check the end state and read every block back;
    /// returns what the run saw and the engine's event stream.
    fn finish(mut self) -> (Seen, Vec<TimedEvent>) {
        self.full_repair();
        let arch = self.arch;
        let pending = self.faults.pending();
        assert_eq!(pending, 0, "{arch:?}: {pending} trigger(s) never fired");
        let sys = &mut self.sys;
        assert!(sys.faults().is_empty() && sys.offline_disks().is_empty(), "{arch:?}: disks out");
        assert!(sys.partitions().is_empty(), "{arch:?}: a node is still cut off");
        sys.scrub().unwrap_or_else(|e| panic!("{arch:?}: scrub after full repair: {e}"));
        assert_eq!(sys.migration_pending(), 0, "{arch:?}: the migration did not drain");
        if !self.seen.lost {
            assert_eq!(
                sys.parked_total(),
                0,
                "{arch:?}: parked copies outlived a loss-free repair"
            );
        }
        let (grants, writes) = (sys.lock_grants(), self.seen.writes);
        assert!(grants >= writes, "{arch:?}: {writes} writes took {grants} grants");
        // Every block reads the model's bytes, or — in a run that lost
        // some — `DataLoss`.
        for lb in 0..REGION_BLOCKS {
            let read = ScriptOp::Read { client: 0, lb, blocks: 1 };
            match run_op(&mut self.engine, &mut self.sys, self.at, read, &mut self.out) {
                Ok(()) => {}
                Err(IoError::DataLoss { .. }) if self.seen.lost => {}
                Err(e) => panic!("{arch:?}: block {lb} after full repair: {e}"),
            }
        }
        assert_eq!(
            self.out.stale_reads, 0,
            "{arch:?}: a repaired block read bytes the model never held"
        );
        self.seen.hits = self.sys.cache_stats().map_or(0, |s| s.hits);
        (self.seen, self.log.take())
    }
}

/// Runs `steps` twice, which must replay event for event, and reports
/// what the run saw.
fn run_scenario(arch: Arch, cache: Option<CacheConfig>, steps: &[Step]) -> Seen {
    let play = || {
        let mut run = Run::new(arch, cache);
        for step in steps {
            run.step(step);
        }
        run.finish()
    };
    let ((mut seen, events), (_, again)) = (play(), play());
    if let Some((i, a, b)) = diff_streams(&events, &again) {
        panic!("{arch:?}: the replay differs at event {i}:\n  {a}\n  {b}");
    }
    seen.fingerprint = stream_fingerprint(&events);
    seen
}

/// What every case of one cache setting saw, summed.
#[derive(Default)]
struct Tally {
    runs: usize,
    runs_lost: usize,
    runs_tolerated: usize,
    hits: u64,
    degraded_full_stripes: usize,
    partitioned_unreachable: usize,
    restored: usize,
    buffered_crashes: usize,
}

impl Tally {
    fn add(&mut self, seen: &Seen, partitions_only: bool) {
        if partitions_only {
            self.partitioned_unreachable += seen.unreachable;
        }
        self.runs += 1;
        self.runs_lost += usize::from(seen.lost);
        self.runs_tolerated += usize::from(!seen.exceeded);
        self.hits += seen.hits;
        self.degraded_full_stripes += seen.degraded_full_stripes;
        self.restored += seen.restored;
        self.buffered_crashes += seen.buffered_crashes;
    }

    /// Every half of the oracle ran.
    fn check(&self, arch: Arch, cached: bool) {
        let (runs, runs_lost, hits) = (self.runs, self.runs_lost, self.hits);
        // A cached run that never hit says nothing about cached handles.
        assert_eq!(cached, hits > 0, "{arch:?}: {hits} cache hits, cached: {cached}");
        // Some run lost a block, some lost none, and some never went past
        // what the layout tolerates.
        assert!(0 < runs_lost && runs_lost < runs, "{arch:?}: {runs_lost} of {runs} runs lost");
        assert!(self.runs_tolerated > 0, "{arch:?}: every run exceeded the layout's tolerance");
        // A partition-only run met a copy out of reach.
        assert!(self.partitioned_unreachable > 0, "{arch:?}: no partition-only Unreachable");
        assert!(self.restored > 0, "{arch:?}: no repair restored a block");
        // RAID-5 wrote whole stripes while degraded.
        if arch == Arch::Raid5 {
            assert!(self.degraded_full_stripes > 0, "no degraded full-stripe write");
        }
        // RAID-x crashed a writer whose mirror images were still buffered.
        if arch == Arch::RaidX {
            assert!(self.buffered_crashes > 0, "no crash with images buffered, cached: {cached}");
        }
    }
}

fn agree_with_model(name: &str, arch: Arch) {
    let cache = Some(CacheConfig { capacity_blocks: 4 });
    let (mut uncached, mut cached) = (Tally::default(), Tally::default());
    let mut lines = String::new();
    run_cases(name, CASES, |g| {
        let partitions_only = g.weighted(&[3, 1]) == 1;
        let steps = g.vec_of(1..40, if partitions_only { draw_partition_step } else { draw_step });
        let plain = run_scenario(arch, None, &steps);
        let warm = run_scenario(arch, cache, &steps);
        if partitions_only {
            assert!(!plain.lost && !warm.lost, "{arch:?}: a partition lost a block");
        }
        // A hit serves a read without the disk: the cache changed the run.
        if warm.hits > 0 {
            assert_ne!(warm.fingerprint, plain.fingerprint, "{arch:?}: the cache changed nothing");
        }
        lines +=
            &format!("{} {:016x} {:016x}\n", uncached.runs, plain.fingerprint, warm.fingerprint);
        uncached.add(&plain, partitions_only);
        cached.add(&warm, partitions_only);
    });
    uncached.check(arch, false);
    cached.check(arch, true);
    let digest = fnv1a([&lines]);
    let pinned = DIGESTS.iter().find(|d| d.0 == arch).map(|d| d.1);
    assert_eq!(Some(digest), pinned, "{arch:?}: fresh digest 0x{digest:016x} of\n{lines}");
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

/// A trigger the run never reaches fails the case: an op index past the
/// last step stays pending.
#[test]
fn unreached_trigger_fails_the_case() {
    let mut run = Run::new(Arch::RaidX, None);
    run.step(&Step::Op(ScriptOp::Write { client: 0, lb: 0, blocks: 2, tag: 1 }));
    run.faults.at_op(u64::MAX, FaultEvent::DiskSlow { disk: 0, factor: 1 });
    let failed = catch_unwind(AssertUnwindSafe(|| run.finish())).expect_err("the case passed");
    let message = failed.downcast_ref::<String>().map_or("", String::as_str);
    assert!(message.contains("never fired"), "{message}");
}
