//! Deterministic mid-workload fault injection for the CDD data plane.
//!
//! A [`FaultInjector`] is a schedule of [`FaultEvent`]s and the code that
//! fires them at a live [`IoSystem`]: timed events fire when the engine's
//! clock is driven past their deadline (via
//! [`sim_core::Engine::run_until`]), op events fire when the scripted
//! workload announces the index of the op it is about to issue
//! ([`FaultInjector::hit_op`]). Because both the schedule and the engine
//! are deterministic, the same seed plus the same schedule replays the
//! exact same failure — the property the `raidx-verify` model test
//! fingerprints.
//!
//! Events split into *damage* (disk fail, transient offline, NIC
//! partition, node crash, disk slowdown) and *repair* (transient
//! recovery, partition heal, node restart). Repair events carry the
//! node that drives the recovery traffic; their resync plans are
//! spawned as detached `"recovery/…"` jobs, a loss's included, so
//! foreground latency accounting stays honest while repair I/O competes
//! for the same disks and links.

use sim_core::{Engine, SimTime};

use crate::error::IoError;
use crate::restore::RestoreOutcome;
use crate::system::IoSystem;

/// One injectable cluster fault, or its repair. A repair event that
/// loses a block still spawns its plan, then fails with `DataLoss`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultEvent {
    /// Permanent disk failure: contents lost, rebuild required.
    DiskFail {
        /// Global disk number.
        disk: usize,
    },
    /// Transient disk outage: I/O rejected, contents survive.
    DiskTransient {
        /// Global disk number.
        disk: usize,
    },
    /// Bring a transiently-offline disk back and resync its parked
    /// blocks, driven from `client`.
    DiskRecover {
        /// Global disk number.
        disk: usize,
        /// Node issuing the resync traffic.
        client: usize,
    },
    /// Degrade a disk's service rate by an integer factor ≥ 1 (1
    /// restores full speed). Models a failing-but-alive spindle.
    DiskSlow {
        /// Global disk number.
        disk: usize,
        /// Service-time multiplier.
        factor: u64,
    },
    /// Cut a node's NIC off from the switch; its disks stay healthy but
    /// become unreachable to remote clients.
    NicPartition {
        /// Partitioned node.
        node: usize,
    },
    /// Reconnect a partitioned node and resync, from `client`, every
    /// block parked against its disks during the partition window.
    NicHeal {
        /// Healed node.
        node: usize,
        /// Node issuing the resync traffic.
        client: usize,
    },
    /// Whole-node crash: NIC partition plus every local disk transiently
    /// offline; image-queue entries buffered by the node re-home.
    NodeCrash {
        /// Crashed node.
        node: usize,
    },
    /// Restart a crashed node: reconnect it and recover each of its
    /// transiently-offline disks, driven from `client`.
    NodeRestart {
        /// Restarting node.
        node: usize,
        /// Node issuing the recovery traffic.
        client: usize,
    },
    /// Hot-add a physical disk as a spare (appends a roster epoch; the
    /// disk serves no placement until a later remove promotes it).
    DiskAdd,
    /// Retire an active disk onto the first registered spare. Placement
    /// flips immediately; the migration is deliberately left in flight so
    /// subsequent workload ops exercise mid-rebalance reads and writes.
    /// The workload (or scenario teardown) drains
    /// it via [`IoSystem::rebalance`].
    DiskRemove {
        /// Global physical disk number (must be Active).
        disk: usize,
    },
    /// Replace an active disk with a freshly hot-added blank one:
    /// `DiskAdd` + `DiskRemove` as a single event.
    DiskReplace {
        /// Global physical disk number to retire.
        disk: usize,
    },
}

/// A deterministic schedule of [`FaultEvent`]s, fired against an engine
/// and an I/O system.
///
/// Timed events fire in `(time, insertion order)` order; op events fire,
/// in insertion order, when the workload announces their op index. An op
/// index the workload never reaches stays [`pending`](Self::pending).
#[derive(Debug, Default)]
pub struct FaultInjector {
    /// Time-triggered events, sorted by time; equal times keep insertion
    /// order.
    timed: Vec<(SimTime, FaultEvent)>,
    /// Op-triggered events, in insertion order.
    at_ops: Vec<(u64, FaultEvent)>,
}

impl FaultInjector {
    /// An empty schedule.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedule `ev` at simulated time `t`, after every event already
    /// scheduled at or before `t`.
    pub fn at(&mut self, t: SimTime, ev: FaultEvent) -> &mut Self {
        let pos = self.timed.partition_point(|(ft, _)| *ft <= t);
        self.timed.insert(pos, (t, ev));
        self
    }

    /// Schedule `ev` just before op number `op` (0-based) of the scripted
    /// workload.
    pub fn at_op(&mut self, op: u64, ev: FaultEvent) -> &mut Self {
        self.at_ops.push((op, ev));
        self
    }

    /// Events not yet fired, timed and op-triggered alike. Non-zero after
    /// a script ends means a trigger named an op the script never reached.
    pub fn pending(&self) -> usize {
        self.timed.len() + self.at_ops.len()
    }

    /// Earliest unfired timed trigger, if any.
    pub fn next_time(&self) -> Option<SimTime> {
        self.timed.first().map(|&(t, _)| t)
    }

    /// Fire every timed event due at or before the engine's current
    /// clock. Returns how many fired.
    pub fn poll(&mut self, engine: &mut Engine, sys: &mut IoSystem) -> Result<usize, IoError> {
        let n = self.timed.partition_point(|(t, _)| *t <= engine.now());
        for (_, ev) in self.timed.drain(..n) {
            apply(ev, engine, sys)?;
        }
        Ok(n)
    }

    /// Announce that the workload is about to issue op number `op`;
    /// fires every fault scheduled for it. Returns how many fired.
    pub fn hit_op(
        &mut self,
        op: u64,
        engine: &mut Engine,
        sys: &mut IoSystem,
    ) -> Result<usize, IoError> {
        let (due, rest): (Vec<_>, Vec<_>) =
            std::mem::take(&mut self.at_ops).into_iter().partition(|(at, _)| *at == op);
        self.at_ops = rest;
        let n = due.len();
        for (_, ev) in due {
            apply(ev, engine, sys)?;
        }
        Ok(n)
    }

    /// Drive the engine through every remaining *timed* trigger: run the
    /// clock up to each deadline still ahead of it, fire, repeat. Op
    /// triggers are not consumed (only the workload can reach those). The
    /// caller finishes the run with `engine.run()` afterwards.
    pub fn drain_timed(&mut self, engine: &mut Engine, sys: &mut IoSystem) -> Result<(), IoError> {
        while let Some(t) = self.next_time() {
            engine.run_until(t.max(engine.now()));
            self.poll(engine, sys)?;
        }
        Ok(())
    }
}

/// Apply one fault event to the system under test.
fn apply(ev: FaultEvent, engine: &mut Engine, sys: &mut IoSystem) -> Result<(), IoError> {
    match ev {
        FaultEvent::DiskFail { disk } => sys.fail_disk(disk),
        FaultEvent::DiskTransient { disk } => sys.fail_disk_transient(disk),
        FaultEvent::DiskRecover { disk, client } => {
            let outcome = sys.recover_disk_transient(client, disk)?;
            spawn_repair(engine, format!("recovery/disk{disk}"), outcome)?;
        }
        FaultEvent::DiskSlow { disk, factor } => {
            engine.set_resource_slowdown(sys.cluster.disks[disk].res, factor);
        }
        FaultEvent::NicPartition { node } => sys.partition_node(node),
        FaultEvent::NicHeal { node, client } => {
            sys.heal_node(node);
            // Copies skipped while the node was unreachable are stale;
            // resync every parked disk it hosts (the disks themselves
            // stayed healthy, so resync is legal immediately).
            for disk in 0..sys.cluster.ndisks() {
                if sys.cluster.node_of_disk(disk) == node
                    && sys.parked_blocks(disk) > 0
                    && !sys.faults().contains(disk)
                    && !sys.offline_disks().contains(disk)
                {
                    let outcome = sys.resync_parked(client, disk)?;
                    spawn_repair(engine, format!("recovery/heal{node}-disk{disk}"), outcome)?;
                }
            }
        }
        FaultEvent::NodeCrash { node } => sys.crash_node(node),
        FaultEvent::DiskAdd => {
            sys.add_disk(engine)?;
        }
        FaultEvent::DiskRemove { disk } => {
            sys.remove_disk(disk)?;
        }
        FaultEvent::DiskReplace { disk } => {
            sys.replace_disk(engine, disk)?;
        }
        FaultEvent::NodeRestart { node, client } => {
            sys.heal_node(node);
            for disk in 0..sys.cluster.ndisks() {
                if sys.cluster.node_of_disk(disk) == node && sys.offline_disks().contains(disk) {
                    let outcome = sys.recover_disk_transient(client, disk)?;
                    spawn_repair(engine, format!("recovery/restart{node}-disk{disk}"), outcome)?;
                }
            }
        }
    }
    Ok(())
}

/// Spawn a repair's plan as the job `name`, then report its loss, if
/// any, as [`IoError::DataLoss`].
fn spawn_repair(engine: &mut Engine, name: String, outcome: RestoreOutcome) -> Result<(), IoError> {
    engine.spawn_job(name, outcome.plan);
    outcome.lost.map_or(Ok(()), |lb| Err(IoError::DataLoss { lb }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::shape;
    use raidx_core::Arch;

    /// A `DiskSlow` on disk 0 with `factor`: the disk's slowdown after a
    /// firing names the last event that fired.
    fn slow(factor: u64) -> FaultEvent {
        FaultEvent::DiskSlow { disk: 0, factor }
    }

    #[test]
    fn timed_faults_fire_in_time_then_insertion_order() {
        let (mut engine, mut sys) = shape(2, 1, 1 << 20, Arch::RaidX);
        let disk = sys.cluster.disks[0].res;
        let mut inj = FaultInjector::new();
        inj.at(SimTime(50), slow(3)).at(SimTime(10), slow(2)).at(SimTime(50), slow(4));
        assert_eq!(inj.next_time(), Some(SimTime(10)));
        engine.run_until(SimTime(9));
        assert_eq!(inj.poll(&mut engine, &mut sys).unwrap(), 0);
        engine.run_until(SimTime(10));
        assert_eq!(inj.poll(&mut engine, &mut sys).unwrap(), 1);
        assert_eq!(engine.resource_slowdown(disk), 2);
        engine.run_until(SimTime(100));
        assert_eq!(inj.poll(&mut engine, &mut sys).unwrap(), 2);
        // Both time-50 events fired, the later-inserted one last.
        assert_eq!(engine.resource_slowdown(disk), 4);
        assert_eq!(inj.pending(), 0);
    }

    #[test]
    fn the_drain_fires_a_deadline_the_clock_already_passed() {
        let (mut engine, mut sys) = shape(2, 1, 1 << 20, Arch::RaidX);
        let disk = sys.cluster.disks[0].res;
        let mut inj = FaultInjector::new();
        inj.at(SimTime(10), slow(2));
        engine.run_until(SimTime(20));
        inj.drain_timed(&mut engine, &mut sys).unwrap();
        assert_eq!(engine.resource_slowdown(disk), 2);
        assert_eq!((inj.pending(), engine.now()), (0, SimTime(20)));
    }

    #[test]
    fn op_faults_fire_once_at_their_op_in_insertion_order() {
        let (mut engine, mut sys) = shape(2, 1, 1 << 20, Arch::RaidX);
        let disk = sys.cluster.disks[0].res;
        let mut inj = FaultInjector::new();
        inj.at_op(2, slow(5)).at_op(1, slow(2)).at_op(1, slow(3)).at_op(9, slow(7));
        assert_eq!(inj.hit_op(0, &mut engine, &mut sys).unwrap(), 0);
        assert_eq!(inj.hit_op(1, &mut engine, &mut sys).unwrap(), 2);
        assert_eq!(engine.resource_slowdown(disk), 3, "op 1's events fire in insertion order");
        assert_eq!(inj.hit_op(1, &mut engine, &mut sys).unwrap(), 0, "a fault fires once");
        assert_eq!(inj.hit_op(2, &mut engine, &mut sys).unwrap(), 1);
        assert_eq!(engine.resource_slowdown(disk), 5);
        // The script ended before op 9: the trigger stays pending, which
        // is what every model-test case asserts against.
        assert_eq!(inj.pending(), 1);
    }
}
