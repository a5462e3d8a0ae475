//! Deterministic mid-workload fault injection for the CDD data plane.
//!
//! [`FaultInjector`] binds a [`sim_core::FaultPlan`] of [`FaultEvent`]s
//! to a live [`IoSystem`]: timed events fire when the engine's clock is
//! driven past their deadline (via [`sim_core::Engine::run_until`]),
//! op events fire when the scripted workload announces the index of the
//! op it is about to issue ([`FaultInjector::hit_op`]). Because both the
//! schedule and the engine are deterministic, the same seed plus the same
//! plan replays the exact same failure — the property the `fault-sweep`
//! verify pass fingerprints.
//!
//! Events split into *damage* (disk fail, transient offline, NIC
//! partition, node crash, disk slowdown) and *repair* (transient
//! recovery, partition heal, node restart). Repair events carry the
//! node that drives the recovery traffic; their resync/rebuild plans
//! are spawned as detached `"recovery/…"` jobs so foreground latency
//! accounting stays honest while repair I/O competes for the same
//! disks and links.

use sim_core::{Engine, FaultPlan, SimTime};

use crate::error::IoError;
use crate::system::IoSystem;

/// One injectable cluster fault (or its repair).
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
    DiskAdd {
        /// Node driving the metadata transition.
        client: usize,
    },
    /// Retire an active disk onto the first registered spare. Placement
    /// flips immediately; the migration is deliberately left in flight so
    /// subsequent workload ops exercise mid-rebalance reads and
    /// stale-epoch admission. The workload (or scenario teardown) drains
    /// it via [`IoSystem::rebalance`].
    DiskRemove {
        /// Global physical disk number (must be Active).
        disk: usize,
        /// Node driving the transition.
        client: usize,
    },
    /// Replace an active disk with a freshly hot-added blank one:
    /// `DiskAdd` + `DiskRemove` as a single event.
    DiskReplace {
        /// Global physical disk number to retire.
        disk: usize,
        /// Node driving the transition.
        client: usize,
    },
}

/// Executes a [`FaultPlan`] of [`FaultEvent`]s against an engine and an
/// I/O system.
#[derive(Debug)]
pub struct FaultInjector {
    plan: FaultPlan<FaultEvent>,
}

impl FaultInjector {
    /// Wrap a prepared fault plan.
    pub fn new(plan: FaultPlan<FaultEvent>) -> Self {
        FaultInjector { plan }
    }

    /// Events not yet fired, timed and op-triggered alike. Non-zero after
    /// a script ends means a trigger named an op the script never reached.
    pub fn pending(&self) -> usize {
        self.plan.pending()
    }

    /// Earliest unfired timed trigger, if any.
    pub fn next_time(&self) -> Option<SimTime> {
        self.plan.next_time()
    }

    /// Fire every timed event due at or before the engine's current
    /// clock. Returns how many fired.
    pub fn poll(&mut self, engine: &mut Engine, sys: &mut IoSystem) -> Result<usize, IoError> {
        let due = self.plan.take_due(engine.now());
        let n = due.len();
        for ev in due {
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
        let due = self.plan.hit_op(op);
        let n = due.len();
        for ev in due {
            apply(ev, engine, sys)?;
        }
        Ok(n)
    }

    /// Drive the engine through every remaining *timed* trigger: run the
    /// clock up to each deadline, fire, repeat. Op triggers are not
    /// consumed (only the workload can reach those). The caller finishes
    /// the run with `engine.run()` afterwards.
    pub fn drain_timed(&mut self, engine: &mut Engine, sys: &mut IoSystem) -> Result<(), IoError> {
        while let Some(t) = self.plan.next_time() {
            engine.run_until(t);
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
            let (plan, _) = sys.recover_disk_transient(client, disk)?;
            engine.spawn_job(format!("recovery/disk{disk}"), plan);
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
                    let (plan, _) = sys.resync_parked(client, disk)?;
                    engine.spawn_job(format!("recovery/heal{node}-disk{disk}"), plan);
                }
            }
        }
        FaultEvent::NodeCrash { node } => sys.crash_node(node),
        FaultEvent::DiskAdd { client } => {
            sys.add_disk(engine, client)?;
        }
        FaultEvent::DiskRemove { disk, client } => {
            sys.remove_disk(client, disk)?;
        }
        FaultEvent::DiskReplace { disk, client } => {
            sys.replace_disk(engine, client, disk)?;
        }
        FaultEvent::NodeRestart { node, client } => {
            sys.heal_node(node);
            for disk in 0..sys.cluster.ndisks() {
                if sys.cluster.node_of_disk(disk) == node && sys.offline_disks().contains(disk) {
                    let (plan, _) = sys.recover_disk_transient(client, disk)?;
                    engine.spawn_job(format!("recovery/restart{node}-disk{disk}"), plan);
                }
            }
        }
    }
    Ok(())
}
