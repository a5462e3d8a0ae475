//! Fault state and dynamic membership of the [`IoSystem`]: disk and node
//! failures, and the epoch transitions that add, remove or replace disks
//! while the array serves I/O.
//!
//! An epoch transition is a metadata operation: it binds a logical slot
//! to a new physical disk in the [`cluster::ClusterMap`] (serialised
//! through the replicated lock-group table via the reserved
//! [`EPOCH_META_LB`] range) and records which physical blocks of the
//! vacated disk still await migration. The bytes then move
//! *incrementally* — [`IoSystem::rebalance`] drains the pending set in
//! bounded, crash-idempotent steps while reads keep resolving pending
//! blocks against the old home. A full-disk replace is just
//! `add_disk` + `remove_disk`; the cost difference against a full
//! rebuild is what the `rebalance_under_load` bench table quantifies.

use std::collections::BTreeSet;

use raidx_core::{BlockAddr, FaultSet};
use sim_core::Engine;

use crate::error::IoError;
use crate::system::IoSystem;

/// First logical block of the lock range reserved for epoch transitions.
///
/// Data requests lock `[lb0, lb0+nblocks)` below the array capacity;
/// membership operations lock this far-away range instead, so a
/// transition excludes concurrent transitions without colliding with any
/// data lock. Kept below `1 << 56` — the protocol cell namespace bound —
/// so the range stays representable everywhere a lock range can flow.
pub(crate) const EPOCH_META_LB: u64 = (1 << 56) - 64;
/// Length of the reserved epoch-transition lock range.
pub(crate) const EPOCH_META_SPAN: u64 = 64;

impl IoSystem {
    /// Disks whose *media* is unavailable: failed or transiently offline.
    /// Scrub and recovery planning use this set — connectivity does not
    /// matter to on-disk redundancy relations.
    pub fn storage_faults(&self) -> FaultSet {
        let mut s = self.faults.clone();
        for d in self.offline.iter() {
            s.insert(d);
        }
        s
    }

    /// Disks `client` cannot use right now: failed, offline, or hosted on
    /// a node unreachable from `client` through the current partitions.
    /// Every request is planned against this set, so in-flight partitions
    /// are observed — this is the client module's view of the array.
    pub fn effective_faults(&self, client: usize) -> FaultSet {
        let mut eff = self.storage_faults();
        if !self.partitions.is_empty() {
            for g in 0..self.cluster.ndisks() {
                if !self.partitions.reachable(client, self.cluster.node_of_disk(g)) {
                    eff.insert(g);
                }
            }
        }
        eff
    }

    /// Every copy location of logical block `lb` (data, images, parity),
    /// in slot space.
    pub(crate) fn copy_addrs(&self, lb: u64) -> Vec<BlockAddr> {
        let mut addrs = vec![self.layout.locate_data(lb)];
        addrs.extend(self.layout.locate_images(lb));
        addrs.extend(self.layout.locate_parity(lb));
        addrs
    }

    /// Cut `node` off from the switch: remote clients lose access to its
    /// disks (and it loses access to theirs) until [`IoSystem::heal_node`].
    pub fn partition_node(&mut self, node: usize) {
        self.partitions.partition(node);
        // A cut-off node can no longer hear write-grant invalidations,
        // so its cached extents are untrustworthy the moment the cable
        // drops — discard them all.
        self.cache_flush_node(node);
    }

    /// Reconnect `node`. The caller should then resync the blocks parked
    /// against its disks ([`IoSystem::resync_parked`]) before trusting
    /// redundancy again.
    pub fn heal_node(&mut self, node: usize) {
        self.partitions.heal(node);
    }

    /// Record `lb`'s copy on unavailable physical `disk` as needing
    /// restoration.
    pub(crate) fn park(&mut self, disk: usize, lb: u64) {
        self.parked.entry(disk).or_default().insert(lb);
    }

    /// Fail a disk *permanently*: its contents are lost on the functional
    /// plane and all planning routes around it. Any image blocks still
    /// buffered for it in the write-behind queue are drained (flushing
    /// them later would write into a dead disk and leak queue accounting)
    /// and parked for the eventual rebuild.
    pub fn fail_disk(&mut self, disk: usize) {
        self.faults.insert(disk);
        self.offline.remove(disk);
        self.plane.fail(disk);
        let drained = self.images.remove_disk(disk);
        if self.tracer.is_some() {
            let lbs: Vec<u64> = drained.iter().map(|p| p.lb).collect();
            self.trace_image_drain(&lbs);
        }
        for img in drained {
            self.park(disk, img.lb);
        }
    }

    /// Take a disk *transiently* offline: I/O is rejected but the
    /// contents survive. Pending image-queue entries for it are drained
    /// and parked, exactly as in [`IoSystem::fail_disk`]; recovery is the
    /// cheap path — [`IoSystem::recover_disk_transient`] resyncs only the
    /// parked blocks from surviving copies instead of rebuilding the
    /// whole disk.
    pub fn fail_disk_transient(&mut self, disk: usize) {
        assert!(!self.faults.contains(disk), "disk already permanently failed");
        self.offline.insert(disk);
        self.plane.set_offline(disk, true);
        let drained = self.images.remove_disk(disk);
        if self.tracer.is_some() {
            let lbs: Vec<u64> = drained.iter().map(|p| p.lb).collect();
            self.trace_image_drain(&lbs);
        }
        for img in drained {
            self.park(disk, img.lb);
        }
    }

    /// A node crashed: cut it off from the switch and take its disks
    /// transiently offline (the machine is down; the media survives a
    /// reboot). Image-queue entries buffered *by* the crashed node are
    /// re-homed to each target disk's owner node, which holds the
    /// already-written primary locally.
    pub fn crash_node(&mut self, node: usize) {
        self.partitions.partition(node);
        // Same reasoning as `partition_node`: the crashed node's cache
        // dies with it (and must come back empty after a reboot).
        self.cache_flush_node(node);
        for g in 0..self.cluster.ndisks() {
            if self.cluster.node_of_disk(g) == node
                && !self.faults.contains(g)
                && !self.offline.contains(g)
            {
                self.fail_disk_transient(g);
            }
        }
        let owners: Vec<usize> =
            (0..self.cluster.ndisks()).map(|g| self.cluster.node_of_disk(g)).collect();
        self.images.reassign_client(node, |p| owners[p.addr.disk]);
    }

    /// Hot-add a physical disk to the array as a *spare*, on behalf of
    /// node `client`. Registers it with the engine (same numbering and
    /// seed rules as boot), grows the functional plane, and appends a
    /// roster epoch. The disk serves no placement until a later
    /// [`IoSystem::remove_disk`] promotes it.
    pub fn add_disk(&mut self, engine: &mut Engine, client: usize) -> Result<usize, IoError> {
        self.with_grant(client, EPOCH_META_LB, EPOCH_META_SPAN, |sys, _| {
            let g = sys.cluster.add_disk(engine);
            let p = sys.plane.add_disk();
            let s = sys.placer.add_spare();
            debug_assert!(g == p && p == s, "disk id spaces diverged: {g}/{p}/{s}");
            // Membership epoch bump: flush every client's cache while the
            // meta lock is held, preserving the StaleEpoch admission story —
            // no cached extent may straddle an epoch transition.
            sys.cache_flush_all();
            Ok(g)
        })
    }

    /// Remove (retire) active physical disk `phys` from the array,
    /// promoting the first registered spare into its slot. Returns the
    /// spare's physical id.
    ///
    /// This is the epoch transition: placement flips to the new home
    /// immediately, while the vacated disk's blocks drain incrementally
    /// through [`IoSystem::rebalance`]. Until a block migrates, reads of
    /// it are served from the old disk (if its media survives) or routed
    /// through redundancy (if not) — the array keeps serving I/O with
    /// zero failed ops either way. Blocks *parked* against the old disk
    /// by degraded writes are stale there, so they transfer as ledger
    /// entries against the new home (restored later by
    /// [`IoSystem::resync_parked`]) instead of being migrated as bytes.
    ///
    /// Panics if `phys` is not Active or no spare is registered — both
    /// are operator errors, not runtime conditions.
    pub fn remove_disk(&mut self, client: usize, phys: usize) -> Result<usize, IoError> {
        #[expect(clippy::expect_used, reason = "operator-error invariant documented on the method")]
        let slot = self.placer.map().slot_of(phys).expect("can only remove an active disk");
        #[expect(clippy::expect_used, reason = "operator-error invariant documented on the method")]
        let spare =
            self.placer.map().first_spare().expect("removing a disk requires a registered spare");
        self.with_grant(client, EPOCH_META_LB, EPOCH_META_SPAN, |sys, _| {
            sys.promote_spare(slot, phys, spare);
            Ok(spare)
        })
    }

    /// The epoch transition of [`IoSystem::remove_disk`], run under the
    /// meta lock: rebind `slot` from `phys` to `spare` and record what
    /// must migrate.
    fn promote_spare(&mut self, slot: usize, phys: usize, spare: usize) {
        let old_dead = self.plane.is_failed(phys) || self.plane.is_offline(phys);

        let parked_old: BTreeSet<u64> = self.parked.remove(&phys).unwrap_or_default();
        let mut pending: BTreeSet<u64> = if self.plane.is_failed(phys) {
            // The media is gone (its block map was cleared), so the
            // migration set is everything the layout places on the slot:
            // each such block reconstructs from redundancy.
            let mut p = BTreeSet::new();
            for lb in 0..self.high_water {
                for a in self.copy_addrs(lb) {
                    if a.disk == slot {
                        p.insert(a.block);
                    }
                }
            }
            p
        } else {
            self.plane.written_blocks(phys).into_iter().collect()
        };
        // Parked copies are stale on the old disk: migrating their bytes
        // would resurrect overwritten data. They move as ledger entries.
        for &lb in &parked_old {
            for a in self.copy_addrs(lb) {
                if a.disk == slot {
                    pending.remove(&a.block);
                }
            }
        }
        if !parked_old.is_empty() {
            self.parked.entry(spare).or_default().extend(parked_old);
        }

        self.placer.begin_promote(slot, spare, old_dead, pending);
        // Buffered write-behind flushes aimed at the old disk now charge
        // the new home (their bytes are already functionally durable and
        // migrate with the pending set; only the timing plan retargets).
        self.images.retarget_disk(phys, spare);
        // The retired disk leaves fault bookkeeping: it is no longer part
        // of the array, and the slot's health tracks the new home now.
        self.faults.remove(phys);
        self.offline.remove(phys);
        // Epoch transition: cached extents must not survive a placement
        // change (same rule as `add_disk`).
        self.cache_flush_all();
    }

    /// Replace active physical disk `phys` with a freshly added blank
    /// disk, in one operation: hot-add a spare, then retire `phys` onto
    /// it. Returns the new disk's physical id. The caller drives the data
    /// movement via [`IoSystem::rebalance`].
    pub fn replace_disk(
        &mut self,
        engine: &mut Engine,
        client: usize,
        phys: usize,
    ) -> Result<usize, IoError> {
        self.add_disk(engine, client)?;
        self.remove_disk(client, phys)
    }
}

#[cfg(test)]
mod tests {
    use crate::testkit::shape;
    use raidx_core::Arch;

    /// Satellite regression: failing a disk must drain that disk's
    /// buffered image-queue entries (parking them), and the queue's
    /// length accounting must stay consistent with what remains.
    #[test]
    fn fail_disk_drains_pending_image_queue_entries() {
        let (_engine, mut sys) = shape(4, 2, 8 << 20, Arch::RaidX);
        let bs = sys.block_size() as usize;
        for lb in 0..6u64 {
            sys.write(0, lb, &vec![0x3C; bs]).expect("seed write");
        }
        let before = sys.pending_image_blocks();
        assert!(before > 0, "RAID-x must buffer write-behind images");
        let img_disk = (0..sys.cluster.ndisks())
            .find(|&g| sys.images.blocks_on_disk(g) > 0)
            .expect("some disk has buffered images");
        sys.fail_disk(img_disk);
        let after = sys.pending_image_blocks();
        assert!(after < before, "no entries drained for the failed disk");
        assert_eq!(
            before - after,
            sys.parked_blocks(img_disk),
            "every drained image must be parked for rebuild"
        );
        // Accounting survives a full flush of the survivors.
        let _ = sys.flush_images();
        assert_eq!(sys.pending_image_blocks(), 0);
    }

    /// Transient offline takes the same drain path as permanent failure.
    #[test]
    fn transient_offline_also_drains_image_queue() {
        let (_engine, mut sys) = shape(4, 2, 8 << 20, Arch::RaidX);
        let bs = sys.block_size() as usize;
        for lb in 0..6u64 {
            sys.write(0, lb, &vec![0x3C; bs]).expect("seed write");
        }
        let before = sys.pending_image_blocks();
        let img_disk = (0..sys.cluster.ndisks())
            .find(|&g| sys.images.blocks_on_disk(g) > 0)
            .expect("some disk has buffered images");
        sys.fail_disk_transient(img_disk);
        assert_eq!(before - sys.pending_image_blocks(), sys.parked_blocks(img_disk));
        let _ = sys.flush_images();
        assert_eq!(sys.pending_image_blocks(), 0);
    }

    /// Crashing a node takes its disks transiently offline, partitions
    /// it, and re-homes its buffered image flushes.
    #[test]
    fn crash_node_combines_partition_and_transient_disks() {
        let (_engine, mut sys) = shape(4, 2, 8 << 20, Arch::RaidX);
        let bs = sys.block_size() as usize;
        for lb in 0..4u64 {
            sys.write(2, lb, &vec![1u8; bs]).expect("seed");
        }
        sys.crash_node(2);
        assert!(sys.partitions().is_partitioned(2));
        for g in 0..sys.cluster.ndisks() {
            if sys.cluster.node_of_disk(g) == 2 {
                assert!(sys.offline_disks().contains(g), "disk {g} should be offline");
            }
        }
        // Remaining buffered images must not be owned by the dead node.
        let drained = sys.images.drain_all();
        assert!(drained.iter().all(|p| p.client != 2), "crashed node still owns flushes");
    }
}
