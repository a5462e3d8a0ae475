//! Fault state and dynamic membership of the [`IoSystem`]: disk and node
//! failures, and the epoch transitions that add, remove or replace disks
//! while the array serves I/O.
//!
//! An epoch transition is a metadata operation: it binds a logical slot
//! to a new physical disk in the placer (under a lock-group grant) and
//! records which physical blocks of the vacated disk still await
//! migration. The bytes then move *incrementally* —
//! [`IoSystem::rebalance`] drains the pending set in bounded,
//! crash-idempotent steps while reads keep resolving pending blocks
//! against the old home. A full-disk replace is just `add_disk` +
//! `remove_disk`; the cost difference against a full rebuild is what the
//! bench's rebalance-under-load table quantifies.
//!
//! Buffered OSM images obey one rule here: a fault that stops an image's
//! flush — its disk fails or goes offline, or its writer crashes — parks
//! it (`IoSystem::park_images`). An epoch transition needs no rule: the
//! queue holds slot addresses, which the flush maps to the current home.

use std::borrow::Cow;
use std::collections::BTreeSet;

use raidx_core::{BlockAddr, FaultSet};
use sim_core::Engine;

use crate::error::IoError;
use crate::image_queue::PendingImage;
use crate::system::IoSystem;

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
    pub(crate) fn effective_faults(&self, client: usize) -> FaultSet {
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

    /// The freshness rule: the slots whose copy a reader of `lb` must not
    /// trust. They are `faults` (the caller's slot view of unavailable
    /// disks), plus every slot whose current home's parked ledger holds a
    /// block that copy is a function of — `lb` itself, or on a parity
    /// layout any member of `lb`'s stripe, since the parity and every
    /// sibling go into a reconstruction. A copy outside the set is live.
    ///
    /// Every path that reads a copy to produce bytes asks this and
    /// nothing else: [`IoSystem::read`] and `classify_loss`, the RAID-5
    /// write's read-modify-write and reconstruct inputs, `plan_slot`
    /// (hence rebuild, resync and rebalance) and [`IoSystem::scrub`]. With
    /// the ledger empty it hands `faults` back untouched.
    pub(crate) fn untrusted<'a>(&self, faults: &'a FaultSet, lb: u64) -> Cow<'a, FaultSet> {
        if self.parked.is_empty() {
            return Cow::Borrowed(faults);
        }
        let lbs = match self.layout.locate_parity(lb) {
            Some(_) => self.layout.stripe_blocks(self.layout.stripe_of(lb).0),
            None => vec![lb],
        };
        let mut out = Cow::Borrowed(faults);
        for (&disk, parked) in &self.parked {
            let Some(slot) = self.placer.slot_of(disk) else { continue };
            if !faults.contains(slot) && lbs.iter().any(|m| parked.contains(m)) {
                out.to_mut().insert(slot);
            }
        }
        out
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

    /// A fresh copy landed on physical `disk`: a data or image copy of
    /// `lb`, or — with `lbs` its whole stripe — a parity written over
    /// every member. Drops those blocks from the disk's ledger entry.
    pub(crate) fn unpark(&mut self, disk: usize, lbs: &[u64]) {
        if self.parked.is_empty() {
            return;
        }
        if let Some(parked) = self.parked.get_mut(&disk) {
            for lb in lbs {
                parked.remove(lb);
            }
            if parked.is_empty() {
                self.parked.remove(&disk);
            }
        }
    }

    /// The one surrender rule for buffered OSM images: take every image
    /// `pred` selects out of the write-behind queue and park it against
    /// its image slot's current home. A buffered image is on no disk
    /// until its flush runs, so one whose flush cannot run is a copy the
    /// write could not place; resync restores it from the primary.
    fn park_images(&mut self, pred: impl FnMut(&PendingImage) -> bool) {
        for img in self.images.take(pred) {
            self.park(self.placer.phys(img.addr.disk), img.lb);
        }
    }

    /// Fail a disk *permanently*: its contents are lost on the functional
    /// plane and all planning routes around it. The images still buffered
    /// for its slot are parked for the eventual rebuild (flushing them
    /// later would write into a dead disk).
    pub fn fail_disk(&mut self, disk: usize) {
        self.faults.insert(disk);
        self.offline.remove(disk);
        self.plane.fail(disk);
        let slot = self.placer.slot_of(disk);
        self.park_images(|p| Some(p.addr.disk) == slot);
    }

    /// Take a disk *transiently* offline: I/O is rejected but the
    /// contents survive. The images buffered for its slot are parked,
    /// exactly as in [`IoSystem::fail_disk`]; recovery is the cheap path —
    /// [`IoSystem::recover_disk_transient`] resyncs only the parked
    /// blocks from surviving copies instead of rebuilding the whole disk.
    pub fn fail_disk_transient(&mut self, disk: usize) {
        assert!(!self.faults.contains(disk), "disk already permanently failed");
        self.offline.insert(disk);
        self.plane.set_offline(disk, true);
        let slot = self.placer.slot_of(disk);
        self.park_images(|p| Some(p.addr.disk) == slot);
    }

    /// A node crashed: cut it off from the switch and take its disks
    /// transiently offline (the machine is down; the media survives a
    /// reboot). The images the node buffered die with it: they are
    /// parked, and read `DataLoss` if the primary is lost before a resync
    /// restores them from it.
    pub fn crash_node(&mut self, node: usize) {
        self.partitions.partition(node);
        // Same reasoning as `partition_node`: the crashed node's cache
        // dies with it (and must come back empty after a reboot).
        self.cache_flush_node(node);
        for g in 0..self.cluster.ndisks() {
            // A failed disk that was retired has left `faults` but not
            // the plane: it stays dead.
            if self.cluster.node_of_disk(g) == node
                && !self.faults.contains(g)
                && !self.offline.contains(g)
                && !self.plane.is_failed(g)
            {
                self.fail_disk_transient(g);
            }
        }
        self.park_images(|p| p.client == node);
    }

    /// Hot-add a physical disk to the array as a *spare*. Registers it
    /// with the engine (same numbering and seed rules as boot), grows the
    /// functional plane, and appends a roster epoch. The disk serves no placement until a later
    /// [`IoSystem::remove_disk`] promotes it.
    pub fn add_disk(&mut self, engine: &mut Engine) -> Result<usize, IoError> {
        self.with_grant(|sys| {
            let g = sys.cluster.add_disk(engine);
            let p = sys.plane.add_disk();
            let s = sys.placer.add_spare();
            debug_assert!(g == p && p == s, "disk id spaces diverged: {g}/{p}/{s}");
            // Membership epoch bump: flush every client's cache while the
            // grant is held — no cached extent may straddle an epoch
            // transition.
            sys.cache_flush_all();
            Ok(g)
        })
    }

    /// Remove (retire) active physical disk `phys` from the array,
    /// promoting the oldest registered spare into its slot. Returns the
    /// spare's physical id.
    ///
    /// This is the epoch transition: placement flips to the new home
    /// immediately, while the vacated disk's blocks drain incrementally
    /// through [`IoSystem::rebalance`]. Until a block migrates, reads of
    /// it are served from the old disk (if its media survives) or routed
    /// through redundancy (if not) — the array keeps serving I/O with
    /// zero failed ops either way. Blocks *parked* against the old disk
    /// by degraded writes are stale there: if its media is readable they
    /// transfer as ledger entries against the new home (restored later by
    /// [`IoSystem::resync_parked`]) instead of being migrated as bytes;
    /// if not, they join the pending set and reconstruct from redundancy
    /// with the rest of the disk.
    ///
    /// Panics if `phys` is not Active or no spare is registered — both
    /// are operator errors, not runtime conditions.
    pub fn remove_disk(&mut self, phys: usize) -> Result<usize, IoError> {
        #[expect(clippy::expect_used, reason = "operator-error invariant documented on the method")]
        let slot = self.placer.slot_of(phys).expect("can only remove an active disk");
        #[expect(clippy::expect_used, reason = "operator-error invariant documented on the method")]
        let spare = self.placer.first_spare().expect("removing a disk requires a registered spare");
        self.with_grant(|sys| {
            sys.promote_spare(slot, phys, spare);
            Ok(spare)
        })
    }

    /// The epoch transition of [`IoSystem::remove_disk`], run under its
    /// grant: rebind `slot` from `phys` to `spare` and record what
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
        // Parked copies are stale on the old disk. A readable one would
        // resurrect overwritten data if its bytes migrated, so they move
        // as ledger entries; an unreadable one's pending blocks are
        // reconstructed from redundancy, so they join them.
        for &lb in &parked_old {
            for a in self.copy_addrs(lb) {
                if a.disk != slot {
                    continue;
                }
                if old_dead {
                    pending.insert(a.block);
                } else {
                    pending.remove(&a.block);
                }
            }
        }
        if !old_dead && !parked_old.is_empty() {
            self.parked.entry(spare).or_default().extend(parked_old);
        }

        self.placer.begin_promote(slot, spare, old_dead, pending);
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
    pub fn replace_disk(&mut self, engine: &mut Engine, phys: usize) -> Result<usize, IoError> {
        self.add_disk(engine)?;
        self.remove_disk(phys)
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
    /// it, and surrenders the images it buffered: they leave the queue and
    /// are parked against their image disks, since only a flush would
    /// have put them on disk. Restarting the node (as
    /// `FaultEvent::NodeRestart` does) and resyncing each parked disk
    /// restores them from the primaries, and every byte reads back.
    #[test]
    fn crash_node_combines_partition_and_transient_disks() {
        let (mut engine, mut sys) = shape(4, 2, 8 << 20, Arch::RaidX);
        let bs = sys.block_size() as usize;
        let blocks = 12u64;
        let data: Vec<u8> = (0..blocks as usize * bs).map(|i| (i % 251) as u8).collect();
        for (lb, block) in (0..blocks).zip(data.chunks(bs)) {
            let plan = sys.write(2, lb, block).expect("seed");
            engine.spawn_job("seed", plan);
        }
        engine.run().expect("seed writes");
        let buffered = sys.pending_image_blocks();
        assert!(buffered > 0, "RAID-x must buffer write-behind images");

        sys.crash_node(2);
        assert!(sys.partitions().is_partitioned(2));
        for g in 0..sys.cluster.ndisks() {
            if sys.cluster.node_of_disk(g) == 2 {
                assert!(sys.offline_disks().contains(g), "disk {g} should be offline");
            }
        }
        assert_eq!(sys.pending_image_blocks(), 0, "the crashed writer's images stayed queued");
        assert_eq!(sys.parked_total(), buffered, "every surrendered image must be parked");

        sys.heal_node(2);
        for g in 0..sys.cluster.ndisks() {
            if sys.cluster.node_of_disk(g) == 2 {
                let out = sys.recover_disk_transient(0, g).expect("recover");
                assert_eq!(out.lost, None, "disk {g} lost a block");
                engine.spawn_job("restart", out.plan);
            }
        }
        for g in 0..sys.cluster.ndisks() {
            if sys.parked_blocks(g) > 0 {
                let out = sys.resync_parked(0, g).expect("resync");
                assert_eq!(out.lost, None, "disk {g} lost a block");
                engine.spawn_job("resync", out.plan);
            }
        }
        engine.run().expect("restart");
        assert_eq!(sys.parked_total(), 0);
        sys.scrub().expect("scrub after restart");
        let (got, _) = sys.read(0, 0, blocks).expect("read back");
        assert!(got == data, "bytes lost across the crash");
    }
}
