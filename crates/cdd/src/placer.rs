//! Slot→physical placement translation with one in-flight migration.
//!
//! All OSM placement arithmetic ([`crate::scheme`], [`raidx_core::Layout`])
//! is written against a fixed array of logical *slots*. The [`Placer`]
//! binds those slots to the physical disks of a growing roster, versions
//! that binding by epoch, and tracks the (at most one) migration currently
//! draining after a transition:
//!
//! * **Reads** of a block still pending migration resolve to the *old*
//!   physical home — the epoch the block was written under — so reads
//!   stay byte-correct while a rebalance is in flight.
//! * **Writes** always land on the *new* home and clear the block's
//!   pending entry: a freshly written block never needs migrating. The
//!   migration closes when its last pending entry clears, by a write or
//!   by a rebalance step alike.
//!
//! Roster (one physical disk's lifetime): [`Placer::add_spare`] registers
//! a disk as a spare; [`Placer::begin_promote`] binds the oldest spare to
//! a slot and retires the disk bound there before. Spares are promoted in
//! the order they were added and physical ids are never reused, so the
//! spares are exactly `next_spare..nphys` and a retired disk can never
//! serve again. Each add and each promotion is one epoch.
//!
//! The boot binding is the identity produced by `cluster::build`; on a
//! never-reconfigured array every translation is a no-op, so epoch-0 runs
//! stay byte-identical to the pre-epoch code paths.

use std::collections::BTreeSet;

use raidx_core::{BlockAddr, FaultSet};

/// The one migration allowed in flight after an epoch transition.
#[derive(Debug, Clone)]
pub struct Migration {
    /// The slot whose binding moved.
    pub slot: usize,
    /// Physical disk the slot vacated (now Retired in the roster).
    pub old_phys: usize,
    /// Physical disk the slot now binds to.
    pub new_phys: usize,
    /// True if the old disk's media is unreadable (it failed or was
    /// offline at transition time), so pending blocks must reconstruct
    /// from redundancy instead of copying.
    pub old_dead: bool,
    /// Physical block indices on the old disk still awaiting migration.
    pub pending: BTreeSet<u64>,
}

/// Epoch-aware placement view handed to every layer that used to assume
/// static membership: the slot binding, the disk roster and the
/// in-flight migration.
#[derive(Debug, Clone)]
pub struct Placer {
    /// The slot→physical binding of the current epoch, indexed by slot.
    binding: Vec<usize>,
    /// Physical disks registered so far (ids `0..nphys`).
    nphys: usize,
    /// The oldest unpromoted spare; `nphys` when there is none.
    next_spare: usize,
    migration: Option<Migration>,
}

impl Placer {
    /// The boot-time placer: `nslots` disks, each bound to the
    /// identically-numbered slot, no spares and no migration (epoch 0).
    pub fn identity(nslots: usize) -> Self {
        Placer {
            binding: (0..nslots).collect(),
            nphys: nslots,
            next_spare: nslots,
            migration: None,
        }
    }

    fn nslots(&self) -> usize {
        self.binding.len()
    }

    /// Current placement epoch: 0 at boot, +1 per added spare and +1 per
    /// promotion.
    pub fn epoch(&self) -> u64 {
        let (adds, promotions) = (self.nphys - self.nslots(), self.next_spare - self.nslots());
        (adds + promotions) as u64
    }

    /// True while no disk was ever added — the fast path every placement
    /// translation takes on a static array.
    fn is_identity(&self) -> bool {
        self.nphys == self.nslots()
    }

    /// The slot `phys` currently serves; `None` for a spare or a retired
    /// disk.
    pub fn slot_of(&self, phys: usize) -> Option<usize> {
        self.binding.iter().position(|&p| p == phys)
    }

    /// The oldest registered spare, if any: the disk the next promotion
    /// binds.
    pub fn first_spare(&self) -> Option<usize> {
        (self.next_spare < self.nphys).then_some(self.next_spare)
    }

    /// The in-flight migration, if one is still draining.
    pub fn migration(&self) -> Option<&Migration> {
        self.migration.as_ref()
    }

    /// Blocks still awaiting migration (0 when none is in flight).
    pub fn pending_blocks(&self) -> usize {
        self.migration.as_ref().map_or(0, |m| m.pending.len())
    }

    /// Physical disk currently serving `slot`.
    #[inline]
    pub fn phys(&self, slot: usize) -> usize {
        if self.is_identity() {
            return slot;
        }
        self.binding[slot]
    }

    /// Register a fresh physical disk as a spare (one epoch) and return
    /// its physical id. The caller must have grown the data plane and the
    /// engine's resource set to match.
    pub fn add_spare(&mut self) -> usize {
        self.nphys += 1;
        self.nphys - 1
    }

    /// Commit a transition: bind `spare` to `slot`, retire the old disk
    /// and start draining `pending`. Returns the new epoch. Panics if
    /// `spare` is not the oldest spare, or if a migration is already in
    /// flight — the CDD runs transitions one at a time.
    pub fn begin_promote(
        &mut self,
        slot: usize,
        spare: usize,
        old_dead: bool,
        pending: BTreeSet<u64>,
    ) -> u64 {
        assert!(self.migration.is_none(), "a previous migration is still draining");
        assert_eq!(self.first_spare(), Some(spare), "disk {spare} is not the next spare");
        let old_phys = std::mem::replace(&mut self.binding[slot], spare);
        self.next_spare += 1;
        if !pending.is_empty() {
            self.migration = Some(Migration { slot, old_phys, new_phys: spare, old_dead, pending });
        }
        self.epoch()
    }

    /// Where a *read* of `a` (slot space) is served right now: the old
    /// home while the block is pending migration, the current home
    /// otherwise.
    #[inline]
    pub fn read_home(&self, a: BlockAddr) -> BlockAddr {
        match &self.migration {
            Some(m) if m.slot == a.disk && m.pending.contains(&a.block) => {
                BlockAddr::new(m.old_phys, a.block)
            }
            _ => BlockAddr::new(self.phys(a.disk), a.block),
        }
    }

    /// Where a *write* of `a` (slot space) lands: always the current
    /// home. Clears the block's pending entry — new data supersedes the
    /// copy that migration would have moved.
    #[inline]
    pub fn write_home(&mut self, a: BlockAddr) -> BlockAddr {
        self.clear_pending(a.disk, a.block);
        BlockAddr::new(self.phys(a.disk), a.block)
    }

    /// Drop one block of `slot` from the pending set (a write, or a
    /// rebalance step, finished or superseded it), and close the
    /// migration once nothing is left pending. Returns true if the block
    /// was present; a no-op when the in-flight migration is for a
    /// different slot.
    #[inline]
    pub fn clear_pending(&mut self, slot: usize, block: u64) -> bool {
        let Some(m) = &mut self.migration else { return false };
        let cleared = m.slot == slot && m.pending.remove(&block);
        if m.pending.is_empty() {
            self.migration = None;
        }
        cleared
    }

    /// Translate a physical fault set into the slot view *writes* use:
    /// slot `s` is unavailable iff its current home is.
    pub fn slot_write_faults(&self, phys: &FaultSet) -> FaultSet {
        if self.is_identity() {
            return phys.clone();
        }
        (0..self.nslots()).filter(|&s| phys.contains(self.binding[s])).collect()
    }

    /// Translate a physical fault set into the slot view *reads* use.
    /// Like [`Placer::slot_write_faults`], but additionally marks the
    /// migrating slot when its old home is unreadable and blocks are
    /// still pending there: a conservative over-approximation that
    /// routes such reads through image copies or parity reconstruction,
    /// which stay byte-correct regardless of migration progress.
    pub fn slot_read_faults(&self, phys: &FaultSet) -> FaultSet {
        let mut slots = self.slot_write_faults(phys);
        if let Some(m) = &self.migration {
            if m.old_dead || phys.contains(m.old_phys) {
                slots.insert(m.slot);
            }
        }
        slots
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pend(blocks: &[u64]) -> BTreeSet<u64> {
        blocks.iter().copied().collect()
    }

    #[test]
    fn identity_placer_is_epoch_zero_with_every_disk_in_its_own_slot() {
        let p = Placer::identity(4);
        assert_eq!(p.epoch(), 0);
        assert!(p.is_identity());
        for s in 0..4 {
            assert_eq!(p.phys(s), s);
            assert_eq!(p.slot_of(s), Some(s));
        }
        assert_eq!(p.first_spare(), None);
    }

    #[test]
    fn identity_placer_is_transparent() {
        let p = Placer::identity(4);
        assert_eq!(p.epoch(), 0);
        assert_eq!(p.phys(3), 3);
        assert_eq!(p.read_home(BlockAddr::new(2, 9)), BlockAddr::new(2, 9));
        let f = FaultSet::of(&[1]);
        assert_eq!(p.slot_write_faults(&f), f);
        assert_eq!(p.slot_read_faults(&f), f);
    }

    #[test]
    fn add_then_promote_walks_the_roster() {
        let mut p = Placer::identity(4);
        let spare = p.add_spare();
        assert_eq!(spare, 4);
        assert_eq!(p.epoch(), 1);
        assert!(!p.is_identity());
        assert_eq!(p.slot_of(4), None, "a spare serves no slot");
        assert_eq!(p.first_spare(), Some(4));
        // Adding a spare does not move any slot.
        assert!((0..4).all(|s| p.phys(s) == s));

        let e = p.begin_promote(2, spare, false, BTreeSet::new());
        assert_eq!(e, 2);
        assert_eq!(p.phys(2), 4);
        assert_eq!(p.slot_of(2), None, "the vacated disk is retired");
        assert_eq!(p.slot_of(4), Some(2));
        assert_eq!(p.first_spare(), None);
        assert_eq!([0, 1, 3].map(|s| p.phys(s)), [0, 1, 3], "no other slot moved");
    }

    #[test]
    #[should_panic(expected = "not the next spare")]
    fn retired_disks_cannot_be_promoted() {
        let mut p = Placer::identity(2);
        let spare = p.add_spare();
        p.begin_promote(0, spare, false, BTreeSet::new());
        p.begin_promote(1, 0, false, BTreeSet::new()); // 0 is retired now
    }

    #[test]
    fn successive_transitions_accumulate_epochs() {
        let mut p = Placer::identity(3);
        let a = p.add_spare();
        p.begin_promote(0, a, false, BTreeSet::new());
        let b = p.add_spare();
        assert_eq!(p.begin_promote(0, b, false, BTreeSet::new()), 4);
        assert_eq!(p.epoch(), 4);
        assert_eq!(p.phys(0), b);
        assert_eq!(p.slot_of(a), None, "a promoted-then-vacated disk is retired");
        assert_eq!([1, 2].map(|s| p.phys(s)), [1, 2]);
    }

    #[test]
    fn pending_blocks_read_old_home_until_written() {
        let mut p = Placer::identity(4);
        let spare = p.add_spare();
        p.begin_promote(1, spare, false, pend(&[5, 7]));
        // Pending block: read from the vacated disk, write to the new one.
        assert_eq!(p.read_home(BlockAddr::new(1, 5)), BlockAddr::new(1, 5));
        assert_eq!(p.write_home(BlockAddr::new(1, 5)), BlockAddr::new(4, 5));
        // The write cleared the pending entry: reads now follow the map.
        assert_eq!(p.read_home(BlockAddr::new(1, 5)), BlockAddr::new(4, 5));
        // Non-pending blocks of the slot were always at the new home.
        assert_eq!(p.read_home(BlockAddr::new(1, 0)), BlockAddr::new(4, 0));
        // Other slots are untouched.
        assert_eq!(p.read_home(BlockAddr::new(2, 5)), BlockAddr::new(2, 5));
        assert!(p.clear_pending(1, 7));
        assert!(p.migration().is_none(), "the last pending block closes the migration");
    }

    #[test]
    fn read_faults_conservatively_cover_a_dead_old_home() {
        let mut p = Placer::identity(3);
        let spare = p.add_spare();
        p.begin_promote(0, spare, true, pend(&[1]));
        let none = FaultSet::none();
        // Writes see the healthy new home; reads treat the slot degraded.
        assert!(p.slot_write_faults(&none).is_empty());
        assert!(p.slot_read_faults(&none).contains(0));
        // Once the pending set drains the slot reads clean again.
        assert!(p.clear_pending(0, 1));
        assert!(p.migration().is_none());
        assert!(p.slot_read_faults(&none).is_empty());
    }

    #[test]
    #[should_panic(expected = "still draining")]
    fn only_one_migration_in_flight() {
        let mut p = Placer::identity(2);
        let a = p.add_spare();
        let b = p.add_spare();
        p.begin_promote(0, a, false, pend(&[1]));
        p.begin_promote(1, b, false, pend(&[2]));
    }

    #[test]
    fn fault_translation_follows_the_map() {
        let mut p = Placer::identity(3);
        let spare = p.add_spare();
        p.begin_promote(2, spare, false, BTreeSet::new());
        // Old disk 2 failing no longer degrades slot 2; disk 3 failing does.
        assert!(!p.slot_write_faults(&FaultSet::of(&[2])).contains(2));
        assert!(p.slot_write_faults(&FaultSet::of(&[3])).contains(2));
        // Spares/retired disks never appear in the slot view.
        assert_eq!(p.slot_write_faults(&FaultSet::of(&[2])).len(), 0);
    }
}
