//! Slot→physical placement translation with one in-flight migration.
//!
//! All OSM placement arithmetic ([`crate::scheme`], [`raidx_core::Layout`])
//! is written against a fixed array of logical *slots*. The [`Placer`]
//! binds those slots to physical disks through an epoch-versioned
//! [`ClusterMap`] and tracks the (at most one) migration currently
//! draining after a transition:
//!
//! * **Reads** of a block still pending migration resolve to the *old*
//!   physical home — the epoch the block was written under — so reads
//!   stay byte-correct while a rebalance is in flight.
//! * **Writes** always land on the *new* home and clear the block's
//!   pending entry: a freshly written block never needs migrating.
//!
//! On a never-reconfigured array the map is the identity and every
//! translation is a no-op, so epoch-0 runs stay byte-identical to the
//! pre-epoch code paths.

use std::collections::BTreeSet;

use cluster::ClusterMap;
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
/// static membership.
#[derive(Debug, Clone)]
pub struct Placer {
    map: ClusterMap,
    migration: Option<Migration>,
}

impl Placer {
    /// The boot-time placer: identity map over `nslots`, no migration.
    pub fn identity(nslots: usize) -> Self {
        Placer { map: ClusterMap::identity(nslots), migration: None }
    }

    /// The underlying epoch-versioned map.
    pub fn map(&self) -> &ClusterMap {
        &self.map
    }

    /// Current placement epoch.
    pub fn epoch(&self) -> u64 {
        self.map.epoch()
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
        if self.map.is_identity() {
            return slot;
        }
        self.map.phys(slot)
    }

    /// Register a fresh physical disk as a spare (appends an epoch).
    pub fn add_spare(&mut self) -> usize {
        self.map.add_spare()
    }

    /// Commit a transition: bind `spare` to `slot`, retire the old disk
    /// and start draining `pending`. Returns the new epoch. Panics if a
    /// migration is already in flight — the CDD serialises transitions
    /// through the replicated lock-group table, one at a time.
    pub fn begin_promote(
        &mut self,
        slot: usize,
        spare: usize,
        old_dead: bool,
        pending: BTreeSet<u64>,
    ) -> u64 {
        assert!(self.migration.is_none(), "a previous migration is still draining");
        let old_phys = self.map.phys(slot);
        let epoch = self.map.promote(slot, spare);
        let new_phys = self.map.phys(slot);
        if !pending.is_empty() {
            self.migration = Some(Migration { slot, old_phys, new_phys, old_dead, pending });
        }
        epoch
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
        if let Some(m) = &mut self.migration {
            if m.slot == a.disk {
                m.pending.remove(&a.block);
            }
        }
        BlockAddr::new(self.phys(a.disk), a.block)
    }

    /// Drop one block of `slot` from the pending set (a rebalance step
    /// finished or superseded it). Returns true if it was present; a
    /// no-op when the in-flight migration is for a different slot.
    pub fn clear_pending(&mut self, slot: usize, block: u64) -> bool {
        self.migration.as_mut().is_some_and(|m| m.slot == slot && m.pending.remove(&block))
    }

    /// Close out the migration if its pending set has drained. Returns
    /// true if no migration remains in flight afterwards.
    pub fn finish_if_drained(&mut self) -> bool {
        if self.migration.as_ref().is_some_and(|m| m.pending.is_empty()) {
            self.migration = None;
        }
        self.migration.is_none()
    }

    /// Translate a physical fault set into the slot view *writes* use:
    /// slot `s` is unavailable iff its current home is.
    pub fn slot_write_faults(&self, phys: &FaultSet) -> FaultSet {
        if self.map.is_identity() {
            return phys.clone();
        }
        (0..self.map.nslots()).filter(|&s| phys.contains(self.map.phys(s))).collect()
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
            if !m.pending.is_empty() && (m.old_dead || phys.contains(m.old_phys)) {
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
        assert!(p.finish_if_drained());
        assert!(p.migration().is_none());
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
        p.clear_pending(0, 1);
        assert!(p.finish_if_drained());
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
