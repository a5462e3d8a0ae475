//! Cluster map: the single source of placement truth.
//!
//! The paper's CDD replicates its lock-group table on every node, and the
//! same replicated-table machinery carries membership changes: the array
//! is a fixed set of logical *slots* (the `n` disks every OSM placement
//! formula is written against), and the map binds every slot to one
//! *physical* disk of the growing hardware roster. The boot binding is
//! the identity produced by `cluster::build`, so a run that never
//! reconfigures is byte-identical to the pre-epoch code paths.
//!
//! Roster state machine (one physical disk's lifetime):
//!
//! ```text
//!   add_spare            promote(slot, spare)
//!  ──────────▶  Spare ──────────────────────▶  Active { slot }
//!                                                   │
//!                              promote(slot, other) │  (this disk vacates)
//!                                                   ▼
//!                                                Retired
//! ```
//!
//! Every transition bumps the epoch; the map keeps only the current
//! binding. What lets a read admitted under the previous epoch stay
//! correct while a migration drains is the cdd placer's migration record,
//! which serves still-pending blocks from their old physical home.

/// Lifetime state of one physical disk in the roster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DiskState {
    /// Currently bound to a logical slot; serves live placement.
    Active {
        /// The logical slot this disk serves.
        slot: usize,
    },
    /// Registered and formatted but not yet bound to a slot.
    Spare,
    /// Vacated by a later epoch; never rebound (physical ids are not
    /// reused — a re-added disk gets a fresh id).
    Retired,
}

/// The current slot→physical binding plus the disk roster.
///
/// All mutation goes through [`ClusterMap::add_spare`] and
/// [`ClusterMap::promote`]; each bumps the epoch by one, so the epoch
/// counter doubles as the version number of the replicated placement
/// table (the CDD serialises transitions through its lock-group table
/// before committing one here).
#[derive(Debug, Clone)]
pub struct ClusterMap {
    /// Per-physical-disk lifetime state, indexed by physical id.
    states: Vec<DiskState>,
    /// The slot→physical binding of the current epoch, indexed by slot.
    binding: Vec<usize>,
    /// Transitions so far.
    epoch: u64,
}

impl ClusterMap {
    /// The boot-time map: `slots` physical disks, each Active on the
    /// identically-numbered slot. This is epoch 0.
    pub fn identity(slots: usize) -> Self {
        assert!(slots > 0, "a cluster map needs at least one slot");
        ClusterMap {
            states: (0..slots).map(|s| DiskState::Active { slot: s }).collect(),
            binding: (0..slots).collect(),
            epoch: 0,
        }
    }

    /// Number of logical slots (fixed for the array's lifetime).
    pub fn nslots(&self) -> usize {
        self.binding.len()
    }

    /// The current epoch number (0 at boot, +1 per transition).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// True while no reconfiguration has ever happened — the fast path
    /// every placement translation takes on a static array.
    pub fn is_identity(&self) -> bool {
        self.epoch == 0
    }

    /// Physical disk bound to `slot` in the current epoch.
    pub fn phys(&self, slot: usize) -> usize {
        self.binding[slot]
    }

    /// The slot `phys` currently serves, if it is Active.
    pub fn slot_of(&self, phys: usize) -> Option<usize> {
        match self.states[phys] {
            DiskState::Active { slot } => Some(slot),
            DiskState::Spare | DiskState::Retired => None,
        }
    }

    /// Register a new physical disk as a Spare. Bumps the epoch with the
    /// slot binding unchanged (the roster itself is versioned), and
    /// returns the new disk's physical id. The caller must have grown
    /// the data plane and the engine's resource set to match.
    pub fn add_spare(&mut self) -> usize {
        let phys = self.states.len();
        self.states.push(DiskState::Spare);
        self.epoch += 1;
        phys
    }

    /// Bind `spare` to `slot`, retiring the disk previously bound there.
    /// Bumps the epoch and returns its number. Panics if `spare` is not
    /// a Spare — physical ids are never reused, so an Active or Retired
    /// disk can't be promoted.
    pub fn promote(&mut self, slot: usize, spare: usize) -> u64 {
        assert!(slot < self.nslots(), "slot {slot} out of range");
        assert_eq!(self.states[spare], DiskState::Spare, "disk {spare} is not a spare");
        let old = std::mem::replace(&mut self.binding[slot], spare);
        self.states[old] = DiskState::Retired;
        self.states[spare] = DiskState::Active { slot };
        self.epoch += 1;
        self.epoch
    }

    /// First spare in physical-id order, if any.
    pub fn first_spare(&self) -> Option<usize> {
        self.states.iter().position(|&s| s == DiskState::Spare)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_map_is_epoch_zero_and_transparent() {
        let m = ClusterMap::identity(4);
        assert_eq!(m.epoch(), 0);
        assert!(m.is_identity());
        assert_eq!(m.nslots(), 4);
        for s in 0..4 {
            assert_eq!(m.phys(s), s);
            assert_eq!(m.slot_of(s), Some(s));
            assert_eq!(m.states[s], DiskState::Active { slot: s });
        }
        assert_eq!(m.first_spare(), None);
    }

    #[test]
    fn add_then_promote_walks_the_roster_state_machine() {
        let mut m = ClusterMap::identity(4);
        let spare = m.add_spare();
        assert_eq!(spare, 4);
        assert_eq!(m.epoch(), 1);
        assert!(!m.is_identity());
        assert_eq!(m.states[4], DiskState::Spare);
        assert_eq!(m.first_spare(), Some(4));
        // Adding a spare does not move any slot.
        assert!((0..4).all(|s| m.phys(s) == s));

        let e = m.promote(2, spare);
        assert_eq!(e, 2);
        assert_eq!(m.phys(2), 4);
        assert_eq!(m.states[2], DiskState::Retired);
        assert_eq!(m.states[4], DiskState::Active { slot: 2 });
        assert_eq!(m.slot_of(2), None);
        assert_eq!(m.slot_of(4), Some(2));
        assert_eq!(m.first_spare(), None);
        assert_eq!([0, 1, 3].map(|s| m.phys(s)), [0, 1, 3], "no other slot moved");
    }

    #[test]
    #[should_panic(expected = "not a spare")]
    fn retired_disks_cannot_be_promoted() {
        let mut m = ClusterMap::identity(2);
        let spare = m.add_spare();
        m.promote(0, spare);
        m.promote(1, 0); // 0 is Retired now
    }

    #[test]
    fn successive_transitions_accumulate_epochs() {
        let mut m = ClusterMap::identity(3);
        let a = m.add_spare();
        m.promote(0, a);
        let b = m.add_spare();
        m.promote(0, b);
        assert_eq!(m.epoch(), 4);
        assert_eq!(m.phys(0), b);
        assert_eq!(m.states[a], DiskState::Retired);
        assert_eq!([1, 2].map(|s| m.phys(s)), [1, 2]);
    }
}
