//! The replicated lock-group table of the CDD consistency modules.
//!
//! Each record corresponds to a group of data blocks granted to a specific
//! CDD client with write permission; grants and releases are atomic (the
//! paper replicates the table among all consistency modules — here one
//! logical copy holds the authoritative state and the timing model charges
//! the broadcast round).
//!
//! The table keeps counters, not a history: a grant's observable record
//! is the `Acquire`/`Release` pair `IoSystem::with_grant` emits on the
//! [`sim_core::trace::Tracer`] stream.

/// A write-permission grant over a contiguous logical block range.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockRecord {
    /// The client CDD (node index) holding the grant.
    pub owner: usize,
    /// First logical block of the group.
    pub start: u64,
    /// Number of blocks.
    pub len: u64,
}

impl LockRecord {
    fn overlaps(&self, start: u64, len: u64) -> bool {
        self.start < start + len && start < self.start + self.len
    }
}

/// Handle to a granted lock group (release token).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LockHandle(usize);

/// Why a lock-group acquisition failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockConflict {
    /// Who holds the overlapping grant.
    pub holder: usize,
    /// The overlapping record.
    pub start: u64,
    /// Its length.
    pub len: u64,
}

/// The lock-group table.
///
/// Its one caller is `IoSystem::with_grant`, which acquires on an empty
/// table and releases before it returns, and every `IoSystem` call runs to
/// completion under `&mut self`: at most one grant is ever live, so
/// [`LockGroupTable::conflicts`] stays 0. The overlap rules are the
/// paper's table, kept and unit-tested as such.
#[derive(Debug, Default, Clone)]
pub struct LockGroupTable {
    slots: Vec<Option<LockRecord>>,
    free: Vec<usize>,
    grants: u64,
    conflicts: u64,
}

impl LockGroupTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Atomically acquire write permission on `[start, start+len)` for
    /// `owner`. Overlapping grants to *other* owners conflict; a client's
    /// own overlapping grants coexist (write permission is per client).
    pub fn acquire(
        &mut self,
        owner: usize,
        start: u64,
        len: u64,
    ) -> Result<LockHandle, LockConflict> {
        assert!(len > 0, "empty lock group");
        for rec in self.slots.iter().flatten() {
            if rec.owner != owner && rec.overlaps(start, len) {
                self.conflicts += 1;
                return Err(LockConflict { holder: rec.owner, start: rec.start, len: rec.len });
            }
        }
        self.grants += 1;
        let rec = LockRecord { owner, start, len };
        let idx = match self.free.pop() {
            Some(i) => {
                self.slots[i] = Some(rec);
                i
            }
            None => {
                self.slots.push(Some(rec));
                self.slots.len() - 1
            }
        };
        Ok(LockHandle(idx))
    }

    /// Atomically release a grant. Panics on a handle whose slot was never
    /// allocated (`stale lock handle`) or holds no grant (`double release`).
    pub fn release(&mut self, h: LockHandle) {
        let Some(slot) = self.slots.get_mut(h.0) else {
            panic!("stale lock handle");
        };
        if slot.take().is_none() {
            panic!("double release");
        }
        self.free.push(h.0);
    }

    /// Number of grants issued over the table's lifetime.
    pub fn grants(&self) -> u64 {
        self.grants
    }

    /// Number of rejected (conflicting) acquisitions.
    pub fn conflicts(&self) -> u64 {
        self.conflicts
    }

    /// Currently held records (diagnostics).
    pub fn held(&self) -> impl Iterator<Item = &LockRecord> {
        self.slots.iter().flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disjoint_grants_coexist() {
        let mut t = LockGroupTable::new();
        let a = t.acquire(0, 0, 10).unwrap();
        let b = t.acquire(1, 10, 10).unwrap();
        assert_eq!(t.held().count(), 2);
        t.release(a);
        t.release(b);
        assert_eq!(t.held().count(), 0);
    }

    #[test]
    fn overlap_conflicts_across_owners() {
        let mut t = LockGroupTable::new();
        let _a = t.acquire(0, 5, 10).unwrap();
        let err = t.acquire(1, 14, 2).unwrap_err();
        assert_eq!(err.holder, 0);
        assert_eq!(t.conflicts(), 1);
        // Adjacent (non-overlapping) is fine.
        assert!(t.acquire(1, 15, 5).is_ok());
    }

    #[test]
    fn same_owner_overlap_allowed() {
        let mut t = LockGroupTable::new();
        let _a = t.acquire(3, 0, 100).unwrap();
        assert!(t.acquire(3, 50, 100).is_ok());
    }

    #[test]
    fn release_frees_range() {
        let mut t = LockGroupTable::new();
        let a = t.acquire(0, 0, 10).unwrap();
        assert!(t.acquire(1, 0, 10).is_err());
        t.release(a);
        assert!(t.acquire(1, 0, 10).is_ok());
        assert_eq!(t.grants(), 2);
    }

    #[test]
    fn slots_are_reused() {
        let mut t = LockGroupTable::new();
        for _ in 0..100 {
            let h = t.acquire(0, 0, 1).unwrap();
            t.release(h);
        }
        assert!(t.slots.len() <= 2, "table grew to {}", t.slots.len());
    }

    #[test]
    #[should_panic(expected = "double release")]
    fn double_release_panics() {
        let mut t = LockGroupTable::new();
        let h = t.acquire(0, 0, 1).unwrap();
        t.release(h);
        t.release(h);
    }

    #[test]
    #[should_panic(expected = "stale lock handle")]
    fn release_without_grant_panics() {
        let mut t = LockGroupTable::new();
        // A handle forged for a slot that was never allocated.
        t.release(LockHandle(5));
    }
}
