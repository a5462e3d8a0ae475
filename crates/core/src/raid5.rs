//! RAID-5: block striping with rotating parity.
//!
//! The paper's main whipping boy: full-stripe writes are fine, but a small
//! write must read the old data and old parity before writing both back
//! (four disk operations, two of them serialized before the writes) — the
//! classic *small-write problem* that RAID-x eliminates.

use crate::layout::{Layout, ReadSource, WriteScheme};
use crate::types::{BlockAddr, FaultSet};

/// Left-rotating parity array over `ndisks` disks.
#[derive(Debug, Clone)]
pub struct Raid5 {
    ndisks: usize,
    blocks_per_disk: u64,
}

impl Raid5 {
    /// A RAID-5 array. Requires at least three disks.
    pub fn new(ndisks: usize, blocks_per_disk: u64) -> Self {
        assert!(ndisks >= 3, "RAID-5 needs at least three disks");
        Raid5 { ndisks, blocks_per_disk }
    }

    /// Parity disk of stripe `s` (rotates right-to-left like the
    /// left-symmetric layout).
    pub fn parity_disk(&self, s: u64) -> usize {
        let n = self.ndisks as u64;
        (n - 1 - (s % n)) as usize
    }

    /// Physical address of stripe `s`'s parity block.
    pub fn parity_addr(&self, s: u64) -> BlockAddr {
        BlockAddr::new(self.parity_disk(s), s)
    }

    /// The `ndisks - 1` data blocks of stripe `s`, as logical numbers.
    pub fn stripe_members(&self, s: u64) -> Vec<u64> {
        let w = self.ndisks as u64 - 1;
        (s * w..(s + 1) * w).filter(|&lb| lb < self.capacity_blocks()).collect()
    }
}

impl Layout for Raid5 {
    fn name(&self) -> &'static str {
        "RAID-5"
    }

    fn ndisks(&self) -> usize {
        self.ndisks
    }

    fn capacity_blocks(&self) -> u64 {
        (self.ndisks as u64 - 1) * self.blocks_per_disk
    }

    fn stripe_width(&self) -> usize {
        self.ndisks - 1
    }

    fn write_scheme(&self) -> WriteScheme {
        WriteScheme::Parity
    }

    fn locate_data(&self, lb: u64) -> BlockAddr {
        debug_assert!(lb < self.capacity_blocks());
        let w = self.ndisks as u64 - 1;
        let (s, j) = (lb / w, lb % w);
        let p = self.parity_disk(s) as u64;
        let disk = ((p + 1 + j) % self.ndisks as u64) as usize;
        BlockAddr::new(disk, s)
    }

    fn locate_images(&self, _lb: u64) -> Vec<BlockAddr> {
        Vec::new()
    }

    fn locate_parity(&self, lb: u64) -> Option<BlockAddr> {
        let (s, _) = self.stripe_of(lb);
        Some(self.parity_addr(s))
    }

    fn read_source(&self, lb: u64, failed: &FaultSet) -> ReadSource {
        let d = self.locate_data(lb);
        if !failed.contains(d.disk) {
            return ReadSource::Primary(d);
        }
        let (s, _) = self.stripe_of(lb);
        let parity = self.parity_addr(s);
        if failed.contains(parity.disk) {
            return ReadSource::Lost;
        }
        let mut siblings = Vec::with_capacity(self.ndisks - 2);
        for sib in self.stripe_members(s) {
            if sib == lb {
                continue;
            }
            let addr = self.locate_data(sib);
            if failed.contains(addr.disk) {
                return ReadSource::Lost;
            }
            siblings.push((sib, addr));
        }
        ReadSource::Reconstruct { siblings, parity }
    }

    fn tolerates(&self, failed: &FaultSet) -> bool {
        failed.len() <= 1
    }

    fn max_fault_coverage(&self) -> usize {
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::check_layout_invariants;

    #[test]
    fn parity_rotates_over_all_disks() {
        let l = Raid5::new(4, 100);
        let disks: Vec<usize> = (0..4).map(|s| l.parity_disk(s)).collect();
        assert_eq!(disks, vec![3, 2, 1, 0]);
        assert_eq!(l.parity_disk(4), 3);
    }

    #[test]
    fn data_never_on_parity_disk() {
        let l = Raid5::new(5, 100);
        for lb in 0..400 {
            let (s, _) = l.stripe_of(lb);
            assert_ne!(l.locate_data(lb).disk, l.parity_disk(s), "lb={lb}");
        }
    }

    #[test]
    fn stripe_occupies_one_row() {
        let l = Raid5::new(4, 100);
        // Stripe 0: data on disks 0,1,2 row 0; parity disk 3 row 0.
        let addrs: Vec<BlockAddr> = (0..3).map(|lb| l.locate_data(lb)).collect();
        assert_eq!(addrs, vec![BlockAddr::new(0, 0), BlockAddr::new(1, 0), BlockAddr::new(2, 0)]);
        // Stripe 1: parity on disk 2, data wraps 3,0,1.
        let addrs: Vec<BlockAddr> = (3..6).map(|lb| l.locate_data(lb)).collect();
        assert_eq!(addrs, vec![BlockAddr::new(3, 1), BlockAddr::new(0, 1), BlockAddr::new(1, 1)]);
    }

    #[test]
    fn invariants_hold() {
        check_layout_invariants(&Raid5::new(6, 64), 64, 320);
    }

    #[test]
    fn degraded_read_reconstructs() {
        let l = Raid5::new(4, 100);
        let d0 = l.locate_data(0);
        let failed = FaultSet::of(&[d0.disk]);
        let src = l.read_source(0, &failed);
        let ReadSource::Reconstruct { siblings, parity } = &src else {
            panic!("expected reconstruction, got {src:?}")
        };
        assert_eq!(siblings.len(), 2);
        assert_eq!(*parity, l.parity_addr(0));
        for (_, a) in siblings {
            assert!(!failed.contains(a.disk));
        }
        // A block whose disk survives is read normally even in degraded mode.
        assert!(matches!(l.read_source(1, &failed), ReadSource::Primary(_)));
    }

    #[test]
    fn double_failure_loses_data() {
        let l = Raid5::new(4, 100);
        assert!(l.tolerates(&FaultSet::of(&[1])));
        assert!(!l.tolerates(&FaultSet::of(&[1, 2])));
        // Some block must be unreadable under a double failure.
        let failed = FaultSet::of(&[0, 1]);
        let lost = (0..30).any(|lb| l.read_source(lb, &failed) == ReadSource::Lost);
        assert!(lost);
    }

    #[test]
    fn capacity_excludes_parity() {
        let l = Raid5::new(5, 100);
        assert_eq!(l.capacity_blocks(), 400);
        assert_eq!(l.stripe_width(), 4);
    }
}
