//! RAID-10: striped mirroring (mirrored pairs, striped across the pairs).
//!
//! One of the paper's measured baselines. Every write hits the primary and
//! its mirror in the foreground; reads alternate between the two copies for
//! load balance.

use crate::layout::{Layout, ReadSource, WriteScheme};
use crate::types::{BlockAddr, FaultSet};

/// Mirrored-pair array: disks `2i`/`2i+1` form pair `i`; data is striped
/// across pairs.
#[derive(Debug, Clone)]
pub struct Raid10 {
    ndisks: usize,
    blocks_per_disk: u64,
}

impl Raid10 {
    /// A RAID-10 array. Requires an even number of at least two disks.
    pub fn new(ndisks: usize, blocks_per_disk: u64) -> Self {
        assert!(ndisks >= 2 && ndisks.is_multiple_of(2), "RAID-10 needs an even disk count >= 2");
        Raid10 { ndisks, blocks_per_disk }
    }

    fn pairs(&self) -> u64 {
        self.ndisks as u64 / 2
    }

    fn place(&self, lb: u64) -> (usize, usize, u64) {
        let pair = lb % self.pairs();
        let row = lb / self.pairs();
        ((2 * pair) as usize, (2 * pair + 1) as usize, row)
    }
}

impl Layout for Raid10 {
    fn name(&self) -> &'static str {
        "RAID-10"
    }

    fn ndisks(&self) -> usize {
        self.ndisks
    }

    fn capacity_blocks(&self) -> u64 {
        self.pairs() * self.blocks_per_disk
    }

    fn stripe_width(&self) -> usize {
        self.ndisks / 2
    }

    fn write_scheme(&self) -> WriteScheme {
        WriteScheme::ForegroundMirror
    }

    fn locate_data(&self, lb: u64) -> BlockAddr {
        debug_assert!(lb < self.capacity_blocks());
        let (primary, _, row) = self.place(lb);
        BlockAddr::new(primary, row)
    }

    fn locate_images(&self, lb: u64) -> Vec<BlockAddr> {
        let (_, mirror, row) = self.place(lb);
        vec![BlockAddr::new(mirror, row)]
    }

    fn read_source(&self, lb: u64, failed: &FaultSet) -> ReadSource {
        let (primary, mirror, row) = self.place(lb);
        let p_ok = !failed.contains(primary);
        let m_ok = !failed.contains(mirror);
        // Alternate copies by row to spread read load over both spindles.
        let prefer_primary = row % 2 == 0;
        match (p_ok, m_ok) {
            (true, true) if prefer_primary => ReadSource::Primary(BlockAddr::new(primary, row)),
            (true, true) => ReadSource::Image(BlockAddr::new(mirror, row)),
            (true, false) => ReadSource::Primary(BlockAddr::new(primary, row)),
            (false, true) => ReadSource::Image(BlockAddr::new(mirror, row)),
            (false, false) => ReadSource::Lost,
        }
    }

    fn tolerates(&self, failed: &FaultSet) -> bool {
        (0..self.pairs() as usize).all(|i| !(failed.contains(2 * i) && failed.contains(2 * i + 1)))
    }

    fn max_fault_coverage(&self) -> usize {
        self.ndisks / 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::check_layout_invariants;

    #[test]
    fn mirrors_are_pairwise() {
        let l = Raid10::new(8, 100);
        for lb in 0..64 {
            let d = l.locate_data(lb);
            let m = l.locate_images(lb)[0];
            assert_eq!(m.disk, d.disk + 1);
            assert_eq!(d.disk % 2, 0);
            assert_eq!(m.block, d.block);
        }
    }

    #[test]
    fn capacity_is_half() {
        let l = Raid10::new(16, 100);
        assert_eq!(l.capacity_blocks(), 800);
        assert_eq!(l.stripe_width(), 8);
    }

    #[test]
    fn invariants_hold() {
        check_layout_invariants(&Raid10::new(6, 64), 64, 192);
    }

    #[test]
    fn reads_alternate_between_copies() {
        let l = Raid10::new(4, 100);
        let none = FaultSet::none();
        let mut primaries = 0;
        let mut images = 0;
        for lb in 0..40 {
            match l.read_source(lb, &none) {
                ReadSource::Primary(_) => primaries += 1,
                ReadSource::Image(_) => images += 1,
                other @ (ReadSource::Reconstruct { .. } | ReadSource::Lost) => panic!("{other:?}"),
            }
        }
        assert_eq!(primaries, 20);
        assert_eq!(images, 20);
    }

    #[test]
    fn survives_one_failure_per_pair() {
        let l = Raid10::new(8, 100);
        // One disk from each pair: fine.
        assert!(l.tolerates(&FaultSet::of(&[0, 3, 4, 7])));
        // Both disks of pair 1: data loss.
        assert!(!l.tolerates(&FaultSet::of(&[2, 3])));
        assert_eq!(l.max_fault_coverage(), 4);
    }

    #[test]
    fn degraded_reads_use_surviving_copy() {
        let l = Raid10::new(4, 100);
        // lb 0 lives on pair 0 (disks 0,1).
        assert!(matches!(l.read_source(0, &FaultSet::of(&[0])), ReadSource::Image(_)));
        assert!(matches!(l.read_source(0, &FaultSet::of(&[1])), ReadSource::Primary(_)));
        assert_eq!(l.read_source(0, &FaultSet::of(&[0, 1])), ReadSource::Lost);
    }
}
