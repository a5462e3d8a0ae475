//! Chained declustering (Hsiao & DeWitt): each disk carries the primary
//! copy of its own bucket and the mirror of its left neighbour's bucket.
//!
//! The paper compares RAID-x against this analytically (Table 2, Figure 1b):
//! chained declustering matches RAID-x's read bandwidth but pays both copies
//! in the foreground on writes — the factor-of-two RAID-x recovers by
//! deferring its clustered images.

use crate::layout::{Layout, WriteScheme};
use crate::types::{BlockAddr, FaultSet};

/// Chained-declustering array: primary of block `b` on disk `b mod N`
/// (top half of the platter); its image on disk `(b+1) mod N` (bottom
/// half), i.e. skewed by one position — Figure 1b.
#[derive(Debug, Clone)]
pub struct ChainedDecluster {
    ndisks: usize,
    blocks_per_disk: u64,
}

impl ChainedDecluster {
    /// A chained-declustering array. Requires at least two disks and an
    /// even per-disk capacity (top half data, bottom half images).
    pub fn new(ndisks: usize, blocks_per_disk: u64) -> Self {
        assert!(ndisks >= 2, "chained declustering needs at least two disks");
        assert!(blocks_per_disk >= 2, "need at least two blocks per disk");
        ChainedDecluster { ndisks, blocks_per_disk }
    }

    fn half(&self) -> u64 {
        self.blocks_per_disk / 2
    }
}

impl Layout for ChainedDecluster {
    fn name(&self) -> &'static str {
        "Chained-declustering"
    }

    fn ndisks(&self) -> usize {
        self.ndisks
    }

    fn capacity_blocks(&self) -> u64 {
        self.ndisks as u64 * self.half()
    }

    fn stripe_width(&self) -> usize {
        self.ndisks
    }

    fn write_scheme(&self) -> WriteScheme {
        WriteScheme::ForegroundMirror
    }

    fn locate_data(&self, lb: u64) -> BlockAddr {
        debug_assert!(lb < self.capacity_blocks());
        BlockAddr::new((lb % self.ndisks as u64) as usize, lb / self.ndisks as u64)
    }

    fn locate_images(&self, lb: u64) -> Vec<BlockAddr> {
        let n = self.ndisks as u64;
        let disk = ((lb % n + 1) % n) as usize;
        vec![BlockAddr::new(disk, self.half() + lb / n)]
    }

    /// Balance reads over the chain: alternate by row+column parity.
    fn prefers_image(&self, lb: u64) -> bool {
        let d = self.locate_data(lb);
        !(d.block + d.disk as u64).is_multiple_of(2)
    }

    fn tolerates(&self, failed: &FaultSet) -> bool {
        // Data is lost only when two *adjacent* disks on the ring fail.
        let n = self.ndisks;
        !(0..n).any(|i| failed.contains(i) && failed.contains((i + 1) % n))
    }

    fn max_fault_coverage(&self) -> usize {
        self.ndisks / 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::{check_layout_invariants, ReadSource};

    #[test]
    fn image_is_skewed_one_disk() {
        let l = ChainedDecluster::new(4, 12);
        for lb in 0..24u64 {
            let d = l.locate_data(lb);
            let img = l.locate_images(lb)[0];
            assert_eq!(img.disk, (d.disk + 1) % 4, "lb={lb}");
            // Data in the top half, images in the bottom half.
            assert!(d.block < 6);
            assert!(img.block >= 6);
        }
    }

    #[test]
    fn invariants_hold() {
        check_layout_invariants(&ChainedDecluster::new(5, 40), 40, 100);
    }

    #[test]
    fn adjacent_failures_lose_data_nonadjacent_dont() {
        let l = ChainedDecluster::new(6, 20);
        assert!(l.tolerates(&FaultSet::of(&[0, 2, 4])));
        assert!(!l.tolerates(&FaultSet::of(&[2, 3])));
        // Wraparound adjacency.
        assert!(!l.tolerates(&FaultSet::of(&[5, 0])));
        assert_eq!(l.max_fault_coverage(), 3);
    }

    #[test]
    fn reads_balance_across_copies() {
        let l = ChainedDecluster::new(4, 40);
        let images = (0..80).filter(|&lb| l.prefers_image(lb)).count();
        assert_eq!(images, 40);
    }

    #[test]
    fn degraded_read_falls_back() {
        let l = ChainedDecluster::new(4, 40);
        // lb 0: data disk 0, image disk 1.
        assert!(matches!(l.read_source(0, &FaultSet::of(&[0])), ReadSource::Image(_)));
        assert!(matches!(l.read_source(0, &FaultSet::of(&[1])), ReadSource::Primary(_)));
        assert_eq!(l.read_source(0, &FaultSet::of(&[0, 1])), ReadSource::Lost);
    }
}
