//! RAID-x: orthogonal striping and mirroring (OSM) — the paper's
//! contribution.
//!
//! Data blocks are striped RAID-0 style across all disks (top half of each
//! platter). The mirror images of each *mirroring group* of `n-1`
//! consecutive blocks are **clustered vertically on a single disk** (bottom
//! half), chosen so that no block's image ever shares a disk with its data,
//! and so that the images of any stripe group land on **exactly two disks**
//! (Figure 1a). Images are flushed in the background as one long sequential
//! write per group — that is what eliminates both the RAID-5 small-write
//! problem and the foreground cost of RAID-10/chained-declustering
//! mirroring.
//!
//! In the two-dimensional n×k configuration (Figure 3), `n` is the number
//! of nodes (degree of parallelism) and `k` the disks per node (depth of
//! pipelining): disk `d` of the array sits on node `d mod n`, row `d / n`.
//! Consecutive stripes rotate over the `k` rows, so successive stripe
//! groups pipeline on the per-node SCSI buses while the `n` blocks of one
//! stripe spread over all nodes.
//!
//! ## The placement rule
//!
//! Within one row of `n` disks, with row-local block sequence `b`:
//!
//! * data: disk `b mod n`, platter row `b div n` (top half);
//! * image group `g = b div (n-1)` lives on disk `n-1 - (g mod n)`,
//!   packed densely in the bottom half.
//!
//! Orthogonality proof sketch: block `b` in group `g` has offset
//! `t = b mod (n-1) ∈ [0, n-2]` and data disk `(t - g) mod n`; the group's
//! image disk is `n-1-(g mod n) ≡ -(g+1) (mod n)`. They collide only if
//! `t ≡ n-1 (mod n)`, impossible since `t ≤ n-2`. A stripe of `n`
//! consecutive blocks spans exactly two consecutive groups (because
//! `n > n-1`), hence exactly two image disks.

use crate::layout::{Layout, WriteScheme};
use crate::types::{BlockAddr, FaultSet};

/// The RAID-x orthogonal striping and mirroring layout over an n×k array.
#[derive(Debug, Clone)]
pub struct RaidX {
    /// Stripe width = number of nodes.
    n: usize,
    /// Pipeline depth = disks per node.
    k: usize,
    blocks_per_disk: u64,
    /// First block of the image region on every disk.
    data_half: u64,
    /// Stripes assigned to each row sub-array (bounded by both the data
    /// region and the image region).
    data_rows: u64,
}

impl RaidX {
    /// An n×k RAID-x array (`n ≥ 2` nodes, `k ≥ 1` disks per node).
    pub fn new(n: usize, k: usize, blocks_per_disk: u64) -> Self {
        assert!(n >= 2, "RAID-x needs stripe width >= 2 (mirroring requires a second disk)");
        assert!(k >= 1, "RAID-x needs at least one disk row");
        assert!(blocks_per_disk >= 4, "disks must hold at least 4 blocks");
        let data_half = blocks_per_disk / 2;
        let image_capacity = blocks_per_disk - data_half;
        // Each image group holds n-1 blocks; a disk can host this many
        // whole groups:
        let max_instances = image_capacity / (n as u64 - 1).max(1);
        // Choosing data_rows = instances*(n-1) makes the group count an
        // exact multiple of n, so every disk's image region fits exactly.
        let data_rows = data_half.min(max_instances * (n as u64 - 1));
        assert!(data_rows > 0, "disk too small for this stripe width");
        RaidX { n, k, blocks_per_disk, data_half, data_rows }
    }

    /// Raw blocks per physical disk.
    pub fn blocks_per_disk(&self) -> u64 {
        self.blocks_per_disk
    }

    /// Number of blocks in one mirroring group (`n - 1`).
    pub fn group_len(&self) -> usize {
        self.n - 1
    }

    /// First block of the image region on every disk.
    pub fn image_base(&self) -> u64 {
        self.data_half
    }

    /// Decompose a logical block: `(row, stripe-within-row, position)`.
    fn decompose(&self, lb: u64) -> (usize, u64, u64) {
        let n = self.n as u64;
        let s = lb / n;
        let j = lb % n;
        let row = (s % self.k as u64) as usize;
        let sp = s / self.k as u64;
        (row, sp, j)
    }

    /// Image location of `lb` (every block has exactly one image).
    pub fn image_addr(&self, lb: u64) -> BlockAddr {
        let (row, sp, j) = self.decompose(lb);
        let n = self.n as u64;
        let w = n - 1;
        let b = sp * n + j; // row-local block sequence
        let g = b / w;
        let t = b % w;
        let local_disk = (n - 1 - (g % n)) as usize;
        let block = self.data_half + (g / n) * w + t;
        BlockAddr::new(row * self.n + local_disk, block)
    }

    /// The mirroring-group id of `lb` within its row sub-array, plus the
    /// row; blocks with equal `(row, group)` have their images clustered
    /// contiguously on one disk (the unit of the background flush).
    pub fn image_group(&self, lb: u64) -> (usize, u64) {
        let (row, sp, j) = self.decompose(lb);
        let b = sp * self.n as u64 + j;
        (row, b / (self.n as u64 - 1))
    }

    /// Row sub-array (0..k) that owns disk `disk`.
    pub fn row_of_disk(&self, disk: usize) -> usize {
        disk / self.n
    }
}

impl Layout for RaidX {
    fn name(&self) -> &'static str {
        "RAID-x"
    }

    fn ndisks(&self) -> usize {
        self.n * self.k
    }

    fn capacity_blocks(&self) -> u64 {
        self.n as u64 * self.k as u64 * self.data_rows
    }

    fn stripe_width(&self) -> usize {
        self.n
    }

    fn write_scheme(&self) -> WriteScheme {
        WriteScheme::BackgroundMirror
    }

    fn locate_data(&self, lb: u64) -> BlockAddr {
        debug_assert!(lb < self.capacity_blocks());
        let (row, sp, j) = self.decompose(lb);
        BlockAddr::new(row * self.n + j as usize, sp)
    }

    fn locate_images(&self, lb: u64) -> Vec<BlockAddr> {
        vec![self.image_addr(lb)]
    }

    fn image_group_key(&self, lb: u64) -> Option<(u64, usize)> {
        let (row, g) = self.image_group(lb);
        // Encode (row, group) into one id; groups within a row are dense.
        Some((row as u64 * (u32::MAX as u64) + g, self.group_len()))
    }

    fn tolerates(&self, failed: &FaultSet) -> bool {
        // Survivable iff no row sub-array has two failures: each image
        // group on a disk covers blocks from every other disk of its row.
        let mut per_row = vec![0usize; self.k];
        for d in failed.iter() {
            if d >= self.ndisks() {
                continue;
            }
            per_row[self.row_of_disk(d)] += 1;
            if per_row[self.row_of_disk(d)] >= 2 {
                return false;
            }
        }
        true
    }

    fn max_fault_coverage(&self) -> usize {
        // One failure per stripe-group row: k total (Section 6: "for the
        // 4x3 array, up-to-3 disk failures in 3 stripe groups can be
        // tolerated").
        self.k
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::{check_layout_invariants, ReadSource};
    use std::collections::HashSet;

    /// Figure 1a, reproduced exactly: 4 disks, blocks B0..B11 on top,
    /// images clustered (M0,M1,M2)->D3, (M3,M4,M5)->D2, (M6,M7,M8)->D1,
    /// (M9,M10,M11)->D0.
    #[test]
    fn figure_1a_placement() {
        let l = RaidX::new(4, 1, 1000);
        for lb in 0..4 {
            assert_eq!(l.locate_data(lb), BlockAddr::new(lb as usize, 0));
        }
        for lb in 4..8 {
            assert_eq!(l.locate_data(lb), BlockAddr::new(lb as usize - 4, 1));
        }
        let image_disks: Vec<usize> = (0..12).map(|lb| l.image_addr(lb).disk).collect();
        assert_eq!(image_disks, vec![3, 3, 3, 2, 2, 2, 1, 1, 1, 0, 0, 0]);
        // Images are packed densely and contiguously in the bottom half.
        let base = l.image_base();
        assert_eq!(l.image_addr(0).block, base);
        assert_eq!(l.image_addr(1).block, base + 1);
        assert_eq!(l.image_addr(2).block, base + 2);
        assert_eq!(l.image_addr(3).block, base); // new group, new disk
    }

    /// The defining OSM property: a stripe group's images live on exactly
    /// two disks (and at least two for n >= 3 whenever the group boundary
    /// falls inside the stripe).
    #[test]
    fn stripe_images_on_at_most_two_disks() {
        for n in 2..=8usize {
            for k in 1..=3usize {
                let l = RaidX::new(n, k, 240);
                let stripes = l.capacity_blocks() / n as u64;
                for s in 0..stripes.min(200) {
                    let disks: HashSet<usize> =
                        l.stripe_blocks(s).iter().map(|&lb| l.image_addr(lb).disk).collect();
                    assert!(
                        !disks.is_empty() && disks.len() <= 2,
                        "n={n} k={k} s={s}: images on {disks:?}"
                    );
                }
            }
        }
    }

    /// Orthogonality: no block's image on its own data disk, for a sweep
    /// of shapes.
    #[test]
    fn orthogonal_for_all_shapes() {
        for n in 2..=9usize {
            for k in 1..=4usize {
                let l = RaidX::new(n, k, 120);
                for lb in 0..l.capacity_blocks() {
                    let d = l.locate_data(lb);
                    let m = l.image_addr(lb);
                    assert_ne!(d.disk, m.disk, "n={n} k={k} lb={lb}");
                    // Images stay within the same row sub-array.
                    assert_eq!(l.row_of_disk(d.disk), l.row_of_disk(m.disk));
                }
            }
        }
    }

    #[test]
    fn invariants_hold_and_regions_disjoint() {
        let l = RaidX::new(4, 3, 240);
        check_layout_invariants(&l, 240, l.capacity_blocks());
        for lb in 0..l.capacity_blocks() {
            assert!(l.locate_data(lb).block < l.image_base());
            let img = l.image_addr(lb);
            assert!(img.block >= l.image_base());
            assert!(img.block < 240, "image beyond platter: {img}");
        }
    }

    /// Figure 3: stripes rotate across the k rows, one disk per node.
    #[test]
    fn figure_3_two_dimensional_addressing() {
        let l = RaidX::new(4, 3, 240);
        // Stripe 0 -> row 0 (disks 0..3), stripe 1 -> row 1 (disks 4..7),
        // stripe 2 -> row 2 (disks 8..11), stripe 3 -> row 0 again.
        assert_eq!(l.locate_data(0), BlockAddr::new(0, 0));
        assert_eq!(l.locate_data(4), BlockAddr::new(4, 0));
        assert_eq!(l.locate_data(8), BlockAddr::new(8, 0));
        assert_eq!(l.locate_data(12), BlockAddr::new(0, 1)); // B12 under B0 on D0
                                                             // Each stripe touches all 4 nodes exactly once.
        for s in 0..60 {
            let nodes: HashSet<usize> =
                l.stripe_blocks(s).iter().map(|&lb| l.locate_data(lb).disk % 4).collect();
            assert_eq!(nodes.len(), 4);
        }
    }

    #[test]
    fn image_groups_cluster_consecutive_blocks() {
        let l = RaidX::new(5, 2, 200);
        for lb in 0..l.capacity_blocks() - 1 {
            let (ra, ga) = l.image_group(lb);
            let a = l.image_addr(lb);
            // All members of a group sit consecutively on one disk.
            for lb2 in lb + 1..l.capacity_blocks() {
                if l.image_group(lb2) == (ra, ga) {
                    let b = l.image_addr(lb2);
                    assert_eq!(a.disk, b.disk);
                }
            }
        }
    }

    #[test]
    fn image_addresses_unique() {
        let l = RaidX::new(4, 3, 240);
        let mut seen = HashSet::new();
        for lb in 0..l.capacity_blocks() {
            assert!(seen.insert(l.image_addr(lb)), "duplicate image for lb={lb}");
        }
    }

    #[test]
    fn fault_tolerance_one_per_row() {
        let l = RaidX::new(4, 3, 240);
        // One failure in each of the 3 rows: survivable (the paper's
        // "up-to-3 disk failures" claim for the 4x3 array).
        assert!(l.tolerates(&FaultSet::of(&[0, 5, 10])));
        assert_eq!(l.max_fault_coverage(), 3);
        // Two failures in row 0: data loss.
        assert!(!l.tolerates(&FaultSet::of(&[0, 2])));
        // Verify the loss is real: some block has data on one failed disk
        // and image on the other.
        let failed = FaultSet::of(&[0, 2]);
        let lost =
            (0..l.capacity_blocks()).any(|lb| l.read_source(lb, &failed) == ReadSource::Lost);
        assert!(lost);
    }

    #[test]
    fn degraded_reads_use_image() {
        let l = RaidX::new(4, 1, 240);
        // lb 0: data on disk 0, image on disk 3.
        assert!(matches!(l.read_source(0, &FaultSet::none()), ReadSource::Primary(_)));
        let degraded = l.read_source(0, &FaultSet::of(&[0]));
        assert!(matches!(&degraded, ReadSource::Image(a) if a.disk == 3), "{degraded:?}");
        assert_eq!(l.read_source(0, &FaultSet::of(&[0, 3])), ReadSource::Lost);
    }

    #[test]
    fn capacity_is_half_the_raw_space() {
        let l = RaidX::new(4, 3, 240);
        // 12 disks x 240 blocks raw; mirroring halves it (minus group
        // rounding).
        let raw = 12 * 240;
        let cap = l.capacity_blocks();
        assert!(cap <= raw / 2);
        assert!(cap >= raw / 2 - 12 * 4, "capacity {cap} lost too much to rounding");
    }

    #[test]
    fn n2_degenerates_to_alternating_mirror() {
        let l = RaidX::new(2, 1, 100);
        for lb in 0..l.capacity_blocks() {
            let d = l.locate_data(lb);
            let m = l.image_addr(lb);
            assert_ne!(d.disk, m.disk);
        }
    }

    #[test]
    #[should_panic(expected = "stripe width >= 2")]
    fn n1_rejected() {
        RaidX::new(1, 3, 100);
    }
}
