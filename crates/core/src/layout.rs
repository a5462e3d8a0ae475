//! The layout abstraction shared by every RAID architecture.
//!
//! A layout is pure address arithmetic: it maps logical blocks of the single
//! I/O space to physical `(disk, block)` addresses for data, mirror images
//! and parity, and says which fault sets are survivable. Read routing under
//! failures ([`Layout::read_source`]) is derived from those placement
//! answers once, for every layout. The I/O engines in the `cdd` crate turn
//! these answers into network/disk traffic.

use crate::types::{BlockAddr, FaultSet};

/// Where a read of one logical block gets its bytes, given the failed set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReadSource {
    /// The primary copy is available.
    Primary(BlockAddr),
    /// Primary failed; read the mirror image instead.
    Image(BlockAddr),
    /// Parity reconstruction: read every surviving member of the stripe
    /// (data siblings plus the parity block) and XOR them.
    Reconstruct {
        /// Surviving sibling data blocks, as `(logical, physical)` pairs.
        siblings: Vec<(u64, BlockAddr)>,
        /// The stripe's parity block.
        parity: BlockAddr,
    },
    /// No surviving copy — data loss.
    Lost,
}

/// How a layout protects writes; drives the I/O engine's write path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WriteScheme {
    /// Write a mirror copy in the foreground (RAID-10, chained
    /// declustering).
    ForegroundMirror,
    /// Queue the image for a deferred, clustered background flush
    /// (RAID-x orthogonal mirroring).
    BackgroundMirror,
    /// Maintain a parity block (RAID-5): read-modify-write for partial
    /// stripes, single parity computation for full-stripe writes.
    Parity,
}

/// Address arithmetic for one RAID architecture over `ndisks` disks of
/// `blocks_per_disk` blocks.
pub trait Layout: Send + Sync {
    /// Short architecture name (`"RAID-x"`, `"RAID-5"`, ...).
    fn name(&self) -> &'static str;

    /// Total disks in the array.
    fn ndisks(&self) -> usize;

    /// Logical blocks addressable by clients (capacity after redundancy).
    fn capacity_blocks(&self) -> u64;

    /// Number of data blocks per stripe group (the paper's `n`; the unit
    /// of full-stripe parallelism).
    fn stripe_width(&self) -> usize;

    /// The write-path discipline of this architecture.
    fn write_scheme(&self) -> WriteScheme;

    /// Physical location of the primary copy of logical block `lb`.
    fn locate_data(&self, lb: u64) -> BlockAddr;

    /// Locations of all mirror images of `lb` (empty for RAID-5).
    fn locate_images(&self, lb: u64) -> Vec<BlockAddr>;

    /// Location of the parity block protecting `lb` (RAID-5 only).
    fn locate_parity(&self, lb: u64) -> Option<BlockAddr> {
        let _ = lb;
        None
    }

    /// Stripe index and position within the stripe of `lb`.
    fn stripe_of(&self, lb: u64) -> (u64, usize) {
        let n = self.stripe_width() as u64;
        (lb / n, (lb % n) as usize)
    }

    /// The logical blocks of stripe `s`, in position order.
    fn stripe_blocks(&self, s: u64) -> Vec<u64> {
        let n = self.stripe_width() as u64;
        (s * n..(s + 1) * n).filter(|&lb| lb < self.capacity_blocks()).collect()
    }

    /// Where to read `lb` from, given the failed set: the primary if it
    /// survives, else the first surviving image, else a parity
    /// reconstruction when the parity and every other member of the
    /// stripe survive, else [`ReadSource::Lost`]. Derived from the
    /// placement answers above; no layout overrides it.
    fn read_source(&self, lb: u64, failed: &FaultSet) -> ReadSource {
        let d = self.locate_data(lb);
        if !failed.contains(d.disk) {
            return ReadSource::Primary(d);
        }
        if let Some(img) = self.locate_images(lb).into_iter().find(|a| !failed.contains(a.disk)) {
            return ReadSource::Image(img);
        }
        let Some(parity) = self.locate_parity(lb).filter(|p| !failed.contains(p.disk)) else {
            return ReadSource::Lost;
        };
        let mut siblings = Vec::new();
        for sib in self.stripe_blocks(self.stripe_of(lb).0) {
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

    /// Whether a healthy read of `lb` should prefer its image over its
    /// primary, to spread read load over both copies. A read policy, not
    /// routing: [`Layout::read_source`] never consults it.
    fn prefers_image(&self, lb: u64) -> bool {
        let _ = lb;
        false
    }

    /// For `BackgroundMirror` layouts: the identity of the mirroring group
    /// `lb`'s image belongs to and the group's size. The I/O engine's
    /// write-behind buffer accumulates images per group and flushes a
    /// completed group as one long sequential write — the heart of OSM.
    fn image_group_key(&self, lb: u64) -> Option<(u64, usize)> {
        let _ = lb;
        None
    }

    /// True if no data is lost under `failed`: exactly when no block reads
    /// as [`ReadSource::Lost`].
    fn tolerates(&self, failed: &FaultSet) -> bool;

    /// Best-case simultaneous failures survivable when placed favourably
    /// (e.g. one per mirror pair for RAID-10, one per row for RAID-x):
    /// Table 2's "max fault coverage" row.
    fn max_fault_coverage(&self) -> usize;
}

/// Sanity-check helper used by unit and property tests of every layout:
/// verifies that the first `limit` logical blocks map to distinct physical
/// homes, within capacity, and that no block shares a disk with any of its
/// images.
pub fn check_layout_invariants(layout: &dyn Layout, blocks_per_disk: u64, limit: u64) {
    use std::collections::HashSet;
    let mut seen: HashSet<BlockAddr> = HashSet::new();
    let cap = layout.capacity_blocks().min(limit);
    for lb in 0..cap {
        let d = layout.locate_data(lb);
        assert!(d.disk < layout.ndisks(), "{lb}: disk {} out of range", d.disk);
        assert!(d.block < blocks_per_disk, "{lb}: block {} beyond disk", d.block);
        assert!(seen.insert(d), "{lb}: data address {d} reused");
        for img in layout.locate_images(lb) {
            assert!(img.disk < layout.ndisks());
            assert!(img.block < blocks_per_disk, "{lb}: image block beyond disk");
            assert_ne!(img.disk, d.disk, "{lb}: image shares disk {} with data", d.disk);
            assert!(seen.insert(img), "{lb}: image address {img} reused");
        }
        if let Some(p) = layout.locate_parity(lb) {
            assert!(p.disk < layout.ndisks());
            assert_ne!(p.disk, d.disk, "{lb}: parity shares disk with data");
        }
    }
}
