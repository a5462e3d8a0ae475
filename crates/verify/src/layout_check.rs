//! Pass 2 — exhaustive layout conformance checking.
//!
//! Each checker takes the placement function under test as a closure, so
//! the unit tests can feed deliberately broken placements and prove the
//! checker catches them; the production sweep plugs in the real layout
//! methods. Checked rules:
//!
//! * **OSM (RAID-x)** — image never on the data disk, image within the
//!   same row sub-array, image region below the platter midline is
//!   disjoint from the data region, image addresses unique, a stripe's
//!   images on at most two disks, group members contiguous on one disk.
//! * **RAID-5** — left-symmetric rotation `parity(s) = n-1-(s mod n)`,
//!   every disk carries parity exactly once per `n` stripes, parity never
//!   collides with the stripe's data.
//! * **RAID-10** — mirror is the pair partner (`2i`/`2i+1`), same block
//!   row, pairwise disjoint.
//! * **Chained declustering** — image on the right ring neighbor
//!   `(d+1) mod N`, bottom half of the platter.

use raidx_core::{BlockAddr, ChainedDecluster, Layout, Raid10, Raid5, RaidX};

/// Verify the OSM placement rule with `image_of` as the image-placement
/// function under test. Returns human-readable violations (empty = pass).
pub fn check_osm_placement(l: &RaidX, image_of: &dyn Fn(&RaidX, u64) -> BlockAddr) -> Vec<String> {
    let mut violations = Vec::new();
    let (n, _) = l.shape();
    let cap = l.capacity_blocks();
    let mut seen: std::collections::BTreeSet<BlockAddr> = std::collections::BTreeSet::new();
    for lb in 0..cap {
        let d = l.locate_data(lb);
        let m = image_of(l, lb);
        if m.disk == d.disk {
            violations.push(format!("lb {lb}: image on its own data disk {}", d.disk));
        }
        if m.disk >= l.ndisks() {
            violations.push(format!("lb {lb}: image disk {} out of range", m.disk));
            continue;
        }
        if l.row_of_disk(m.disk) != l.row_of_disk(d.disk) {
            violations.push(format!("lb {lb}: image leaves row sub-array"));
        }
        if m.block < l.image_base() || m.block >= l.blocks_per_disk() {
            violations.push(format!("lb {lb}: image block {} outside image region", m.block));
        }
        if !seen.insert(m) {
            violations.push(format!("lb {lb}: image address {m} reused"));
        }
    }
    // Stripe images on at most two disks (Figure 1a's defining property).
    for s in 0..cap / n as u64 {
        let disks: std::collections::BTreeSet<usize> =
            l.stripe_blocks(s).iter().map(|&lb| image_of(l, lb).disk).collect();
        if disks.is_empty() || disks.len() > 2 {
            violations.push(format!("stripe {s}: images on {} disks", disks.len()));
        }
    }
    // Mirroring-group members contiguous on one disk (the clustered
    // sequential flush depends on it).
    let mut groups: std::collections::BTreeMap<(usize, u64), Vec<BlockAddr>> =
        std::collections::BTreeMap::new();
    for lb in 0..cap {
        groups.entry(l.image_group(lb)).or_default().push(image_of(l, lb));
    }
    for ((row, g), mut addrs) in groups {
        addrs.sort_unstable();
        let disk = addrs[0].disk;
        for (i, a) in addrs.iter().enumerate() {
            if a.disk != disk || a.block != addrs[0].block + i as u64 {
                violations.push(format!("group ({row},{g}): images not contiguous on one disk"));
                break;
            }
        }
    }
    violations
}

/// Verify the RAID-5 left-symmetric rotation with `parity_of` as the
/// parity-placement function under test.
pub fn check_raid5_rotation(l: &Raid5, parity_of: &dyn Fn(&Raid5, u64) -> usize) -> Vec<String> {
    let mut violations = Vec::new();
    let n = l.ndisks();
    let stripes = (l.capacity_blocks() / l.stripe_width() as u64).min(16 * n as u64);
    for s in 0..stripes {
        let p = parity_of(l, s);
        let expect = n - 1 - (s as usize % n);
        if p != expect {
            violations.push(format!("stripe {s}: parity on disk {p}, expected {expect}"));
        }
        for &lb in &l.stripe_members(s) {
            if l.locate_data(lb).disk == p {
                violations.push(format!("stripe {s}: data block {lb} collides with parity"));
            }
        }
    }
    // Every disk carries parity exactly once per window of n stripes.
    for window in 0..stripes / n as u64 {
        let mut count = vec![0usize; n];
        for s in window * n as u64..(window + 1) * n as u64 {
            count[parity_of(l, s)] += 1;
        }
        if count.iter().any(|&c| c != 1) {
            violations.push(format!("window {window}: parity rotation unbalanced {count:?}"));
        }
    }
    violations
}

/// Verify RAID-10 mirror disjointness with `image_of` under test.
pub fn check_raid10_mirrors(
    l: &Raid10,
    image_of: &dyn Fn(&Raid10, u64) -> BlockAddr,
) -> Vec<String> {
    let mut violations = Vec::new();
    for lb in 0..l.capacity_blocks() {
        let d = l.locate_data(lb);
        let m = image_of(l, lb);
        if m.disk == d.disk {
            violations.push(format!("lb {lb}: mirror shares disk {}", d.disk));
            continue;
        }
        if d.disk / 2 != m.disk / 2 {
            violations.push(format!(
                "lb {lb}: mirror on disk {} outside pair of disk {}",
                m.disk, d.disk
            ));
        }
        if m.block != d.block {
            violations.push(format!("lb {lb}: mirror row {} != data row {}", m.block, d.block));
        }
    }
    violations
}

/// Verify the chained-declustering neighbor rule with `image_of` under
/// test: the image of disk `d`'s data lives on disk `(d+1) mod N`, in the
/// bottom half of the platter.
pub fn check_chained_neighbors(
    l: &ChainedDecluster,
    image_of: &dyn Fn(&ChainedDecluster, u64) -> BlockAddr,
) -> Vec<String> {
    let mut violations = Vec::new();
    let n = l.ndisks();
    let half = l.capacity_blocks() / n as u64;
    for lb in 0..l.capacity_blocks() {
        let d = l.locate_data(lb);
        let m = image_of(l, lb);
        if m.disk != (d.disk + 1) % n {
            violations.push(format!(
                "lb {lb}: image on disk {}, expected right neighbor {}",
                m.disk,
                (d.disk + 1) % n
            ));
        }
        if m.block < half {
            violations.push(format!("lb {lb}: image block {} in the data half", m.block));
        }
    }
    violations
}

/// One row of the conformance sweep table.
#[derive(Debug, Clone)]
pub struct SweepRow {
    /// Architecture name.
    pub arch: &'static str,
    /// `(n, k)` shape (RAID-x) or `(ndisks, 1)` for the flat layouts.
    pub shape: (usize, usize),
    /// Logical blocks exhaustively checked.
    pub checked: u64,
    /// Violations found.
    pub violations: Vec<String>,
}

impl SweepRow {
    /// Did this row pass?
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// The (n, k) shapes swept: the paper's 12-disk decompositions plus
/// off-square shapes that exercise group-boundary rounding.
pub const SWEEP_SHAPES: [(usize, usize); 8] =
    [(12, 1), (6, 2), (4, 3), (3, 4), (2, 6), (8, 2), (5, 3), (7, 1)];

/// Run every checker over every sweep shape with the real placement
/// functions. One row per (architecture, shape).
pub fn conformance_sweep() -> Vec<SweepRow> {
    let bpd = 240u64;
    let mut rows = Vec::new();
    let mut flat_done: std::collections::BTreeSet<usize> = std::collections::BTreeSet::new();
    for (n, k) in SWEEP_SHAPES {
        let l = RaidX::new(n, k, bpd);
        rows.push(SweepRow {
            arch: "RAID-x",
            shape: (n, k),
            checked: l.capacity_blocks(),
            violations: check_osm_placement(&l, &RaidX::image_addr),
        });
        let ndisks = n * k;
        // The flat layouts only see the total disk count; check each
        // count once.
        if !flat_done.insert(ndisks) {
            continue;
        }
        if ndisks >= 3 {
            let l = Raid5::new(ndisks, bpd);
            rows.push(SweepRow {
                arch: "RAID-5",
                shape: (ndisks, 1),
                checked: l.capacity_blocks().min(16 * ndisks as u64 * (ndisks as u64 - 1)),
                violations: check_raid5_rotation(&l, &|l, s| l.parity_disk(s)),
            });
        }
        if ndisks.is_multiple_of(2) {
            let l = Raid10::new(ndisks, bpd);
            rows.push(SweepRow {
                arch: "RAID-10",
                shape: (ndisks, 1),
                checked: l.capacity_blocks(),
                violations: check_raid10_mirrors(&l, &|l, lb| l.locate_images(lb)[0]),
            });
        }
        let l = ChainedDecluster::new(ndisks, bpd);
        rows.push(SweepRow {
            arch: "Chained",
            shape: (ndisks, 1),
            checked: l.capacity_blocks(),
            violations: check_chained_neighbors(&l, &|l, lb| l.locate_images(lb)[0]),
        });
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_is_clean() {
        for row in conformance_sweep() {
            assert!(
                row.ok(),
                "{} {:?}: {} violations, first: {}",
                row.arch,
                row.shape,
                row.violations.len(),
                row.violations[0]
            );
            assert!(row.checked > 0);
        }
    }

    /// Seeded defect: an image placement that ignores orthogonality
    /// (image on the data disk) must be flagged.
    #[test]
    fn broken_osm_placement_caught() {
        let l = RaidX::new(4, 2, 240);
        let broken = |l: &RaidX, lb: u64| {
            let d = l.locate_data(lb);
            BlockAddr::new(d.disk, l.image_base() + d.block)
        };
        let v = check_osm_placement(&l, &broken);
        assert!(v.iter().any(|s| s.contains("own data disk")), "{v:?}");
    }

    /// Seeded defect: images scattered one-per-disk break the "at most
    /// two image disks per stripe" clustering rule.
    #[test]
    fn scattered_images_caught() {
        let l = RaidX::new(6, 1, 240);
        let scattered = |l: &RaidX, lb: u64| {
            let d = l.locate_data(lb);
            BlockAddr::new((d.disk + 1 + (lb as usize % 4)) % l.ndisks(), l.image_base() + d.block)
        };
        let v = check_osm_placement(&l, &scattered);
        assert!(!v.is_empty());
    }

    /// Seeded defect: fixed (non-rotating) parity is RAID-4, not RAID-5.
    #[test]
    fn fixed_parity_caught() {
        let l = Raid5::new(5, 240);
        let v = check_raid5_rotation(&l, &|_, _| 4);
        assert!(v.iter().any(|s| s.contains("expected")), "{v:?}");
        assert!(v.iter().any(|s| s.contains("unbalanced")), "{v:?}");
    }

    /// Seeded defect: mirroring outside the pair breaks RAID-10.
    #[test]
    fn cross_pair_mirror_caught() {
        let l = Raid10::new(8, 240);
        let broken = |l: &Raid10, lb: u64| {
            let d = l.locate_data(lb);
            BlockAddr::new((d.disk + 3) % l.ndisks(), d.block)
        };
        let v = check_raid10_mirrors(&l, &broken);
        assert!(v.iter().any(|s| s.contains("outside pair")), "{v:?}");
    }

    /// Seeded defect: mirroring to the *left* neighbor reverses the
    /// chain.
    #[test]
    fn wrong_neighbor_caught() {
        let l = ChainedDecluster::new(6, 240);
        let broken = |l: &ChainedDecluster, lb: u64| {
            let d = l.locate_data(lb);
            let half = l.capacity_blocks() / l.ndisks() as u64;
            BlockAddr::new((d.disk + l.ndisks() - 1) % l.ndisks(), half + d.block)
        };
        let v = check_chained_neighbors(&l, &broken);
        assert!(v.iter().any(|s| s.contains("right neighbor")), "{v:?}");
    }

    /// The 2-D n×k OSM invariants, property-tested through the
    /// conformance checker with generated shapes (the ISSUE's satellite).
    #[test]
    fn osm_invariants_hold_for_random_shapes() {
        sim_core::check::run_cases("osm-conformance-shapes", 48, |g| {
            let n = g.usize_in(2..13);
            let k = g.usize_in(1..5);
            let bpd = g.u64_in(64..513);
            let l = RaidX::new(n, k, bpd);
            let v = check_osm_placement(&l, &RaidX::image_addr);
            assert!(v.is_empty(), "n={n} k={k} bpd={bpd}: {:?}", &v[..v.len().min(3)]);
        });
    }
}
