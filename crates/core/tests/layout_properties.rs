//! Property-based tests of the layout invariants across randomly drawn
//! array shapes, capacities and block ranges (driven by the deterministic
//! in-tree harness in `sim_core::check`), of each layout's placement
//! rule — OSM rows and image groups, RAID-5 rotation, RAID-10 pairing,
//! chained declustering's right-neighbour image — on fixed shapes too,
//! and of the closed-form fault facts (`tolerates`, `max_fault_coverage`)
//! against what the derived read routing and exhaustive enumeration say.

use raidx_core::layout::{check_layout_invariants, Layout, ReadSource};
use raidx_core::{
    layout_for, survival_probability, Arch, BlockAddr, ChainedDecluster, FaultSet, Raid10, Raid5,
    RaidX,
};
use sim_core::check::{run_cases, Gen};
use std::collections::{BTreeMap, HashSet};

/// Draw `(n nodes, k disks/node, blocks per disk)`. The disk must hold at
/// least one whole image group per half (`RaidX::new` rejects smaller
/// disks, which `raidx_rejects_undersized_disks` checks separately).
fn shape(g: &mut Gen) -> (usize, usize, u64) {
    (g.usize_in(2..13), g.usize_in(1..5), g.u64_in(64..513))
}

#[test]
#[should_panic(expected = "disk too small")]
fn raidx_rejects_undersized_disks() {
    // 16 blocks/disk cannot hold a whole 9-block image group per half.
    RaidX::new(10, 1, 16);
}

/// RAID-x orthogonality: no block's image shares its data disk, for
/// any shape, over the whole logical space (or its first 4096 blocks).
#[test]
fn raidx_orthogonality() {
    run_cases("raidx_orthogonality", 64, |g| {
        let (n, k, bpd) = shape(g);
        let l = RaidX::new(n, k, bpd);
        let cap = l.capacity_blocks().min(4096);
        for lb in 0..cap {
            let d = l.locate_data(lb);
            let m = l.image_addr(lb);
            assert_ne!(d.disk, m.disk);
            assert!(m.block >= l.image_base());
            assert!(m.block < bpd);
            assert!(d.block < l.image_base());
        }
    });
}

/// The images of every stripe group occupy exactly one or two disks.
#[test]
fn raidx_stripe_images_two_disks() {
    run_cases("raidx_stripe_images_two_disks", 64, |g| {
        let (n, k, bpd) = shape(g);
        let l = RaidX::new(n, k, bpd);
        let stripes = (l.capacity_blocks() / n as u64).min(512);
        for s in 0..stripes {
            let disks: HashSet<usize> =
                l.stripe_blocks(s).iter().map(|&lb| l.image_addr(lb).disk).collect();
            assert!((1..=2).contains(&disks.len()));
        }
    });
}

/// Physical addresses (data plus images) are globally unique.
#[test]
fn raidx_no_address_collisions() {
    run_cases("raidx_no_address_collisions", 64, |g| {
        let (n, k, bpd) = shape(g);
        let l = RaidX::new(n, k, bpd);
        let cap = l.capacity_blocks().min(2048);
        let mut seen = HashSet::new();
        for lb in 0..cap {
            assert!(seen.insert(l.locate_data(lb)));
            assert!(seen.insert(l.image_addr(lb)));
        }
    });
}

/// Every single-disk failure is survivable on RAID-x, and every block
/// remains readable through its image.
#[test]
fn raidx_single_failure_readable() {
    run_cases("raidx_single_failure_readable", 64, |g| {
        let (n, k, bpd) = shape(g);
        let fail_seed = g.usize_in(0..1000);
        let l = RaidX::new(n, k, bpd);
        let dead = fail_seed % l.ndisks();
        let failed = FaultSet::of(&[dead]);
        assert!(l.tolerates(&failed));
        for lb in 0..l.capacity_blocks().min(1024) {
            match l.read_source(lb, &failed) {
                ReadSource::Primary(a) | ReadSource::Image(a) => assert_ne!(a.disk, dead),
                other => panic!("lb={lb} gave {other:?}"),
            }
        }
    });
}

/// `tolerates` is exactly "no two failures in one row" for RAID-x.
#[test]
fn raidx_tolerates_iff_rows_distinct() {
    run_cases("raidx_tolerates_iff_rows_distinct", 64, |g| {
        let (n, k, bpd) = shape(g);
        let picks = g.vec_of(0..5, |g| g.usize_in(0..10_000));
        let l = RaidX::new(n, k, bpd);
        let failed: FaultSet = picks.iter().map(|p| p % l.ndisks()).collect();
        let mut rows = HashSet::new();
        let all_distinct = failed.iter().all(|d| rows.insert(l.row_of_disk(d)));
        assert_eq!(l.tolerates(&failed), all_distinct);
        // When tolerated, nothing reads as Lost.
        if all_distinct {
            for lb in (0..l.capacity_blocks()).step_by(97) {
                assert_ne!(l.read_source(lb, &failed), ReadSource::Lost);
            }
        }
    });
}

/// Generic invariants hold for all four layouts on random shapes.
#[test]
fn all_layouts_invariants() {
    run_cases("all_layouts_invariants", 64, |g| {
        let (n, k, bpd) = shape(g);
        let nd = n * k;
        let limit = 2048;
        check_layout_invariants(&RaidX::new(n, k, bpd), bpd, limit);
        if nd >= 3 {
            check_layout_invariants(&Raid5::new(nd, bpd), bpd, limit);
        }
        if nd % 2 == 0 {
            check_layout_invariants(&Raid10::new(nd, bpd), bpd, limit);
        }
        check_layout_invariants(&ChainedDecluster::new(nd, bpd), bpd, limit);
    });
}

/// RAID-5 degraded reads always return a reconstruction whose members
/// avoid the failed disk and cover the whole stripe.
#[test]
fn raid5_degraded_reconstruction_complete() {
    run_cases("raid5_degraded_reconstruction_complete", 64, |g| {
        let nd = g.usize_in(3..17);
        let bpd = g.u64_in(8..257);
        let pick = g.u64_in(0..10_000);
        let l = Raid5::new(nd, bpd);
        let lb = pick % l.capacity_blocks();
        let dead = l.locate_data(lb).disk;
        let failed = FaultSet::of(&[dead]);
        match l.read_source(lb, &failed) {
            ReadSource::Reconstruct { siblings, parity } => {
                assert_eq!(siblings.len(), nd - 2);
                assert!(!failed.contains(parity.disk));
                let mut disks: HashSet<usize> = siblings.iter().map(|(_, a)| a.disk).collect();
                disks.insert(parity.disk);
                disks.insert(dead);
                // Stripe spans all disks exactly once.
                assert_eq!(disks.len(), nd);
            }
            other => panic!("expected reconstruct, got {other:?}"),
        }
    });
}

/// Chained declustering: survivable iff no two adjacent failures; and
/// under any survivable fault set every block reads from a live disk.
#[test]
fn chained_adjacency_rule() {
    run_cases("chained_adjacency_rule", 64, |g| {
        let nd = g.usize_in(2..17);
        let bpd = g.u64_in(8..129);
        let picks = g.vec_of(0..4, |g| g.usize_in(0..10_000));
        let l = ChainedDecluster::new(nd, bpd);
        let failed: FaultSet = picks.iter().map(|p| p % nd).collect();
        let adjacent = (0..nd).any(|i| failed.contains(i) && failed.contains((i + 1) % nd));
        assert_eq!(l.tolerates(&failed), !adjacent);
        if !adjacent {
            for lb in (0..l.capacity_blocks()).step_by(31) {
                match l.read_source(lb, &failed) {
                    ReadSource::Primary(a) | ReadSource::Image(a) => {
                        assert!(!failed.contains(a.disk));
                    }
                    other => panic!("{other:?}"),
                }
            }
        }
    });
}

/// Capacity accounting: RAID-x loses at most one group's worth of
/// rounding per row versus exactly half the raw space.
#[test]
fn raidx_capacity_bound() {
    run_cases("raidx_capacity_bound", 64, |g| {
        let (n, k, bpd) = shape(g);
        let l = RaidX::new(n, k, bpd);
        let raw = (n * k) as u64 * bpd;
        assert!(l.capacity_blocks() <= raw / 2);
        let lost = raw / 2 - l.capacity_blocks();
        assert!(
            lost <= (n as u64 * k as u64) * (n as u64 - 1) + raw / 2 % 2 * (n as u64 * k as u64),
            "capacity lost {lost} blocks"
        );
    });
}

/// Fixed `(n, k)` shapes every placement rule below is also checked on:
/// the paper's 12-disk decompositions plus off-square shapes that exercise
/// group-boundary rounding, at 240 blocks per disk.
const SWEEP_SHAPES: [(usize, usize); 8] =
    [(12, 1), (6, 2), (4, 3), (3, 4), (2, 6), (8, 2), (5, 3), (7, 1)];

/// Run `check(n, k, blocks per disk)` on every [`SWEEP_SHAPES`] entry,
/// then on 48 random shapes.
fn sweep(name: &str, mut check: impl FnMut(usize, usize, u64)) {
    for (n, k) in SWEEP_SHAPES {
        check(n, k, 240);
    }
    run_cases(name, 48, |g| {
        let (n, k, bpd) = shape(g);
        check(n, k, bpd);
    });
}

/// RAID-x: a block's image stays in its data disk's row sub-array.
#[test]
fn raidx_image_stays_in_the_data_row() {
    sweep("raidx_image_stays_in_the_data_row", |n, k, bpd| {
        let l = RaidX::new(n, k, bpd);
        for lb in 0..l.capacity_blocks() {
            let (d, m) = (l.locate_data(lb), l.image_addr(lb));
            assert_eq!(l.row_of_disk(m.disk), l.row_of_disk(d.disk), "{n}x{k}/{bpd} lb {lb}");
        }
    });
}

/// RAID-x: the members of an image group sit contiguously on one disk,
/// which the clustered sequential image flush depends on.
#[test]
fn raidx_image_groups_are_contiguous_on_one_disk() {
    sweep("raidx_image_groups_are_contiguous_on_one_disk", |n, k, bpd| {
        let l = RaidX::new(n, k, bpd);
        let mut groups: BTreeMap<(usize, u64), Vec<BlockAddr>> = BTreeMap::new();
        for lb in 0..l.capacity_blocks() {
            groups.entry(l.image_group(lb)).or_default().push(l.image_addr(lb));
        }
        for (group, mut addrs) in groups {
            addrs.sort_unstable();
            let first = addrs[0];
            for (i, a) in addrs.iter().enumerate() {
                let want = BlockAddr::new(first.disk, first.block + i as u64);
                assert_eq!(*a, want, "{n}x{k}/{bpd} group {group:?}: images not contiguous");
            }
        }
    });
}

/// RAID-5: left-symmetric rotation, `parity_disk(s) == n-1-(s mod n)`.
#[test]
fn raid5_parity_rotates_left_symmetric() {
    sweep("raid5_parity_rotates_left_symmetric", |n, k, bpd| {
        if n * k < 3 {
            return;
        }
        let l = Raid5::new(n * k, bpd);
        let nd = l.ndisks() as u64;
        for s in 0..(l.capacity_blocks() / l.stripe_width() as u64).min(16 * nd) {
            assert_eq!(l.parity_disk(s) as u64, nd - 1 - s % nd, "{nd} disks, stripe {s}");
        }
    });
}

/// RAID-10: a block's mirror is its pair partner (`2i`/`2i+1`), on the
/// same row.
#[test]
fn raid10_mirror_is_the_pair_partner_on_the_same_row() {
    sweep("raid10_mirror_is_the_pair_partner_on_the_same_row", |n, k, bpd| {
        if (n * k) % 2 == 1 {
            return;
        }
        let l = Raid10::new(n * k, bpd);
        for lb in 0..l.capacity_blocks() {
            let (d, m) = (l.locate_data(lb), l.locate_images(lb)[0]);
            assert_eq!(m, BlockAddr::new(d.disk ^ 1, d.block), "{} disks, lb {lb}", n * k);
        }
    });
}

/// Chained declustering: disk `d`'s image lives on its right neighbour
/// `(d+1) mod N`, in the bottom half of the platter.
#[test]
fn chained_image_is_the_right_neighbour_in_the_bottom_half() {
    sweep("chained_image_is_the_right_neighbour_in_the_bottom_half", |n, k, bpd| {
        let l = ChainedDecluster::new(n * k, bpd);
        for lb in 0..l.capacity_blocks() {
            let (d, m) = (l.locate_data(lb), l.locate_images(lb)[0]);
            assert_eq!(m.disk, (d.disk + 1) % (n * k), "{} disks, lb {lb}", n * k);
            assert!(m.block >= bpd / 2, "{} disks, lb {lb}: image in the data half", n * k);
        }
    });
}

/// Every layout that fits the n×k shape `(n, k)` at 240 blocks per disk
/// (RAID-10 needs an even disk count), as `layout_for` builds it.
fn sweep_layouts(n: usize, k: usize) -> Vec<Box<dyn Layout>> {
    Arch::ALL
        .into_iter()
        .filter(|&a| a != Arch::Raid10 || (n * k).is_multiple_of(2))
        .map(|a| layout_for(a, n, k, 240))
        .collect()
}

/// `tolerates(F)` is exactly "no block reads `Lost`" under the derived
/// routing, for every fault set of at most three disks: an over-strict
/// predicate fails here as surely as an over-lax one.
#[test]
fn tolerates_agrees_with_derived_routing() {
    for (n, k) in SWEEP_SHAPES {
        for l in sweep_layouts(n, k) {
            let nd = l.ndisks();
            let mut sets = vec![vec![]];
            for a in 0..nd {
                sets.push(vec![a]);
                for b in a + 1..nd {
                    sets.push(vec![a, b]);
                    sets.extend((b + 1..nd).map(|c| vec![a, b, c]));
                }
            }
            for set in sets {
                let failed = FaultSet::of(&set);
                let readable = (0..l.capacity_blocks())
                    .all(|lb| l.read_source(lb, &failed) != ReadSource::Lost);
                assert_eq!(l.tolerates(&failed), readable, "{} {n}x{k}, failed {set:?}", l.name());
            }
        }
    }
}

/// `max_fault_coverage()` is the largest failure count some placement
/// survives, by exhaustive enumeration; any single failure is survived.
#[test]
fn max_fault_coverage_is_the_largest_survivable_count() {
    for (n, k) in SWEEP_SHAPES {
        for l in sweep_layouts(n, k) {
            assert_eq!(survival_probability(l.as_ref(), 1), 1.0, "{} {n}x{k}", l.name());
            let largest =
                (1..=l.ndisks()).rev().find(|&f| survival_probability(l.as_ref(), f) > 0.0);
            assert_eq!(Some(l.max_fault_coverage()), largest, "{} {n}x{k}", l.name());
        }
    }
}

/// Table 2's fault-coverage row at n = 8 disks (one row for RAID-x).
#[test]
fn fault_coverage_row_at_eight_disks() {
    let coverage: Vec<usize> =
        Arch::ALL.into_iter().map(|a| layout_for(a, 8, 1, 240).max_fault_coverage()).collect();
    // RAID-5, chained declustering, RAID-10, RAID-x.
    assert_eq!(coverage, [1, 4, 4, 1]);
}
