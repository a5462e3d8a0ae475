//! Degraded-read coverage: drive every [`ReadSource`] variant — Primary,
//! Image, Reconstruct and Lost — through the real read path on both the
//! mirrored layout (RAID-x) and the parity layout (RAID-5), checking that
//! the layer stack (frontend run coalescing -> balancer -> data plane)
//! routes each case correctly and that recovered bytes are exact.

use cdd::{IoError, IoSystem};
use raidx_core::{Arch, ReadSource};
use sim_core::Engine;

fn sys(arch: Arch) -> (Engine, IoSystem) {
    cdd::testkit::shape(4, 1, 4 << 20, arch)
}

fn pattern(nblocks: u64, bs: usize) -> Vec<u8> {
    (0..nblocks as usize * bs).map(|i| ((i * 37 + 11) % 251) as u8).collect()
}

#[test]
fn raidx_covers_primary_image_and_lost() {
    let (_e, mut s) = sys(Arch::RaidX);
    let bs = s.block_size() as usize;
    let data = pattern(8, bs);
    s.write(0, 0, &data).unwrap();
    s.flush_images(); // images durable so Image reads can serve

    // Healthy: every block reads from its primary copy.
    assert!(matches!(s.layout().read_source(0, s.faults()), ReadSource::Primary(_)));
    let (got, _) = s.read(1, 0, 8).unwrap();
    assert_eq!(got, data);

    // Fail block 0's primary disk: the layout must fail over to the image.
    let primary = s.layout().locate_data(0).disk;
    s.fail_disk(primary);
    match s.layout().read_source(0, s.faults()) {
        ReadSource::Image(img) => assert_ne!(img.disk, primary),
        other => panic!("expected Image, got {other:?}"),
    }
    let (got, _) = s.read(1, 0, 8).unwrap();
    assert_eq!(got, data, "degraded RAID-x read returned wrong bytes");

    // Fail the image disk too: both copies gone -> Lost, and the read
    // path surfaces it as DataLoss naming the block.
    let image = s.layout().locate_images(0)[0].disk;
    s.fail_disk(image);
    assert!(matches!(s.layout().read_source(0, s.faults()), ReadSource::Lost));
    match s.read(1, 0, 1) {
        Err(IoError::DataLoss { lb }) => assert_eq!(lb, 0),
        other => panic!("expected DataLoss, got {other:?}"),
    }
}

#[test]
fn raid5_covers_primary_reconstruct_and_lost() {
    let (_e, mut s) = sys(Arch::Raid5);
    let bs = s.block_size() as usize;
    let stripe = s.layout().stripe_width();
    let data = pattern(stripe as u64, bs);
    s.write(0, 0, &data).unwrap();

    assert!(matches!(s.layout().read_source(0, s.faults()), ReadSource::Primary(_)));

    // Fail block 0's data disk: RAID-5 reconstructs from siblings + parity.
    let dead = s.layout().locate_data(0).disk;
    s.fail_disk(dead);
    match s.layout().read_source(0, s.faults()) {
        ReadSource::Reconstruct { siblings, parity } => {
            assert!(!siblings.is_empty());
            assert_ne!(parity.disk, dead);
            for (_, addr) in &siblings {
                assert_ne!(addr.disk, dead, "sibling on the failed disk");
            }
        }
        other => panic!("expected Reconstruct, got {other:?}"),
    }
    let (got, _) = s.read(1, 0, stripe as u64).unwrap();
    assert_eq!(got, data, "parity reconstruction returned wrong bytes");

    // A second failure exceeds RAID-5's tolerance: some stripe member is
    // unrecoverable and the read path reports data loss.
    let second =
        (0..s.cluster().disks.len()).find(|&d| d != dead && !s.faults().contains(d)).unwrap();
    s.fail_disk(second);
    let lost = (0..s.capacity_blocks())
        .find(|&lb| matches!(s.layout().read_source(lb, s.faults()), ReadSource::Lost))
        .expect("double failure should lose some block");
    assert!(matches!(s.read(1, lost, 1), Err(IoError::DataLoss { lb }) if lb == lost));
}

/// The four variants enumerate the complete degraded-read decision tree;
/// sweep every block under a single failure and check nothing falls
/// outside it (and that RAID-x never needs Reconstruct — the paper's
/// point that mirrored recovery is a copy, not a computation).
#[test]
fn single_failure_decision_tree_is_total() {
    for arch in [Arch::RaidX, Arch::Raid5] {
        let (_e, mut s) = sys(arch);
        let bs = s.block_size() as usize;
        let data = pattern(16, bs);
        s.write(0, 0, &data).unwrap();
        s.flush_images();
        s.fail_disk(0);
        for lb in 0..16u64 {
            match s.layout().read_source(lb, s.faults()) {
                ReadSource::Primary(addr) => assert!(!s.faults().contains(addr.disk)),
                ReadSource::Image(addr) => {
                    assert_eq!(arch, Arch::RaidX, "only RAID-x mirrors here");
                    assert!(!s.faults().contains(addr.disk));
                }
                ReadSource::Reconstruct { .. } => {
                    assert_eq!(arch, Arch::Raid5, "only RAID-5 reconstructs");
                }
                ReadSource::Lost => panic!("{arch:?} lost lb {lb} on a single failure"),
            }
        }
        let (got, _) = s.read(1, 0, 16).unwrap();
        assert_eq!(got, data, "{arch:?} degraded sweep returned wrong bytes");
    }
}
