//! End-to-end data-integrity tests of the single I/O space: bytes written
//! through any architecture must read back identically — through the
//! healthy path, the degraded path, and after rebuild.

use std::sync::Arc;

use cdd::{IoError, IoSystem};
use raidx_core::Arch;
use sim_core::Engine;

/// A small cluster so tests stay fast: 4 nodes x 1 disk, tiny disks
/// (4 MB -> 128 blocks).
fn sys(arch: Arch) -> (Engine, IoSystem) {
    cdd::testkit::shape(4, 1, 4 << 20, arch)
}

/// Deterministic test pattern: each block filled with bytes derived from
/// its logical number.
fn pattern(lb0: u64, nblocks: u64, bs: usize) -> Vec<u8> {
    let mut v = Vec::with_capacity(nblocks as usize * bs);
    for lb in lb0..lb0 + nblocks {
        for i in 0..bs {
            v.push(((lb * 131 + i as u64 * 7) % 251) as u8);
        }
    }
    v
}

#[test]
fn roundtrip_every_architecture() {
    for arch in Arch::ALL {
        let (mut e, mut s) = sys(arch);
        let bs = s.block_size() as usize;
        let data = pattern(3, 10, bs);
        let wp = s.write(0, 3, &data).unwrap();
        let (got, rp) = s.read(1, 3, 10).unwrap();
        assert_eq!(got, data, "{arch:?} roundtrip corrupted");
        // Both plans execute cleanly on the engine.
        e.spawn_job("w", wp);
        e.spawn_job("r", rp);
        e.run().unwrap();
    }
}

#[test]
fn roundtrip_unaligned_multi_stripe() {
    let (_e, mut s) = sys(Arch::RaidX);
    let bs = s.block_size() as usize;
    // Unaligned multi-stripe write then partial reads.
    let data = pattern(5, 7, bs);
    s.write(2, 5, &data).unwrap();
    let (got, _) = s.read(0, 6, 3).unwrap();
    assert_eq!(got, pattern(6, 3, bs));
}

#[test]
fn single_disk_failure_every_redundant_architecture() {
    for arch in [Arch::Raid5, Arch::Chained, Arch::Raid10, Arch::RaidX] {
        let (_e, mut s) = sys(arch);
        let bs = s.block_size() as usize;
        let data = pattern(0, 24, bs);
        s.write(0, 0, &data).unwrap();
        // Fail each disk in turn (fresh system each time would be slow;
        // rebuild restores before the next failure).
        for d in 0..4 {
            s.fail_disk(d);
            let (got, _) = s.read(1, 0, 24).unwrap();
            assert_eq!(got, data, "{arch:?}: data wrong with disk {d} failed");
            let out = s.rebuild_disk(0, d, None).unwrap();
            assert_eq!(out.lost, None, "{arch:?}: rebuild of {d} lost a block");
            assert!(out.restored + out.skipped > 0, "{arch:?}: rebuild of {d} restored nothing");
            let (got, _) = s.read(2, 0, 24).unwrap();
            assert_eq!(got, data, "{arch:?}: data wrong after rebuilding {d}");
        }
    }
}

#[test]
fn raidx_tolerates_one_failure_per_row() {
    // 4x3 array, 4 MB disks.
    let (_e, mut s) = cdd::testkit::shape(4, 3, 4 << 20, Arch::RaidX);
    let bs = s.block_size() as usize;
    let data = pattern(0, 36, bs);
    s.write(0, 0, &data).unwrap();
    // One failure in each of the three rows (disks 0..3 row 0, 4..7 row 1,
    // 8..11 row 2) — the paper's up-to-3-failures claim for the 4x3 array.
    s.fail_disk(1);
    s.fail_disk(6);
    s.fail_disk(11);
    let (got, _) = s.read(2, 0, 36).unwrap();
    assert_eq!(got, data);
    // A second failure in row 0 destroys data.
    s.fail_disk(2);
    let err = s.read(2, 0, 36);
    assert!(matches!(err, Err(IoError::DataLoss { .. })));
}

#[test]
fn raid5_reconstruction_is_real_xor() {
    let (_e, mut s) = sys(Arch::Raid5);
    let bs = s.block_size() as usize;
    let data = pattern(0, 9, bs); // three full 3-wide stripes
    s.write(0, 0, &data).unwrap();
    // Overwrite one block via the RMW path, then fail its disk: the
    // reconstruction must reflect the *new* contents.
    let newblk = vec![0x5A; bs];
    s.write(1, 4, &newblk).unwrap();
    let dead = s.layout().locate_data(4).disk;
    s.fail_disk(dead);
    let (got, _) = s.read(2, 4, 1).unwrap();
    assert_eq!(got, newblk);
}

#[test]
fn writes_update_images_functionally() {
    let (_e, mut s) = sys(Arch::RaidX);
    let bs = s.block_size() as usize;
    let data = pattern(0, 8, bs);
    s.write(0, 0, &data).unwrap();
    // Overwrite block 2; the background image must track it (the plane is
    // updated synchronously even though the timing is deferred).
    let newblk = vec![0x77; bs];
    s.write(0, 2, &newblk).unwrap();
    let dead = s.layout().locate_data(2).disk;
    s.fail_disk(dead);
    let (got, _) = s.read(1, 2, 1).unwrap();
    assert_eq!(got, newblk, "image out of date after overwrite");
}

#[test]
fn out_of_range_and_bad_length_rejected() {
    let (_e, mut s) = sys(Arch::RaidX);
    let cap = s.capacity_blocks();
    let bs = s.block_size() as usize;
    assert!(matches!(s.read(0, cap, 1), Err(IoError::OutOfRange { .. })));
    assert!(matches!(s.write(0, cap - 1, &vec![0u8; 2 * bs]), Err(IoError::OutOfRange { .. })));
    assert!(matches!(s.write(0, 0, &vec![0u8; bs / 2]), Err(IoError::BadLength { .. })));
    assert!(matches!(s.write(0, 0, &[]), Err(IoError::BadLength { .. })));
}

#[test]
fn degraded_raid5_writes_reconstruct_through_parity() {
    let (_e, mut s) = sys(Arch::Raid5);
    let bs = s.block_size() as usize;
    s.write(0, 0, &pattern(0, 6, bs)).unwrap();
    // Fail the disk holding block 0, then overwrite block 0: the new
    // contents exist only through parity, and a degraded read must
    // reconstruct them.
    let dead = s.layout().locate_data(0).disk;
    s.fail_disk(dead);
    let newblk = vec![0x3Fu8; bs];
    s.write(0, 0, &newblk).unwrap();
    let (got, _) = s.read(1, 0, 1).unwrap();
    assert_eq!(got, newblk, "reconstruct-write lost the update");
    // Writes whose parity disk died also succeed (data-only path), and
    // the data block remains directly readable.
    let p_dead = s.layout().locate_parity(9).unwrap().disk;
    if p_dead != dead {
        // Restore redundancy first so a second failure is tolerated.
        assert_eq!(s.rebuild_disk(0, dead, None).unwrap().lost, None);
        s.fail_disk(p_dead);
        let blk = vec![0x77u8; bs];
        s.write(0, 9, &blk).unwrap();
        let (got, _) = s.read(2, 9, 1).unwrap();
        assert_eq!(got, blk);
    }
    // After rebuilding everything, all data is intact and redundant again.
}

#[test]
fn degraded_mirror_write_keeps_surviving_copy_durable() {
    for arch in [Arch::Raid10, Arch::Chained, Arch::RaidX] {
        let (_e, mut s) = sys(arch);
        let bs = s.block_size() as usize;
        s.write(0, 0, &pattern(0, 8, bs)).unwrap();
        let dead = s.layout().locate_data(3).disk;
        s.fail_disk(dead);
        let newblk = vec![0x42; bs];
        s.write(0, 3, &newblk).unwrap();
        let (got, _) = s.read(1, 3, 1).unwrap();
        assert_eq!(got, newblk, "{arch:?}: degraded write lost");
        // And after rebuilding the dead disk, both copies agree.
        assert_eq!(s.rebuild_disk(0, dead, None).unwrap().lost, None);
        let (got, _) = s.read(1, 3, 1).unwrap();
        assert_eq!(got, newblk);
    }
}

#[test]
fn rebuild_restores_parity_too() {
    let (_e, mut s) = sys(Arch::Raid5);
    let bs = s.block_size() as usize;
    let data = pattern(0, 12, bs);
    s.write(0, 0, &data).unwrap();
    // Fail + rebuild a disk, then fail a *different* disk: reads must
    // still reconstruct, proving parity was restored on the spare.
    s.fail_disk(0);
    assert_eq!(s.rebuild_disk(0, 0, None).unwrap().lost, None);
    s.fail_disk(2);
    let (got, _) = s.read(1, 0, 12).unwrap();
    assert_eq!(got, data);
}

#[test]
fn lock_grants_counted_per_write() {
    let (_e, mut s) = sys(Arch::RaidX);
    let bs = s.block_size() as usize;
    s.write(0, 0, &pattern(0, 4, bs)).unwrap();
    s.write(1, 8, &pattern(8, 4, bs)).unwrap();
    assert_eq!(s.lock_grants(), 2);
    assert_eq!(s.high_water(), 12);

    // A write that fails inside its grant still releases it. Block 3
    // loses both copies, so client 0's write of [0, 4) is DataLoss — yet
    // client 1's overlapping write of a surviving block is not refused.
    let lost = [s.layout().locate_data(3).disk, s.layout().locate_images(3)[0].disk];
    lost.iter().for_each(|&d| s.fail_disk(d));
    assert!(matches!(s.write(0, 0, &pattern(0, 4, bs)), Err(IoError::DataLoss { .. })));
    assert_eq!(s.lock_grants(), 3, "the failed write was granted its group");
    let survivor = (0..3)
        .find(|&lb| {
            let l = s.layout();
            let mut copies = l.locate_images(lb);
            copies.push(l.locate_data(lb));
            copies.iter().any(|a| !lost.contains(&a.disk))
        })
        .expect("two failures cannot take every block of a 4-disk stripe");
    s.write(1, survivor, &pattern(survivor, 1, bs)).expect("failed write leaked its grant");
}

#[test]
fn unwritten_blocks_read_zero() {
    let (_e, mut s) = sys(Arch::Raid10);
    let bs = s.block_size() as usize;
    let (got, _) = s.read(0, 20, 2).unwrap();
    assert_eq!(got, vec![0u8; 2 * bs]);
}

#[test]
fn scrub_passes_after_arbitrary_activity() {
    for arch in [Arch::Raid5, Arch::Chained, Arch::Raid10, Arch::RaidX] {
        let (_e, mut s) = sys(arch);
        let bs = s.block_size() as usize;
        // Writes of various shapes, overwrites, a failure + rebuild cycle.
        s.write(0, 0, &pattern(0, 24, bs)).unwrap();
        s.write(1, 5, &pattern(100, 3, bs)).unwrap();
        s.write(2, 10, &vec![0xCC; bs]).unwrap();
        let audited = s.scrub().unwrap_or_else(|e| panic!("{arch:?} scrub: {e}"));
        assert!(audited > 0, "{arch:?}: nothing audited");
        s.fail_disk(1);
        assert_eq!(s.rebuild_disk(0, 1, None).unwrap().lost, None, "{arch:?}");
        let audited = s.scrub().unwrap_or_else(|e| panic!("{arch:?} post-rebuild scrub: {e}"));
        assert!(audited > 0);
    }
}

/// A mirrored write copies each of the caller's blocks once: the data
/// home and every image home hold the same buffer, not equal buffers.
#[test]
fn mirrored_write_stores_one_buffer_per_block() {
    for arch in [Arch::Raid10, Arch::Chained, Arch::RaidX] {
        let (_e, mut s) = sys(arch);
        let bs = s.block_size() as usize;
        s.write(0, 2, &pattern(2, 9, bs)).unwrap();
        for lb in 2..11 {
            let d = s.layout().locate_data(lb);
            let images = s.layout().locate_images(lb);
            assert!(!images.is_empty(), "{arch:?}: block {lb} has no image to share with");
            let data = s.plane_mut().get(d.disk, d.block).unwrap();
            assert_eq!(data[..], pattern(lb, 1, bs)[..], "{arch:?}: block {lb}");
            for img in images {
                let image = s.plane_mut().get(img.disk, img.block).unwrap();
                assert!(
                    Arc::ptr_eq(&data, &image),
                    "{arch:?}: block {lb} image on {img:?} is a copy"
                );
            }
        }
    }
}

/// Bit rot on either side of a mirror pair is caught. The healthy copies
/// share one buffer, so this also shows that scrub's pointer-equality
/// fast path falls through to the byte compare, and that replacing one
/// copy leaves the other exactly as written.
#[test]
fn scrub_detects_planted_corruption() {
    for arch in [Arch::Raid10, Arch::RaidX] {
        for rot_data_side in [false, true] {
            let tag = format!("{arch:?}, data side: {rot_data_side}");
            let (_e, mut s) = sys(arch);
            let bs = s.block_size() as usize;
            s.write(0, 0, &pattern(0, 8, bs)).unwrap();
            assert!(s.scrub().is_ok(), "{tag}");
            let (data, img) = (s.layout().locate_data(3), s.layout().locate_images(3)[0]);
            let (rotten, intact) = if rot_data_side { (data, img) } else { (img, data) };
            // Corrupt one copy directly on the plane.
            let mut raw = s.plane_mut().get(rotten.disk, rotten.block).unwrap().to_vec();
            raw[17] ^= 0xFF;
            s.plane_mut().write(rotten.disk, rotten.block, &raw).unwrap();
            assert!(matches!(s.scrub(), Err(IoError::DataLoss { lb: 3 })), "{tag}");
            let other = s.plane_mut().get(intact.disk, intact.block).unwrap();
            assert_eq!(
                other[..],
                pattern(3, 1, bs)[..],
                "{tag}: rot showed through the other copy"
            );
        }
    }
}

#[test]
fn scrub_detects_stale_parity() {
    let (_e, mut s) = sys(Arch::Raid5);
    let bs = s.block_size() as usize;
    s.write(0, 0, &pattern(0, 9, bs)).unwrap();
    assert!(s.scrub().is_ok());
    let p = s.layout().locate_parity(0).unwrap();
    let junk = vec![0xEE; bs];
    s.plane_mut().write(p.disk, p.block, &junk).unwrap();
    assert!(s.scrub().is_err());
}
