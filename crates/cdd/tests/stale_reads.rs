//! A second failure during recovery loses blocks; it must never serve
//! stale ones. Disk 1 goes offline and misses an overwrite, then disk 2
//! fails for good before disk 1 is resynced: every block whose only fresh
//! copy lived on disk 2 is gone. Each read, before and after the rebuild
//! and resync that follow, returns the bytes last written or
//! `DataLoss` — never the bytes disk 1 kept from before the overwrite —
//! and the loss stays reported until the block is written again.

use cdd::testkit::shape;
use cdd::{IoError, IoSystem};
use raidx_core::Arch;

const BLOCKS: u64 = 24;
const OVERWRITTEN: u64 = 16;

/// Read every block on its own (one lost block must not hide the rest)
/// and check it against `want`. Returns the blocks that read `DataLoss`.
fn read_all(sys: &mut IoSystem, want: &[u8], tag: &str) -> Vec<u64> {
    let bs = sys.block_size() as usize;
    let mut lost = Vec::new();
    for lb in 0..BLOCKS {
        match sys.read(3, lb, 1) {
            Ok((got, _)) => {
                let expected = want[lb as usize];
                assert!(
                    got.iter().all(|&b| b == expected),
                    "{tag}: block {lb} read {:#04x}, last written {expected:#04x}",
                    got[0]
                );
                assert_eq!(got.len(), bs);
            }
            Err(IoError::DataLoss { lb: at }) => {
                assert_eq!(at, lb, "{tag}: the loss must name the block read");
                lost.push(lb);
            }
            Err(e) => panic!("{tag}: block {lb}: {e}"),
        }
    }
    lost
}

/// `Ok`, or the `DataLoss` a second failure makes legitimate.
fn ok_or_loss<T>(r: Result<T, IoError>, tag: &str) {
    match r {
        Ok(_) | Err(IoError::DataLoss { .. }) => {}
        Err(e) => panic!("{tag}: {e}"),
    }
}

fn second_failure_during_recovery(arch: Arch) -> Vec<u64> {
    let tag = format!("{arch:?}");
    let (_engine, mut sys) = shape(4, 1, 8 << 20, arch);
    let bs = sys.block_size() as usize;
    let mut want = vec![0x42u8; BLOCKS as usize];

    // 1. A healthy seed, images flushed.
    sys.write(0, 0, &vec![0x42; BLOCKS as usize * bs]).expect("seed");
    let _ = sys.flush_images();
    // 2. Disk 1 misses an overwrite of a prefix.
    sys.fail_disk_transient(1);
    sys.write(0, 0, &vec![0x91; OVERWRITTEN as usize * bs]).expect("degraded overwrite");
    want[..OVERWRITTEN as usize].fill(0x91);
    let _ = sys.flush_images();
    // 3. Disk 2 dies before disk 1 is resynced.
    sys.fail_disk(2);
    ok_or_loss(sys.recover_disk_transient(0, 1), &format!("{tag}: recover disk 1"));
    // 4. Degraded reads.
    let lost_degraded = read_all(&mut sys, &want, &format!("{tag} degraded"));
    // 5. Full repair, then every block again: a lost block stays lost.
    ok_or_loss(sys.rebuild_disk(0, 2), &format!("{tag}: rebuild disk 2"));
    ok_or_loss(sys.resync_parked(0, 1), &format!("{tag}: resync disk 1"));
    assert!(sys.faults().is_empty() && sys.offline_disks().is_empty(), "{tag}: disks rejoin");
    let lost = read_all(&mut sys, &want, &format!("{tag} repaired"));
    assert_eq!(lost, lost_degraded, "{tag}: repair neither loses nor revives a block");
    // 6. Writing a lost block makes it whole again.
    for &lb in &lost {
        sys.write(1, lb, &vec![0x5A; bs]).expect("overwrite a lost block");
        want[lb as usize] = 0x5A;
        let (got, _) = sys.read(2, lb, 1).expect("a rewritten block reads");
        assert!(got.iter().all(|&b| b == 0x5A), "{tag}: block {lb} after rewrite");
    }
    assert!(read_all(&mut sys, &want, &format!("{tag} rewritten")).is_empty());
    assert_eq!(sys.parked_total(), 0, "{tag}: rewriting every lost block empties the ledger");
    sys.scrub().unwrap_or_else(|e| panic!("{tag}: scrub: {e}"));
    lost
}

#[test]
fn a_second_failure_during_recovery_loses_blocks_and_serves_no_stale_ones() {
    for arch in [Arch::Raid5, Arch::Chained, Arch::Raid10, Arch::RaidX] {
        let lost = second_failure_during_recovery(arch);
        // RAID-10's disk 1 and disk 2 mirror different pairs, so nothing
        // of it depends on both; every other layout loses some block.
        assert_eq!(lost.is_empty(), arch == Arch::Raid10, "{arch:?} lost {lost:?}");
    }
}
