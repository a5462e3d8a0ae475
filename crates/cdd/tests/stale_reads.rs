//! A second failure during recovery loses blocks; it must never serve
//! stale ones. Disk 1 goes offline and misses an overwrite, then disk 2
//! fails for good before disk 1 is resynced: every block whose only fresh
//! copy lived on disk 2 is gone. Each read, before and after the rebuild
//! and resync that follow, returns the bytes last written or
//! `DataLoss` — never the bytes disk 1 kept from before the overwrite —
//! and the loss stays reported until the block is written again. A repair
//! that loses a block still charges the I/O of the copies it restored.
//!
//! A mirror image still buffered in the OSM write-behind queue is no copy
//! either: when its writer crashes, the block's primary is the only one.

use cdd::testkit::shape;
use cdd::{FaultEvent, FaultInjector, IoError, IoSystem, RestoreOutcome};
use raidx_core::Arch;
use sim_core::{Engine, SimDuration};

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

/// Run a repair's plan to completion; returns the first block it lost.
fn settle(engine: &mut Engine, outcome: RestoreOutcome) -> Option<u64> {
    engine.spawn_job("repair", outcome.plan);
    engine.run().expect("the repair plan runs to completion");
    outcome.lost
}

fn second_failure_during_recovery(arch: Arch) -> Vec<u64> {
    let tag = format!("{arch:?}");
    let (mut engine, mut sys) = shape(4, 1, 8 << 20, arch);
    let loses = arch != Arch::Raid10;
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
    // 3. Disk 2 dies before disk 1 is resynced. Disk 1's recovery, fired
    //    as a fault event, spawns the plan of what it restored before it
    //    reports the loss.
    sys.fail_disk(2);
    let mut recovery = FaultInjector::new();
    recovery.at_op(0, FaultEvent::DiskRecover { disk: 1, client: 0 });
    let fired = recovery.hit_op(0, &mut engine, &mut sys);
    assert_eq!(matches!(fired, Err(IoError::DataLoss { .. })), loses, "{tag}: {fired:?}");
    engine.run().expect("recovery timing");
    let jobs = engine.jobs().iter().filter(|j| j.label == "recovery/disk1").count();
    assert_eq!(jobs, 1, "{tag}: the recovery spawned no job");
    // RAID-5's four-disk stripes all cross disk 2: disk 1 restores nothing.
    let busy = engine.resource_stats(sys.cluster().disks[1].res).busy;
    assert_eq!(busy > SimDuration::ZERO, arch != Arch::Raid5, "{tag}: disk 1 busy {busy:?}");
    // 4. Degraded reads.
    let lost_degraded = read_all(&mut sys, &want, &format!("{tag} degraded"));
    // 5. Full repair, then every block again: a lost block stays lost.
    //    The rebuild that loses blocks restores the rest, and its plan runs.
    let rebuild = sys.rebuild_disk(0, 2, None).expect("rebuild disk 2");
    assert!(rebuild.restored > 0, "{tag}: the rebuild restored nothing");
    let lost_rebuild = settle(&mut engine, rebuild);
    let lost_resync = settle(&mut engine, sys.resync_parked(0, 1).expect("resync disk 1"));
    assert_eq!((lost_rebuild.is_some(), lost_resync.is_some()), (loses, loses), "{tag}");
    assert!(sys.faults().is_empty() && sys.offline_disks().is_empty(), "{tag}: disks rejoin");
    let lost = read_all(&mut sys, &want, &format!("{tag} repaired"));
    assert_eq!(lost, lost_degraded, "{tag}: repair neither loses nor revives a block");
    assert_eq!(lost_resync, lost.first().copied(), "{tag}: the resync names the first loss");
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

/// A crashed writer's buffered mirror images die with it. On RAID-x 4×1
/// client 0 writes block 1 (data on disk 1, image on disk 3, its group
/// partial so the image stays queued) and crashes; then disk 1 fails.
/// No plan ever wrote the image, so block 1 has no copy left: it reads
/// `DataLoss` — also after node 0 restarts — until it is written again.
#[test]
fn a_crashed_writers_buffered_image_is_no_copy() {
    let (mut engine, mut sys) = shape(4, 1, 8 << 20, Arch::RaidX);
    let bs = sys.block_size() as usize;
    let layout = sys.layout();
    assert_eq!(layout.locate_data(1).disk, 1);
    assert_eq!(layout.locate_images(1).iter().map(|a| a.disk).collect::<Vec<_>>(), vec![3]);
    let plan = sys.write(0, 1, &vec![0x91; bs]).expect("write");
    engine.spawn_job("write", plan);
    engine.run().expect("write timing");
    assert_eq!(sys.pending_image_blocks(), 1, "the image must still be buffered");

    sys.crash_node(0);
    sys.fail_disk(1);
    let block_1 = |sys: &mut IoSystem| sys.read(3, 1, 1).map(|(got, _)| got[0]);
    let read = block_1(&mut sys);
    assert!(matches!(read, Err(IoError::DataLoss { lb: 1 })), "block 1 read {read:?}");
    assert_eq!(sys.parked_blocks(3), 1, "the unflushed image is parked against its disk");

    let mut restart = FaultInjector::new();
    restart.at_op(0, FaultEvent::NodeRestart { node: 0, client: 0 });
    restart.hit_op(0, &mut engine, &mut sys).expect("restart node 0");
    engine.run().expect("restart timing");
    let read = block_1(&mut sys);
    assert!(matches!(read, Err(IoError::DataLoss { lb: 1 })), "after restart: {read:?}");

    sys.write(2, 1, &vec![0x5A; bs]).expect("rewrite");
    assert_eq!(block_1(&mut sys).expect("a rewritten block reads"), 0x5A);
}
