//! The static fault-set sweep: the data path checked against the
//! layouts' fault facts. For each shape and layout the whole array is
//! written once. Then every set of at most three disks goes offline
//! (`fail_disk_transient`), every block is read, and the set comes back
//! (`recover_disk_transient`). The contract:
//!
//! * a block reads its bytes or `DataLoss`, never other bytes;
//! * every block reads its bytes exactly when `Layout::tolerates` the set;
//! * the largest set that loses no block has `max_fault_coverage` disks,
//!   wherever that is at most three;
//! * nothing is written while a set is out, so nothing is parked, and
//!   each recovery is a no-op that loses nothing.

use cdd::{IoError, IoSystem};
use cluster::ClusterConfig;
use raidx_core::{Arch, FaultSet};
use sim_core::Plan;

/// `(nodes, disks per node)`: every disk count is even, so RAID-10 fits.
const SHAPES: [(usize, usize); 5] = [(4, 1), (8, 1), (4, 2), (4, 3), (12, 1)];
/// Small blocks on small disks keep whole-array reads cheap.
const BLOCK: u64 = 512;
/// The fewest whole RAID-x image groups a 12-disk row takes per half.
const BLOCKS_PER_DISK: u64 = 32;

/// Every set of at most three of `ndisks` disks, the empty one first.
fn fault_sets(ndisks: usize) -> Vec<Vec<usize>> {
    let mut sets = vec![vec![]];
    for a in 0..ndisks {
        sets.push(vec![a]);
        for b in a + 1..ndisks {
            sets.push(vec![a, b]);
            sets.extend((b + 1..ndisks).map(|c| vec![a, b, c]));
        }
    }
    sets
}

/// Read every block below `want.len() / BLOCK`, one range per run of
/// readable blocks, and check each against `want`. Returns whether every
/// block read its bytes.
fn read_all(sys: &mut IoSystem, want: &[u8], tag: &str) -> bool {
    let (bs, nblocks) = (BLOCK as usize, want.len() as u64 / BLOCK);
    let (mut pos, mut end, mut lost) = (0, nblocks, 0);
    while pos < nblocks {
        match sys.read(0, pos, end - pos) {
            Ok((got, _)) => {
                let at = pos as usize * bs..end as usize * bs;
                assert!(got == want[at], "{tag}: blocks {pos}..{end} read wrong bytes");
                (pos, end) = (end, nblocks);
            }
            Err(IoError::DataLoss { lb }) if lb == pos => {
                lost += 1;
                (pos, end) = (pos + 1, nblocks);
            }
            // Read up to the loss first, then the lost block alone.
            Err(IoError::DataLoss { lb }) if (pos..end).contains(&lb) => end = lb,
            Err(e) => panic!("{tag}: blocks {pos}..{end}: {e}"),
        }
    }
    lost == 0
}

fn sweep(arch: Arch, nodes: usize, disks_per_node: usize) {
    let mut cc = ClusterConfig::shape(nodes, disks_per_node);
    cc.block_size = BLOCK;
    cc.disk.capacity = BLOCK * BLOCKS_PER_DISK;
    let (_engine, mut sys) = cdd::testkit::build(cc, arch);
    let name = format!("{} {nodes}x{disks_per_node}", sys.layout().name());
    let want: Vec<u8> = (0..sys.layout().capacity_blocks() * BLOCK)
        .map(|i| ((i / BLOCK * 31 + i) % 251) as u8 + 1)
        .collect();
    sys.write(0, 0, &want).expect("write the whole array");
    let _ = sys.flush_images();

    let mut largest = 0;
    for set in fault_sets(sys.layout().ndisks()) {
        let tag = format!("{name}, out {set:?}");
        for &disk in &set {
            sys.fail_disk_transient(disk);
        }
        let readable = read_all(&mut sys, &want, &tag);
        assert_eq!(sys.layout().tolerates(&FaultSet::of(&set)), readable, "{tag}");
        if readable {
            largest = largest.max(set.len());
        }
        for &disk in &set {
            let out = sys.recover_disk_transient(0, disk).expect("recover");
            assert!(matches!(out.plan, Plan::Noop) && out.lost.is_none(), "{tag}: {out:?}");
        }
    }
    assert_eq!(largest, sys.layout().max_fault_coverage().min(3), "{name}");
}

#[test]
fn every_fault_set_of_up_to_three_disks_reads_as_the_layout_predicts() {
    for (nodes, disks_per_node) in SHAPES {
        for arch in Arch::ALL {
            sweep(arch, nodes, disks_per_node);
        }
    }
}
