//! `IoError` reachability: every variant, produced through the public
//! API — `BlockStore` and `IoSystem` calls and `FaultInjector` events —
//! one table row each.
//!
//! There is no row for a lock conflict because there is no such variant:
//! `IoSystem::with_grant` is the only grant path, it asserts that no
//! grant is live and releases its own before it returns, so no sequence
//! of calls can make an acquisition conflict.

use cdd::testkit::shape;
use cdd::{BlockStore, FaultEvent, FaultInjector, IoError, IoSystem};
use raidx_core::Arch;
use sim_core::Engine;

/// Which variant `e` is. The match is exhaustive, so a new variant does
/// not compile until it is named here; name it together with a row of
/// [`ROWS`] that produces it.
fn variant(e: &IoError) -> &'static str {
    match e {
        IoError::OutOfRange { .. } => "OutOfRange",
        IoError::BadLength { .. } => "BadLength",
        IoError::DataLoss { .. } => "DataLoss",
        IoError::Unreachable { .. } => "Unreachable",
        IoError::Disk(_) => "Disk",
    }
}

/// A 4-node RAID-x array (one disk per node) holding one written block
/// whose data copy is on disk 3; returns that block too.
fn seeded() -> (Engine, IoSystem, u64) {
    let (engine, mut sys) = shape(4, 1, 8 << 20, Arch::RaidX);
    let lb = (0..64).find(|&lb| sys.layout().locate_data(lb).disk == 3).expect("a block on disk 3");
    let block = vec![7; sys.block_size() as usize];
    BlockStore::write(&mut sys, 0, lb, &block).expect("healthy write");
    (engine, sys, lb)
}

/// Fire `events` as the faults scheduled for op 0.
fn inject(engine: &mut Engine, sys: &mut IoSystem, events: Vec<FaultEvent>) {
    let n = events.len();
    let mut inj = FaultInjector::new();
    for ev in events {
        inj.at_op(0, ev);
    }
    let fired = inj.hit_op(0, engine, sys).expect("faults apply");
    assert_eq!(fired, n);
}

/// Runs a call sequence and returns the error it ended in, if any.
type Produce = fn() -> Option<IoError>;

/// `(variant, how it is produced)`.
const ROWS: [(&str, Produce); 5] = [
    // A read of the first block past the end.
    ("OutOfRange", || {
        let (_engine, mut sys, _) = seeded();
        let cap = sys.capacity_blocks();
        BlockStore::read(&mut sys, 0, cap, 1).err()
    }),
    // A write of less than one block.
    ("BadLength", || {
        let (_engine, mut sys, _) = seeded();
        BlockStore::write(&mut sys, 0, 0, &[0; 3]).err()
    }),
    // Both copies of the block fail permanently.
    ("DataLoss", || {
        let (mut engine, mut sys, lb) = seeded();
        let mut disks = vec![sys.layout().locate_data(lb).disk];
        disks.extend(sys.layout().locate_images(lb).iter().map(|a| a.disk));
        let events = disks.into_iter().map(|disk| FaultEvent::DiskFail { disk }).collect();
        inject(&mut engine, &mut sys, events);
        BlockStore::read(&mut sys, 0, lb, 1).err()
    }),
    // Every node holding a copy is cut off, and a node holding none
    // reads the block.
    ("Unreachable", || {
        let (mut engine, mut sys, lb) = seeded();
        let mut nodes = vec![3];
        nodes.extend(sys.layout().locate_images(lb).iter().map(|a| a.disk));
        let client = (0..4).find(|n| !nodes.contains(n)).expect("a node holding no copy");
        let events = nodes.into_iter().map(|node| FaultEvent::NicPartition { node }).collect();
        inject(&mut engine, &mut sys, events);
        BlockStore::read(&mut sys, client, lb, 1).err()
    }),
    // The functional plane fails a disk the system still counts healthy.
    // Only `IoSystem::plane_mut`, the plane handed out for tests, can
    // make the two disagree: every fault event updates both.
    ("Disk", || {
        let (_engine, mut sys, lb) = seeded();
        sys.plane_mut().fail(3);
        BlockStore::read(&mut sys, 0, lb, 1).err()
    }),
];

#[test]
fn every_io_error_variant_is_reachable() {
    for (name, produce) in ROWS {
        let err = produce().unwrap_or_else(|| panic!("{name}: the call succeeded"));
        assert_eq!(variant(&err), name, "{err}");
    }
}
