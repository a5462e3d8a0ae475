//! `IoError` reachability: every variant, produced through the public
//! API — `BlockStore` and `IoSystem` calls and `FaultInjector` events —
//! one table row each.
//!
//! There is no row for a lock conflict because there is no such variant:
//! `IoSystem::with_grant` is the only grant path, it starts on an empty
//! lock table and releases its grant before it returns, so no sequence of
//! calls can make an acquisition conflict.

use cdd::testkit::shape_with;
use cdd::{BlockStore, CddConfig, FaultEvent, FaultInjector, IoError, IoSystem};
use raidx_core::Arch;
use sim_core::{Engine, FaultPlan};

/// Which variant `e` is. The match is exhaustive, so a new variant does
/// not compile until it is named here; name it together with a row of
/// [`ROWS`] that produces it.
fn variant(e: &IoError) -> &'static str {
    match e {
        IoError::OutOfRange { .. } => "OutOfRange",
        IoError::BadLength { .. } => "BadLength",
        IoError::DataLoss { .. } => "DataLoss",
        IoError::Unreachable { .. } => "Unreachable",
        IoError::StaleEpoch { .. } => "StaleEpoch",
        IoError::Disk(_) => "Disk",
    }
}

/// A 4-node RAID-x array under `cfg` holding one written block whose
/// data copy is on disk 3; returns that block too.
fn seeded(cfg: CddConfig) -> (Engine, IoSystem, u64) {
    let (engine, mut sys) = shape_with(4, 1, 8 << 20, Arch::RaidX, cfg);
    let lb = (0..64).find(|&lb| sys.layout().locate_data(lb).disk == 3).expect("a block on disk 3");
    let block = vec![7; sys.block_size() as usize];
    BlockStore::write(&mut sys, 0, lb, &block).expect("healthy write");
    (engine, sys, lb)
}

/// Fire `events` as the faults scheduled for op 0.
fn inject(engine: &mut Engine, sys: &mut IoSystem, events: Vec<FaultEvent>) {
    let n = events.len();
    let mut plan = FaultPlan::new();
    for ev in events {
        plan.at_op(0, ev);
    }
    let fired = FaultInjector::new(plan).hit_op(0, engine, sys).expect("faults apply");
    assert_eq!(fired, n);
}

/// Runs a call sequence and returns the error it ended in, if any.
type Produce = fn() -> Option<IoError>;

/// `(variant, how it is produced)`.
const ROWS: [(&str, Produce); 6] = [
    // A read of the first block past the end.
    ("OutOfRange", || {
        let (_engine, mut sys, _) = seeded(CddConfig::default());
        let cap = sys.capacity_blocks();
        BlockStore::read(&mut sys, 0, cap, 1).err()
    }),
    // A write of less than one block.
    ("BadLength", || {
        let (_engine, mut sys, _) = seeded(CddConfig::default());
        BlockStore::write(&mut sys, 0, 0, &[0; 3]).err()
    }),
    // Both copies of the block fail permanently.
    ("DataLoss", || {
        let (mut engine, mut sys, lb) = seeded(CddConfig::default());
        let mut disks = vec![sys.layout().locate_data(lb).disk];
        disks.extend(sys.layout().locate_images(lb).iter().map(|a| a.disk));
        let events = disks.into_iter().map(|disk| FaultEvent::DiskFail { disk }).collect();
        inject(&mut engine, &mut sys, events);
        BlockStore::read(&mut sys, 0, lb, 1).err()
    }),
    // The primary's node is cut off and retries are disabled.
    ("Unreachable", || {
        let (mut engine, mut sys, lb) =
            seeded(CddConfig { max_retries: 0, ..CddConfig::default() });
        inject(&mut engine, &mut sys, vec![FaultEvent::NicPartition { node: 3 }]);
        BlockStore::read(&mut sys, 0, lb, 1).err()
    }),
    // A disk replacement moves the epoch between admission and execution.
    ("StaleEpoch", || {
        let (mut engine, mut sys, lb) = seeded(CddConfig::default());
        let block = vec![8; sys.block_size() as usize];
        let adm = sys.admit_write(lb, block.len()).expect("admit");
        inject(&mut engine, &mut sys, vec![FaultEvent::DiskReplace { disk: 1, client: 0 }]);
        sys.write_admitted(0, adm, &block).err()
    }),
    // The functional plane fails a disk the system still counts healthy.
    // Only `IoSystem::plane_mut`, the plane handed out for tests, can
    // make the two disagree: every fault event updates both.
    ("Disk", || {
        let (_engine, mut sys, lb) = seeded(CddConfig::default());
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
