//! The functional data plane: in-memory virtual disks.
//!
//! Every RAID engine in this workspace executes requests twice over: once
//! against the timing model (a [`sim_core::Plan`]) and once against this
//! plane, which actually moves bytes. That lets the test-suite verify data
//! integrity through striping, mirroring, parity reconstruction and
//! rebuild — not just timing.

use std::collections::HashMap;

/// Error from a functional disk operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DiskError {
    /// The target disk has failed; its contents are gone.
    Failed {
        /// Failed disk index.
        disk: usize,
    },
    /// Block index beyond the disk's capacity.
    OutOfRange {
        /// Target disk.
        disk: usize,
        /// Requested block.
        block: u64,
        /// Disk capacity in blocks.
        capacity: u64,
    },
    /// Buffer length didn't match the block size.
    BadLength {
        /// Required buffer length (the block size).
        expected: usize,
        /// Length actually supplied.
        got: usize,
    },
    /// The disk is transiently offline (power glitch, pulled cable): it
    /// rejects I/O but its contents survive and return on recovery —
    /// the paper's *transient* failure class, distinct from
    /// [`DiskError::Failed`] where the media is gone.
    Offline {
        /// Offline disk index.
        disk: usize,
    },
}

impl std::fmt::Display for DiskError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DiskError::Failed { disk } => write!(f, "disk {disk} has failed"),
            DiskError::OutOfRange { disk, block, capacity } => {
                write!(f, "block {block} beyond capacity {capacity} of disk {disk}")
            }
            DiskError::BadLength { expected, got } => {
                write!(f, "buffer of {got} bytes, block size is {expected}")
            }
            DiskError::Offline { disk } => write!(f, "disk {disk} is transiently offline"),
        }
    }
}
impl std::error::Error for DiskError {}

struct SparseDisk {
    blocks: HashMap<u64, Box<[u8]>>,
    failed: bool,
    /// Transient outage: I/O rejected, contents retained.
    offline: bool,
}

/// The in-memory contents of every disk in the single I/O space.
///
/// Blocks never written read back as zeroes (like a freshly formatted
/// drive). Failing a disk drops its contents — recovery code must
/// reconstruct them from redundancy, exactly as on real hardware.
pub struct DataPlane {
    block_size: usize,
    capacity_blocks: u64,
    disks: Vec<SparseDisk>,
    bytes_written: u64,
    bytes_read: u64,
}

impl DataPlane {
    /// A plane of `ndisks` disks of `capacity_blocks` blocks of
    /// `block_size` bytes.
    pub fn new(ndisks: usize, block_size: usize, capacity_blocks: u64) -> Self {
        assert!(block_size > 0 && capacity_blocks > 0);
        DataPlane {
            block_size,
            capacity_blocks,
            disks: (0..ndisks)
                .map(|_| SparseDisk { blocks: HashMap::new(), failed: false, offline: false })
                .collect(),
            bytes_written: 0,
            bytes_read: 0,
        }
    }

    /// Block size in bytes.
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Number of disks.
    pub fn ndisks(&self) -> usize {
        self.disks.len()
    }

    /// Capacity of each disk in blocks.
    pub fn capacity_blocks(&self) -> u64 {
        self.capacity_blocks
    }

    /// Total payload bytes written so far (diagnostics).
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    /// Total payload bytes read so far (diagnostics).
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read
    }

    fn check(&self, disk: usize, block: u64) -> Result<(), DiskError> {
        let d = &self.disks[disk];
        if d.failed {
            return Err(DiskError::Failed { disk });
        }
        if d.offline {
            return Err(DiskError::Offline { disk });
        }
        if block >= self.capacity_blocks {
            return Err(DiskError::OutOfRange { disk, block, capacity: self.capacity_blocks });
        }
        Ok(())
    }

    /// Write one block.
    pub fn write(&mut self, disk: usize, block: u64, data: &[u8]) -> Result<(), DiskError> {
        if data.len() != self.block_size {
            return Err(DiskError::BadLength { expected: self.block_size, got: data.len() });
        }
        self.check(disk, block)?;
        self.disks[disk].blocks.insert(block, data.into());
        self.bytes_written += data.len() as u64;
        Ok(())
    }

    /// Read one block into `out` (zeroes if never written).
    pub fn read(&mut self, disk: usize, block: u64, out: &mut [u8]) -> Result<(), DiskError> {
        if out.len() != self.block_size {
            return Err(DiskError::BadLength { expected: self.block_size, got: out.len() });
        }
        self.check(disk, block)?;
        match self.disks[disk].blocks.get(&block) {
            Some(b) => out.copy_from_slice(b),
            None => out.fill(0),
        }
        self.bytes_read += out.len() as u64;
        Ok(())
    }

    /// Read one block, allocating. Convenience for tests and recovery code.
    pub fn read_owned(&mut self, disk: usize, block: u64) -> Result<Vec<u8>, DiskError> {
        let mut v = vec![0u8; self.block_size];
        self.read(disk, block, &mut v)?;
        Ok(v)
    }

    /// Fail a disk: its contents are irrecoverably lost.
    pub fn fail(&mut self, disk: usize) {
        let d = &mut self.disks[disk];
        d.failed = true;
        d.offline = false;
        d.blocks.clear();
    }

    /// Replace a failed disk with a blank healthy one.
    pub fn replace(&mut self, disk: usize) {
        let d = &mut self.disks[disk];
        d.failed = false;
        d.offline = false;
        d.blocks.clear();
    }

    /// Take a disk transiently offline (`true`) or bring it back
    /// (`false`). Offline disks reject I/O like failed ones, but their
    /// contents are *retained* and readable again after recovery — only
    /// writes that happened during the outage are missing, which is
    /// exactly what the CDD's parked-block resync repairs.
    pub fn set_offline(&mut self, disk: usize, offline: bool) {
        assert!(!self.disks[disk].failed, "a failed disk cannot change offline state");
        self.disks[disk].offline = offline;
    }

    /// True if the disk is transiently offline.
    pub fn is_offline(&self, disk: usize) -> bool {
        self.disks[disk].offline
    }

    /// True if the disk is currently failed.
    pub fn is_failed(&self, disk: usize) -> bool {
        self.disks[disk].failed
    }

    /// Indices of currently failed disks.
    pub fn failed_disks(&self) -> Vec<usize> {
        self.disks.iter().enumerate().filter_map(|(i, d)| d.failed.then_some(i)).collect()
    }

    /// Hot-add a blank healthy disk (same block size and capacity as the
    /// rest of the plane) and return its index. Supports epoch-versioned
    /// membership changes: the new disk joins as a spare and holds no
    /// data until a migration copies blocks onto it.
    pub fn add_disk(&mut self) -> usize {
        self.disks.push(SparseDisk { blocks: HashMap::new(), failed: false, offline: false });
        self.disks.len() - 1
    }

    /// Sorted indices of the blocks that currently hold written data on
    /// `disk`. This is the pending-migration seed when a slot moves off
    /// the disk: only blocks that were ever written need copying. Sorted
    /// so iteration over the sparse store stays deterministic.
    pub fn written_blocks(&self, disk: usize) -> Vec<u64> {
        #[expect(
            clippy::disallowed_methods,
            reason = "sorted immediately below before anything observes it."
        )]
        let mut v: Vec<u64> = self.disks[disk].blocks.keys().copied().collect();
        v.sort_unstable();
        v
    }
}

/// XOR `src` into `acc` (parity accumulation). Lengths must match.
pub fn xor_into(acc: &mut [u8], src: &[u8]) {
    assert_eq!(acc.len(), src.len());
    for (a, s) in acc.iter_mut().zip(src) {
        *a ^= s;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BS: usize = 64;

    fn plane() -> DataPlane {
        DataPlane::new(4, BS, 128)
    }

    fn block(tag: u8) -> Vec<u8> {
        vec![tag; BS]
    }

    #[test]
    fn write_read_roundtrip() {
        let mut p = plane();
        p.write(2, 7, &block(0xAB)).unwrap();
        assert_eq!(p.read_owned(2, 7).unwrap(), block(0xAB));
    }

    #[test]
    fn unwritten_blocks_are_zero() {
        let mut p = plane();
        assert_eq!(p.read_owned(0, 0).unwrap(), block(0));
    }

    #[test]
    fn failure_loses_data_and_rejects_io() {
        let mut p = plane();
        p.write(1, 3, &block(9)).unwrap();
        p.fail(1);
        assert_eq!(p.read(1, 3, &mut block(0)).unwrap_err(), DiskError::Failed { disk: 1 });
        assert_eq!(p.write(1, 3, &block(9)).unwrap_err(), DiskError::Failed { disk: 1 });
        assert_eq!(p.failed_disks(), vec![1]);
        // After replacement the disk is healthy but blank.
        p.replace(1);
        assert_eq!(p.read_owned(1, 3).unwrap(), block(0));
        assert!(p.failed_disks().is_empty());
    }

    #[test]
    fn offline_rejects_io_but_retains_contents() {
        let mut p = plane();
        p.write(2, 5, &block(0x5A)).unwrap();
        p.set_offline(2, true);
        assert!(p.is_offline(2));
        assert!(!p.is_failed(2));
        assert_eq!(p.read(2, 5, &mut block(0)).unwrap_err(), DiskError::Offline { disk: 2 });
        assert_eq!(p.write(2, 5, &block(1)).unwrap_err(), DiskError::Offline { disk: 2 });
        // Recovery: the pre-outage contents are still there.
        p.set_offline(2, false);
        assert_eq!(p.read_owned(2, 5).unwrap(), block(0x5A));
    }

    #[test]
    fn failing_an_offline_disk_escalates_to_permanent() {
        let mut p = plane();
        p.write(1, 0, &block(7)).unwrap();
        p.set_offline(1, true);
        p.fail(1);
        assert!(p.is_failed(1) && !p.is_offline(1));
        assert_eq!(p.read(1, 0, &mut block(0)).unwrap_err(), DiskError::Failed { disk: 1 });
        p.replace(1);
        assert!(!p.is_offline(1));
        assert_eq!(p.read_owned(1, 0).unwrap(), block(0), "replacement disk is blank");
    }

    #[test]
    fn capacity_enforced() {
        let mut p = plane();
        assert!(matches!(
            p.write(0, 128, &block(1)),
            Err(DiskError::OutOfRange { block: 128, .. })
        ));
        assert!(p.write(0, 127, &block(1)).is_ok());
    }

    #[test]
    fn length_enforced() {
        let mut p = plane();
        assert!(matches!(
            p.write(0, 0, &[0u8; 3]),
            Err(DiskError::BadLength { expected: BS, got: 3 })
        ));
        let mut short = [0u8; 3];
        assert!(matches!(p.read(0, 0, &mut short), Err(DiskError::BadLength { .. })));
    }

    #[test]
    fn xor_is_self_inverse() {
        let a = block(0b1010_1010);
        let b = block(0b0110_0110);
        let mut acc = a.clone();
        xor_into(&mut acc, &b);
        xor_into(&mut acc, &b);
        assert_eq!(acc, a);
    }

    #[test]
    fn io_counters_track_payload() {
        let mut p = plane();
        p.write(0, 0, &block(1)).unwrap();
        p.write(0, 1, &block(2)).unwrap();
        p.read_owned(0, 0).unwrap();
        assert_eq!(p.bytes_written(), 2 * BS as u64);
        assert_eq!(p.bytes_read(), BS as u64);
    }
}
