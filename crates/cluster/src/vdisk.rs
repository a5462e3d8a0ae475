//! The functional data plane: in-memory virtual disks.
//!
//! Every RAID engine in this workspace executes requests twice over: once
//! against the timing model (a [`sim_core::Plan`]) and once against this
//! plane, which actually moves bytes. That lets the test-suite verify data
//! integrity through striping, mirroring, parity reconstruction and
//! rebuild — not just timing.
//!
//! A stored block is a [`Block`]: an immutable, reference-counted handle.
//! [`DataPlane::put`] stores a handle and [`DataPlane::get`] returns one,
//! so a mirror image, a restored copy or a cache entry can *be* the
//! writer's buffer instead of a copy of it; [`DataPlane::write`] and
//! [`DataPlane::read`] are the copying forms over them. Nothing hands out
//! `&mut` to a stored block — a block changes only by a new handle taking
//! its place on one disk — so overwriting, failing or replacing one copy
//! can never change another.

use std::collections::HashMap;
use std::sync::Arc;

/// One block's bytes: immutable and shared by every holder of the handle.
pub type Block = Arc<[u8]>;

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
    blocks: HashMap<u64, Block>,
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
    /// What every never-written block reads as, made on first use so
    /// that building a plane allocates no block.
    zero: Option<Block>,
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
            zero: None,
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

    /// Total payload bytes stored so far, per copy: a handle stored on
    /// two disks counts twice (diagnostics).
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

    /// Store `data` as the content of one block, sharing the caller's
    /// buffer.
    pub fn put(&mut self, disk: usize, block: u64, data: Block) -> Result<(), DiskError> {
        if data.len() != self.block_size {
            return Err(DiskError::BadLength { expected: self.block_size, got: data.len() });
        }
        self.check(disk, block)?;
        self.bytes_written += data.len() as u64;
        self.disks[disk].blocks.insert(block, data);
        Ok(())
    }

    /// The content of one block (the shared zero block if never written).
    pub fn get(&mut self, disk: usize, block: u64) -> Result<Block, DiskError> {
        self.check(disk, block)?;
        self.bytes_read += self.block_size as u64;
        Ok(match self.disks[disk].blocks.get(&block) {
            Some(stored) => stored.clone(),
            None => self.zero.get_or_insert_with(|| vec![0u8; self.block_size].into()).clone(),
        })
    }

    /// Write one block: [`DataPlane::put`] of a copy of `data`.
    pub fn write(&mut self, disk: usize, block: u64, data: &[u8]) -> Result<(), DiskError> {
        self.put(disk, block, data.into())
    }

    /// Read one block into `out`: a copy of what [`DataPlane::get`] returns.
    pub fn read(&mut self, disk: usize, block: u64, out: &mut [u8]) -> Result<(), DiskError> {
        if out.len() != self.block_size {
            return Err(DiskError::BadLength { expected: self.block_size, got: out.len() });
        }
        out.copy_from_slice(&self.get(disk, block)?);
        Ok(())
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

/// The XOR of `parts` (one or more, equal lengths) as a fresh block: the
/// first part is copied once and the rest are folded into that copy while
/// it is still uniquely owned.
pub fn xor_of<T: AsRef<[u8]>>(parts: impl IntoIterator<Item = T>) -> Block {
    let mut parts = parts.into_iter();
    let mut acc: Block = parts.next().expect("XOR of no blocks").as_ref().into();
    let bytes = Arc::get_mut(&mut acc).expect("a handle nobody else has seen yet");
    for part in parts {
        xor_into(bytes, part.as_ref());
    }
    acc
}

// The unit tests live in `crates/cluster/tests/vdisk.rs` (they need only the
// public API), keeping this module within the static-analysis size cap.
