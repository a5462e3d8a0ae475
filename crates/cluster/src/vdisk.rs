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
//!
//! A stored block is also *canonical*: it holds the block's bytes up to
//! and including the last non-zero one, and the zero tail is implied. A
//! never-written block and an all-zero block are both the empty block.
//! [`block_of`] is the one constructor from caller bytes and `put`
//! canonicalizes whatever handle it is given, so two stored blocks hold
//! the same content exactly when their bytes are equal. Readers
//! zero-extend while they copy ([`DataPlane::read`], [`extend_block`]).

use std::collections::HashMap;
use std::sync::Arc;

/// One block's bytes up to its last non-zero byte: immutable and shared
/// by every holder of the handle.
pub type Block = Arc<[u8]>;

/// Length of `bytes` without its zero tail. Exits at once when the last
/// byte is non-zero; otherwise scans backward 64 bytes at a time.
fn stored_len(bytes: &[u8]) -> usize {
    if bytes.last().is_some_and(|&b| b != 0) {
        return bytes.len();
    }
    // A fixed-size chunk lets the OR-reduction vectorize: the scan then
    // costs about what copying the same bytes would.
    let zero =
        |c: &&[u8]| <&[u8; 64]>::try_from(*c).is_ok_and(|c| c.iter().fold(0, |a, b| a | b) == 0);
    let zero_chunks = bytes.rchunks_exact(64).take_while(zero).count();
    let end = bytes.len() - zero_chunks * 64;
    bytes[..end].iter().rposition(|&b| b != 0).map_or(0, |i| i + 1)
}

/// A canonical block of `bytes`: a copy up to the last non-zero byte.
pub fn block_of(bytes: &[u8]) -> Block {
    bytes[..stored_len(bytes)].into()
}

/// `b` in canonical form: the handle itself if it has no zero tail,
/// otherwise a copy of its stored prefix.
fn canonical(b: Block) -> Block {
    match stored_len(&b) {
        n if n == b.len() => b,
        n => block_of(&b[..n]),
    }
}

/// Append one block of `block_size` bytes to `out`: the stored prefix,
/// then the zero tail it implies.
pub fn extend_block(out: &mut Vec<u8>, block: &[u8], block_size: usize) {
    out.extend_from_slice(block);
    out.resize(out.len() + block_size - block.len(), 0);
}

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
    /// Buffer length didn't match the block size (or, for a stored
    /// handle, exceeded it).
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
    /// The empty block: what every never-written or all-zero block is.
    empty: Block,
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
            empty: Block::from([]),
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

    /// Total payload bytes stored so far, per copy and in whole blocks
    /// whatever the stored length: a handle stored on two disks counts
    /// twice (diagnostics).
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    /// Total payload bytes read so far, in whole blocks (diagnostics).
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
    /// buffer. A handle with a zero tail is stored without it (a copy of
    /// its prefix, or the empty block); one longer than a block is
    /// refused.
    pub fn put(&mut self, disk: usize, block: u64, data: Block) -> Result<(), DiskError> {
        if data.len() > self.block_size {
            return Err(DiskError::BadLength { expected: self.block_size, got: data.len() });
        }
        self.check(disk, block)?;
        self.bytes_written += self.block_size as u64;
        let data = canonical(data);
        let data = if data.is_empty() { self.empty.clone() } else { data };
        self.disks[disk].blocks.insert(block, data);
        Ok(())
    }

    /// The content of one block: its canonical handle, the empty block
    /// if never written.
    pub fn get(&mut self, disk: usize, block: u64) -> Result<Block, DiskError> {
        self.check(disk, block)?;
        self.bytes_read += self.block_size as u64;
        Ok(self.disks[disk].blocks.get(&block).unwrap_or(&self.empty).clone())
    }

    /// Write one block: [`DataPlane::put`] of [`block_of`] `data`, which
    /// must be exactly one block long.
    pub fn write(&mut self, disk: usize, block: u64, data: &[u8]) -> Result<(), DiskError> {
        if data.len() != self.block_size {
            return Err(DiskError::BadLength { expected: self.block_size, got: data.len() });
        }
        self.put(disk, block, block_of(data))
    }

    /// Read one block into `out`: a copy of what [`DataPlane::get`]
    /// returns, zero-filled past its stored prefix.
    pub fn read(&mut self, disk: usize, block: u64, out: &mut [u8]) -> Result<(), DiskError> {
        if out.len() != self.block_size {
            return Err(DiskError::BadLength { expected: self.block_size, got: out.len() });
        }
        let stored = self.get(disk, block)?;
        let (head, tail) = out.split_at_mut(stored.len());
        head.copy_from_slice(&stored);
        tail.fill(0);
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

/// The XOR of `parts` (one or more, each at most a block, zero-extended
/// to the longest) as a fresh canonical block: the longest part is copied
/// once and the rest are folded into that copy while it is still uniquely
/// owned. A result with a zero tail is cut to its stored prefix.
pub fn xor_of<T: AsRef<[u8]>, I>(parts: I) -> Block
where
    I: IntoIterator<Item = T>,
    I::IntoIter: Clone,
{
    let parts = parts.into_iter();
    let (longest, first) =
        parts.clone().enumerate().max_by_key(|(_, p)| p.as_ref().len()).expect("XOR of no blocks");
    let mut acc: Block = first.as_ref().into();
    let bytes = Arc::get_mut(&mut acc).expect("a handle nobody else has seen yet");
    for (_, part) in parts.enumerate().filter(|&(i, _)| i != longest) {
        let part = part.as_ref();
        xor_into(&mut bytes[..part.len()], part);
    }
    canonical(acc)
}

// The unit tests live in `crates/cluster/tests/vdisk.rs` (they need only the
// public API), keeping this module within the static-analysis size cap.
