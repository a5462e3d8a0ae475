//! Errors surfaced by the CDD I/O pipeline.
//!
//! Every layer of the pipeline — front-end admission, scheme drivers,
//! data plane — and every [`crate::BlockStore`] implementation reports
//! failures through this one type, so workloads and file systems handle
//! the serverless array and the NFS baseline identically.

use cluster::DiskError;

/// Errors surfaced by the I/O system.
#[derive(Debug)]
pub enum IoError {
    /// Logical address beyond the layout's capacity.
    OutOfRange {
        /// Offending logical block.
        lb: u64,
        /// Layout capacity in blocks.
        capacity: u64,
    },
    /// Buffer length not a whole number of blocks / wrong size.
    BadLength {
        /// Required length unit (the block size).
        expected: usize,
        /// Length actually supplied.
        got: usize,
    },
    /// No surviving copy of a block.
    DataLoss {
        /// The unrecoverable logical block.
        lb: u64,
    },
    /// Every copy of a requested block sits behind an unresponsive node
    /// (NIC partition or crash) and the bounded retry budget is spent.
    /// Distinct from [`IoError::DataLoss`]: the bytes still exist and the
    /// request would succeed once the partition heals — the client must
    /// *not* hang waiting for that.
    Unreachable {
        /// The unresponsive node the last attempt timed out against.
        node: usize,
        /// Attempts made (1 initial + retries) before giving up.
        attempts: u32,
    },
    /// The request was admitted under a placement epoch the array has
    /// since moved past (writes must target the current epoch; reads may
    /// trail by exactly one while that epoch's migration drains).
    StaleEpoch {
        /// Epoch the request was admitted under.
        seen: u64,
        /// Current placement epoch.
        current: u64,
    },
    /// Functional-plane failure (invariant violation).
    Disk(DiskError),
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::OutOfRange { lb, capacity } => {
                write!(f, "block {lb} beyond capacity {capacity}")
            }
            IoError::BadLength { expected, got } => {
                write!(f, "buffer {got} bytes, expected {expected}")
            }
            IoError::DataLoss { lb } => write!(f, "block {lb} unrecoverable"),
            IoError::Unreachable { node, attempts } => {
                write!(f, "node {node} unreachable after {attempts} attempts")
            }
            IoError::StaleEpoch { seen, current } => {
                write!(f, "admitted under epoch {seen}, array is at epoch {current}")
            }
            IoError::Disk(e) => write!(f, "data plane: {e}"),
        }
    }
}
impl std::error::Error for IoError {}

impl From<DiskError> for IoError {
    fn from(e: DiskError) -> Self {
        IoError::Disk(e)
    }
}
