//! The file system's error type.

use cdd::IoError;

/// File-system errors.
#[derive(Debug)]
pub enum FsError {
    /// Underlying block store failed.
    Io(IoError),
    /// Path component missing.
    NotFound(String),
    /// Creating something that already exists.
    Exists(String),
    /// Path component is not a directory.
    NotDir(String),
    /// Operation needs a file but found a directory.
    IsDir(String),
    /// Data area exhausted.
    NoSpace,
    /// Inode table exhausted.
    NoInodes,
    /// File needs more than [`crate::format::MAX_EXTENTS`] extents.
    TooManyExtents,
    /// Name empty or longer than [`crate::format::MAX_NAME`].
    InvalidName(String),
    /// An on-disk structure holds a value no formatted volume can: the
    /// image is damaged or hostile.
    Corrupt(String),
}

impl std::fmt::Display for FsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FsError::Io(e) => write!(f, "I/O error: {e}"),
            FsError::NotFound(p) => write!(f, "not found: {p}"),
            FsError::Exists(p) => write!(f, "already exists: {p}"),
            FsError::NotDir(p) => write!(f, "not a directory: {p}"),
            FsError::IsDir(p) => write!(f, "is a directory: {p}"),
            FsError::NoSpace => write!(f, "out of space"),
            FsError::NoInodes => write!(f, "out of inodes"),
            FsError::TooManyExtents => write!(f, "file too fragmented"),
            FsError::InvalidName(n) => write!(f, "invalid name: {n:?}"),
            FsError::Corrupt(what) => write!(f, "corrupt volume: {what}"),
        }
    }
}
impl std::error::Error for FsError {}

impl From<IoError> for FsError {
    fn from(e: IoError) -> Self {
        FsError::Io(e)
    }
}
