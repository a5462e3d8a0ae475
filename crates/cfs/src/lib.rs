#![warn(missing_docs)]
//! # cfs — a minimal cluster file system over the single I/O space
//!
//! The substrate for the Andrew benchmark (the paper's Figure 6): a small
//! extent-based file system — superblock, fixed inode table, flat
//! directories — that runs unchanged over any [`cdd::BlockStore`]: the
//! serverless CDD array with any RAID layout, or the centralized NFS
//! baseline. All metadata really serializes to blocks, so the same
//! integrity guarantees that protect file data protect the file system
//! itself through disk failures and rebuilds.

mod error;
pub mod format;
pub mod fs;
mod meta;
mod pad;

pub use format::{DirEntry, Extent, Inode, InodeKind, SuperBlock};
pub use fs::{Fs, FsError, ROOT_INO};
