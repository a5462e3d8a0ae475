#![warn(missing_docs)]
//! # cluster — serverless cluster assembly
//!
//! Builds the hardware of a Trojans-class cluster inside a [`sim_core`]
//! engine — per node: one CPU, a full-duplex NIC port pair, a SCSI bus and
//! `k` disks — and provides the **functional data plane** ([`DataPlane`]):
//! in-memory virtual disks that really store bytes, so correctness (parity
//! reconstruction, mirror recovery, rebuild) is tested with actual data, not
//! just timing. A stored block is an immutable reference-counted [`Block`]
//! handle, so the copies of one datum (data home, mirror images, restored
//! copies, client-cache entries) share one buffer and none can change
//! another. It holds the block's bytes only up to its last non-zero byte
//! (the zero tail is implied), so a block padded with zeros costs the
//! host only its payload.
//!
//! Disk numbering follows the paper's Figure 3: global disk `g` is attached
//! to node `g mod nodes`, so `n` consecutive disks form a stripe group that
//! touches every node exactly once, and the `k` disks of one node share its
//! SCSI bus (consecutive stripe groups pipeline on those buses).

pub mod build;
pub mod config;
pub mod vdisk;

pub use build::{Cluster, DiskRef, Node};
pub use config::ClusterConfig;
pub use vdisk::{block_of, extend_block, xor_into, xor_of, Block, DataPlane, DiskError};
