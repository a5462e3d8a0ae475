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
//! another.
//!
//! Disk numbering follows the paper's Figure 3: global disk `g` is attached
//! to node `g mod nodes`, so `n` consecutive disks form a stripe group that
//! touches every node exactly once, and the `k` disks of one node share its
//! SCSI bus (consecutive stripe groups pipeline on those buses).
//!
//! Membership is not frozen at boot: [`map::ClusterMap`] versions the
//! binding from logical slots (what placement formulas see) to physical
//! disks (what the engine and data plane hold) in epochs, so disks can
//! be added, removed and replaced while the array is live.

pub mod build;
pub mod config;
pub mod map;
pub mod vdisk;

pub use build::{Cluster, DiskRef, Node};
pub use config::ClusterConfig;
pub use map::ClusterMap;
pub use vdisk::{xor_into, xor_of, Block, DataPlane, DiskError};
