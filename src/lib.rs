#![warn(missing_docs)]
//! # raidx-cluster — RAID-x: a distributed disk array for I/O-centric
//! cluster computing
//!
//! A full reproduction of *Hwang, Jin & Ho, "RAID-x: A New Distributed
//! Disk Array for I/O-Centric Cluster Computing" (HPDC 2000)* as a Rust
//! workspace: the orthogonal-striping-and-mirroring layout and its
//! baselines ([`layouts`]), the cooperative disk drivers that build a
//! single I/O space ([`drivers`]), a deterministic cluster simulator
//! ([`sim`], [`hw`]), a minimal cluster file system ([`fs`]), the paper's
//! benchmark workloads ([`bench_workloads`]) and striped checkpointing
//! ([`ckpt`]).
//!
//! ## Quick start
//!
//! ```
//! use raidx_cluster::drivers::{CddConfig, IoSystem};
//! use raidx_cluster::hw::ClusterConfig;
//! use raidx_cluster::layouts::Arch;
//! use raidx_cluster::sim::Engine;
//!
//! // Build the 16-node Trojans cluster with a RAID-x single I/O space.
//! let mut engine = Engine::new();
//! let mut array = IoSystem::new(&mut engine, ClusterConfig::trojans(),
//!                               Arch::RaidX, CddConfig::default());
//!
//! // Any node writes anywhere in the single I/O space...
//! let block = vec![7u8; array.block_size() as usize];
//! let plan = array.write(/*client node*/ 3, /*logical block*/ 0, &block).unwrap();
//!
//! // ...and the same request has a simulated cost on the cluster.
//! engine.spawn_job("write", plan);
//! let report = engine.run().unwrap();
//! println!("write took {}", report.foreground_end);
//! ```
//!
//! See `examples/` for runnable scenarios and the `bench` crate for the
//! binaries that regenerate every table and figure of the paper.

/// The discrete-event simulation engine (re-export of `sim-core`).
pub mod sim {
    pub use sim_core::*;
}

/// Hardware models and cluster assembly (re-exports of `sim-disk`,
/// `sim-net` and `cluster`).
pub mod hw {
    pub use cluster::{Block, Cluster, ClusterConfig, DataPlane, DiskError, DiskRef, Node};
    pub use sim_disk::{BusSpec, DiskModel, DiskSpec, ScsiBus};
    pub use sim_net::{transfer_plan, NetPath, NetSpec};
}

/// RAID layouts and the analytic model (re-export of `raidx-core`).
pub mod layouts {
    pub use raidx_core::*;
}

/// Cooperative disk drivers and the single I/O space (re-export of
/// `cdd`), plus the centralized NFS baseline (`nfs-sim`).
pub mod drivers {
    pub use cdd::*;
    pub use nfs_sim::{NfsConfig, NfsSystem};
}

/// The cluster file system (re-export of `cfs`).
pub mod fs {
    pub use cfs::*;
}

/// Benchmark workload generators (re-export of `workloads`).
pub mod bench_workloads {
    pub use workloads::*;
}

/// Striped checkpointing with staggering (re-export of `checkpoint`).
pub mod ckpt {
    pub use checkpoint::*;
}
