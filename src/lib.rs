#![warn(missing_docs)]
//! # raidx-cluster — RAID-x: a distributed disk array for I/O-centric
//! cluster computing
//!
//! A full reproduction of *Hwang, Jin & Ho, "RAID-x: A New Distributed
//! Disk Array for I/O-Centric Cluster Computing" (HPDC 2000)* as a Rust
//! workspace: the orthogonal-striping-and-mirroring layout and its
//! baselines ([`raidx_core`]), the cooperative disk drivers that build a
//! single I/O space ([`cdd`]) and the centralized NFS baseline
//! ([`nfs_sim`]), a deterministic cluster simulator ([`sim_core`],
//! `sim_disk`, `sim_net`, [`cluster`]), a minimal cluster file system
//! ([`cfs`]), the paper's benchmark workloads ([`workloads`]) and striped
//! checkpointing ([`checkpoint`]). This package only ties them together:
//! its examples and tests use those crates directly.
//!
//! ## Quick start
//!
//! ```
//! use cdd::{CddConfig, IoSystem};
//! use cluster::ClusterConfig;
//! use raidx_core::Arch;
//! use sim_core::Engine;
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
//! one binary that regenerates every table and figure of the paper.
