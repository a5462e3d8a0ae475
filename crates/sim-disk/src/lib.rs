#![warn(missing_docs)]
//! # sim-disk — mechanical disk and SCSI bus models
//!
//! Service models for the storage hardware of a late-1990s cluster node (the
//! USC Trojans cluster the RAID-x paper measured), pluggable into the
//! [`sim_core`] engine:
//!
//! * [`DiskModel`] — seek curve, rotational latency, media transfer rate,
//!   controller overhead, and **sequential-access detection**: a request that
//!   starts where the previous one ended skips positioning entirely. This is
//!   the property RAID-x's clustered image writes exploit (a mirroring
//!   group's images are flushed as one long sequential write), and the
//!   property RAID-5's read-modify-write cycles defeat.
//! * [`ScsiBus`] — the shared bus connecting the k disks of one node; it
//!   serializes transfers, which is what makes consecutive stripe groups on
//!   an n×k array *pipeline* rather than run fully parallel.
//!
//! The drive and bus figures of the Trojans nodes are constants in
//! [`spec`] and [`bus`]; a [`DiskSpec`] carries only what an experiment
//! varies (capacity and queue discipline).
//!
//! All randomness (rotational phase) is drawn from a per-disk
//! [`SplitMix64`](sim_core::SplitMix64) stream, keeping runs reproducible.

pub mod bus;
pub mod model;
pub mod spec;

pub use bus::ScsiBus;
pub use model::DiskModel;
pub use spec::DiskSpec;
