#![warn(missing_docs)]
//! # sim-net — cluster interconnect models
//!
//! Models the switched Fast Ethernet of the Trojans cluster: full-duplex
//! per-node NIC ports (independent tx and rx resources), a store-and-forward
//! switch latency, and the late-1990s software protocol cost charged to the
//! host CPUs on both ends. Bulk transfers are segmented so that consecutive
//! segments pipeline through the cpu→tx→rx→cpu stages, matching how TCP
//! streams behave on a switched LAN.
//!
//! The network matters enormously to the paper's results: a 100 Mbps port
//! moves only 12.5 MB/s, so NFS saturates at its single server port while the
//! distributed RAIDs aggregate one port per node.

pub mod partition;
pub mod path;
pub mod spec;

pub use partition::PartitionMap;
pub use path::{receive_half, send_half, transfer_plan, NetPath};
pub use spec::NetSpec;
