#![warn(missing_docs)]
#![warn(clippy::wildcard_enum_match_arm)]
//! # raidx-core — RAID-x orthogonal striping and mirroring, plus baselines
//!
//! The paper's primary contribution as pure, heavily-tested address
//! arithmetic: the [`RaidX`] OSM layout (1-D and n×k two-dimensional), the
//! measured baselines ([`Raid5`], [`Raid10`]) and the analytic comparator
//! ([`ChainedDecluster`]), all behind one [`Layout`] trait; the Table 2
//! analytic performance model ([`model::PeakModel`]); and rebuild planning
//! ([`fault::plan_rebuild`]).
//!
//! Nothing in this crate touches the simulator: layouts answer *where*
//! blocks and their redundancy live and which fault sets they survive.
//! *What* to do on failure — read routing ([`Layout::read_source`]) and
//! rebuild planning — is derived from that placement, once for every
//! layout. The `cdd` crate turns those answers into cluster traffic, and
//! the `cluster` crate's data plane stores the actual bytes.
//!
//! ```
//! use raidx_core::{Layout, RaidX};
//!
//! // The 4x3 array of the paper's Figure 3.
//! let l = RaidX::new(4, 3, 131_072);
//! let addr = l.locate_data(0);
//! let image = l.image_addr(0);
//! assert_ne!(addr.disk, image.disk); // orthogonality
//! ```

pub mod chained;
pub mod fault;
pub mod layout;
pub mod model;
pub mod raid10;
pub mod raid5;
pub mod raidx;
pub mod reliability;
pub mod types;

pub use chained::ChainedDecluster;
pub use layout::{Layout, ReadSource, WriteScheme};
pub use model::{Arch, PeakModel};
pub use raid10::Raid10;
pub use raid5::Raid5;
pub use raidx::RaidX;
pub use reliability::survival_probability;
pub use types::{BlockAddr, FaultSet};

/// Build the layout for `arch` over `ndisks` disks of `blocks_per_disk`
/// blocks, matching how the Trojans experiments configured each
/// architecture (RAID-x uses the n×k shape implied by `nodes`).
pub fn layout_for(
    arch: Arch,
    nodes: usize,
    disks_per_node: usize,
    blocks_per_disk: u64,
) -> Box<dyn Layout> {
    let ndisks = nodes * disks_per_node;
    match arch {
        Arch::Raid5 => Box::new(Raid5::new(ndisks, blocks_per_disk)),
        Arch::Chained => Box::new(ChainedDecluster::new(ndisks, blocks_per_disk)),
        Arch::Raid10 => Box::new(Raid10::new(ndisks, blocks_per_disk)),
        Arch::RaidX => Box::new(RaidX::new(nodes, disks_per_node, blocks_per_disk)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factory_produces_each_arch() {
        for arch in Arch::ALL {
            let l = layout_for(arch, 4, 3, 240);
            assert_eq!(l.ndisks(), 12);
            assert!(l.capacity_blocks() > 0);
            assert!(!l.name().is_empty());
        }
    }

    #[test]
    fn factory_raidx_uses_node_shape() {
        let l = layout_for(Arch::RaidX, 4, 3, 240);
        assert_eq!(l.stripe_width(), 4);
        assert_eq!(l.max_fault_coverage(), 3);
    }
}
