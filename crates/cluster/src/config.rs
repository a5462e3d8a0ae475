//! Cluster configuration.

use sim_disk::DiskSpec;
use sim_net::NetSpec;

/// Full description of a simulated cluster.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of nodes (each node is a client host and a storage host —
    /// the cluster is serverless).
    pub nodes: usize,
    /// Disks attached to each node (the `k` of the paper's n×k arrays).
    pub disks_per_node: usize,
    /// Disk hardware parameters (each node's disks share one SCSI bus,
    /// [`sim_disk::ScsiBus`]).
    pub disk: DiskSpec,
    /// Interconnect parameters.
    pub net: NetSpec,
    /// Logical block size of the single I/O space (the paper's stripe
    /// unit; its small accesses are one 32 KB block).
    pub block_size: u64,
}

impl ClusterConfig {
    /// The Trojans cluster as benchmarked in Figure 5 / Table 3: 16 Linux
    /// PCs on switched Fast Ethernet, one SCSI disk each.
    pub fn trojans() -> Self {
        ClusterConfig {
            nodes: 16,
            disks_per_node: 1,
            disk: DiskSpec::classic_scsi(),
            net: NetSpec::fast_ethernet(),
            block_size: 32 << 10,
        }
    }

    /// The 4×3 two-dimensional configuration of Figure 3: 4 nodes with 3
    /// disks each (parallelism 4, pipeline depth 3).
    pub fn trojans_4x3() -> Self {
        ClusterConfig { nodes: 4, disks_per_node: 3, ..Self::trojans() }
    }

    /// An arbitrary n×k shape with Trojans-class hardware.
    pub fn shape(nodes: usize, disks_per_node: usize) -> Self {
        ClusterConfig { nodes, disks_per_node, ..Self::trojans() }
    }

    /// Total number of disks in the single I/O space.
    pub fn total_disks(&self) -> usize {
        self.nodes * self.disks_per_node
    }

    /// Blocks per disk.
    pub fn blocks_per_disk(&self) -> u64 {
        self.disk.capacity / self.block_size
    }

    /// Validate structural invariants; panics with a clear message on a
    /// nonsensical configuration.
    pub fn validate(&self) {
        assert!(self.nodes > 0, "cluster needs at least one node");
        assert!(self.disks_per_node > 0, "nodes need at least one disk");
        assert!(self.block_size > 0, "block size must be nonzero");
        assert!(self.blocks_per_disk() >= 4, "disk capacity must hold at least four blocks");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trojans_matches_paper() {
        let c = ClusterConfig::trojans();
        c.validate();
        assert_eq!(c.nodes, 16);
        assert_eq!(c.total_disks(), 16);
        assert_eq!(c.block_size, 32 << 10);
    }

    #[test]
    fn four_by_three() {
        let c = ClusterConfig::trojans_4x3();
        c.validate();
        assert_eq!(c.total_disks(), 12);
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_nodes_rejected() {
        ClusterConfig::shape(0, 1).validate();
    }
}
