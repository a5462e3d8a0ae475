//! Network partitions: which nodes can currently reach each other.
//!
//! A [`PartitionMap`] is the interconnect-level fault state consulted by
//! the CDD client module before issuing a remote request. The model is
//! node-granular (a partitioned node's NIC is cut off from the switch,
//! severing both its tx and rx directions), which matches the Trojans
//! cluster's single switched Fast Ethernet port per node: there is no
//! path that avoids the port, so per-link partitions degenerate to
//! per-node ones. Local traffic (a node talking to its own disks over
//! the SCSI bus) never crosses the switch and is unaffected.

use std::collections::BTreeSet;

/// Which nodes are currently cut off from the switch.
///
/// Deterministic by construction (ordered set, no clocks); cloneable so
/// fault scenarios can snapshot and restore connectivity.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PartitionMap {
    cut: BTreeSet<usize>,
}

impl PartitionMap {
    /// Fully connected cluster.
    pub fn new() -> Self {
        PartitionMap { cut: BTreeSet::new() }
    }

    /// Cut `node` off from the switch. Idempotent.
    pub fn partition(&mut self, node: usize) {
        self.cut.insert(node);
    }

    /// Reconnect `node`. Idempotent.
    pub fn heal(&mut self, node: usize) {
        self.cut.remove(&node);
    }

    /// Is `node` currently cut off?
    pub fn is_partitioned(&self, node: usize) -> bool {
        self.cut.contains(&node)
    }

    /// Can `src` exchange messages with `dst` right now? A node always
    /// reaches itself (local I/O bypasses the switch); remote traffic
    /// needs both endpoints connected.
    pub fn reachable(&self, src: usize, dst: usize) -> bool {
        src == dst || (!self.is_partitioned(src) && !self.is_partitioned(dst))
    }

    /// Nodes currently partitioned, ascending.
    pub fn partitioned(&self) -> impl Iterator<Item = usize> + '_ {
        self.cut.iter().copied()
    }

    /// Number of partitioned nodes.
    pub fn len(&self) -> usize {
        self.cut.len()
    }

    /// True when the cluster is fully connected.
    pub fn is_empty(&self) -> bool {
        self.cut.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fully_connected_by_default() {
        let p = PartitionMap::new();
        assert!(p.reachable(0, 1));
        assert!(p.reachable(2, 2));
        assert!(p.is_empty());
    }

    #[test]
    fn partition_severs_both_directions_but_not_local() {
        let mut p = PartitionMap::new();
        p.partition(1);
        assert!(!p.reachable(0, 1), "into the partitioned node");
        assert!(!p.reachable(1, 0), "out of the partitioned node");
        assert!(p.reachable(1, 1), "local I/O bypasses the switch");
        assert!(p.reachable(0, 2), "unrelated pairs unaffected");
        assert!(p.is_partitioned(1));
    }

    #[test]
    fn heal_restores_connectivity() {
        let mut p = PartitionMap::new();
        p.partition(0);
        p.partition(3);
        assert_eq!(p.partitioned().collect::<Vec<_>>(), vec![0, 3]);
        p.heal(0);
        assert!(p.reachable(0, 2));
        assert!(!p.reachable(0, 3));
    }
}
