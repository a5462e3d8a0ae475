//! Shared construction helpers for tests, benches and experiments.
//!
//! Nearly every test in the workspace opens with the same four lines:
//! build an [`Engine`], shape a [`ClusterConfig`], construct an
//! [`IoSystem`] with the default [`CddConfig`]. These constructors
//! deduplicate that boilerplate; they are ordinary public functions (not
//! `cfg(test)`) so downstream crates' tests and benches can use them.

use cluster::ClusterConfig;
use raidx_core::Arch;
use sim_core::Engine;

use crate::config::CddConfig;
use crate::system::IoSystem;

/// Build `arch` over an explicit cluster config with an explicit CDD
/// config. The most general constructor; the others delegate here.
pub fn build_with(cc: ClusterConfig, arch: Arch, cfg: CddConfig) -> (Engine, IoSystem) {
    let mut engine = Engine::new();
    let sys = IoSystem::new(&mut engine, cc, arch, cfg);
    (engine, sys)
}

/// Build `arch` over an explicit cluster config with the default CDD
/// config.
pub fn build(cc: ClusterConfig, arch: Arch) -> (Engine, IoSystem) {
    build_with(cc, arch, CddConfig::default())
}

/// Build `arch` on the paper's Trojans-class cluster with defaults —
/// the standard workload/bench setup.
pub fn trojans(arch: Arch) -> (Engine, IoSystem) {
    build(ClusterConfig::trojans(), arch)
}

/// Build `arch` on the Trojans-class cluster with a custom per-disk
/// capacity (benches that write far need bigger platters).
pub fn trojans_with_capacity(arch: Arch, disk_capacity: u64) -> (Engine, IoSystem) {
    let mut cc = ClusterConfig::trojans();
    cc.disk.capacity = disk_capacity;
    build(cc, arch)
}

/// Build `arch` on an `nodes × disks_per_node` array with `disk_capacity`
/// bytes per disk — the standard small-cluster test setup.
pub fn shape(
    nodes: usize,
    disks_per_node: usize,
    disk_capacity: u64,
    arch: Arch,
) -> (Engine, IoSystem) {
    let mut cc = ClusterConfig::shape(nodes, disks_per_node);
    cc.disk.capacity = disk_capacity;
    build(cc, arch)
}

/// Like [`shape`], with a custom CDD config.
pub fn shape_with(
    nodes: usize,
    disks_per_node: usize,
    disk_capacity: u64,
    arch: Arch,
    cfg: CddConfig,
) -> (Engine, IoSystem) {
    let mut cc = ClusterConfig::shape(nodes, disks_per_node);
    cc.disk.capacity = disk_capacity;
    build_with(cc, arch, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_build_working_systems() {
        let (_e, s) = trojans(Arch::RaidX);
        assert_eq!(s.cluster.cfg.nodes, ClusterConfig::trojans().nodes);
        let (_e, mut s) = shape(4, 1, 4 << 20, Arch::Raid5);
        let bs = s.block_size() as usize;
        s.write(0, 0, &vec![1u8; bs]).unwrap();
        let (got, _) = s.read(1, 0, 1).unwrap();
        assert_eq!(got, vec![1u8; bs]);
        let (_e, s) = shape_with(
            4,
            1,
            4 << 20,
            Arch::RaidX,
            CddConfig { max_image_backlog: Some(4), ..CddConfig::default() },
        );
        assert_eq!(s.pending_image_blocks(), 0);
    }
}
