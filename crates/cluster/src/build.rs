//! Instantiating a cluster's resources inside an engine.

use sim_core::{Engine, FixedRate, ResourceId, SplitMix64};
use sim_disk::{DiskModel, ScsiBus};
use sim_net::NetPath;

use crate::config::ClusterConfig;

/// Root of every disk's rotational-phase stream: disk `g` draws from
/// substream `g`, so a cluster's timings are a function of its shape.
const SEED: u64 = 0x5EED_0001;

/// Resource handles for one node.
#[derive(Debug, Clone, Copy)]
pub struct Node {
    /// Host CPU (protocol processing, driver work, benchmark compute).
    pub cpu: ResourceId,
    /// NIC transmit port.
    pub tx: ResourceId,
    /// NIC receive port.
    pub rx: ResourceId,
    /// The node's SCSI bus.
    pub bus: ResourceId,
}

/// Resource handles for one disk of the single I/O space.
#[derive(Debug, Clone, Copy)]
pub struct DiskRef {
    /// The disk's own service resource.
    pub res: ResourceId,
    /// The bus it sits on (its node's bus).
    pub bus: ResourceId,
    /// Owning node index.
    pub node: usize,
}

/// A fully instantiated cluster: every node's CPU/NIC/bus/disk resources
/// registered with an engine, with the paper's global disk numbering
/// (disk `g` lives on node `g mod nodes`, so a stripe of `n` consecutive
/// disks touches every node once — Figure 3).
pub struct Cluster {
    /// The configuration the cluster was built from.
    pub cfg: ClusterConfig,
    /// Per-node handles.
    pub nodes: Vec<Node>,
    /// Per-disk handles, indexed by global disk number.
    pub disks: Vec<DiskRef>,
}

impl Cluster {
    /// Register all resources for `cfg` in `engine`.
    pub fn build(cfg: ClusterConfig, engine: &mut Engine) -> Self {
        cfg.validate();
        let mut nodes = Vec::with_capacity(cfg.nodes);
        for n in 0..cfg.nodes {
            let cpu = engine.add_resource(
                format!("node{n}/cpu"),
                Box::new(FixedRate {
                    per_op: cfg.net.sw_per_message,
                    bytes_per_sec: cfg.net.sw_copy_rate,
                }),
            );
            let tx = engine
                .add_resource(format!("node{n}/tx"), Box::new(FixedRate::rate(cfg.net.link_rate)));
            let rx = engine
                .add_resource(format!("node{n}/rx"), Box::new(FixedRate::rate(cfg.net.link_rate)));
            let bus = engine.add_resource(format!("node{n}/scsi"), Box::new(ScsiBus));
            nodes.push(Node { cpu, tx, rx, bus });
        }
        let mut cluster = Cluster { nodes, disks: Vec::with_capacity(cfg.total_disks()), cfg };
        for _ in 0..cluster.cfg.total_disks() {
            cluster.add_disk(engine);
        }
        cluster
    }

    /// Hot-add one disk to the single I/O space and return its global
    /// number. The new disk follows the same numbering, bus attachment
    /// and seed-substream rules as boot-time disks, so a disk added at
    /// runtime as global number `g` is indistinguishable from one built
    /// as `g` — runs that reconfigure stay deterministic.
    pub fn add_disk(&mut self, engine: &mut Engine) -> usize {
        let g = self.disks.len();
        let node = g % self.cfg.nodes;
        let seed = SplitMix64::new(SEED).substream(g as u64).next_u64();
        let res = engine.add_resource(
            format!("disk{g}@node{node}"),
            Box::new(DiskModel::new(self.cfg.disk.clone(), seed)),
        );
        self.disks.push(DiskRef { res, bus: self.nodes[node].bus, node });
        g
    }

    /// Total disks in the single I/O space.
    pub fn ndisks(&self) -> usize {
        self.disks.len()
    }

    /// Node that physically hosts global disk `disk`.
    pub fn node_of_disk(&self, disk: usize) -> usize {
        self.disks[disk].node
    }

    /// Network path for a message from node `src` to node `dst`
    /// (a local path when they coincide).
    pub fn path(&self, src: usize, dst: usize) -> NetPath {
        if src == dst {
            NetPath::local(self.nodes[src].cpu)
        } else {
            NetPath::remote(
                self.nodes[src].cpu,
                self.nodes[src].tx,
                self.nodes[dst].rx,
                self.nodes[dst].cpu,
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::check::Gen;
    use sim_core::plan::use_res;
    use sim_core::Demand;

    #[test]
    fn global_disk_numbering_round_robins_nodes() {
        let mut e = Engine::new();
        let c = Cluster::build(ClusterConfig::trojans_4x3(), &mut e);
        assert_eq!(c.ndisks(), 12);
        // Figure 3: D0..D3 on nodes 0..3, D4 back on node 0.
        for g in 0..12 {
            assert_eq!(c.node_of_disk(g), g % 4);
        }
        // Disks of one node share that node's bus.
        assert_eq!(c.disks[0].bus, c.disks[4].bus);
        assert_eq!(c.disks[0].bus, c.nodes[0].bus);
        assert_ne!(c.disks[0].bus, c.disks[1].bus);
    }

    #[test]
    fn paths_distinguish_local_and_remote() {
        let mut e = Engine::new();
        let c = Cluster::build(ClusterConfig::shape(2, 1), &mut e);
        assert!(!c.path(0, 0).is_remote());
        assert!(c.path(0, 1).is_remote());
    }

    #[test]
    fn disks_have_distinct_seeds() {
        // Two disks doing the same random access pattern must not produce
        // identical timings (they'd be rotationally locked otherwise).
        let mut e = Engine::new();
        let c = Cluster::build(ClusterConfig::trojans(), &mut e);
        let offs = [0u64, 1 << 30, 5 << 20, 3 << 28];
        for (i, &off) in offs.iter().enumerate() {
            e.spawn_job(
                format!("a{i}"),
                use_res(c.disks[0].res, Demand::DiskRead { offset: off, bytes: 4096 }),
            );
            e.spawn_job(
                format!("b{i}"),
                use_res(c.disks[1].res, Demand::DiskRead { offset: off, bytes: 4096 }),
            );
        }
        e.run().unwrap();
        let a = e.resource_stats(c.disks[0].res).busy;
        let b = e.resource_stats(c.disks[1].res).busy;
        assert_ne!(a, b);
    }

    #[test]
    fn hot_added_disks_match_disks_built_at_boot() {
        // Disks 4..7 of a 4x2 cluster, against a 4x1 cluster grown by four
        // `add_disk` calls: the same random read tape must time the same.
        let run = |c: &Cluster, e: &mut Engine| {
            let mut g = Gen::new(0xADD);
            for i in 0..64 {
                let disk = c.disks[g.usize_in(4..8)].res;
                let offset = g.u64_in(0..(1 << 30)) & !4095;
                e.spawn_job(
                    format!("r{i}"),
                    use_res(disk, Demand::DiskRead { offset, bytes: 4096 }),
                );
            }
            e.run().unwrap();
        };
        let mut booted_engine = Engine::new();
        let booted = Cluster::build(ClusterConfig::shape(4, 2), &mut booted_engine);
        run(&booted, &mut booted_engine);
        let mut grown_engine = Engine::new();
        let mut grown = Cluster::build(ClusterConfig::shape(4, 1), &mut grown_engine);
        for g in 4..8 {
            assert_eq!(grown.add_disk(&mut grown_engine), g);
        }
        run(&grown, &mut grown_engine);
        for g in 4..8 {
            let (b, h) = (booted.disks[g], grown.disks[g]);
            assert_eq!((b.node, b.bus), (h.node, h.bus), "disk {g} attachment");
            assert_eq!(
                booted_engine.resource_stats(b.res),
                grown_engine.resource_stats(h.res),
                "disk {g} timing"
            );
        }
    }

    #[test]
    fn build_is_deterministic() {
        let run = || {
            let mut e = Engine::new();
            let c = Cluster::build(ClusterConfig::trojans(), &mut e);
            e.spawn_job(
                "j",
                use_res(c.disks[3].res, Demand::DiskWrite { offset: 123 << 20, bytes: 65536 }),
            );
            e.run().unwrap().end
        };
        assert_eq!(run(), run());
    }
}
