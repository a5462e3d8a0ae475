//! Plan builders for individual CDD operations.
//!
//! Each builder assembles the full path of one storage-manager interaction:
//! client driver dispatch, control/data messages across the interconnect
//! (or a local fast path — the device-masquerading case), the owner node's
//! SCSI bus, and the disk itself.

use cluster::Cluster;
use sim_core::plan::{seq, shared, use_res};
use sim_core::{Demand, Plan, SimDuration};
use sim_net::transfer_plan;

use crate::config::CddConfig;

/// Builds plans against a concrete cluster.
pub struct OpBuilder<'a> {
    /// The cluster whose resources the plans reference.
    pub cluster: &'a Cluster,
    /// Protocol cost parameters.
    pub cfg: &'a CddConfig,
}

impl<'a> OpBuilder<'a> {
    /// Block size of the single I/O space.
    fn bs(&self) -> u64 {
        self.cluster.cfg.block_size
    }

    /// A message of `bytes` from node `src` to node `dst`.
    pub fn msg(&self, src: usize, dst: usize, bytes: u64) -> Plan {
        transfer_plan(&self.cluster.cfg.net, &self.cluster.path(src, dst), bytes)
    }

    /// The client CDD's kernel dispatch cost for one request.
    pub fn driver(&self, client: usize) -> Plan {
        use_res(self.cluster.nodes[client].cpu, Demand::Busy(self.cfg.driver_overhead))
    }

    /// Write `nblocks` consecutive blocks starting at physical block
    /// `start` of `disk`, with the data shipped from `client`. `ack`
    /// requests a completion acknowledgement (foreground writes).
    pub fn write_run(
        &self,
        client: usize,
        disk: usize,
        start: u64,
        nblocks: u64,
        ack: bool,
    ) -> Plan {
        let owner = self.cluster.node_of_disk(disk);
        let payload = nblocks * self.bs();
        let d = &self.cluster.disks[disk];
        let mut chain = vec![
            self.msg(client, owner, self.cfg.control_bytes + payload),
            use_res(d.bus, Demand::BusXfer { bytes: payload }),
            use_res(d.res, Demand::DiskWrite { offset: start * self.bs(), bytes: payload }),
        ];
        if ack {
            chain.push(self.msg(owner, client, self.cfg.ack_bytes));
        }
        seq(chain)
    }

    /// Read `nblocks` consecutive blocks starting at physical block
    /// `start` of `disk`, delivering the data to `client`.
    pub fn read_run(&self, client: usize, disk: usize, start: u64, nblocks: u64) -> Plan {
        let owner = self.cluster.node_of_disk(disk);
        let payload = nblocks * self.bs();
        let d = &self.cluster.disks[disk];
        seq(vec![
            self.msg(client, owner, self.cfg.control_bytes),
            use_res(d.res, Demand::DiskRead { offset: start * self.bs(), bytes: payload }),
            use_res(d.bus, Demand::BusXfer { bytes: payload }),
            self.msg(owner, client, payload),
        ])
    }

    /// Parity/reconstruction XOR of `bytes` on `client`'s CPU.
    pub fn xor(&self, client: usize, bytes: u64) -> Plan {
        use_res(
            self.cluster.nodes[client].cpu,
            Demand::Busy(SimDuration::for_bytes(bytes, self.cfg.xor_rate)),
        )
    }

    /// One lock-group acquisition round: the client's consistency module
    /// broadcasts the grant to every peer CDD and collects acknowledgements
    /// (the table is replicated, so all copies update atomically). Returns
    /// the branches that run in parallel, one per peer — none on a
    /// single-node array — each a [`Plan::Shared`] chain of the grant
    /// message's stages followed by the ack's.
    ///
    /// The round depends on the client and the cluster only, never on the
    /// write, and at 128 nodes it is 1,270 leaves: [`crate::IoSystem`]
    /// calls this once per client, on its first write, and pushes clones
    /// of the handles from then on.
    pub fn lock_round(&self, client: usize) -> Vec<Plan> {
        (0..self.cluster.cfg.nodes)
            .filter(|&n| n != client)
            .map(|n| {
                let mut steps = Vec::with_capacity(10);
                for m in [
                    self.msg(client, n, self.cfg.control_bytes),
                    self.msg(n, client, self.cfg.ack_bytes),
                ] {
                    // A one-segment message is a chain of leaves, spliced in
                    // so that the engine clones a leaf per step.
                    if let Plan::Seq(stages) = m {
                        steps.extend(stages);
                    } else {
                        steps.push(m);
                    }
                }
                shared(steps)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::ClusterConfig;
    use sim_core::Engine;

    fn setup() -> (Engine, Cluster) {
        let mut e = Engine::new();
        let c = Cluster::build(ClusterConfig::trojans_4x3(), &mut e);
        (e, c)
    }

    #[test]
    fn local_write_skips_network() {
        let (mut e, c) = setup();
        let cfg = CddConfig::default();
        let b = OpBuilder { cluster: &c, cfg: &cfg };
        // Disk 0 is on node 0: a node-0 client writes locally.
        e.spawn_job("local", b.write_run(0, 0, 0, 1, true));
        e.run().unwrap();
        assert_eq!(e.resource_stats(c.nodes[0].tx).ops, 0, "local write used the NIC");
        assert_eq!(e.resource_stats(c.disks[0].res).ops, 1);
    }

    #[test]
    fn remote_write_crosses_both_nics() {
        let (mut e, c) = setup();
        let cfg = CddConfig::default();
        let b = OpBuilder { cluster: &c, cfg: &cfg };
        // Disk 1 is on node 1: a node-0 client writes remotely.
        e.spawn_job("remote", b.write_run(0, 1, 0, 1, true));
        e.run().unwrap();
        assert!(e.resource_stats(c.nodes[0].tx).ops > 0);
        assert!(e.resource_stats(c.nodes[1].rx).ops > 0);
        // The ack flows back.
        assert!(e.resource_stats(c.nodes[1].tx).ops > 0);
        assert_eq!(e.resource_stats(c.disks[1].res).ops, 1);
    }

    #[test]
    fn read_run_moves_payload_back() {
        let (mut e, c) = setup();
        let cfg = CddConfig::default();
        let b = OpBuilder { cluster: &c, cfg: &cfg };
        let payload = 4 * c.cfg.block_size;
        e.spawn_job("read", b.read_run(0, 1, 0, 4));
        e.run().unwrap();
        let back = e.resource_stats(c.nodes[1].tx).bytes;
        assert!(back >= payload, "only {back} bytes returned");
        assert_eq!(e.resource_stats(c.disks[1].res).bytes, payload);
    }

    #[test]
    fn longer_runs_amortize_positioning() {
        let (mut e, c) = setup();
        let cfg = CddConfig::default();
        let b = OpBuilder { cluster: &c, cfg: &cfg };
        // One 8-block run vs eight scattered 1-block reads on another disk.
        e.spawn_job("run", b.read_run(0, 1, 0, 8));
        e.spawn_job("scattered", seq((0..8).map(|i| b.read_run(0, 2, i * 50, 1)).collect()));
        e.run().unwrap();
        let run_busy = e.resource_stats(c.disks[1].res).busy;
        let scat_busy = e.resource_stats(c.disks[2].res).busy;
        assert!(
            scat_busy.as_nanos() > 2 * run_busy.as_nanos(),
            "scattered={scat_busy} run={run_busy}"
        );
    }

    #[test]
    fn lock_round_contacts_every_peer() {
        let (mut e, c) = setup();
        let cfg = CddConfig::default();
        let b = OpBuilder { cluster: &c, cfg: &cfg };
        e.spawn_job("locks", sim_core::plan::par(b.lock_round(0)));
        e.run().unwrap();
        for n in 1..4 {
            assert!(e.resource_stats(c.nodes[n].rx).ops > 0, "peer {n} not contacted");
            assert!(e.resource_stats(c.nodes[n].tx).ops > 0, "peer {n} did not ack");
        }
    }

    #[test]
    fn xor_cost_scales_with_bytes() {
        let (mut e, c) = setup();
        let cfg = CddConfig::default();
        let b = OpBuilder { cluster: &c, cfg: &cfg };
        e.spawn_job("xor", b.xor(0, 400_000_000));
        let rep = e.run().unwrap();
        assert!((rep.end.as_secs_f64() - 1.0).abs() < 1e-6);
    }
}
