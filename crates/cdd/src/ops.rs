//! Plan builders for individual CDD operations.
//!
//! Each builder assembles the full path of one storage-manager interaction:
//! client driver dispatch, control/data messages across the interconnect
//! (or a local fast path — the device-masquerading case), the owner node's
//! SCSI bus, and the disk itself.
//!
//! The protocol's costs are the constants below; no experiment varies
//! them.

use std::sync::Arc;

use cluster::Cluster;
use sim_core::plan::{fan, seq, use_res};
use sim_core::{Demand, Plan, SimDuration};
use sim_net::{receive_half, send_half, transfer_plan, NetPath};

/// Size of a control message (request header, lock message), in bytes.
pub const CONTROL_BYTES: u64 = 64;
/// Size of an acknowledgement, in bytes.
pub const ACK_BYTES: u64 = 32;
/// Host XOR bandwidth for parity math, bytes/second.
const XOR_RATE: u64 = 400_000_000;
/// Driver CPU time charged per request (kernel-level CDD dispatch; the
/// paper's point is that this is *small* because no cross-space system
/// calls are needed).
const DRIVER_OVERHEAD: SimDuration = SimDuration::from_micros(15);

/// Builds plans against a concrete cluster.
pub struct OpBuilder<'a> {
    /// The cluster whose resources the plans reference.
    pub cluster: &'a Cluster,
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
        use_res(self.cluster.nodes[client].cpu, Demand::Busy(DRIVER_OVERHEAD))
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
            self.msg(client, owner, CONTROL_BYTES + payload),
            use_res(d.bus, Demand::BusXfer { bytes: payload }),
            use_res(d.res, Demand::DiskWrite { offset: start * self.bs(), bytes: payload }),
        ];
        if ack {
            chain.push(self.msg(owner, client, ACK_BYTES));
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
            self.msg(client, owner, CONTROL_BYTES),
            use_res(d.res, Demand::DiskRead { offset: start * self.bs(), bytes: payload }),
            use_res(d.bus, Demand::BusXfer { bytes: payload }),
            self.msg(owner, client, payload),
        ])
    }

    /// Parity/reconstruction XOR of `bytes` on `client`'s CPU.
    pub fn xor(&self, client: usize, bytes: u64) -> Plan {
        use_res(
            self.cluster.nodes[client].cpu,
            Demand::Busy(SimDuration::for_bytes(bytes, XOR_RATE)),
        )
    }

    /// One lock-group acquisition round: the client's consistency module
    /// broadcasts the grant to every peer CDD and collects acknowledgements
    /// (the table is replicated, so all copies update atomically). The
    /// round is one [`Plan::Fan`] with an arm per peer — `arms[n]`, built
    /// by [`OpBuilder::lock_arm`] — and runs exactly as the `Par` over
    /// peers of `seq([msg(client, n, control), msg(n, client, ack)])`:
    /// the head is the sender half of the client's grant, the tail the
    /// receiver half of a peer's ack.
    ///
    /// The round depends on the client and the cluster only, never on the
    /// write, and at 128 nodes it is 1,270 leaves: [`crate::IoSystem`]
    /// builds it once per client, on its first write, and pushes clones
    /// of the handle from then on. Both messages must fit one network
    /// segment, which `IoSystem::new` checks.
    pub fn lock_round(&self, client: usize, arms: &[Arc<[Plan]>]) -> Plan {
        let (spec, ends) = (&self.cluster.cfg.net, self.ends(client));
        let mut head = Vec::with_capacity(3);
        send_half(spec, &ends, CONTROL_BYTES, &mut head);
        let mut tail = Vec::with_capacity(2);
        receive_half(&ends, ACK_BYTES, &mut tail);
        let peers = arms.iter().enumerate().filter(|&(n, _)| n != client);
        fan(head, peers.map(|(_, arm)| Arc::clone(arm)).collect(), tail)
    }

    /// Peer `n`'s arm of every lock round: receive the grant, send the
    /// ack. It names none of the client's resources, so one arm serves
    /// every client's round.
    pub fn lock_arm(&self, n: usize) -> Arc<[Plan]> {
        let (spec, ends) = (&self.cluster.cfg.net, self.ends(n));
        let mut arm = Vec::with_capacity(5);
        receive_half(&ends, CONTROL_BYTES, &mut arm);
        send_half(spec, &ends, ACK_BYTES, &mut arm);
        arm.into()
    }

    /// Node `n` at both ends of a wire: the sender half of a message from
    /// `n` and the receiver half of one to `n` are this path's halves.
    fn ends(&self, n: usize) -> NetPath {
        let node = &self.cluster.nodes[n];
        NetPath::remote(node.cpu, node.tx, node.rx, node.cpu)
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
        let b = OpBuilder { cluster: &c };
        // Disk 0 is on node 0: a node-0 client writes locally.
        e.spawn_job("local", b.write_run(0, 0, 0, 1, true));
        e.run().unwrap();
        assert_eq!(e.resource_stats(c.nodes[0].tx).ops, 0, "local write used the NIC");
        assert_eq!(e.resource_stats(c.disks[0].res).ops, 1);
    }

    #[test]
    fn remote_write_crosses_both_nics() {
        let (mut e, c) = setup();
        let b = OpBuilder { cluster: &c };
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
        let b = OpBuilder { cluster: &c };
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
        let b = OpBuilder { cluster: &c };
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
        let b = OpBuilder { cluster: &c };
        let arms: Vec<_> = (0..4).map(|n| b.lock_arm(n)).collect();
        e.spawn_job("locks", b.lock_round(0, &arms));
        e.run().unwrap();
        for n in 1..4 {
            assert!(e.resource_stats(c.nodes[n].rx).ops > 0, "peer {n} not contacted");
            assert!(e.resource_stats(c.nodes[n].tx).ops > 0, "peer {n} did not ack");
        }
    }

    #[test]
    fn xor_cost_scales_with_bytes() {
        let (mut e, c) = setup();
        let b = OpBuilder { cluster: &c };
        e.spawn_job("xor", b.xor(0, 400_000_000));
        let rep = e.run().unwrap();
        assert!((rep.end.as_secs_f64() - 1.0).abs() < 1e-6);
    }
}
