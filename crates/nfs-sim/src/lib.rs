#![warn(missing_docs)]
//! # nfs-sim — the centralized NFS baseline
//!
//! The paper's fourth measured architecture: a conventional client/server
//! NFS, where every I/O from every client funnels through **one server
//! node** — its CPU (nfsd), its NIC port and its local disks. This is the
//! architecture the serverless single I/O space replaces, and in Figure 5
//! it is the one that saturates first: the server's single 12.5 MB/s Fast
//! Ethernet port and single disk arm are shared by all clients.
//!
//! Semantics follow 1999-era NFSv2/v3 defaults: per-block RPCs (rsize =
//! one 32 KB block here) and synchronous writes (each write RPC is stable
//! on disk before the reply).

use cdd::{frontend, IoError};
use cluster::{Cluster, ClusterConfig, DataPlane};
use raidx_core::{Layout, Raid0};
use sim_core::plan::{par, seq, use_res};
use sim_core::{Demand, Engine, Plan, SimDuration};
use sim_net::transfer_plan;

/// NFS protocol cost parameters.
#[derive(Debug, Clone)]
pub struct NfsConfig {
    /// RPC header bytes per request/reply.
    pub rpc_bytes: u64,
    /// Server-side nfsd processing per RPC (lookup, VFS, scheduling).
    pub nfsd_overhead: SimDuration,
    /// Synchronous (write-through) writes, as NFSv2 mandated.
    pub sync_writes: bool,
}

impl Default for NfsConfig {
    fn default() -> Self {
        NfsConfig {
            rpc_bytes: 128,
            nfsd_overhead: SimDuration::from_micros(150),
            sync_writes: true,
        }
    }
}

/// A central NFS server exporting its local disks to every cluster node.
pub struct NfsSystem {
    /// Cluster resource handles.
    pub cluster: Cluster,
    plane: DataPlane,
    layout: Raid0,
    cfg: NfsConfig,
    /// The node acting as the server.
    pub server: usize,
}

impl NfsSystem {
    /// Build the cluster and export node 0's disks over NFS.
    pub fn new(engine: &mut Engine, cluster_cfg: ClusterConfig, cfg: NfsConfig) -> Self {
        let blocks_per_disk = cluster_cfg.blocks_per_disk();
        let server = 0;
        // The server's local disks: global disks g with g % nodes == server.
        let layout = Raid0::new(cluster_cfg.disks_per_node, blocks_per_disk);
        let plane = DataPlane::new(
            cluster_cfg.total_disks(),
            cluster_cfg.block_size as usize,
            blocks_per_disk,
        );
        let cluster = Cluster::build(cluster_cfg, engine);
        NfsSystem { cluster, plane, layout, cfg, server }
    }

    /// Logical block size.
    pub fn block_size(&self) -> u64 {
        self.cluster.cfg.block_size
    }

    /// Exported capacity in blocks (the server's disks only — the
    /// fundamental scalability limit of the central-server design).
    pub fn capacity_blocks(&self) -> u64 {
        self.layout.capacity_blocks()
    }

    /// Map the export's local disk index to the global disk number.
    fn global_disk(&self, local: usize) -> usize {
        local * self.cluster.cfg.nodes + self.server
    }

    fn rpc(&self, src: usize, dst: usize, payload: u64) -> Plan {
        transfer_plan(
            &self.cluster.cfg.net,
            &self.cluster.path(src, dst),
            self.cfg.rpc_bytes + payload,
        )
    }

    fn nfsd(&self) -> Plan {
        use_res(self.cluster.nodes[self.server].cpu, Demand::Busy(self.cfg.nfsd_overhead))
    }

    /// Write `data` at logical block `lb0` from node `client`.
    ///
    /// Admission goes through the same `cdd::frontend` checks as the
    /// serverless array, so both stores reject malformed I/O with
    /// identical [`IoError`] variants.
    pub fn write(&mut self, client: usize, lb0: u64, data: &[u8]) -> Result<Plan, IoError> {
        let bs = self.block_size() as usize;
        let nblocks = frontend::validate_write(bs, self.capacity_blocks(), lb0, data.len())?;
        let mut rpcs = Vec::with_capacity(nblocks as usize);
        for (i, lb) in (lb0..lb0 + nblocks).enumerate() {
            let a = self.layout.locate_data(lb);
            let g = self.global_disk(a.disk);
            self.plane.write(g, a.block, &data[i * bs..(i + 1) * bs])?;
            let d = &self.cluster.disks[g];
            let mut chain = vec![
                self.rpc(client, self.server, bs as u64),
                self.nfsd(),
                use_res(d.bus, Demand::BusXfer { bytes: bs as u64 }),
            ];
            if self.cfg.sync_writes {
                chain.push(use_res(
                    d.res,
                    Demand::DiskWrite { offset: a.block * bs as u64, bytes: bs as u64 },
                ));
            }
            chain.push(self.rpc(self.server, client, 0));
            rpcs.push(seq(chain));
        }
        Ok(par(rpcs))
    }

    /// Read `nblocks` from logical block `lb0` for node `client`.
    pub fn read(
        &mut self,
        client: usize,
        lb0: u64,
        nblocks: u64,
    ) -> Result<(Vec<u8>, Plan), IoError> {
        frontend::validate_range(lb0, nblocks, self.capacity_blocks())?;
        let bs = self.block_size() as usize;
        let mut out = vec![0u8; nblocks as usize * bs];
        let mut rpcs = Vec::with_capacity(nblocks as usize);
        for (i, lb) in (lb0..lb0 + nblocks).enumerate() {
            let a = self.layout.locate_data(lb);
            let g = self.global_disk(a.disk);
            self.plane.read(g, a.block, &mut out[i * bs..(i + 1) * bs])?;
            let d = &self.cluster.disks[g];
            rpcs.push(seq(vec![
                self.rpc(client, self.server, 0),
                self.nfsd(),
                use_res(d.res, Demand::DiskRead { offset: a.block * bs as u64, bytes: bs as u64 }),
                use_res(d.bus, Demand::BusXfer { bytes: bs as u64 }),
                self.rpc(self.server, client, bs as u64),
            ]));
        }
        // A zero-block read is legal (empty bytes); an empty `Par` is not
        // a Strict-valid plan.
        let plan = if rpcs.is_empty() { Plan::Noop } else { par(rpcs) };
        Ok((out, plan))
    }
}

impl cdd::BlockStore for NfsSystem {
    fn block_size(&self) -> u64 {
        NfsSystem::block_size(self)
    }

    fn capacity_blocks(&self) -> u64 {
        NfsSystem::capacity_blocks(self)
    }

    fn nodes(&self) -> usize {
        self.cluster.cfg.nodes
    }

    fn arch_name(&self) -> String {
        "NFS".to_string()
    }

    fn cpu_of(&self, client: usize) -> sim_core::ResourceId {
        self.cluster.nodes[client].cpu
    }

    fn write(&mut self, client: usize, lb0: u64, data: &[u8]) -> Result<Plan, IoError> {
        NfsSystem::write(self, client, lb0, data)
    }

    fn read(&mut self, client: usize, lb0: u64, nblocks: u64) -> Result<(Vec<u8>, Plan), IoError> {
        NfsSystem::read(self, client, lb0, nblocks)
    }

    fn caches_metadata(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> ClusterConfig {
        let mut c = ClusterConfig::shape(4, 1);
        c.disk.capacity = 8 << 20;
        c
    }

    #[test]
    fn roundtrip() {
        let mut e = Engine::new();
        let mut s = NfsSystem::new(&mut e, cfg(), NfsConfig::default());
        let bs = s.block_size() as usize;
        let data: Vec<u8> = (0..4 * bs).map(|i| (i % 256) as u8).collect();
        let wp = s.write(2, 1, &data).unwrap();
        let (got, rp) = s.read(3, 1, 4).unwrap();
        assert_eq!(got, data);
        e.spawn_job("w", wp);
        e.spawn_job("r", rp);
        e.run().unwrap();
    }

    #[test]
    fn all_io_flows_through_server() {
        let mut e = Engine::new();
        let mut s = NfsSystem::new(&mut e, cfg(), NfsConfig::default());
        let bs = s.block_size() as usize;
        let data = vec![7u8; 2 * bs];
        let wp = s.write(3, 0, &data).unwrap();
        e.spawn_job("w", wp);
        e.run().unwrap();
        // The server node's rx saw the payload; no other node's disk moved.
        assert!(e.resource_stats(s.cluster.nodes[0].rx).bytes >= 2 * bs as u64);
        for g in 1..4 {
            assert_eq!(e.resource_stats(s.cluster.disks[g].res).ops, 0);
        }
        assert!(e.resource_stats(s.cluster.disks[0].res).ops > 0);
    }

    #[test]
    fn capacity_limited_to_server_disks() {
        let mut e = Engine::new();
        let s = NfsSystem::new(&mut e, cfg(), NfsConfig::default());
        // 1 disk per node -> only node 0's single disk is exported.
        assert_eq!(s.capacity_blocks(), cfg().blocks_per_disk());
    }

    #[test]
    fn out_of_range_rejected() {
        let mut e = Engine::new();
        let mut s = NfsSystem::new(&mut e, cfg(), NfsConfig::default());
        let cap = s.capacity_blocks();
        assert!(s.read(0, cap, 1).is_err());
    }

    #[test]
    fn concurrent_clients_serialize_on_server_port() {
        let mut e = Engine::new();
        let mut s = NfsSystem::new(&mut e, cfg(), NfsConfig::default());
        let bs = s.block_size();
        // Two remote clients read back-to-back ranges simultaneously.
        s.write(0, 0, &vec![1u8; 16 * bs as usize]).unwrap();
        let (_, p1) = s.read(1, 0, 8).unwrap();
        let (_, p2) = s.read(2, 8, 8).unwrap();
        e.spawn_job("c1", p1);
        e.spawn_job("c2", p2);
        let rep = e.run().unwrap();
        // 16 blocks = 512 KB through one 12.5 MB/s port: >= 40 ms.
        assert!(rep.end.as_secs_f64() > 0.04, "finished too fast: {}", rep.end);
        let tx = e.resource_stats(s.cluster.nodes[0].tx);
        assert!(tx.bytes >= 16 * bs);
    }
}
