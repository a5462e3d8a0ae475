//! The request paths of the [`IoSystem`]: validated, locked writes
//! through the write schemes, and replica-balanced reads.
//!
//! Every request is validated ([`crate::frontend`]) and executed in the
//! same call, so it always runs against the current placement epoch.
//! While an epoch's migration drains, the placer serves still-pending
//! blocks from their old physical home, so reads stay byte-correct
//! without blocking on the rebalance.
//!
//! All placement decisions (layout addresses, fault routing, replica
//! selection) happen in logical *slot* space; the translation to
//! physical disks happens at the plane boundary through the
//! epoch-versioned `Placer`, and is the identity on a
//! never-reconfigured array.

use cluster::{extend_block, xor_of, Block};
use raidx_core::{FaultSet, ReadSource, WriteScheme};
use sim_core::plan::{delay, par, seq};
use sim_core::{Plan, SimDuration};

use crate::error::IoError;
use crate::frontend;
use crate::runs::merge_runs;
use crate::system::IoSystem;

/// How long a client waits on an unresponsive remote CDD before it
/// declares the attempt timed out and fails over to another copy,
/// charged once on the request's timing plan. Several disk service
/// times, so a merely busy disk never trips it.
pub const REQUEST_TIMEOUT: SimDuration = SimDuration::from_millis(50);

impl IoSystem {
    /// Write `data` (a whole number of blocks) at logical block `lb0` on
    /// behalf of node `client`. Returns the timing plan; the bytes are
    /// already durable on the functional plane when this returns.
    pub fn write(&mut self, client: usize, lb0: u64, data: &[u8]) -> Result<Plan, IoError> {
        let bs = self.block_size() as usize;
        let nblocks = frontend::validate_write(bs, self.capacity_blocks(), lb0, data.len())?;

        // Client module: plan against what this client can actually reach.
        // An alive-but-unreachable copy costs one timed-out attempt before
        // the degraded write proceeds without it (parking the copy).
        let eff = self.effective_faults(client);
        let eff_slots = self.placer.slot_write_faults(&eff);
        let blocked = self.touches_blocked_copy(&eff, lb0, nblocks);

        // Consistency module: the lock group is held for the duration of
        // the (logically instantaneous) functional update.
        let written = self.with_grant(|sys| {
            let result = sys.write_locked(client, &eff_slots, lb0, nblocks, data);
            // Coherence: the write grant doubles as the invalidation
            // broadcast through the replicated lock-group table — every
            // client's cached copy of the range is dropped while the grant
            // is still held, even if the write itself failed partway.
            sys.cache_invalidate(lb0, nblocks);
            result
        });
        let body = match written {
            Ok(body) => body,
            Err(IoError::DataLoss { lb }) => return Err(self.classify_loss(client, lb)),
            Err(e) => return Err(e),
        };
        self.sample_backlog();
        self.high_water = self.high_water.max(lb0 + nblocks);

        let mut chain = vec![self.ops().driver(client)];
        // A single-node array has no peer to tell, and a fan without arms
        // is not a Strict-valid plan.
        if self.cfg.lock_broadcast && self.cluster.cfg.nodes > 1 {
            chain.push(self.lock_round(client));
        }
        if blocked {
            self.failovers += 1;
            chain.push(delay(REQUEST_TIMEOUT));
        }
        chain.push(body);
        Ok(seq(chain))
    }

    /// Hand the validated, locked write to the method of the layout's
    /// write scheme, planned against the requesting client's effective
    /// fault set (slot view).
    fn write_locked(
        &mut self,
        client: usize,
        faults: &FaultSet,
        lb0: u64,
        nblocks: u64,
        data: &[u8],
    ) -> Result<Plan, IoError> {
        match self.layout.write_scheme() {
            WriteScheme::ForegroundMirror => {
                self.write_mirrored(faults, client, lb0, nblocks, data, false)
            }
            WriteScheme::BackgroundMirror => {
                let write_behind = self.cfg.background_mirroring;
                self.write_mirrored(faults, client, lb0, nblocks, data, write_behind)
            }
            WriteScheme::Parity => self.write_parity(faults, client, lb0, nblocks, data),
        }
    }

    /// Whether a request over `[lb0, lb0+nblocks)` involves a copy that
    /// is alive but unreachable, which costs it one timed-out attempt.
    /// `eff` is the client's physical-space view.
    fn touches_blocked_copy(&self, eff: &FaultSet, lb0: u64, nblocks: u64) -> bool {
        if self.partitions.is_empty() {
            return false;
        }
        let storage = self.storage_faults();
        for lb in lb0..lb0 + nblocks {
            for a in self.copy_addrs(lb) {
                let phys = self.placer.read_home(a).disk;
                if eff.contains(phys)
                    && !storage.contains(phys)
                    && !self.plane.is_failed(phys)
                    && !self.plane.is_offline(phys)
                {
                    return true;
                }
            }
        }
        false
    }

    /// Refine a scheme-level `DataLoss` into the client-visible error:
    /// if every copy is gone from the *media*, it really is data loss;
    /// if the bytes survive behind a partition, the request failed only
    /// on connectivity and must say so (and must not hang).
    pub(crate) fn classify_loss(&self, client: usize, lb: u64) -> IoError {
        let storage_slots = self.placer.slot_read_faults(&self.storage_faults());
        if matches!(self.layout.read_source(lb, &storage_slots), ReadSource::Lost) {
            return IoError::DataLoss { lb };
        }
        let mut addrs = vec![self.layout.locate_data(lb)];
        addrs.extend(self.layout.locate_images(lb));
        for a in addrs {
            let node = self.cluster.node_of_disk(self.placer.read_home(a).disk);
            if !self.partitions.reachable(client, node) {
                return IoError::Unreachable { node };
            }
        }
        // Unreachable through parity placement only.
        IoError::Unreachable { node: client }
    }

    /// Read `nblocks` logical blocks starting at `lb0` for node `client`.
    /// Returns the bytes (already materialized from the functional plane)
    /// and the timing plan.
    pub fn read(
        &mut self,
        client: usize,
        lb0: u64,
        nblocks: u64,
    ) -> Result<(Vec<u8>, Plan), IoError> {
        frontend::validate_range(lb0, nblocks, self.capacity_blocks())?;

        // Client cache: a read whose whole range is resident is served
        // locally — driver overhead only, no disk or network traffic.
        // A miss fills the cache at the end of this same call.
        if let Some(bytes) = self.cache_try_serve(client, lb0, nblocks) {
            return Ok((bytes, seq(vec![self.ops().driver(client)])));
        }
        let bs = self.block_size() as usize;

        // Client module: route around everything this client cannot reach.
        let eff = self.effective_faults(client);
        let eff_slots = self.placer.slot_read_faults(&eff);
        let storage = self.storage_faults();

        // Partition: blocks with a usable primary are balanced at run
        // granularity; the rest fall back to the degraded paths. A
        // primary that is alive but behind a partition costs one timed-out
        // attempt before the client retries against a replica.
        let mut healthy = Vec::new();
        let mut forced_images = Vec::new();
        let mut reconstructs = Vec::new();
        let mut blocked = false;
        for lb in lb0..lb0 + nblocks {
            let d = self.layout.locate_data(lb);
            if !eff_slots.contains(d.disk) {
                healthy.push((lb, d));
                continue;
            }
            let serving = self.placer.read_home(d).disk;
            if !storage.contains(serving)
                && !self.plane.is_failed(serving)
                && !self.plane.is_offline(serving)
            {
                blocked = true;
            }
            match self.layout.read_source(lb, &eff_slots) {
                ReadSource::Primary(a) | ReadSource::Image(a) => forced_images.push((lb, a)),
                ReadSource::Reconstruct { siblings, parity } => {
                    reconstructs.push((lb, siblings, parity))
                }
                ReadSource::Lost => return Err(self.classify_loss(client, lb)),
            }
        }
        if blocked {
            self.failovers += 1;
        }

        // Front end: run-level replica selection for the healthy primaries.
        let block_size = self.block_size();
        let mut physical: Vec<(usize, u64, u64, Vec<u64>)> = Vec::new(); // slot disk, start, len, lbs
        for run in merge_runs(healthy) {
            let choice =
                self.balancer.balance_run(self.layout.as_ref(), &eff_slots, block_size, &run);
            match choice {
                Some((disk, start)) => physical.push((disk, start, run.len(), run.lbs)),
                None => physical.push((run.disk, run.start, run.len(), run.lbs)),
            }
        }

        // Functional reads (slot addresses resolved per block through the
        // placer, so pending-migration blocks come from their old home):
        // one handle per block, borrowed from the plane or reconstructed.
        let mut blocks: Vec<Option<Block>> = vec![None; nblocks as usize];
        for (disk, start, _, lbs) in &physical {
            for (i, &lb) in lbs.iter().enumerate() {
                let h = self.placer.read_home(raidx_core::BlockAddr::new(*disk, start + i as u64));
                blocks[(lb - lb0) as usize] = Some(self.plane.get(h.disk, h.block)?);
            }
        }
        for &(lb, a) in &forced_images {
            let h = self.placer.read_home(a);
            blocks[(lb - lb0) as usize] = Some(self.plane.get(h.disk, h.block)?);
        }
        for (lb, siblings, parity) in &reconstructs {
            let mut parts = Vec::with_capacity(siblings.len() + 1);
            for a in std::iter::once(parity).chain(siblings.iter().map(|(_, a)| a)) {
                let h = self.placer.read_home(*a);
                parts.push(self.plane.get(h.disk, h.block)?);
            }
            blocks[(*lb - lb0) as usize] = Some(xor_of(&parts));
        }
        // The caller's bytes are the one copy this read makes; the cache
        // keeps the handles themselves.
        #[expect(
            clippy::expect_used,
            reason = "every block of the range went to exactly one of the three lists above"
        )]
        let blocks: Vec<Block> =
            blocks.into_iter().map(|b| b.expect("a block no read path served")).collect();
        let mut out = Vec::with_capacity(nblocks as usize * bs);
        for b in &blocks {
            extend_block(&mut out, b, bs);
        }

        // Timing plan (runs charged to the disk serving their first block).
        let ops = self.ops();
        let mut branches: Vec<Plan> = Vec::new();
        for (disk, start, len, _) in &physical {
            let h = self.placer.read_home(raidx_core::BlockAddr::new(*disk, *start));
            branches.push(ops.read_run(client, h.disk, h.block, *len));
        }
        for run in merge_runs(forced_images) {
            let h = self.placer.read_home(raidx_core::BlockAddr::new(run.disk, run.start));
            branches.push(ops.read_run(client, h.disk, h.block, run.len()));
        }
        for (_, siblings, parity) in &reconstructs {
            let mut reads: Vec<Plan> = siblings
                .iter()
                .map(|(_, a)| {
                    let h = self.placer.read_home(*a);
                    ops.read_run(client, h.disk, h.block, 1)
                })
                .collect();
            let hp = self.placer.read_home(*parity);
            reads.push(ops.read_run(client, hp.disk, hp.block, 1));
            let n_in = reads.len() as u64 + 1;
            branches.push(seq(vec![par(reads), ops.xor(client, n_in * bs as u64)]));
        }
        let mut chain = vec![ops.driver(client)];
        if blocked {
            // The failed attempt against the unresponsive primary: the
            // client waits out the full request timeout before retrying
            // against the replica — failover is bounded, never a hang.
            chain.push(delay(REQUEST_TIMEOUT));
        }
        if !branches.is_empty() {
            // A zero-block read has no branches; an empty `Par` is not a
            // Strict-valid plan.
            chain.push(par(branches));
        }
        self.cache_fill(client, lb0, blocks);
        Ok((out, seq(chain)))
    }
}

// The partition/failover request-path tests live in
// `crates/cdd/tests/partition.rs` (integration tests), keeping this
// module within the static-analysis size cap.
