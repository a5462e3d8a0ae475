//! The request paths of the [`IoSystem`]: epoch-stamped admission,
//! locked writes through the scheme drivers, and replica-balanced reads.
//!
//! Every request is admitted first ([`crate::frontend::Admission`]),
//! stamping the placement epoch the client saw. Writes must execute
//! under the same epoch; reads may trail by one while that epoch's
//! migration drains — the placer serves still-pending blocks from their
//! old physical home, which *is* the stale epoch's view, so such reads
//! stay byte-correct without blocking on the rebalance.
//!
//! All placement decisions (layout addresses, fault routing, replica
//! selection) happen in logical *slot* space; the translation to
//! physical disks happens at the plane boundary through the
//! [`crate::placer::Placer`], and is the identity on a
//! never-reconfigured array.

use cluster::{xor_of, Block};
use raidx_core::{FaultSet, ReadSource};
use sim_core::plan::{delay, par, seq};
use sim_core::trace::AccessKind;
use sim_core::{hb, Plan};

use crate::error::IoError;
use crate::frontend::{self, Admission};
use crate::runs::merge_runs;
use crate::scheme::{self, WriteCtx};
use crate::system::IoSystem;

impl IoSystem {
    /// Admit a write of `len` bytes at `lb0`, stamping the current epoch.
    pub fn admit_write(&self, lb0: u64, len: usize) -> Result<Admission, IoError> {
        let bs = self.block_size() as usize;
        let nblocks = frontend::validate_write(bs, self.capacity_blocks(), lb0, len)?;
        Ok(Admission { lb0, nblocks, epoch: self.placer.epoch() })
    }

    /// Admit a read of `nblocks` blocks at `lb0`, stamping the current
    /// epoch.
    pub fn admit_read(&self, lb0: u64, nblocks: u64) -> Result<Admission, IoError> {
        frontend::validate_range(lb0, nblocks, self.capacity_blocks())?;
        Ok(Admission { lb0, nblocks, epoch: self.placer.epoch() })
    }

    /// Write `data` (a whole number of blocks) at logical block `lb0` on
    /// behalf of node `client`. Returns the timing plan; the bytes are
    /// already durable on the functional plane when this returns.
    pub fn write(&mut self, client: usize, lb0: u64, data: &[u8]) -> Result<Plan, IoError> {
        let adm = self.admit_write(lb0, data.len())?;
        self.write_admitted(client, adm, data)
    }

    /// Execute a previously admitted write. Fails with
    /// [`IoError::StaleEpoch`] if the placement epoch moved since
    /// admission — the client must re-admit against the new map.
    pub fn write_admitted(
        &mut self,
        client: usize,
        adm: Admission,
        data: &[u8],
    ) -> Result<Plan, IoError> {
        let current = self.placer.epoch();
        if adm.epoch != current {
            return Err(IoError::StaleEpoch { seen: adm.epoch, current });
        }
        let bs = self.block_size() as usize;
        let (lb0, nblocks) = (adm.lb0, adm.nblocks);
        if data.len() != nblocks as usize * bs {
            return Err(IoError::BadLength { expected: nblocks as usize * bs, got: data.len() });
        }

        // Client module: plan against what this client can actually reach.
        // An alive-but-unreachable copy costs one timed-out attempt before
        // the degraded write proceeds without it (parking the copy); with
        // retries disabled the request surfaces the partition instead.
        let eff = self.effective_faults(client);
        let eff_slots = self.placer.slot_write_faults(&eff);
        let blocked = self.blocked_peer(&eff, lb0, nblocks);
        if let Some(node) = blocked {
            if self.cfg.max_retries == 0 {
                return Err(IoError::Unreachable { node, attempts: 1 });
            }
        }

        // Consistency module: the lock group is held for the duration of
        // the (logically instantaneous) functional update.
        let written = self.with_grant(client, lb0, nblocks, |sys, tick| {
            sys.sample_locks();
            let mut surrendered = tick.map(|_| Vec::new());
            let result =
                sys.write_locked(client, &eff_slots, lb0, nblocks, data, surrendered.as_mut());
            // Coherence: the write grant doubles as the invalidation
            // broadcast through the replicated lock-group table — every
            // client's cached copy of the range is dropped while the grant
            // is still held, even if the write itself failed partway.
            sys.cache_invalidate(lb0, nblocks);
            // Protocol trace, on the grant's tick and between its
            // `Acquire` and `Release`: the write, then the surrenders.
            if let (Some(at), true) = (tick, result.is_ok()) {
                let actor = hb::client_actor(client);
                sys.trace_access(at, actor, hb::sios_cell(lb0), nblocks, AccessKind::Write);
                for lb in surrendered.into_iter().flatten() {
                    sys.trace_access(at, actor, hb::image_cell(lb), 1, AccessKind::Write);
                }
            }
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
        if self.cfg.lock_broadcast {
            // A single-node array has no peer to tell, and an empty `Par`
            // is not a Strict-valid plan.
            let peers = self.lock_round(client);
            if !peers.is_empty() {
                chain.push(par(peers));
            }
        }
        if blocked.is_some() {
            self.timeouts += 1;
            self.failovers += 1;
            chain.push(delay(self.cfg.request_timeout));
        }
        chain.push(body);
        Ok(seq(chain))
    }

    /// Scheme-driver dispatch: hand the admitted, locked write to the
    /// driver matching the layout's write scheme, planned against the
    /// requesting client's effective fault set (slot view).
    fn write_locked(
        &mut self,
        client: usize,
        eff_slots: &FaultSet,
        lb0: u64,
        nblocks: u64,
        data: &[u8],
        surrendered: Option<&mut Vec<u64>>,
    ) -> Result<Plan, IoError> {
        let driver = scheme::driver_for(self.layout.write_scheme());
        let mut ctx = WriteCtx {
            layout: self.layout.as_ref(),
            plane: &mut self.plane,
            placer: &mut self.placer,
            faults: eff_slots,
            cluster: &self.cluster,
            cfg: &self.cfg,
            images: &mut self.images,
            parked: &mut self.parked,
            surrendered,
        };
        driver.write(&mut ctx, client, lb0, nblocks, data)
    }

    /// First alive-but-unreachable peer node involved in a request over
    /// `[lb0, lb0+nblocks)`, if any — the node a timed-out attempt is
    /// charged against. `eff` is the client's physical-space view.
    pub(crate) fn blocked_peer(&self, eff: &FaultSet, lb0: u64, nblocks: u64) -> Option<usize> {
        if self.partitions.is_empty() {
            return None;
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
                    return Some(self.cluster.node_of_disk(phys));
                }
            }
        }
        None
    }

    /// Refine a driver-level `DataLoss` into the client-visible error:
    /// if every copy is gone from the *media*, it really is data loss;
    /// if the bytes survive behind a partition, the request failed only
    /// on connectivity and must say so (and must not hang).
    pub(crate) fn classify_loss(&self, client: usize, lb: u64) -> IoError {
        let storage_slots = self.placer.slot_read_faults(&self.storage_faults());
        if matches!(self.layout.read_source(lb, &storage_slots), ReadSource::Lost) {
            return IoError::DataLoss { lb };
        }
        let attempts = 1 + self.cfg.max_retries;
        let mut addrs = vec![self.layout.locate_data(lb)];
        addrs.extend(self.layout.locate_images(lb));
        for a in addrs {
            let node = self.cluster.node_of_disk(self.placer.read_home(a).disk);
            if !self.partitions.reachable(client, node) {
                return IoError::Unreachable { node, attempts };
            }
        }
        // Unreachable through parity placement only.
        IoError::Unreachable { node: client, attempts }
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
        let adm = self.admit_read(lb0, nblocks)?;
        self.read_admitted(client, adm)
    }

    /// Execute a previously admitted read. A stamp one epoch behind is
    /// accepted while that epoch's migration is still in flight (pending
    /// blocks are served from their old home — the stale epoch's view);
    /// anything older fails with [`IoError::StaleEpoch`].
    pub fn read_admitted(
        &mut self,
        client: usize,
        adm: Admission,
    ) -> Result<(Vec<u8>, Plan), IoError> {
        let current = self.placer.epoch();
        let stale_ok = adm.epoch + 1 == current && self.placer.migration().is_some();
        if adm.epoch != current && !stale_ok {
            return Err(IoError::StaleEpoch { seen: adm.epoch, current });
        }
        let (lb0, nblocks) = (adm.lb0, adm.nblocks);

        // Client cache: a read whose whole range is resident is served
        // locally — driver overhead only, no disk or network traffic.
        // Misses snapshot the invalidation epoch *before* the array read
        // so a concurrent grant's invalidation always beats the fill.
        if let Some(bytes) = self.cache_try_serve(client, lb0, nblocks) {
            let plan = seq(vec![self.ops().driver(client)]);
            if self.tracer.is_some() {
                let at = self.next_op_tick();
                self.trace_access(
                    at,
                    hb::client_actor(client),
                    hb::sios_cell(lb0),
                    nblocks,
                    AccessKind::Read,
                );
            }
            return Ok((bytes, plan));
        }
        let fill = self.cache_begin_fill();
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
        let mut blocked: Option<usize> = None;
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
                blocked.get_or_insert(self.cluster.node_of_disk(serving));
            }
            match self.layout.read_source(lb, &eff_slots) {
                ReadSource::Primary(a) | ReadSource::Image(a) => forced_images.push((lb, a)),
                ReadSource::Reconstruct { siblings, parity } => {
                    reconstructs.push((lb, siblings, parity))
                }
                ReadSource::Lost => return Err(self.classify_loss(client, lb)),
            }
        }
        if let Some(node) = blocked {
            if self.cfg.max_retries == 0 {
                return Err(IoError::Unreachable { node, attempts: 1 });
            }
            self.timeouts += 1;
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
            out.extend_from_slice(b);
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
        if blocked.is_some() {
            // The failed attempt against the unresponsive primary: the
            // client waits out the full request timeout before retrying
            // against the replica — failover is bounded, never a hang.
            chain.push(delay(self.cfg.request_timeout));
        }
        if !branches.is_empty() {
            // A zero-block read has no branches; an empty `Par` is not a
            // Strict-valid plan.
            chain.push(par(branches));
        }
        if self.tracer.is_some() {
            // Reads are lock-free by design; the trace point feeds the
            // analyzer's same-tick auditor.
            let at = self.next_op_tick();
            self.trace_access(
                at,
                hb::client_actor(client),
                hb::sios_cell(lb0),
                nblocks,
                AccessKind::Read,
            );
        }
        if let Some(t) = fill {
            self.cache_commit_fill(client, t, lb0, blocks);
        }
        Ok((out, seq(chain)))
    }
}

// The partition/failover request-path tests live in
// `crates/cdd/tests/partition.rs` (integration tests), keeping this
// module within the static-analysis size cap.
