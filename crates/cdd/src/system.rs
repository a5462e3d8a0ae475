//! The cooperative-disk-driver I/O system: a single I/O space over the
//! whole cluster, as an explicit three-layer request pipeline.
//!
//! [`IoSystem`] binds a [`Layout`] (where blocks live), a [`Cluster`]
//! (which resources they cross), a [`DataPlane`] (the actual bytes) and
//! a [`Placer`] (the epoch-versioned slot→physical binding), and
//! orchestrates the layers:
//!
//! 1. **Front end / admission** ([`crate::frontend`]) — range and length
//!    validation (shared with the NFS baseline), epoch stamping, run
//!    coalescing, and replica selection for reads.
//! 2. **Consistency module** ([`crate::locks`]) — the replicated
//!    lock-group table; a write holds its group for the duration of the
//!    (logically instantaneous) functional update.
//! 3. **Scheme drivers** ([`crate::scheme`]) — one driver per
//!    [`raidx_core::WriteScheme`] executes the admitted write.
//! 4. **Data plane** ([`crate::image_queue`]) — the OSM write-behind
//!    queue buffering deferred mirror images, bounded by
//!    [`CddConfig::max_image_backlog`].
//!
//! Every request is executed **functionally** (bytes move now, so
//! correctness is checkable) and **temporally** (a [`Plan`] is returned
//! for the discrete-event engine, so performance is measurable).
//!
//! The orchestrator is split across three modules, all `impl IoSystem`:
//! this one holds the state and its accessors, [`crate::datapath`] the
//! read/write request paths, and [`crate::membership`] fault state and
//! the epoch-transition operations (disk add/remove/replace and the
//! incremental rebalance). Scrub and rebuild live in
//! [`crate::maintenance`].

use std::collections::{BTreeMap, BTreeSet};

use cluster::{Cluster, ClusterConfig, ClusterMap, DataPlane};
use raidx_core::{Arch, FaultSet, Layout};
use sim_core::trace::{AccessKind, TraceEvent, Tracer};
use sim_core::{hb, Engine, Plan, SimTime};
use sim_net::PartitionMap;

use crate::config::CddConfig;
use crate::frontend::ReadBalancer;
use crate::image_queue::ImageQueue;
use crate::locks::LockGroupTable;
use crate::ops::OpBuilder;
use crate::placer::Placer;

pub use crate::error::IoError;

/// The single I/O space of one architecture over one cluster.
pub struct IoSystem {
    /// Cluster resource handles (public: workloads need node/NIC ids).
    pub cluster: Cluster,
    pub(crate) plane: DataPlane,
    pub(crate) layout: Box<dyn Layout>,
    pub(crate) cfg: CddConfig,
    /// Epoch-versioned slot→physical placement (identity until the first
    /// reconfiguration, so static runs take the untranslated fast path).
    pub(crate) placer: Placer,
    pub(crate) faults: FaultSet,
    /// Disks transiently offline (contents intact, I/O rejected). The
    /// paper's *transient* failure class: recovery resyncs only the
    /// parked blocks instead of rebuilding the whole disk.
    pub(crate) offline: FaultSet,
    /// Interconnect fault state: which nodes are cut off right now.
    pub(crate) partitions: PartitionMap,
    /// Degraded-write ledger: per unavailable *physical* disk, the
    /// logical blocks whose copy there was skipped and must be restored
    /// on recovery.
    pub(crate) parked: BTreeMap<usize, BTreeSet<u64>>,
    /// The lock-group table. Private: every grant goes through
    /// [`IoSystem::with_grant`], which cannot leak one.
    locks: LockGroupTable,
    pub(crate) high_water: u64,
    /// Data-plane write-behind buffer of the OSM image path (addresses
    /// are physical, so disk-level drains match the fault state).
    pub(crate) images: ImageQueue,
    /// Front-end replica selection for reads (load counters are indexed
    /// by logical slot, which never grows).
    pub(crate) balancer: ReadBalancer,
    /// Per-op lock-table occupancy samples `(op sequence number, records
    /// held while the op's grant was live)`, recorded only when
    /// [`IoSystem::enable_lock_metrics`] has been called. Op sequence is
    /// the timeline here — grants are scoped to the functional call, so
    /// a sim-time series would read as permanently empty.
    pub(crate) lock_samples: Option<Vec<(u64, usize)>>,
    /// Per-op image-backlog samples `(op sequence number, blocks buffered
    /// after the op)`, recorded alongside the lock samples. The backlog
    /// gauge of the write-behind bound.
    pub(crate) backlog_samples: Option<Vec<(u64, usize)>>,
    /// Monotone operation counter (writes), for the sample series.
    pub(crate) op_seq: u64,
    /// Request attempts that timed out against an unresponsive node.
    pub(crate) timeouts: u64,
    /// Requests that failed over to a replica after a timeout.
    pub(crate) failovers: u64,
    /// Optional observer of protocol-level [`TraceEvent::Access`] events
    /// (lock grants/releases, SIOS reads/writes, OSM image surrenders).
    /// `None` keeps every emission site a single branch — the same
    /// zero-cost-when-disabled guarantee the engine's tracer gives.
    pub(crate) tracer: Option<Box<dyn Tracer>>,
    /// Synthetic protocol clock: one tick per traced operation. Access
    /// events are stamped with it (not engine time — the functional
    /// update is logically instantaneous), so every op's accesses share
    /// a timestamp distinct from every other op's.
    pub(crate) trace_ticks: u64,
    /// Per-client block caches with lock-group-grant coherence
    /// ([`crate::cache`]); `None` (the default) keeps every request path
    /// byte- and plan-identical to an uncached build.
    pub(crate) cache: Option<crate::cache::CacheSet>,
    /// Per client, the branches of its lock round
    /// ([`OpBuilder::lock_round`]), built on the client's first write and
    /// kept for the life of the system: nothing they depend on (node set,
    /// network spec, control and ack sizes) changes after construction —
    /// `add_disk` adds disks, not nodes. Built lazily: all of them up front
    /// would be `nodes²` chains inside `new` (16,256 at 128 nodes), paid
    /// even by a system whose clients only read.
    lock_rounds: Vec<Option<Vec<Plan>>>,
}

impl IoSystem {
    /// Build the cluster in `engine` and assemble the I/O space for `arch`.
    pub fn new(
        engine: &mut Engine,
        cluster_cfg: ClusterConfig,
        arch: Arch,
        cfg: CddConfig,
    ) -> Self {
        let blocks_per_disk = cluster_cfg.blocks_per_disk();
        let layout = raidx_core::layout_for(
            arch,
            cluster_cfg.nodes,
            cluster_cfg.disks_per_node,
            blocks_per_disk,
        );
        let plane = DataPlane::new(
            cluster_cfg.total_disks(),
            cluster_cfg.block_size as usize,
            blocks_per_disk,
        );
        let total_disks = cluster_cfg.total_disks();
        let nodes = cluster_cfg.nodes;
        let cluster = Cluster::build(cluster_cfg, engine);
        let balancer = ReadBalancer::new(cfg.read_balance, total_disks);
        let cache = cfg.cache.map(|c| crate::cache::CacheSet::new(c, nodes));
        IoSystem {
            cluster,
            plane,
            layout,
            cfg,
            placer: Placer::identity(total_disks),
            faults: FaultSet::none(),
            offline: FaultSet::none(),
            partitions: PartitionMap::new(),
            parked: BTreeMap::new(),
            locks: LockGroupTable::new(),
            high_water: 0,
            images: ImageQueue::new(),
            balancer,
            lock_samples: None,
            backlog_samples: None,
            op_seq: 0,
            timeouts: 0,
            failovers: 0,
            tracer: None,
            trace_ticks: 0,
            cache,
            lock_rounds: vec![None; nodes],
        }
    }

    /// Install a [`Tracer`] observing protocol-level cell accesses from
    /// now on (replacing any previous one). Install a clone of the same
    /// [`sim_core::EventLog`] here and in the engine to get one merged
    /// stream for the happens-before analyzer ([`sim_core::hb`]).
    pub fn set_tracer(&mut self, tracer: Box<dyn Tracer>) {
        self.tracer = Some(tracer);
    }

    /// Remove and return the installed tracer, restoring no-op tracing.
    pub fn clear_tracer(&mut self) -> Option<Box<dyn Tracer>> {
        self.tracer.take()
    }

    /// Allocate the next protocol-clock tick (tracing enabled only).
    pub(crate) fn next_op_tick(&mut self) -> SimTime {
        let t = self.trace_ticks;
        self.trace_ticks += 1;
        SimTime(t)
    }

    /// Emit one `Access` event if a tracer is installed.
    pub(crate) fn trace_access(
        &mut self,
        at: SimTime,
        actor: u32,
        cell: u64,
        len: u64,
        kind: AccessKind,
    ) {
        if let Some(tr) = self.tracer.as_mut() {
            tr.record(at, TraceEvent::Access { task: actor, cell, len, kind });
        }
    }

    /// Emit image-surrender writes for blocks that left the OSM queue
    /// outside any client op (flush points, disk drains).
    pub(crate) fn trace_image_drain(&mut self, lbs: &[u64]) {
        if self.tracer.is_none() || lbs.is_empty() {
            return;
        }
        let at = self.next_op_tick();
        for &lb in lbs {
            self.trace_access(at, hb::OSM_ACTOR, hb::image_cell(lb), 1, AccessKind::Write);
        }
    }

    /// The layout driving this system.
    pub fn layout(&self) -> &dyn Layout {
        self.layout.as_ref()
    }

    /// Logical block size in bytes.
    pub fn block_size(&self) -> u64 {
        self.cluster.cfg.block_size
    }

    /// Client-visible capacity in blocks.
    pub fn capacity_blocks(&self) -> u64 {
        self.layout.capacity_blocks()
    }

    /// Current placement epoch (0 until the first reconfiguration).
    pub fn epoch(&self) -> u64 {
        self.placer.epoch()
    }

    /// The epoch-versioned cluster map (roster states, past bindings).
    pub fn cluster_map(&self) -> &ClusterMap {
        self.placer.map()
    }

    /// Blocks still awaiting migration after an epoch transition (0 when
    /// no migration is in flight).
    pub fn migration_pending(&self) -> usize {
        self.placer.pending_blocks()
    }

    /// Currently failed disks (permanent: contents lost).
    pub fn faults(&self) -> &FaultSet {
        &self.faults
    }

    /// Disks currently transiently offline (contents intact).
    pub fn offline_disks(&self) -> &FaultSet {
        &self.offline
    }

    /// Current interconnect partition state.
    pub fn partitions(&self) -> &PartitionMap {
        &self.partitions
    }

    /// Logical blocks parked against physical `disk` by degraded writes.
    pub fn parked_blocks(&self, disk: usize) -> usize {
        self.parked.get(&disk).map_or(0, BTreeSet::len)
    }

    /// Total parked blocks across all disks.
    pub fn parked_total(&self) -> usize {
        self.parked.values().map(BTreeSet::len).sum()
    }

    /// Request attempts that timed out against an unresponsive node.
    pub fn timeouts(&self) -> u64 {
        self.timeouts
    }

    /// Requests that failed over to a surviving replica after a timeout.
    pub fn failovers(&self) -> u64 {
        self.failovers
    }

    /// Highest written logical block + 1.
    pub fn high_water(&self) -> u64 {
        self.high_water
    }

    /// Lock-group grants issued so far.
    pub fn lock_grants(&self) -> u64 {
        self.locks.grants()
    }

    /// Lock-group acquisitions rejected due to an overlapping grant.
    pub fn lock_conflicts(&self) -> u64 {
        self.locks.conflicts()
    }

    /// Consistency module: atomically acquire write permission on
    /// `[start, start+len)` for `client`, run `body` under the grant, and
    /// release it whatever `body` returned. The only way cdd code takes a
    /// lock group, so no path can hold one past the functional update —
    /// nor, as the entry assert states, take a second one under the
    /// first — and the only place a grant is traced: with a tracer
    /// installed the op gets one protocol tick, handed to `body` for its
    /// own accesses, with `Acquire` emitted before and `Release` after it.
    pub(crate) fn with_grant<R>(
        &mut self,
        client: usize,
        start: u64,
        len: u64,
        body: impl FnOnce(&mut Self, Option<SimTime>) -> Result<R, IoError>,
    ) -> Result<R, IoError> {
        debug_assert!(self.locks.held().next().is_none(), "with_grant entered under a live grant");
        let grant = self.locks.acquire(client, start, len).map_err(IoError::Lock)?;
        let tick = self.tracer.is_some().then(|| self.next_op_tick());
        let trace = |sys: &mut Self, kind| {
            if let Some(at) = tick {
                sys.trace_access(at, hb::client_actor(client), hb::sios_cell(start), len, kind);
            }
        };
        trace(self, AccessKind::Acquire);
        let result = body(self, tick);
        trace(self, AccessKind::Release);
        self.locks.release(grant);
        result
    }

    /// Start recording per-op lock-table occupancy and image-backlog
    /// samples (see [`IoSystem::take_lock_samples`] and
    /// [`IoSystem::take_backlog_samples`]); clears any previous samples.
    pub fn enable_lock_metrics(&mut self) {
        self.lock_samples = Some(Vec::new());
        self.backlog_samples = Some(Vec::new());
    }

    /// Take the recorded `(op sequence, lock records held)` samples,
    /// leaving recording enabled. The `bench trace` exporter turns these
    /// into the CDD lock-table occupancy series.
    pub fn take_lock_samples(&mut self) -> Vec<(u64, usize)> {
        self.lock_samples.as_mut().map(std::mem::take).unwrap_or_default()
    }

    /// Take the recorded `(op sequence, buffered image blocks)` samples,
    /// leaving recording enabled. With a backlog bound configured this
    /// series never exceeds the bound.
    pub fn take_backlog_samples(&mut self) -> Vec<(u64, usize)> {
        self.backlog_samples.as_mut().map(std::mem::take).unwrap_or_default()
    }

    /// Direct (test) access to the functional plane.
    pub fn plane_mut(&mut self) -> &mut DataPlane {
        &mut self.plane
    }

    /// Flush every still-buffered image group (partial groups included) as
    /// background writes. Call at sync points; the returned plan performs
    /// the deferred mirror traffic.
    pub fn flush_images(&mut self) -> sim_core::Plan {
        let all = self.images.drain_all();
        if all.is_empty() {
            return sim_core::Plan::Noop;
        }
        if self.tracer.is_some() {
            let lbs: Vec<u64> = all.iter().map(|p| p.lb).collect();
            self.trace_image_drain(&lbs);
        }
        let ops = self.ops();
        sim_core::plan::par(ImageQueue::flush_plans(&ops, all))
    }

    /// Number of image blocks currently buffered for deferred flushing.
    /// With [`CddConfig::max_image_backlog`] set this gauge is clamped at
    /// the bound between requests.
    pub fn pending_image_blocks(&self) -> usize {
        self.images.len()
    }

    pub(crate) fn ops(&self) -> OpBuilder<'_> {
        OpBuilder { cluster: &self.cluster, cfg: &self.cfg }
    }

    /// The parallel branches of `client`'s lock round: handles to the
    /// chains every write of that client shares.
    pub(crate) fn lock_round(&mut self, client: usize) -> Vec<Plan> {
        // Not `self.ops()`: the builder must borrow only the fields it
        // reads while `lock_rounds` is borrowed mutably.
        let ops = OpBuilder { cluster: &self.cluster, cfg: &self.cfg };
        self.lock_rounds[client].get_or_insert_with(|| ops.lock_round(client)).clone()
    }

    /// Record one `(op sequence, records held)` sample if lock metrics
    /// recording is on. Called while the current op's grant is live.
    pub(crate) fn sample_locks(&mut self) {
        let held = self.locks.held().count();
        let seq = self.op_seq;
        self.op_seq += 1;
        if let Some(samples) = self.lock_samples.as_mut() {
            samples.push((seq, held));
        }
    }

    /// Record the post-op image backlog under the same op sequence the
    /// lock sample used.
    pub(crate) fn sample_backlog(&mut self) {
        let pending = self.images.len();
        let seq = self.op_seq.saturating_sub(1);
        if let Some(samples) = self.backlog_samples.as_mut() {
            samples.push((seq, pending));
        }
    }
}

#[cfg(test)]
mod tests {
    /// No grant is alive when one is taken — the fact that left a
    /// lock-order analysis of this system nothing to find.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "with_grant entered under a live grant")]
    fn a_grant_body_cannot_take_a_second_grant() {
        let (_engine, mut sys) = crate::testkit::shape(4, 1, 8 << 20, raidx_core::Arch::RaidX);
        let _ = sys.with_grant(0, 0, 1, |sys, _| sys.with_grant(0, 8, 1, |_, _| Ok(())));
    }
}
