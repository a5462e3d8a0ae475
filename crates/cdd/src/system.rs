//! The cooperative-disk-driver I/O system: a single I/O space over the
//! whole cluster, as an explicit three-layer request pipeline.
//!
//! [`IoSystem`] binds a [`Layout`] (where blocks live), a [`Cluster`]
//! (which resources they cross), a [`DataPlane`] (the actual bytes) and
//! a `Placer` (the epoch-versioned slot→physical binding), and
//! orchestrates the layers:
//!
//! 1. **Front end / admission** ([`crate::frontend`]) — range and length
//!    validation (shared with the NFS baseline), run coalescing, and
//!    replica selection for reads.
//! 2. **Consistency module** (`IoSystem::with_grant`) — the paper's
//!    replicated lock-group table; a write holds its group for the
//!    duration of the (logically instantaneous) functional update.
//! 3. **Write schemes** (`scheme`, `parity`) — one `IoSystem` method per
//!    [`raidx_core::WriteScheme`] arm executes the validated write.
//! 4. **Data plane** (`image_queue`) — the OSM write-behind
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
use std::sync::Arc;

use cluster::{Cluster, ClusterConfig, DataPlane};
use raidx_core::{Arch, FaultSet, Layout};
use sim_core::{Engine, Plan};
use sim_net::PartitionMap;

use crate::config::CddConfig;
use crate::frontend::ReadBalancer;
use crate::image_queue::ImageQueue;
use crate::ops::{OpBuilder, ACK_BYTES, CONTROL_BYTES};
use crate::placer::Placer;

pub use crate::error::IoError;

/// The single I/O space of one architecture over one cluster.
pub struct IoSystem {
    /// Cluster resource handles. Read-only outside the crate
    /// ([`IoSystem::cluster`]): the cached lock rounds and arms are
    /// derived from its node set and network spec.
    pub(crate) cluster: Cluster,
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
    /// Degraded-write ledger: per *physical* disk, the logical blocks
    /// whose copy there is stale — skipped by a degraded write, or left
    /// unrestored by a repair with no live source. Outside its own
    /// bookkeeping and counters only `IoSystem::untrusted` reads it.
    pub(crate) parked: BTreeMap<usize, BTreeSet<u64>>,
    /// Lock-group grants issued so far ([`IoSystem::with_grant`]).
    grants: u64,
    /// Whether a grant is live: the guard behind `with_grant`'s
    /// one-live-grant assert.
    granted: bool,
    pub(crate) high_water: u64,
    /// Data-plane write-behind buffer of the OSM image path (addresses
    /// are physical, so disk-level drains match the fault state).
    pub(crate) images: ImageQueue,
    /// Front-end replica selection for reads (load counters are indexed
    /// by logical slot, which never grows).
    pub(crate) balancer: ReadBalancer,
    /// Per-op image-backlog samples `(op sequence number, blocks buffered
    /// after the op)`, recorded only when
    /// [`IoSystem::enable_lock_metrics`] has been called: the backlog
    /// gauge of the write-behind bound. Op sequence is the timeline here —
    /// the functional update is logically instantaneous, so a sim-time
    /// series would have no width.
    pub(crate) backlog_samples: Option<Vec<(u64, usize)>>,
    /// Completed writes so far: the backlog sampler's sequence counter.
    pub(crate) op_seq: u64,
    /// Requests that timed out once against an unresponsive node and
    /// failed over to another copy: every timeout fails over exactly once,
    /// so this one count is both [`IoSystem::timeouts`] and
    /// [`IoSystem::failovers`].
    pub(crate) failovers: u64,
    /// Per-client block caches with lock-group-grant coherence
    /// ([`crate::cache`]); `None` (the default) keeps every request path
    /// byte- and plan-identical to an uncached build.
    pub(crate) cache: Option<crate::cache::CacheSet>,
    /// Per client, its lock round ([`OpBuilder::lock_round`]), built on
    /// the client's first write and kept for the life of the system:
    /// nothing it depends on (node set, network spec) changes after
    /// construction — `add_disk` adds disks, not nodes.
    lock_rounds: Vec<Option<Plan>>,
    /// Per node, the arm every client's lock round shares for it
    /// ([`OpBuilder::lock_arm`]); empty until the first round is built,
    /// so a system whose clients only read never builds them.
    lock_arms: Vec<Arc<[Plan]>>,
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
        let segment = cluster_cfg.net.segment_bytes;
        assert!(
            CONTROL_BYTES.max(ACK_BYTES) <= segment,
            "a control message ({CONTROL_BYTES} B) and an ack ({ACK_BYTES} B) must each fit one \
             {segment}-byte segment",
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
            grants: 0,
            granted: false,
            high_water: 0,
            images: ImageQueue::new(),
            balancer,
            backlog_samples: None,
            op_seq: 0,
            failovers: 0,
            cache,
            lock_rounds: vec![None; nodes],
            lock_arms: Vec::new(),
        }
    }

    /// Cluster resource handles (workloads need node, NIC and disk ids).
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
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

    /// The slot physical disk `phys` currently serves, if it serves one
    /// (spares and retired disks serve none).
    pub fn slot_of(&self, phys: usize) -> Option<usize> {
        self.placer.slot_of(phys)
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

    /// Request attempts that timed out against an unresponsive node. Each
    /// fails over exactly once, so this equals [`IoSystem::failovers`].
    pub fn timeouts(&self) -> u64 {
        self.failovers
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
        self.grants
    }

    /// Lock-group acquisitions rejected due to an overlapping grant:
    /// always 0, since `IoSystem::with_grant` never has a second grant
    /// to conflict with. Kept only because the repository benchmark reads
    /// it.
    pub fn lock_conflicts(&self) -> u64 {
        0
    }

    /// Consistency module: atomically take a lock-group grant, run
    /// `body` under it, and release it whatever `body` returned. The only
    /// way cdd code takes a lock group, so no path can hold one past the
    /// functional update — nor, as the entry assert states, take a second
    /// one under the first.
    ///
    /// Invariant: at most one grant is ever live. Every `IoSystem` call
    /// runs to completion under `&mut self`, so the grant is atomic by
    /// construction — this counter and guard are the whole lock-group
    /// table, nothing can conflict with a grant, and which blocks a grant
    /// covers changes nothing: the broadcast's cost is the
    /// [`IoSystem::lock_round`] plan.
    pub(crate) fn with_grant<R>(
        &mut self,
        body: impl FnOnce(&mut Self) -> Result<R, IoError>,
    ) -> Result<R, IoError> {
        assert!(!self.granted, "with_grant entered under a live grant");
        self.granted = true;
        self.grants += 1;
        let result = body(self);
        self.granted = false;
        result
    }

    /// Start recording one image-backlog sample per completed write (see
    /// [`IoSystem::take_backlog_samples`]); clears any previous samples.
    /// Lock grants need no switch: they are always counted
    /// ([`IoSystem::lock_grants`]).
    pub fn enable_lock_metrics(&mut self) {
        self.backlog_samples = Some(Vec::new());
    }

    /// Take the recorded `(op sequence, buffered image blocks)` samples,
    /// leaving recording enabled. The sequence numbers every completed
    /// write from 0, recorded or not. With a backlog bound configured this
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
        let ops = self.ops();
        sim_core::plan::par(ImageQueue::flush_plans(&ops, &self.placer, all))
    }

    /// Number of image blocks currently buffered for deferred flushing.
    /// With [`CddConfig::max_image_backlog`] set this gauge is clamped at
    /// the bound between requests.
    pub fn pending_image_blocks(&self) -> usize {
        self.images.len()
    }

    pub(crate) fn ops(&self) -> OpBuilder<'_> {
        OpBuilder { cluster: &self.cluster }
    }

    /// A handle to `client`'s lock round, which every write of that client
    /// shares.
    pub(crate) fn lock_round(&mut self, client: usize) -> Plan {
        // Not `self.ops()`: the builder must borrow only the fields it
        // reads while the caches are borrowed mutably.
        let ops = OpBuilder { cluster: &self.cluster };
        if self.lock_arms.is_empty() {
            self.lock_arms = (0..self.cluster.cfg.nodes).map(|n| ops.lock_arm(n)).collect();
        }
        let arms = &self.lock_arms;
        self.lock_rounds[client].get_or_insert_with(|| ops.lock_round(client, arms)).clone()
    }

    /// Count one completed write and, if recording is on, sample the image
    /// backlog it left under its sequence number.
    pub(crate) fn sample_backlog(&mut self) {
        let pending = self.images.len();
        let seq = self.op_seq;
        self.op_seq += 1;
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
    #[should_panic(expected = "with_grant entered under a live grant")]
    fn a_grant_body_cannot_take_a_second_grant() {
        let (_engine, mut sys) = crate::testkit::shape(4, 1, 8 << 20, raidx_core::Arch::RaidX);
        let _ = sys.with_grant(|sys| sys.with_grant(|_| Ok(())));
    }
}
