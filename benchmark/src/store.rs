//! The block stores the benchmark drives, and the boundary wrapper that
//! measures them from outside.

use cdd::{BlockStore, CacheConfig, CddConfig, IoError, IoSystem};
use cluster::ClusterConfig;
use nfs_sim::{NfsConfig, NfsSystem};
use raidx_core::Arch;
use sim_core::{Engine, Plan, ResourceId};

use crate::spans::Tracer;

/// One architecture configuration a workload runs on. `key` is the suffix
/// of per-architecture metric names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreConfig {
    /// Metric-name suffix, e.g. `raidx`.
    pub key: &'static str,
    /// `None` is the centralised NFS baseline.
    pub arch: Option<Arch>,
    /// Client block cache of the CDD layer (ignored by NFS).
    pub cache: Option<CacheConfig>,
}

/// The paper's four measured architectures, in its plotting order.
pub const FOUR_ARCHS: [StoreConfig; 4] = [
    StoreConfig { key: "nfs", arch: None, cache: None },
    StoreConfig { key: "raid5", arch: Some(Arch::Raid5), cache: None },
    StoreConfig { key: "raid10", arch: Some(Arch::Raid10), cache: None },
    StoreConfig { key: "raidx", arch: Some(Arch::RaidX), cache: None },
];

/// Either store, so per-layer counters can be read back after a run.
pub enum Store {
    /// Centralised NFS server on node 0.
    Nfs(Box<NfsSystem>),
    /// The CDD single I/O space over one RAID layout.
    Cdd(Box<IoSystem>),
}

impl Store {
    /// Build the cluster in `engine` and the store for `cfg` over it.
    pub fn build(engine: &mut Engine, cc: ClusterConfig, cfg: &StoreConfig) -> Store {
        match cfg.arch {
            None => Store::Nfs(Box::new(NfsSystem::new(engine, cc, NfsConfig::default()))),
            Some(arch) => {
                let cdd_cfg = CddConfig { cache: cfg.cache, ..CddConfig::default() };
                Store::Cdd(Box::new(IoSystem::new(engine, cc, arch, cdd_cfg)))
            }
        }
    }

    /// The CDD system, if this is one (mutably: `plane_mut` and the sample
    /// drains need it).
    pub fn cdd_mut(&mut self) -> Option<&mut IoSystem> {
        match self {
            Store::Cdd(s) => Some(s),
            Store::Nfs(_) => None,
        }
    }
}

impl Store {
    fn as_dyn(&self) -> &dyn BlockStore {
        match self {
            Store::Nfs(s) => s.as_ref(),
            Store::Cdd(s) => s.as_ref(),
        }
    }

    fn as_dyn_mut(&mut self) -> &mut dyn BlockStore {
        match self {
            Store::Nfs(s) => s.as_mut(),
            Store::Cdd(s) => s.as_mut(),
        }
    }
}

impl BlockStore for Store {
    fn block_size(&self) -> u64 {
        self.as_dyn().block_size()
    }

    fn capacity_blocks(&self) -> u64 {
        self.as_dyn().capacity_blocks()
    }

    fn nodes(&self) -> usize {
        self.as_dyn().nodes()
    }

    fn arch_name(&self) -> String {
        self.as_dyn().arch_name()
    }

    fn cpu_of(&self, client: usize) -> ResourceId {
        self.as_dyn().cpu_of(client)
    }

    fn write(&mut self, client: usize, lb0: u64, data: &[u8]) -> Result<Plan, IoError> {
        self.as_dyn_mut().write(client, lb0, data)
    }

    fn read(&mut self, client: usize, lb0: u64, nblocks: u64) -> Result<(Vec<u8>, Plan), IoError> {
        self.as_dyn_mut().read(client, lb0, nblocks)
    }

    fn flush(&mut self) -> Plan {
        self.as_dyn_mut().flush()
    }

    fn caches_metadata(&self) -> bool {
        self.as_dyn().caches_metadata()
    }
}

/// Work counted at the store boundary.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreCounts {
    /// `write` calls.
    pub write_calls: u64,
    /// Blocks those writes carried.
    pub write_blocks: u64,
    /// `read` calls.
    pub read_calls: u64,
    /// Blocks those reads asked for.
    pub read_blocks: u64,
    /// `flush` calls.
    pub flush_calls: u64,
    /// Calls that returned `Err`.
    pub errors: u64,
}

/// Span names of one store kind.
struct Names {
    write: &'static str,
    read: &'static str,
    flush: &'static str,
}

/// A [`BlockStore`] that records a span and counts blocks around every
/// call into the store it wraps. It sits where `cfs` and the load
/// generators call the store, so `cdd.*` (or `nfs-sim.*`) time is
/// measured at the layer boundary without editing the layer.
pub struct SpanStore<S> {
    inner: S,
    tr: Tracer,
    names: Names,
    counts: StoreCounts,
}

impl SpanStore<Store> {
    /// Wrap `inner`, recording into `tr` under the layer name of its kind.
    pub fn new(inner: Store, tr: Tracer) -> Self {
        let names = match inner {
            Store::Nfs(_) => {
                Names { write: "nfs-sim.write", read: "nfs-sim.read", flush: "nfs-sim.flush" }
            }
            Store::Cdd(_) => Names { write: "cdd.write", read: "cdd.read", flush: "cdd.flush" },
        };
        SpanStore { inner, tr, names, counts: StoreCounts::default() }
    }
}

impl<S> SpanStore<S> {
    /// The wrapped store.
    pub fn inner_mut(&mut self) -> &mut S {
        &mut self.inner
    }

    /// Work counted since the last [`SpanStore::reset_counts`].
    pub fn counts(&self) -> StoreCounts {
        self.counts
    }

    /// Zero the counters (called where the measured phase begins).
    pub fn reset_counts(&mut self) {
        self.counts = StoreCounts::default();
    }
}

impl<S: BlockStore> BlockStore for SpanStore<S> {
    fn block_size(&self) -> u64 {
        self.inner.block_size()
    }

    fn capacity_blocks(&self) -> u64 {
        self.inner.capacity_blocks()
    }

    fn nodes(&self) -> usize {
        self.inner.nodes()
    }

    fn arch_name(&self) -> String {
        self.inner.arch_name()
    }

    fn cpu_of(&self, client: usize) -> ResourceId {
        self.inner.cpu_of(client)
    }

    fn write(&mut self, client: usize, lb0: u64, data: &[u8]) -> Result<Plan, IoError> {
        let _g = self.tr.span(self.names.write);
        self.counts.write_calls += 1;
        self.counts.write_blocks += data.len() as u64 / self.inner.block_size().max(1);
        let r = self.inner.write(client, lb0, data);
        self.counts.errors += u64::from(r.is_err());
        r
    }

    fn read(&mut self, client: usize, lb0: u64, nblocks: u64) -> Result<(Vec<u8>, Plan), IoError> {
        let _g = self.tr.span(self.names.read);
        self.counts.read_calls += 1;
        self.counts.read_blocks += nblocks;
        let r = self.inner.read(client, lb0, nblocks);
        self.counts.errors += u64::from(r.is_err());
        r
    }

    fn flush(&mut self) -> Plan {
        let _g = self.tr.span(self.names.flush);
        self.counts.flush_calls += 1;
        self.inner.flush()
    }

    fn caches_metadata(&self) -> bool {
        self.inner.caches_metadata()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wrapper_counts_blocks_and_errors_and_records_spans() {
        let tr = Tracer::on();
        let mut engine = Engine::new();
        let cfg = FOUR_ARCHS[3];
        let mut cc = ClusterConfig::shape(4, 1);
        cc.disk.capacity = 4 << 20;
        let mut s = SpanStore::new(Store::build(&mut engine, cc, &cfg), tr.clone());
        let bs = s.block_size() as usize;
        s.write(0, 0, &vec![7u8; 2 * bs]).expect("write");
        let (got, _) = s.read(1, 0, 2).expect("read");
        assert_eq!(got, vec![7u8; 2 * bs]);
        assert!(s.read(1, u64::MAX - 1, 1).is_err(), "out-of-range read must fail");
        let _ = s.flush();
        let c = s.counts();
        assert_eq!((c.write_calls, c.write_blocks), (1, 2));
        assert_eq!((c.read_calls, c.read_blocks), (2, 3));
        assert_eq!((c.flush_calls, c.errors), (1, 1));
        let names: Vec<&str> = tr.take().iter().map(|s| s.name).collect();
        assert_eq!(names, ["cdd.write", "cdd.read", "cdd.read", "cdd.flush"]);
        s.reset_counts();
        assert_eq!(s.counts(), StoreCounts::default());
    }

    #[test]
    fn nfs_store_uses_its_own_layer_name() {
        let tr = Tracer::on();
        let mut engine = Engine::new();
        let mut inner = Store::build(&mut engine, ClusterConfig::shape(4, 1), &FOUR_ARCHS[0]);
        assert!(inner.cdd_mut().is_none());
        let mut s = SpanStore::new(inner, tr.clone());
        let bs = s.block_size() as usize;
        s.write(1, 3, &vec![1u8; bs]).expect("write");
        assert_eq!(tr.take()[0].name, "nfs-sim.write");
    }
}
