//! Client-side block cache with SIOS lock-group coherence.
//!
//! Each client node keeps a private cache of logical block contents in
//! front of [`crate::datapath`]'s read path. Correctness rides the
//! paper's consistency module: every write already acquires its block
//! range in the replicated lock-group table, so the write grant is the
//! natural invalidation broadcast — while the grant is held, the writer
//! invalidates the written range in **every** client's cache
//! (write-invalidate, the protocol [`crate::store::BlockStore`] names as
//! what makes client caching safe). Three further events flush cached
//! extents wholesale:
//!
//! * a membership epoch bump (`add_disk`/`remove_disk`/`replace_disk`)
//!   — cached fills predate the new [`cluster::ClusterMap`] binding, so
//!   they are dropped exactly like a stale-epoch admission
//!   ([`crate::IoError::StaleEpoch`] semantics);
//! * a NIC partition or node crash — a client cut off from the
//!   replicated table can no longer receive invalidations, so its cache
//!   is dropped the moment connectivity is lost;
//! * an explicit [`crate::IoSystem`] flush (tests, recovery drivers).
//!
//! **Invalidation epochs.** The shared [`CacheSet`] carries a monotone
//! invalidation epoch, bumped on every invalidation or flush. A fill is
//! two-phase: [`CacheSet::begin_fill`] snapshots the epoch before the
//! array read, [`CacheSet::commit_fill`] inserts only those blocks not
//! invalidated since the snapshot — a fill racing an invalidation loses,
//! never the other way around. Eviction is deterministic LRU by logical
//! time (a per-[`CacheSet`] monotone use counter, not wall or sim time).

use std::collections::BTreeMap;

use cluster::Block;

use crate::system::IoSystem;

/// Tunables of the per-client block cache (see
/// [`crate::CddConfig::cache`]; `None` there disables caching entirely).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Capacity of each client's cache, in logical blocks. Zero is legal
    /// (every lookup misses, every fill is dropped).
    pub capacity_blocks: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig { capacity_blocks: 128 }
    }
}

/// Deterministic counters of the whole cache set (all clients).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Blocks served from a client's cache.
    pub hits: u64,
    /// Blocks fetched from the array because they were not cached.
    pub misses: u64,
    /// Cached blocks dropped by a write grant's invalidation.
    pub invalidations: u64,
    /// Cached blocks evicted to make room (LRU by logical time).
    pub evictions: u64,
    /// Whole-cache flushes (membership epoch bumps, partitions, crashes).
    pub flushes: u64,
    /// Fill blocks dropped because the range was invalidated between
    /// [`CacheSet::begin_fill`] and [`CacheSet::commit_fill`].
    pub fill_aborts: u64,
}

/// Epoch snapshot taken before an array read whose result may be cached.
#[derive(Debug, Clone, Copy)]
pub struct FillTicket {
    epoch: u64,
}

#[derive(Debug, Clone)]
struct Entry {
    /// The plane's own handle, not a copy: an overwrite replaces the
    /// plane's handle and invalidates this entry, it never edits it.
    data: Block,
    last_use: u64,
}

/// One client's private cache: logical block → bytes, LRU by the shared
/// logical clock.
#[derive(Debug, Clone, Default)]
struct ClientCache {
    entries: BTreeMap<u64, Entry>,
}

/// The per-client caches plus the shared coherence state (invalidation
/// epoch, per-block invalidation stamps, counters).
#[derive(Debug, Clone)]
pub struct CacheSet {
    cfg: CacheConfig,
    clients: Vec<ClientCache>,
    /// Logical LRU clock: bumped on every lookup touch and fill.
    clock: u64,
    /// Monotone invalidation epoch, bumped per invalidation event.
    inv_epoch: u64,
    /// Per-block epoch of the last invalidation touching it. Bounded by
    /// the written region (entries are overwritten, never duplicated).
    last_inv: BTreeMap<u64, u64>,
    /// Epoch at the most recent whole-cache flush (flushes invalidate
    /// everything, including in-flight fills of any block).
    last_flush: u64,
    stats: CacheStats,
}

impl CacheSet {
    /// Build empty caches for `clients` client nodes.
    pub fn new(cfg: CacheConfig, clients: usize) -> Self {
        CacheSet {
            cfg,
            clients: vec![ClientCache::default(); clients],
            clock: 0,
            inv_epoch: 0,
            last_inv: BTreeMap::new(),
            last_flush: 0,
            stats: CacheStats::default(),
        }
    }

    /// Deterministic counters so far.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Serve `[lb0, lb0+nblocks)` from `client`'s cache if **every**
    /// block is cached (whole-request admission: partial hits refetch
    /// the full range, which keeps the datapath's run planning intact).
    /// A hit touches each block's LRU stamp; a miss counts every block
    /// of the request as missed.
    pub fn lookup(&mut self, client: usize, lb0: u64, nblocks: u64, bs: usize) -> Option<Vec<u8>> {
        let cache = &mut self.clients[client];
        if (lb0..lb0 + nblocks).any(|lb| !cache.entries.contains_key(&lb)) {
            self.stats.misses += nblocks;
            return None;
        }
        let mut out = Vec::with_capacity(nblocks as usize * bs);
        for lb in lb0..lb0 + nblocks {
            self.clock += 1;
            let e = cache.entries.get_mut(&lb)?;
            e.last_use = self.clock;
            out.extend_from_slice(&e.data);
        }
        self.stats.hits += nblocks;
        Some(out)
    }

    /// Snapshot the invalidation epoch before an array read whose bytes
    /// will be offered to [`CacheSet::commit_fill`].
    pub fn begin_fill(&self) -> FillTicket {
        FillTicket { epoch: self.inv_epoch }
    }

    /// Insert the blocks of a completed array read (`blocks[i]` is logical
    /// block `lb0 + i`) into `client`'s cache, skipping any block
    /// invalidated (or flushed away) since the ticket was taken — the
    /// invalidate-while-fill-pending race always resolves toward
    /// invalidation.
    pub fn commit_fill(&mut self, client: usize, t: FillTicket, lb0: u64, blocks: Vec<Block>) {
        if self.cfg.capacity_blocks == 0 {
            return;
        }
        for (lb, data) in (lb0..).zip(blocks) {
            let stale =
                self.last_flush > t.epoch || self.last_inv.get(&lb).is_some_and(|&e| e > t.epoch);
            if stale {
                self.stats.fill_aborts += 1;
                continue;
            }
            self.clock += 1;
            let clock = self.clock;
            let cache = &mut self.clients[client];
            let fresh = !cache.entries.contains_key(&lb);
            if fresh && cache.entries.len() >= self.cfg.capacity_blocks {
                // Deterministic LRU: evict the least-recently-used entry
                // (the logical clock never ties — it bumps per touch).
                if let Some(victim) =
                    cache.entries.iter().min_by_key(|(_, e)| e.last_use).map(|(&lb, _)| lb)
                {
                    cache.entries.remove(&victim);
                    self.stats.evictions += 1;
                }
            }
            cache.entries.insert(lb, Entry { data, last_use: clock });
        }
    }

    /// Invalidate `[lb0, lb0+nblocks)` in **every** client's cache — the
    /// write-grant broadcast through the replicated table. Bumps the
    /// invalidation epoch and stamps each block so in-flight fills of the
    /// range abort at commit.
    pub fn invalidate(&mut self, lb0: u64, nblocks: u64) {
        self.inv_epoch += 1;
        for lb in lb0..lb0 + nblocks {
            self.last_inv.insert(lb, self.inv_epoch);
        }
        for cache in &mut self.clients {
            for lb in lb0..lb0 + nblocks {
                if cache.entries.remove(&lb).is_some() {
                    self.stats.invalidations += 1;
                }
            }
        }
    }

    /// Drop every client's cache (membership epoch bump — the cached
    /// fills predate the new cluster map, so `StaleEpoch` semantics
    /// demand they go). Also aborts every in-flight fill.
    pub fn flush_all(&mut self) {
        self.inv_epoch += 1;
        self.last_flush = self.inv_epoch;
        for cache in &mut self.clients {
            cache.entries.clear();
        }
        self.stats.flushes += 1;
    }

    /// Drop one client's cache (that node lost connectivity to the
    /// replicated table and can no longer see invalidations).
    pub fn flush_client(&mut self, client: usize) {
        if let Some(cache) = self.clients.get_mut(client) {
            cache.entries.clear();
        }
        self.inv_epoch += 1;
        self.last_flush = self.inv_epoch;
        self.stats.flushes += 1;
    }

    /// Blocks currently cached for `client`.
    pub fn cached_blocks(&self, client: usize) -> usize {
        self.clients.get(client).map_or(0, |c| c.entries.len())
    }
}

impl IoSystem {
    /// Whether the client-side cache is configured on.
    pub fn cache_enabled(&self) -> bool {
        self.cache.is_some()
    }

    /// Deterministic cache counters (`None` when caching is disabled).
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.cache.as_ref().map(|c| *c.stats())
    }

    /// Blocks currently cached for `client` (0 when caching is disabled).
    pub fn cached_blocks(&self, client: usize) -> usize {
        self.cache.as_ref().map_or(0, |c| c.cached_blocks(client))
    }

    /// Drop every client's cached extents (the hook membership epoch
    /// transitions call; public for recovery drivers and tests).
    pub fn cache_flush_all(&mut self) {
        if let Some(c) = self.cache.as_mut() {
            c.flush_all();
        }
    }

    /// Drop the cache of every client hosted on `node` (called when the
    /// node is partitioned or crashes — it can no longer observe the
    /// replicated table's invalidations).
    pub(crate) fn cache_flush_node(&mut self, node: usize) {
        if let Some(c) = self.cache.as_mut() {
            c.flush_client(node);
        }
    }

    /// Invalidate `[lb0, lb0+nblocks)` in every client's cache. Called
    /// under the write's lock-group grant, so the invalidation is
    /// ordered with the grant itself.
    pub(crate) fn cache_invalidate(&mut self, lb0: u64, nblocks: u64) {
        if let Some(c) = self.cache.as_mut() {
            c.invalidate(lb0, nblocks);
        }
    }

    /// Serve a read entirely from `client`'s cache if possible.
    pub(crate) fn cache_try_serve(&mut self, client: usize, lb0: u64, n: u64) -> Option<Vec<u8>> {
        let bs = self.cluster.cfg.block_size as usize;
        self.cache.as_mut().and_then(|c| c.lookup(client, lb0, n, bs))
    }

    /// Snapshot the invalidation epoch before a cache-missing array read.
    pub(crate) fn cache_begin_fill(&self) -> Option<FillTicket> {
        self.cache.as_ref().map(CacheSet::begin_fill)
    }

    /// Offer a completed array read's blocks to `client`'s cache.
    pub(crate) fn cache_commit_fill(
        &mut self,
        client: usize,
        t: FillTicket,
        lb0: u64,
        blocks: Vec<Block>,
    ) {
        if let Some(c) = self.cache.as_mut() {
            c.commit_fill(client, t, lb0, blocks);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BS: usize = 4;

    fn set(cap: usize, clients: usize) -> CacheSet {
        CacheSet::new(CacheConfig { capacity_blocks: cap }, clients)
    }

    fn fill(c: &mut CacheSet, client: usize, lb0: u64, blocks: &[u8]) {
        let t = c.begin_fill();
        c.commit_fill(client, t, lb0, blocks.iter().map(|&b| [b; BS].into()).collect());
    }

    #[test]
    fn fill_then_lookup_hits_and_write_invalidates() {
        let mut c = set(8, 2);
        fill(&mut c, 0, 0, &[1, 2]);
        assert_eq!(c.lookup(0, 0, 2, BS), Some(vec![1, 1, 1, 1, 2, 2, 2, 2]));
        assert_eq!(c.lookup(1, 0, 2, BS), None, "caches are private per client");
        c.invalidate(1, 1);
        assert_eq!(c.lookup(0, 0, 2, BS), None, "partial overlap misses whole request");
        assert_eq!(c.lookup(0, 0, 1, BS), Some(vec![1; BS]), "untouched block survives");
        assert_eq!(c.stats().invalidations, 1);
    }

    #[test]
    fn lru_evicts_least_recently_used_first() {
        let mut c = set(2, 1);
        fill(&mut c, 0, 0, &[1]);
        fill(&mut c, 0, 1, &[2]);
        assert!(c.lookup(0, 0, 1, BS).is_some(), "touch block 0: block 1 is now LRU");
        fill(&mut c, 0, 2, &[3]);
        assert_eq!(c.stats().evictions, 1);
        assert!(c.lookup(0, 1, 1, BS).is_none(), "block 1 was evicted");
        assert!(c.lookup(0, 0, 1, BS).is_some() && c.lookup(0, 2, 1, BS).is_some());
    }

    #[test]
    fn invalidation_between_begin_and_commit_aborts_the_fill() {
        let mut c = set(8, 1);
        let t = c.begin_fill();
        c.invalidate(0, 1);
        c.commit_fill(0, t, 0, vec![[9u8; BS].into(); 2]);
        assert!(c.lookup(0, 0, 1, BS).is_none(), "invalidated block must not be filled");
        assert_eq!(c.lookup(0, 1, 1, BS), Some(vec![9; BS]), "untouched block fills fine");
        assert_eq!(c.stats().fill_aborts, 1);
        // A flush aborts in-flight fills of *every* block.
        let t = c.begin_fill();
        c.flush_all();
        c.commit_fill(0, t, 4, vec![[7u8; BS].into()]);
        assert!(c.lookup(0, 4, 1, BS).is_none());
    }

    #[test]
    fn zero_capacity_never_stores() {
        let mut c = set(0, 1);
        fill(&mut c, 0, 0, &[1]);
        assert_eq!(c.lookup(0, 0, 1, BS), None);
        assert_eq!(c.stats().evictions, 0);
        assert_eq!(c.cached_blocks(0), 0);
    }
}
