//! The metadata layer: inode-table and directory blocks of one store,
//! behind the per-client metadata cache.
//!
//! [`Meta`] owns the [`BlockStore`] privately, so the path and file
//! operations in [`crate::fs`] reach an inode or a directory block only
//! through it and cannot write one past the cache.
//!
//! The cache is a cache on both clocks. Per metadata block it keeps
//! **one** copy of the content, shared by all clients and cut to what is
//! live in it — a directory block's slots up to the last name, not its
//! 512; an inode-table block whole, the table being a few dense blocks —
//! plus the set of clients holding the block, which alone decides the
//! simulated cost: a holder pays [`CACHE_HIT_COST`], anyone else the
//! store's read plan. A hit makes no store call and allocates nothing (a
//! lookup compares names where they lie); a miss reads the array and,
//! where a peer already holds the block, `debug_assert`s that the array
//! returned what the cache holds. A write is judged by the store: accepted,
//! it leaves the writer the sole holder (write-invalidate, the discipline
//! the CDD consistency module enforces); refused, it drops the entry.
//! Stores that do not cache metadata (NFS) keep nothing and read the array
//! every time. The cache is unbounded, as the holder map it replaces was:
//! metadata cut to its live part is small (DESIGN §5d).

use std::borrow::Cow;
use std::collections::hash_map::{Entry, OccupiedEntry};
use std::collections::{HashMap, HashSet};

use cdd::BlockStore;
use sim_core::plan::{delay, seq};
use sim_core::{Plan, SimDuration};

use crate::error::FsError;
use crate::format::{
    dir_live_len, dir_slots, DirEntry, Inode, InodeKind, SuperBlock, DIRENT_SIZE, INODE_SIZE, MAGIC,
};

/// Simulated cost of serving a metadata block from the node's buffer
/// cache instead of the array.
const CACHE_HIT_COST: SimDuration = SimDuration::from_micros(4);

/// One cached block: its bytes up to the end of what is live in it (the
/// rest of the block is zeros), and who may read it at hit cost.
struct Cached {
    bytes: Vec<u8>,
    holders: HashSet<usize>,
}

/// The metadata cache of one volume.
#[derive(Default)]
struct BlockCache {
    blocks: HashMap<u64, Cached>,
    hits: u64,
    misses: u64,
}

/// A block as one client has just read it.
enum Fetched<'c> {
    /// In the cache, the reader among its holders.
    Cached(OccupiedEntry<'c, u64, Cached>),
    /// From a store that caches no metadata: the whole block, for this
    /// access only.
    Uncached(Vec<u8>),
}

/// `bytes` followed by zeros up to the block size.
fn padded(bytes: &[u8], bs: usize) -> Cow<'_, [u8]> {
    if bytes.len() == bs {
        return Cow::Borrowed(bytes);
    }
    let mut block = vec![0u8; bs];
    block[..bytes.len()].copy_from_slice(bytes);
    Cow::Owned(block)
}

impl BlockCache {
    /// Block `lb` as `client` sees it and the plan of seeing it; `live`
    /// tells how much of a block read from the array is worth keeping.
    fn read<S: BlockStore>(
        &mut self,
        store: &mut S,
        client: usize,
        lb: u64,
        live: fn(&[u8]) -> usize,
    ) -> Result<(Fetched<'_>, Plan), FsError> {
        if !store.caches_metadata() {
            let (raw, plan) = store.read(client, lb, 1)?;
            self.misses += 1;
            return Ok((Fetched::Uncached(raw), plan));
        }
        match self.blocks.entry(lb) {
            Entry::Occupied(e) if e.get().holders.contains(&client) => {
                self.hits += 1;
                Ok((Fetched::Cached(e), delay(CACHE_HIT_COST)))
            }
            entry => {
                let (raw, plan) = store.read(client, lb, 1)?;
                self.misses += 1;
                let mut e = match entry {
                    Entry::Occupied(e) => {
                        debug_assert_eq!(
                            e.get().bytes,
                            raw[..live(&raw)],
                            "block {lb}: cache != array"
                        );
                        e
                    }
                    // The live part is copied out and the block buffer freed
                    // whole: shrunk in place it leaves the heap in 32 KB holes.
                    Entry::Vacant(v) => {
                        let live = live(&raw);
                        let bytes = if live == raw.len() { raw } else { raw[..live].to_vec() };
                        v.insert_entry(Cached { bytes, holders: HashSet::new() })
                    }
                };
                e.get_mut().holders.insert(client);
                Ok((Fetched::Cached(e), plan))
            }
        }
    }

    /// Write `bytes` and zeros to `lb`, until now not a metadata block.
    fn write_new<S: BlockStore>(
        &mut self,
        store: &mut S,
        client: usize,
        lb: u64,
        bytes: Vec<u8>,
    ) -> Result<Plan, FsError> {
        let plan = store.write(client, lb, &padded(&bytes, store.block_size() as usize))?;
        if store.caches_metadata() {
            self.blocks.insert(lb, Cached { bytes, holders: HashSet::from([client]) });
        }
        Ok(plan)
    }
}

impl Fetched<'_> {
    /// Every live byte of the block; what lies beyond is zeros.
    fn bytes(&self) -> &[u8] {
        match self {
            Fetched::Cached(e) => &e.get().bytes,
            Fetched::Uncached(raw) => raw,
        }
    }

    /// Change the block with `edit` and write it back to `lb`. The store
    /// decides: an accepted write leaves `client` the only holder, a
    /// refused one drops the entry, so the cache never holds what the
    /// array does not.
    fn rewrite<S: BlockStore>(
        self,
        store: &mut S,
        client: usize,
        lb: u64,
        edit: impl FnOnce(&mut Vec<u8>),
    ) -> Result<Plan, FsError> {
        let bs = store.block_size() as usize;
        match self {
            Fetched::Uncached(mut raw) => {
                edit(&mut raw);
                Ok(store.write(client, lb, &padded(&raw, bs))?)
            }
            Fetched::Cached(mut e) => {
                let cached = e.get_mut();
                edit(&mut cached.bytes);
                let written = store.write(client, lb, &padded(&cached.bytes, bs));
                if written.is_ok() {
                    cached.holders.clear();
                    cached.holders.insert(client);
                } else {
                    e.remove();
                }
                Ok(written?)
            }
        }
    }
}

/// Slot, inode and kind of the entry called `name` in a directory block.
fn dir_lookup(block: &[u8], name: &str) -> Option<(usize, u32, InodeKind)> {
    dir_slots(block).find(|(_, (n, ..))| *n == name).map(|(at, (_, ino, kind))| (at, ino, kind))
}

/// The lowest free slot of a directory block of `slots`.
fn dir_free_slot(block: &[u8], slots: usize) -> Option<usize> {
    let at = dir_slots(block).zip(0..).take_while(|((slot, _), at)| slot == at).count();
    (at < slots).then_some(at)
}

/// Put `entry` in slot `at`, growing the live part to hold it.
fn dir_set(block: &mut Vec<u8>, at: usize, entry: &DirEntry) {
    block.resize(block.len().max((at + 1) * DIRENT_SIZE), 0);
    entry.encode(&mut block[at * DIRENT_SIZE..(at + 1) * DIRENT_SIZE]);
}

/// Empty slot `at` and cut the block back to what is still live.
fn dir_clear(block: &mut Vec<u8>, at: usize) -> Option<DirEntry> {
    let slot = &mut block[at * DIRENT_SIZE..(at + 1) * DIRENT_SIZE];
    let entry = DirEntry::decode(slot);
    slot.fill(0);
    block.truncate(dir_live_len(block));
    entry
}

/// Logical blocks of a directory, in file order.
fn dir_blocks(dir: &Inode) -> impl Iterator<Item = u64> {
    let extents = dir.extents;
    extents.into_iter().filter(|e| e.len > 0).flat_map(|e| e.start..e.start + e.len)
}

/// A store and the metadata kept on it.
pub(crate) struct Meta<S> {
    store: S,
    sb: SuperBlock,
    cache: BlockCache,
}

impl<S: BlockStore> Meta<S> {
    /// Lay an empty volume of `n_inodes` inode slots out on `store`: the
    /// superblock, then a zeroed inode table with the root directory,
    /// empty, in slot 0.
    pub(crate) fn format(
        mut store: S,
        n_inodes: u32,
        client: usize,
    ) -> Result<(Self, Plan), FsError> {
        let bs = store.block_size() as usize;
        assert!(bs >= 512, "block size too small for the fs format");
        let itable_blocks = (n_inodes as u64).div_ceil((bs / INODE_SIZE) as u64);
        let sb =
            SuperBlock { magic: MAGIC, n_inodes, itable_start: 1, data_start: 1 + itable_blocks };
        assert!(sb.data_start < store.capacity_blocks(), "volume too small");

        let mut block = vec![0u8; bs];
        sb.encode(&mut block);
        let mut plans = vec![store.write(client, 0, &block)?];
        block.fill(0);
        Inode::empty(InodeKind::Dir).encode(&mut block[..INODE_SIZE]);
        for b in 0..itable_blocks {
            plans.push(store.write(client, sb.itable_start + b, &block)?);
            block[..INODE_SIZE].fill(0);
        }
        Ok((Self::cold(store, sb), seq(plans)))
    }

    /// Open the volume on `store`: its superblock and every slot of the
    /// inode table, an undecodable one read as free. The table is small
    /// (tens of blocks) and read past the cache, which starts cold.
    pub(crate) fn mount(mut store: S, client: usize) -> Result<(Self, Vec<Inode>, Plan), FsError> {
        let (raw, p0) = store.read(client, 0, 1)?;
        let sb = SuperBlock::decode(&raw).ok_or(FsError::NotFound("superblock".into()))?;
        let ipb = store.block_size() as usize / INODE_SIZE;
        let mut table = Vec::new();
        let mut plans = vec![p0];
        for b in 0..(sb.n_inodes as u64).div_ceil(ipb as u64) {
            let (raw, p) = store.read(client, sb.itable_start + b, 1)?;
            plans.push(p);
            let slots = raw.chunks_exact(INODE_SIZE).take(sb.n_inodes as usize - table.len());
            table.extend(slots.map(|s| Inode::decode(s).unwrap_or_else(Inode::free)));
        }
        Ok((Self::cold(store, sb), table, seq(plans)))
    }

    fn cold(store: S, sb: SuperBlock) -> Self {
        Meta { store, sb, cache: BlockCache::default() }
    }

    /// First block of the data area.
    pub(crate) fn data_start(&self) -> u64 {
        self.sb.data_start
    }

    pub(crate) fn store(&self) -> &S {
        &self.store
    }

    pub(crate) fn store_mut(&mut self) -> &mut S {
        &mut self.store
    }

    pub(crate) fn into_store(self) -> S {
        self.store
    }

    /// `(hits, misses)` of the metadata cache.
    pub(crate) fn cache_stats(&self) -> (u64, u64) {
        (self.cache.hits, self.cache.misses)
    }

    pub(crate) fn block_size(&self) -> usize {
        self.store.block_size() as usize
    }

    // ---- file data: never cached (the paper's benchmarks run on
    // uncached files) ----

    pub(crate) fn read_data(
        &mut self,
        client: usize,
        lb: u64,
        nblocks: u64,
    ) -> Result<(Vec<u8>, Plan), FsError> {
        Ok(self.store.read(client, lb, nblocks)?)
    }

    pub(crate) fn write_data(
        &mut self,
        client: usize,
        lb: u64,
        data: &[u8],
    ) -> Result<Plan, FsError> {
        Ok(self.store.write(client, lb, data)?)
    }

    // ---- inodes ----

    /// Table block and byte offset of inode `ino`.
    fn inode_pos(&self, ino: u32) -> (u64, usize) {
        let ipb = self.block_size() / INODE_SIZE;
        (self.sb.itable_start + (ino as usize / ipb) as u64, (ino as usize % ipb) * INODE_SIZE)
    }

    pub(crate) fn read_inode(&mut self, client: usize, ino: u32) -> Result<(Inode, Plan), FsError> {
        let (lb, off) = self.inode_pos(ino);
        let (block, plan) = self.cache.read(&mut self.store, client, lb, <[u8]>::len)?;
        let inode = Inode::decode(&block.bytes()[off..off + INODE_SIZE])
            .ok_or_else(|| FsError::NotFound(format!("inode {ino}")))?;
        Ok((inode, plan))
    }

    /// Read-modify-write of the table block holding `ino`.
    pub(crate) fn write_inode(
        &mut self,
        client: usize,
        ino: u32,
        inode: &Inode,
    ) -> Result<Plan, FsError> {
        let (lb, off) = self.inode_pos(ino);
        let (block, rp) = self.cache.read(&mut self.store, client, lb, <[u8]>::len)?;
        let wp = block.rewrite(&mut self.store, client, lb, |block| {
            inode.encode(&mut block[off..off + INODE_SIZE]);
        })?;
        Ok(seq(vec![rp, wp]))
    }

    // ---- directories ----

    /// Every entry of `dir` in slot order.
    pub(crate) fn dir_entries(
        &mut self,
        client: usize,
        dir: &Inode,
    ) -> Result<(Vec<DirEntry>, Plan), FsError> {
        let (mut entries, mut plans) = (Vec::new(), Vec::new());
        for lb in dir_blocks(dir) {
            let (block, p) = self.cache.read(&mut self.store, client, lb, dir_live_len)?;
            plans.push(p);
            entries.extend(block.bytes().chunks_exact(DIRENT_SIZE).filter_map(DirEntry::decode));
        }
        Ok((entries, seq(plans)))
    }

    /// Inode and kind of the entry called `name`. A lookup reads every
    /// block of `dir`, found or not.
    pub(crate) fn dir_find(
        &mut self,
        client: usize,
        dir: &Inode,
        name: &str,
    ) -> Result<(Option<(u32, InodeKind)>, Plan), FsError> {
        let (mut hit, mut plans) = (None, Vec::new());
        for lb in dir_blocks(dir) {
            let (block, p) = self.cache.read(&mut self.store, client, lb, dir_live_len)?;
            plans.push(p);
            hit = hit.or_else(|| dir_lookup(block.bytes(), name).map(|(_, ino, kind)| (ino, kind)));
        }
        Ok((hit, seq(plans)))
    }

    /// Put `entry` in the first free slot of `dir`'s blocks; false when
    /// they are all full. The plans are the steps in order.
    pub(crate) fn dir_insert(
        &mut self,
        client: usize,
        dir: &Inode,
        entry: &DirEntry,
    ) -> Result<(bool, Vec<Plan>), FsError> {
        let slots = self.block_size() / DIRENT_SIZE;
        let mut plans = Vec::new();
        for lb in dir_blocks(dir) {
            let (block, rp) = self.cache.read(&mut self.store, client, lb, dir_live_len)?;
            plans.push(rp);
            if let Some(at) = dir_free_slot(block.bytes(), slots) {
                let add = |block: &mut Vec<u8>| dir_set(block, at, entry);
                plans.push(block.rewrite(&mut self.store, client, lb, add)?);
                return Ok((true, plans));
            }
        }
        Ok((false, plans))
    }

    /// Start directory block `lb` with `entry` in slot 0.
    pub(crate) fn dir_grow(
        &mut self,
        client: usize,
        lb: u64,
        entry: &DirEntry,
    ) -> Result<Plan, FsError> {
        let mut block = Vec::new();
        dir_set(&mut block, 0, entry);
        self.cache.write_new(&mut self.store, client, lb, block)
    }

    /// Remove the entry called `name`, unless `allow` refuses it.
    pub(crate) fn dir_remove(
        &mut self,
        client: usize,
        dir: &Inode,
        name: &str,
        allow: impl FnOnce(InodeKind) -> Result<(), FsError>,
    ) -> Result<(Option<DirEntry>, Plan), FsError> {
        let (mut removed, mut plans) = (None, Vec::new());
        for lb in dir_blocks(dir) {
            let (block, rp) = self.cache.read(&mut self.store, client, lb, dir_live_len)?;
            plans.push(rp);
            if let Some((at, _, kind)) = dir_lookup(block.bytes(), name) {
                allow(kind)?;
                let take = |block: &mut Vec<u8>| removed = dir_clear(block, at);
                plans.push(block.rewrite(&mut self.store, client, lb, take)?);
                break;
            }
        }
        Ok((removed, seq(plans)))
    }
}
