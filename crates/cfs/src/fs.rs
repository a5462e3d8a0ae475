//! File-system operations over any [`BlockStore`].
//!
//! Every operation is executed functionally (metadata and data really
//! serialize to blocks of the store) and returns a [`Plan`] with its
//! simulated cost. This module resolves paths, allocates inodes and
//! extents and moves file data; inode-table and directory blocks it
//! reaches only through the metadata layer (`meta`), whose cache
//! serves a block a client already holds without touching the store. File
//! data always hits the array (the paper's benchmarks run on uncached
//! files).

use cdd::BlockStore;
use sim_core::plan::seq;
use sim_core::Plan;

pub use crate::error::FsError;
use crate::format::{DirEntry, Extent, Inode, InodeKind, DIRENT_SIZE, MAX_NAME};
use crate::meta::Meta;

mod mount;

/// The root directory's inode number.
pub const ROOT_INO: u32 = 0;

/// A mounted cluster file system.
pub struct Fs<S: BlockStore> {
    meta: Meta<S>,
    inode_used: Vec<bool>,
    /// Bump allocator over the data area plus a free list from unlinks.
    alloc_next: u64,
    free_extents: Vec<Extent>,
}

impl<S: BlockStore> Fs<S> {
    /// Format `store` with `n_inodes` inode slots and mount it. Returns
    /// the mounted fs and the plan of the format I/O.
    pub fn format(store: S, n_inodes: u32, client: usize) -> Result<(Self, Plan), FsError> {
        let (meta, plan) = Meta::format(store, n_inodes, client)?;
        let mut inode_used = vec![false; n_inodes as usize];
        inode_used[ROOT_INO as usize] = true;
        let alloc_next = meta.data_start();
        Ok((Fs { meta, inode_used, alloc_next, free_extents: Vec::new() }, plan))
    }

    /// The underlying store.
    pub fn store(&self) -> &S {
        self.meta.store()
    }

    /// Mutable access to the underlying store, for fault injection,
    /// rebuilds and measurement. The contract is
    /// [`cdd::IoSystem::plane_mut`]'s: a write through it bypasses the
    /// metadata cache, which goes on serving what it held.
    pub fn store_mut(&mut self) -> &mut S {
        self.meta.store_mut()
    }

    /// Unmount, returning the underlying store (for remount tests and
    /// reconfiguration).
    pub fn into_store(self) -> S {
        self.meta.into_store()
    }

    /// `(hits, misses)` of the metadata cache.
    pub fn cache_stats(&self) -> (u64, u64) {
        self.meta.cache_stats()
    }

    fn bs(&self) -> usize {
        self.meta.block_size()
    }

    fn alloc_inode(&mut self) -> Result<u32, FsError> {
        for (i, used) in self.inode_used.iter_mut().enumerate() {
            if !*used {
                *used = true;
                return Ok(i as u32);
            }
        }
        Err(FsError::NoInodes)
    }

    // ---- extent allocator ----

    fn alloc_blocks(&mut self, n: u64) -> Result<Extent, FsError> {
        if n == 0 {
            return Ok(Extent::default());
        }
        // Exact-fit from the free list first.
        if let Some(pos) = self.free_extents.iter().position(|e| e.len >= n) {
            let e = self.free_extents[pos];
            if e.len == n {
                self.free_extents.swap_remove(pos);
                return Ok(e);
            }
            self.free_extents[pos] = Extent { start: e.start + n, len: e.len - n };
            return Ok(Extent { start: e.start, len: n });
        }
        let cap = self.meta.store().capacity_blocks();
        if self.alloc_next + n > cap {
            return Err(FsError::NoSpace);
        }
        let e = Extent { start: self.alloc_next, len: n };
        self.alloc_next += n;
        Ok(e)
    }

    fn free_blocks(&mut self, e: Extent) {
        if e.len > 0 {
            self.free_extents.push(e);
        }
    }

    // ---- directories ----

    /// Add `entry` to directory `dir_ino`, growing it by a block when
    /// every slot is taken.
    fn dir_add(
        &mut self,
        client: usize,
        dir_ino: u32,
        dir: &mut Inode,
        entry: &DirEntry,
    ) -> Result<Plan, FsError> {
        let (placed, mut plans) = self.meta.dir_insert(client, dir, entry)?;
        if !placed {
            let ext = self.alloc_blocks(1)?;
            let slot =
                dir.extents.iter_mut().find(|e| e.len == 0).ok_or(FsError::TooManyExtents)?;
            *slot = ext;
            plans.push(self.meta.dir_grow(client, ext.start, entry)?);
        }
        dir.size = dir.size.saturating_add(DIRENT_SIZE as u64);
        plans.push(self.meta.write_inode(client, dir_ino, dir)?);
        Ok(seq(plans))
    }

    // ---- path resolution ----

    fn split_path(path: &str) -> Result<Vec<&str>, FsError> {
        if !path.starts_with('/') {
            return Err(FsError::InvalidName(path.to_string()));
        }
        let parts: Vec<&str> = path.split('/').filter(|p| !p.is_empty()).collect();
        for p in &parts {
            if p.len() > MAX_NAME {
                return Err(FsError::InvalidName((*p).to_string()));
            }
        }
        Ok(parts)
    }

    fn resolve(&mut self, client: usize, path: &str) -> Result<(u32, Inode, Plan), FsError> {
        let parts = Self::split_path(path)?;
        self.walk(client, &parts, || path.to_string())
    }

    /// Walk the components `parts` down from the root. `path` renders the
    /// walked path for an error, and is called only when one is returned.
    fn walk(
        &mut self,
        client: usize,
        parts: &[&str],
        path: impl Fn() -> String,
    ) -> Result<(u32, Inode, Plan), FsError> {
        let mut ino = ROOT_INO;
        let (mut inode, p) = self.meta.read_inode(client, ino)?;
        let mut plans = vec![p];
        for part in parts {
            if inode.kind != InodeKind::Dir {
                return Err(FsError::NotDir(path()));
            }
            let (hit, p) = self.meta.dir_find(client, &inode, part)?;
            plans.push(p);
            (ino, _) = hit.ok_or_else(|| FsError::NotFound(path()))?;
            let (next, p) = self.meta.read_inode(client, ino)?;
            plans.push(p);
            inode = next;
        }
        Ok((ino, inode, seq(plans)))
    }

    /// Resolve the parent directory of `path`, returning
    /// `(parent ino, parent inode, leaf name, plan)`. The parent is walked
    /// from `path`'s own components; its path is formatted only for an
    /// error.
    fn resolve_parent<'p>(
        &mut self,
        client: usize,
        path: &'p str,
    ) -> Result<(u32, Inode, &'p str, Plan), FsError> {
        let parts = Self::split_path(path)?;
        let (&leaf, dirs) =
            parts.split_last().ok_or_else(|| FsError::InvalidName(path.to_string()))?;
        let parent_path = || format!("/{}", dirs.join("/"));
        let (ino, inode, plan) = self.walk(client, dirs, parent_path)?;
        if inode.kind != InodeKind::Dir {
            return Err(FsError::NotDir(parent_path()));
        }
        Ok((ino, inode, leaf, plan))
    }

    // ---- public operations ----

    /// Create a directory.
    pub fn mkdir(&mut self, client: usize, path: &str) -> Result<Plan, FsError> {
        self.make(client, path, InodeKind::Dir)
    }

    /// Create an empty file.
    pub fn create(&mut self, client: usize, path: &str) -> Result<Plan, FsError> {
        self.make(client, path, InodeKind::File)
    }

    fn make(&mut self, client: usize, path: &str, kind: InodeKind) -> Result<Plan, FsError> {
        let (pino, mut parent, leaf, p0) = self.resolve_parent(client, path)?;
        let (existing, p1) = self.meta.dir_find(client, &parent, leaf)?;
        if existing.is_some() {
            return Err(FsError::Exists(path.to_string()));
        }
        let ino = self.alloc_inode()?;
        let p2 = self.meta.write_inode(client, ino, &Inode::empty(kind))?;
        let entry = DirEntry { name: leaf.to_string(), inode: ino, kind };
        let p3 = self.dir_add(client, pino, &mut parent, &entry)?;
        Ok(seq(vec![p0, p1, p2, p3]))
    }

    /// The file at `path`, created empty if missing; the plans of getting
    /// to it go on `plans`.
    fn open_file(
        &mut self,
        client: usize,
        path: &str,
        plans: &mut Vec<Plan>,
    ) -> Result<(u32, Inode), FsError> {
        let (ino, inode, p) = match self.resolve(client, path) {
            Err(FsError::NotFound(_)) => {
                plans.push(self.create(client, path)?);
                self.resolve(client, path)?
            }
            found => found?,
        };
        if inode.kind != InodeKind::File {
            return Err(FsError::IsDir(path.to_string()));
        }
        plans.push(p);
        Ok((ino, inode))
    }

    /// Replace a file's contents (creating it if missing).
    ///
    /// The new bytes go to a fresh extent, then the inode is rewritten to
    /// point at it, and only then are the old extents freed: a crash at
    /// any point leaves the file holding exactly its old bytes or exactly
    /// its new ones. So an overwrite needs room for both copies at once;
    /// a volume without it returns [`FsError::NoSpace`] and leaves the
    /// file as it was.
    pub fn write_file(&mut self, client: usize, path: &str, data: &[u8]) -> Result<Plan, FsError> {
        let mut plans = Vec::new();
        let (ino, old) = self.open_file(client, path, &mut plans)?;
        let bs = self.bs();
        let nblocks = (data.len() as u64).div_ceil(bs as u64);
        let mut inode = Inode::empty(InodeKind::File);
        inode.size = data.len() as u64;
        if nblocks > 0 {
            let ext = self.alloc_blocks(nblocks)?;
            inode.extents[0] = ext;
            plans.push(self.meta.write_data(client, ext.start, data)?);
        }
        plans.push(self.meta.write_inode(client, ino, &inode)?);
        for e in old.extents.iter().filter(|e| e.len > 0) {
            self.free_blocks(*e);
        }
        Ok(seq(plans))
    }

    /// Read a whole file.
    pub fn read_file(&mut self, client: usize, path: &str) -> Result<(Vec<u8>, Plan), FsError> {
        let (_, inode, p0) = self.resolve(client, path)?;
        if inode.kind != InodeKind::File {
            return Err(FsError::IsDir(path.to_string()));
        }
        let mut plans = vec![p0];
        let mut out = Vec::with_capacity(inode.size as usize);
        for e in inode.extents.iter().filter(|e| e.len > 0) {
            let (bytes, p) = self.meta.read_data(client, e.start, e.len)?;
            plans.push(p);
            out.extend_from_slice(&bytes);
        }
        out.truncate(inode.size as usize);
        Ok((out, seq(plans)))
    }

    /// List a directory.
    pub fn readdir(&mut self, client: usize, path: &str) -> Result<(Vec<DirEntry>, Plan), FsError> {
        let (_, inode, p0) = self.resolve(client, path)?;
        if inode.kind != InodeKind::Dir {
            return Err(FsError::NotDir(path.to_string()));
        }
        let (entries, p1) = self.meta.dir_entries(client, &inode)?;
        Ok((entries, seq(vec![p0, p1])))
    }

    /// Stat a path.
    pub fn stat(&mut self, client: usize, path: &str) -> Result<(Inode, Plan), FsError> {
        let (_, inode, p) = self.resolve(client, path)?;
        Ok((inode, p))
    }

    /// Remove a file. A directory is refused ([`FsError::IsDir`]): freeing
    /// its inode would orphan whatever it holds.
    pub fn unlink(&mut self, client: usize, path: &str) -> Result<Plan, FsError> {
        let (_pino, parent, leaf, p0) = self.resolve_parent(client, path)?;
        let (removed, p1) = self.meta.dir_remove(client, &parent, leaf, |kind| {
            if kind == InodeKind::Dir {
                Err(FsError::IsDir(path.to_string()))
            } else {
                Ok(())
            }
        })?;
        let entry = removed.ok_or_else(|| FsError::NotFound(path.to_string()))?;
        let (inode, p2) = self.meta.read_inode(client, entry.inode)?;
        for e in inode.extents.iter().filter(|e| e.len > 0) {
            self.free_blocks(*e);
        }
        let p3 = self.meta.write_inode(client, entry.inode, &Inode::free())?;
        self.inode_used[entry.inode as usize] = false;
        Ok(seq(vec![p0, p1, p2, p3]))
    }

    /// Append `data` to a file (creating it if missing). The tail block
    /// is read-modified-written; whole new blocks extend the last extent
    /// when physically possible, else start a new one.
    pub fn append(&mut self, client: usize, path: &str, data: &[u8]) -> Result<Plan, FsError> {
        if data.is_empty() {
            return Ok(Plan::Noop);
        }
        let bs = self.bs();
        let mut plans = Vec::new();
        let (ino, mut inode) = self.open_file(client, path, &mut plans)?;

        let old_size = inode.size as usize;
        let mut remaining = data;
        // 1. Fill the partial tail block, if any.
        let tail = old_size % bs;
        if tail != 0 {
            let last_block = block_at(&inode, (old_size / bs) as u64).expect("tail exists");
            let (mut raw, rp) = self.meta.read_data(client, last_block, 1)?;
            let take = remaining.len().min(bs - tail);
            raw[tail..tail + take].copy_from_slice(&remaining[..take]);
            let wp = self.meta.write_data(client, last_block, &raw)?;
            plans.push(seq(vec![rp, wp]));
            remaining = &remaining[take..];
        }
        // 2. Allocate and write whole new blocks.
        if !remaining.is_empty() {
            let nblocks = (remaining.len() as u64).div_ceil(bs as u64);
            let ext = self.alloc_blocks(nblocks)?;
            // Merge with the last extent when physically adjacent.
            let merged = inode
                .extents
                .iter_mut()
                .rev()
                .find(|e| e.len > 0)
                .filter(|e| e.start + e.len == ext.start)
                .map(|e| e.len += ext.len)
                .is_some();
            if !merged {
                let slot =
                    inode.extents.iter_mut().find(|e| e.len == 0).ok_or(FsError::TooManyExtents)?;
                *slot = ext;
            }
            plans.push(self.meta.write_data(client, ext.start, remaining)?);
        }
        inode.size = (old_size + data.len()) as u64;
        plans.push(self.meta.write_inode(client, ino, &inode)?);
        Ok(seq(plans))
    }

    /// Rename a file or directory within the tree (POSIX-style: replaces
    /// nothing — the destination must not exist). A directory cannot move
    /// below itself ([`FsError::InvalidName`]).
    pub fn rename(&mut self, client: usize, from: &str, to: &str) -> Result<Plan, FsError> {
        let (_, from_parent, from_leaf, p0) = self.resolve_parent(client, from)?;
        let (found, p1) = self.meta.dir_find(client, &from_parent, from_leaf)?;
        let (inode, kind) = found.ok_or_else(|| FsError::NotFound(from.to_string()))?;
        if kind == InodeKind::Dir && Self::split_path(to)?.starts_with(&Self::split_path(from)?) {
            return Err(FsError::InvalidName(to.to_string()));
        }
        let (to_pino, mut to_parent, to_leaf, p2) = self.resolve_parent(client, to)?;
        let (existing, p3) = self.meta.dir_find(client, &to_parent, to_leaf)?;
        if existing.is_some() {
            return Err(FsError::Exists(to.to_string()));
        }
        // Insert the new entry, then remove the old one, so that a crash
        // between the two leaves the file under both names, never under
        // none. The source parent is resolved again in between: it may be
        // the directory that just grew.
        let new_entry = DirEntry { name: to_leaf.to_string(), inode, kind };
        let p4 = self.dir_add(client, to_pino, &mut to_parent, &new_entry)?;
        let (_, from_parent, _, p5) = self.resolve_parent(client, from)?;
        let (removed, p6) = self.meta.dir_remove(client, &from_parent, from_leaf, |_| Ok(()))?;
        debug_assert!(removed.is_some());
        Ok(seq(vec![p0, p1, p2, p3, p4, p5, p6]))
    }
}

/// Physical block holding logical file block `idx` of `inode`.
fn block_at(inode: &Inode, idx: u64) -> Option<u64> {
    let mut remaining = idx;
    for e in inode.extents.iter().filter(|e| e.len > 0) {
        if remaining < e.len {
            return Some(e.start + remaining);
        }
        remaining -= e.len;
    }
    None
}
