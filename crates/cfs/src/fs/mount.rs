//! Mount-time recovery. A `cdd` write is durable at admission, so a crash
//! loses a suffix of a client's store writes; mount rebuilds what lives
//! only in memory from the blocks, and repairs what a cut between two
//! metadata writes can leave behind.

use cdd::BlockStore;
use sim_core::plan::seq;
use sim_core::Plan;

use super::{Fs, FsError, ROOT_INO};
use crate::format::{Extent, InodeKind};
use crate::meta::Meta;

impl<S: BlockStore> Fs<S> {
    /// Mount an already formatted store: reads the superblock, and the
    /// inode table for the inode bitmap, the allocation frontier and the
    /// free list — the gaps below the frontier that no live inode's
    /// extents cover, in ascending order. Then it walks the tree and
    /// keeps one entry per inode (see `drop_second_names`).
    pub fn mount(store: S, client: usize) -> Result<(Self, Plan), FsError> {
        let (meta, table, plan) = Meta::mount(store, client)?;
        let live = table.iter().filter(|inode| inode.kind != InodeKind::Free);
        let mut used: Vec<Extent> =
            live.flat_map(|inode| inode.extents.into_iter().filter(|e| e.len > 0)).collect();
        used.sort_unstable_by_key(|e| e.start);
        let (mut alloc_next, mut free_extents) = (meta.data_start(), Vec::new());
        for e in used {
            if e.start > alloc_next {
                free_extents.push(Extent { start: alloc_next, len: e.start - alloc_next });
            }
            alloc_next = alloc_next.max(e.start + e.len);
        }
        let inode_used = table.iter().map(|inode| inode.kind != InodeKind::Free).collect();
        let mut fs = Fs { meta, inode_used, alloc_next, free_extents };
        let names = fs.drop_second_names(client)?;
        Ok((fs, seq(vec![plan, names])))
    }

    /// Keep one directory entry per inode. A cut between `rename`'s two
    /// writes leaves the file under both names, and cfs counts no links:
    /// an `unlink` of either name would free the inode and its extents
    /// while the other still reads them. Walking down from the root, the
    /// first name met for an inode stays and every later one is removed.
    fn drop_second_names(&mut self, client: usize) -> Result<Plan, FsError> {
        let mut seen = vec![false; self.inode_used.len()];
        seen[ROOT_INO as usize] = true;
        let (mut dirs, mut plans) = (vec![ROOT_INO], Vec::new());
        while let Some(ino) = dirs.pop() {
            let (dir, p) = self.meta.read_inode(client, ino)?;
            plans.push(p);
            if dir.kind != InodeKind::Dir {
                continue;
            }
            let (entries, p) = self.meta.dir_entries(client, &dir)?;
            plans.push(p);
            for entry in entries {
                // An entry naming no slot of the inode table is left as
                // it is.
                let Some(met) = seen.get_mut(entry.inode as usize) else { continue };
                if std::mem::replace(met, true) {
                    let (_, p) = self.meta.dir_remove(client, &dir, &entry.name, |_| Ok(()))?;
                    plans.push(p);
                } else if entry.kind == InodeKind::Dir {
                    dirs.push(entry.inode);
                }
            }
        }
        Ok(seq(plans))
    }
}
