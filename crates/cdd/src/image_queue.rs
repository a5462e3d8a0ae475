//! Data-plane write-behind: the OSM image queue.
//!
//! RAID-x acknowledges a write after the data blocks alone; the mirror
//! images accumulate here, clustered per mirroring group, and a group
//! that fills flushes as one long sequential background write — the
//! orthogonal striping and mirroring mechanism that removes per-write
//! mirroring cost. The paper leaves that backlog unbounded ("background
//! writes"); [`ImageQueue`] makes it first-class and boundable: with
//! [`crate::CddConfig::max_image_backlog`] set, overflow groups are
//! shed to the *foreground* path via [`ImageQueue::drain_overflow`], so
//! a sustained burst pays a partial clustered flush instead of growing
//! the queue without limit (the contention regime of Figure 5).
//!
//! Entries hold *slot* addresses, like every other write-path placement
//! (DESIGN §5a): a flush charges each slot's home at flush time, so an
//! epoch transition leaves the queue alone. A buffered image is not on
//! disk until a flush plan writes it. When its flush can no longer run —
//! its image disk fails or goes offline, or its writer crashes with the
//! bytes — [`ImageQueue::take`] surrenders it and the caller parks it,
//! as it parks any copy a write could not place.

use raidx_core::BlockAddr;
use sim_core::Plan;

use crate::ops::OpBuilder;
use crate::placer::Placer;

/// One buffered mirror-image block awaiting its group flush.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PendingImage {
    /// Node that issued the write (the flush ships from it).
    pub client: usize,
    /// Logical block the image mirrors.
    pub lb: u64,
    /// Slot-space address of the image copy: the flush charges the
    /// slot's home at flush time, as every other placement does.
    pub addr: BlockAddr,
}

/// The write-behind buffer of the OSM image path.
///
/// Images accumulate per mirroring group; a *completed* group is handed
/// back to the caller to flush as one long sequential write. Iteration
/// and drain order follow the group key order (a `BTreeMap`), so the
/// background plan is deterministic across engine instances — the
/// determinism audit diffs two same-seed runs event for event.
#[derive(Debug, Default)]
pub struct ImageQueue {
    groups: std::collections::BTreeMap<u64, Vec<PendingImage>>,
    /// Total buffered blocks (kept incrementally: `len` is on the write
    /// hot path when a backlog bound is configured).
    total: usize,
}

impl ImageQueue {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Buffer one image under its mirroring group. Returns the blocks
    /// that became ready to flush: the whole group once it fills, or the
    /// image itself when the layout defines no group for it. Overwrites
    /// of a still-buffered logical block replace in place.
    #[expect(clippy::expect_used, reason = "key taken from the map's own iteration one line up")]
    pub fn push(&mut self, img: PendingImage, group: Option<(u64, usize)>) -> Vec<PendingImage> {
        match group {
            Some((key, group_len)) => {
                let entry = self.groups.entry(key).or_default();
                if let Some(slot) = entry.iter_mut().find(|p| p.lb == img.lb) {
                    *slot = img;
                } else {
                    entry.push(img);
                    self.total += 1;
                }
                if entry.len() >= group_len {
                    let full = self.groups.remove(&key).expect("entry exists");
                    self.total -= full.len();
                    full
                } else {
                    Vec::new()
                }
            }
            None => vec![img],
        }
    }

    /// Number of image blocks currently buffered.
    pub fn len(&self) -> usize {
        self.total
    }

    /// Drain every buffered group (partial groups included), in group key
    /// order. Call at sync points.
    pub fn drain_all(&mut self) -> Vec<PendingImage> {
        let mut all = Vec::with_capacity(self.total);
        for (_, v) in std::mem::take(&mut self.groups) {
            all.extend(v);
        }
        self.total = 0;
        all
    }

    /// Take every buffered image `pred` selects out of the queue, in
    /// group key order, emptying groups as needed: the one way an image
    /// leaves the queue other than a flush. A group that keeps an image
    /// no flush may write could never fill, and a taken image no longer
    /// counts in [`ImageQueue::len`]. The caller parks what it takes
    /// (`IoSystem::park_images`), so resync restores those copies from
    /// the primary.
    pub fn take(&mut self, mut pred: impl FnMut(&PendingImage) -> bool) -> Vec<PendingImage> {
        let mut removed = Vec::new();
        self.groups.retain(|_, entries| {
            entries.retain(|p| {
                if pred(p) {
                    removed.push(*p);
                    false
                } else {
                    true
                }
            });
            !entries.is_empty()
        });
        self.total -= removed.len();
        removed
    }

    /// Shed whole groups — lowest key first, partial or not — until at
    /// most `bound` blocks remain buffered. The returned blocks are the
    /// backpressure debt the *foreground* write must pay as a partial
    /// clustered flush.
    pub fn drain_overflow(&mut self, bound: usize) -> Vec<PendingImage> {
        let mut shed = Vec::new();
        while self.total > bound {
            let key = match self.groups.keys().next() {
                Some(&k) => k,
                None => break,
            };
            #[expect(clippy::expect_used, reason = "key taken from the map's own keys above")]
            let group = self.groups.remove(&key).expect("key exists");
            self.total -= group.len();
            shed.extend(group);
        }
        shed
    }

    /// Build the write plans for flushed image blocks: each slot address
    /// goes to its current physical home, then physically consecutive
    /// blocks merge into single long writes, each run shipped from the
    /// node that buffered its first member. Plans carry no ack: the
    /// foreground request was acknowledged after its data writes.
    pub fn flush_plans(
        ops: &OpBuilder<'_>,
        placer: &Placer,
        mut items: Vec<PendingImage>,
    ) -> Vec<Plan> {
        for p in &mut items {
            p.addr.disk = placer.phys(p.addr.disk);
        }
        items.sort_unstable_by_key(|p| (p.addr.disk, p.addr.block));
        let mut plans = Vec::new();
        let mut i = 0;
        while i < items.len() {
            let PendingImage { client, addr: start, .. } = items[i];
            let mut len = 1u64;
            while i + len as usize != items.len() {
                let next = items[i + len as usize].addr;
                if next.disk == start.disk && next.block == start.block + len {
                    len += 1;
                } else {
                    break;
                }
            }
            plans.push(ops.write_run(client, start.disk, start.block, len, false));
            i += len as usize;
        }
        plans
    }
}

#[cfg(test)]
impl ImageQueue {
    /// True when nothing is buffered.
    pub(crate) fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Buffered image blocks bound for slot `disk`.
    pub(crate) fn blocks_on_disk(&self, disk: usize) -> usize {
        self.groups.values().flatten().filter(|p| p.addr.disk == disk).count()
    }
}

#[cfg(test)]
mod tests;
