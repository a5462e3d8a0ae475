//! Write schemes of the CDD pipeline: one [`IoSystem`] method per
//! arm of [`raidx_core::WriteScheme`], chosen by the `match` in
//! `IoSystem::write_locked`.
//!
//! The front end validates and locks a request; the scheme method then owns
//! the whole write policy — placement, fault handling, functional data
//! movement and the timing plan:
//!
//! * [`IoSystem::write_mirrored`] (`ForegroundMirror` / `BackgroundMirror`)
//!   — both copies foreground (RAID-10, chained declustering), or RAID-x
//!   OSM write-behind: the ack follows the data writes and images buffer
//!   in the [`ImageQueue`], flushing per mirroring group as long detached
//!   sequential runs. With [`crate::CddConfig::max_image_backlog`] set, a
//!   write that overfills the queue pays the overflow as a foreground
//!   partial clustered flush (bounded backpressure).
//! * `IoSystem::write_parity` (`Parity`, in the `parity` module) —
//!   RAID-5: full stripes compute parity client-side and write `n`
//!   streams; partial stripes pay the four-operation read-modify-write
//!   (the small-write problem).
//!
//! Placement arithmetic happens in logical *slot* space, against the
//! client's slot fault set; [`IoSystem::put_block`] and
//! [`IoSystem::get_block`] translate to physical disks through the
//! epoch-versioned placer at the plane boundary, and a plan does at the
//! moment it is built — a buffered image at its flush (the identity on a
//! never-reconfigured array).

use cluster::{block_of, Block};
use raidx_core::{BlockAddr, FaultSet};
use sim_core::plan::{background, par, seq};
use sim_core::Plan;

use crate::error::IoError;
use crate::image_queue::{ImageQueue, PendingImage};
use crate::runs::merge_runs;
use crate::system::IoSystem;

/// The block of `data` backing logical block `lb` of a request starting
/// at `lb0`, for block size `bs`.
pub(crate) fn block_at(data: &[u8], bs: usize, lb0: u64, lb: u64) -> &[u8] {
    let off = ((lb - lb0) as usize) * bs;
    &data[off..off + bs]
}

impl IoSystem {
    /// Acknowledged write plans for slot-space `placements`, coalesced
    /// into runs, each charged to its slot's current physical disk.
    pub(crate) fn acked_writes(
        &self,
        client: usize,
        placements: Vec<(u64, BlockAddr)>,
    ) -> Vec<Plan> {
        let ops = self.ops();
        merge_runs(placements)
            .iter()
            .map(|r| ops.write_run(client, self.placer.phys(r.disk), r.start, r.len(), true))
            .collect()
    }

    /// Store `block` at slot-space address `a` as a fresh copy of `lbs`
    /// (one logical block, or every member of a parity's stripe): lands
    /// on the slot's current home, supersedes any pending migration of
    /// the block and drops `lbs` from that home's parked ledger. Every
    /// copy of one logical block is a clone of one handle, so the
    /// caller's bytes are copied once however many homes they reach.
    pub(crate) fn put_block(
        &mut self,
        a: BlockAddr,
        lbs: &[u64],
        block: Block,
    ) -> Result<(), IoError> {
        let h = self.placer.write_home(a);
        self.plane.put(h.disk, h.block, block)?;
        self.unpark(h.disk, lbs);
        Ok(())
    }

    /// The block at slot-space address `a`, from wherever it currently
    /// lives (the old home while pending migration).
    pub(crate) fn get_block(&mut self, a: BlockAddr) -> Result<Block, IoError> {
        let h = self.placer.read_home(a);
        Ok(self.plane.get(h.disk, h.block)?)
    }

    /// Mirrored writes: foreground both-copies (RAID-10, chained), or
    /// RAID-x OSM write-behind when `write_behind` holds. `faults` is the
    /// client's slot fault set.
    pub(crate) fn write_mirrored(
        &mut self,
        faults: &FaultSet,
        client: usize,
        lb0: u64,
        nblocks: u64,
        data: &[u8],
        write_behind: bool,
    ) -> Result<Plan, IoError> {
        let bs = self.block_size() as usize;
        // Validate the whole range before touching anything: a refused
        // request leaves the plane and the degraded-write ledger as they
        // were.
        let mut homes = Vec::with_capacity(nblocks as usize);
        for lb in lb0..lb0 + nblocks {
            let d = self.layout.locate_data(lb);
            let images = self.layout.locate_images(lb);
            if faults.contains(d.disk) && images.iter().all(|a| faults.contains(a.disk)) {
                return Err(IoError::DataLoss { lb });
            }
            homes.push((lb, d, images));
        }
        let mut fg = Vec::new(); // foreground placements
        let mut bg = Vec::new(); // deferred image placements
        for (lb, d, images) in homes {
            // The one copy out of the caller's buffer: the data home and
            // every healthy image home hold this same handle.
            let block = block_of(block_at(data, bs, lb0, lb));
            let d_ok = !faults.contains(d.disk);
            if d_ok {
                self.put_block(d, &[lb], block.clone())?;
                fg.push((lb, d));
            } else {
                self.park(self.placer.phys(d.disk), lb);
            }
            for img in images {
                if faults.contains(img.disk) {
                    // Degraded write: the surviving copies go down now;
                    // the skipped one is parked for resync/rebuild.
                    self.park(self.placer.phys(img.disk), lb);
                    continue;
                }
                self.put_block(img, &[lb], block.clone())?;
                // With the primary gone the image is the only durable copy,
                // so it must be written before the ack.
                if write_behind && d_ok {
                    bg.push((lb, img));
                } else {
                    fg.push((lb, img));
                }
            }
        }
        // Write-behind with group clustering: buffer each deferred image
        // under its mirroring group; a group that fills flushes as one
        // long sequential write (the OSM mechanism that removes per-write
        // mirroring cost). Partial groups stay buffered until they fill,
        // the backlog bound sheds them, or `flush_images` is called.
        let mut ready: Vec<PendingImage> = Vec::new();
        for (lb, img) in bg {
            let group = self.layout.image_group_key(lb);
            ready.extend(self.images.push(PendingImage { client, lb, addr: img }, group));
        }
        // Bounded write-behind: whatever still exceeds the backlog cap is
        // this request's debt — it flushes on the foreground path, inside
        // the ack, as a partial clustered flush.
        let overflow = match self.cfg.max_image_backlog {
            Some(bound) => self.images.drain_overflow(bound),
            None => Vec::new(),
        };
        let mut chain = vec![par(self.acked_writes(client, fg))];
        let ops = self.ops();
        if !ready.is_empty() {
            chain.push(background(par(ImageQueue::flush_plans(&ops, &self.placer, ready))));
        }
        if !overflow.is_empty() {
            chain.push(par(ImageQueue::flush_plans(&ops, &self.placer, overflow)));
        }
        Ok(seq(chain))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::shape;
    use raidx_core::{Arch, WriteScheme};

    /// Each write scheme and the architecture that uses it.
    const SCHEMES: [(WriteScheme, Arch); 3] = [
        (WriteScheme::ForegroundMirror, Arch::Raid10),
        (WriteScheme::BackgroundMirror, Arch::RaidX),
        (WriteScheme::Parity, Arch::Raid5),
    ];

    /// A refused write is a no-op under every scheme: whichever block of
    /// the range turns out unstorable, the degraded-write ledger, the
    /// image queue, the plane and what scrub sees are as before the call.
    #[test]
    fn a_refused_write_changes_nothing() {
        for (scheme, arch) in SCHEMES {
            let (_engine, mut sys) = shape(4, 1, 4 << 20, arch);
            assert_eq!(sys.layout.write_scheme(), scheme);
            let bs = sys.block_size() as usize;
            sys.write(0, 0, &vec![0x42; 12 * bs]).expect("healthy seed");
            for disk in 0..3 {
                sys.fail_disk_transient(disk);
            }
            let state = |sys: &mut crate::IoSystem| {
                let scrub = format!("{:?}", sys.scrub());
                (sys.parked.clone(), sys.pending_image_blocks(), sys.plane.bytes_written(), scrub)
            };
            // Every alignment of a three-block request against the one
            // surviving disk: the unstorable block is first, second, third.
            let mut refused = 0;
            for lb0 in 0..8 {
                let before = state(&mut sys);
                match sys.write(3, lb0, &vec![0x91; 3 * bs]) {
                    Err(IoError::DataLoss { .. }) => {
                        refused += 1;
                        assert_eq!(state(&mut sys), before, "{scheme:?}: refused write at {lb0}");
                    }
                    Ok(_) => {}
                    Err(e) => panic!("{scheme:?}: write at {lb0}: {e}"),
                }
            }
            assert!(refused > 0, "{scheme:?}: no request was refused");
        }
    }
}
