//! Scheme-driver layer of the CDD pipeline: one driver per
//! [`WriteScheme`], behind the [`SchemeDriver`] trait.
//!
//! The front end admits and locks a request; the matching driver then
//! owns the whole write policy — placement, fault handling, functional
//! data movement and the timing plan:
//!
//! * [`PlainDriver`] (`WriteScheme::None`) — plain striping.
//! * [`MirrorDriver`] (`ForegroundMirror` / `BackgroundMirror`) — both
//!   copies foreground (RAID-10, chained declustering), or RAID-x OSM
//!   write-behind: the ack follows the data writes and images buffer in
//!   the [`ImageQueue`], flushing per mirroring group as long detached
//!   sequential runs. With [`CddConfig::max_image_backlog`] set, a write
//!   that overfills the queue pays the overflow as a foreground partial
//!   clustered flush (bounded backpressure).
//! * [`crate::parity::ParityDriver`] (`Parity`) — RAID-5: full stripes compute parity
//!   client-side and write `n` streams; partial stripes pay the
//!   four-operation read-modify-write (the small-write problem).
//!
//! Drivers are stateless: all array state they touch is borrowed through
//! [`WriteCtx`], so the dispatch is a table lookup ([`driver_for`]) and
//! new layouts add a driver without touching the orchestrator.

use std::collections::{BTreeMap, BTreeSet};

use cluster::{Block, Cluster, DataPlane};
use raidx_core::{BlockAddr, FaultSet, Layout, WriteScheme};
use sim_core::plan::{background, par, seq};
use sim_core::Plan;

use crate::config::CddConfig;
use crate::error::IoError;
use crate::image_queue::{ImageQueue, PendingImage};
use crate::ops::OpBuilder;
use crate::placer::Placer;
use crate::runs::{merge_runs, Run};

/// Everything a scheme driver may touch, borrowed field-by-field from the
/// [`crate::IoSystem`] for the duration of one admitted write.
///
/// All placement arithmetic inside a driver happens in logical *slot*
/// space; the context's [`WriteCtx::put_block`], [`WriteCtx::get_block`]
/// and [`WriteCtx::phys`] helpers translate to physical disks through the
/// epoch-versioned placer at the plane boundary (the identity on a
/// never-reconfigured array).
pub struct WriteCtx<'a> {
    /// The layout placing blocks.
    pub layout: &'a dyn Layout,
    /// The functional plane holding the bytes.
    pub plane: &'a mut DataPlane,
    /// Epoch-versioned slot→physical binding; writes through it supersede
    /// any in-flight migration of the written blocks.
    pub placer: &'a mut Placer,
    /// Currently failed disks (slot view of the client's fault set).
    pub faults: &'a FaultSet,
    /// Cluster resource handles for plan building.
    pub cluster: &'a Cluster,
    /// Protocol cost parameters and policies.
    pub cfg: &'a CddConfig,
    /// The OSM write-behind queue (mirror drivers only).
    pub images: &'a mut ImageQueue,
    /// Degraded-write ledger: per unavailable disk, the logical blocks
    /// whose copy on that disk was *skipped* by a driver. Transient
    /// recovery resyncs exactly these; permanent rebuild clears them
    /// wholesale.
    pub parked: &'a mut BTreeMap<usize, BTreeSet<u64>>,
    /// When tracing, the logical blocks whose images this write flushed
    /// out of the [`ImageQueue`] (full groups and backlog overflow).
    /// `None` when the orchestrator has no tracer installed.
    pub surrendered: Option<&'a mut Vec<u64>>,
}

impl<'a> WriteCtx<'a> {
    /// Plan builder over this context's cluster. The returned builder
    /// borrows the cluster and config directly (not the context), so it
    /// coexists with later mutation of the plane or image queue.
    pub fn ops(&self) -> OpBuilder<'a> {
        OpBuilder { cluster: self.cluster, cfg: self.cfg }
    }

    /// Logical block size in bytes.
    pub fn block_size(&self) -> usize {
        self.cluster.cfg.block_size as usize
    }

    /// Record that `lb`'s copy on unavailable slot `disk` was skipped by
    /// a degraded write and must be restored when the disk comes back (or
    /// is rebuilt). The ledger is keyed by *physical* disk, so the entry
    /// follows the slot's current home.
    pub fn park(&mut self, disk: usize, lb: u64) {
        let phys = self.placer.phys(disk);
        self.parked.entry(phys).or_default().insert(lb);
    }

    /// Physical disk currently serving slot `slot`.
    pub fn phys(&self, slot: usize) -> usize {
        self.placer.phys(slot)
    }

    /// Store `block` at slot-space address `a`: lands on the slot's
    /// current home and supersedes any pending migration of the block.
    /// Every copy of one logical block is a clone of one handle, so the
    /// caller's bytes are copied once however many homes they reach.
    pub fn put_block(&mut self, a: BlockAddr, block: Block) -> Result<(), IoError> {
        let h = self.placer.write_home(a);
        self.plane.put(h.disk, h.block, block)?;
        Ok(())
    }

    /// The block at slot-space address `a`, from wherever it currently
    /// lives (the old home while pending migration).
    pub fn get_block(&mut self, a: BlockAddr) -> Result<Block, IoError> {
        let h = self.placer.read_home(a);
        Ok(self.plane.get(h.disk, h.block)?)
    }

    /// The block of `data` backing logical block `lb` of a request
    /// starting at `lb0`.
    pub fn slice<'d>(&self, data: &'d [u8], lb0: u64, lb: u64) -> &'d [u8] {
        let bs = self.block_size();
        let off = ((lb - lb0) as usize) * bs;
        &data[off..off + bs]
    }
}

/// One write policy of the single I/O space.
pub trait SchemeDriver: Sync {
    /// The scheme this driver implements (dispatch sanity / reports).
    fn scheme(&self) -> WriteScheme;

    /// Execute an admitted, locked write: move the bytes on the
    /// functional plane now and return the timing plan.
    fn write(
        &self,
        ctx: &mut WriteCtx<'_>,
        client: usize,
        lb0: u64,
        nblocks: u64,
        data: &[u8],
    ) -> Result<Plan, IoError>;
}

/// The driver implementing `scheme`.
pub fn driver_for(scheme: WriteScheme) -> &'static dyn SchemeDriver {
    use crate::parity::ParityDriver;
    static PLAIN: PlainDriver = PlainDriver;
    static FOREGROUND: MirrorDriver = MirrorDriver { write_behind: false };
    static BACKGROUND: MirrorDriver = MirrorDriver { write_behind: true };
    static PARITY: ParityDriver = ParityDriver;
    match scheme {
        WriteScheme::None => &PLAIN,
        WriteScheme::ForegroundMirror => &FOREGROUND,
        WriteScheme::BackgroundMirror => &BACKGROUND,
        WriteScheme::Parity => &PARITY,
    }
}

pub(crate) fn runs_to_writes(
    ops: &OpBuilder<'_>,
    placer: &Placer,
    client: usize,
    runs: &[Run],
    ack: bool,
) -> Vec<Plan> {
    runs.iter().map(|r| ops.write_run(client, placer.phys(r.disk), r.start, r.len(), ack)).collect()
}

/// Plain striping: every block to its data disk, acked in parallel.
pub struct PlainDriver;

impl SchemeDriver for PlainDriver {
    fn scheme(&self) -> WriteScheme {
        WriteScheme::None
    }

    fn write(
        &self,
        ctx: &mut WriteCtx<'_>,
        client: usize,
        lb0: u64,
        nblocks: u64,
        data: &[u8],
    ) -> Result<Plan, IoError> {
        let mut placements = Vec::with_capacity(nblocks as usize);
        for lb in lb0..lb0 + nblocks {
            let a = ctx.layout.locate_data(lb);
            if ctx.faults.contains(a.disk) {
                return Err(IoError::DataLoss { lb });
            }
            placements.push((lb, a));
        }
        for &(lb, a) in &placements {
            ctx.put_block(a, ctx.slice(data, lb0, lb).into())?;
        }
        let ops = ctx.ops();
        let plans = runs_to_writes(&ops, ctx.placer, client, &merge_runs(placements), true);
        Ok(par(plans))
    }
}

/// Mirrored writes: foreground both-copies (RAID-10, chained), or RAID-x
/// OSM write-behind when `write_behind` and the config's
/// `background_mirroring` both hold.
pub struct MirrorDriver {
    /// Whether images may defer to the background image queue.
    pub write_behind: bool,
}

impl SchemeDriver for MirrorDriver {
    fn scheme(&self) -> WriteScheme {
        if self.write_behind {
            WriteScheme::BackgroundMirror
        } else {
            WriteScheme::ForegroundMirror
        }
    }

    fn write(
        &self,
        ctx: &mut WriteCtx<'_>,
        client: usize,
        lb0: u64,
        nblocks: u64,
        data: &[u8],
    ) -> Result<Plan, IoError> {
        let deferred_images = self.write_behind && ctx.cfg.background_mirroring;
        // Validate the whole range before touching anything: a refused
        // request leaves the plane and the degraded-write ledger as they
        // were.
        let mut homes = Vec::with_capacity(nblocks as usize);
        for lb in lb0..lb0 + nblocks {
            let d = ctx.layout.locate_data(lb);
            let images = ctx.layout.locate_images(lb);
            if ctx.faults.contains(d.disk) && images.iter().all(|a| ctx.faults.contains(a.disk)) {
                return Err(IoError::DataLoss { lb });
            }
            homes.push((lb, d, images));
        }
        let mut fg = Vec::new(); // foreground placements
        let mut bg = Vec::new(); // deferred image placements
        for (lb, d, images) in homes {
            // The one copy out of the caller's buffer: the data home and
            // every healthy image home hold this same handle.
            let block: Block = ctx.slice(data, lb0, lb).into();
            let d_ok = !ctx.faults.contains(d.disk);
            if d_ok {
                ctx.put_block(d, block.clone())?;
                fg.push((lb, d));
            } else {
                ctx.park(d.disk, lb);
            }
            for img in images {
                if ctx.faults.contains(img.disk) {
                    // Degraded write: the surviving copies go down now;
                    // the skipped one is parked for resync/rebuild.
                    ctx.park(img.disk, lb);
                    continue;
                }
                ctx.put_block(img, block.clone())?;
                // With the primary gone the image is the only durable copy,
                // so it must be written before the ack.
                if deferred_images && d_ok {
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
            let group = ctx.layout.image_group_key(lb);
            // The queue holds physical addresses, so disk-level drains and
            // flush plans match the fault state and the current epoch.
            let addr = BlockAddr::new(ctx.phys(img.disk), img.block);
            ready.extend(ctx.images.push(PendingImage { client, lb, addr }, group));
        }
        let ops = ctx.ops();
        let fg_plans = runs_to_writes(&ops, ctx.placer, client, &merge_runs(fg), true);
        let mut chain = vec![par(fg_plans)];
        if !ready.is_empty() {
            if let Some(out) = ctx.surrendered.as_deref_mut() {
                out.extend(ready.iter().map(|p| p.lb));
            }
            chain.push(background(par(ImageQueue::flush_plans(&ops, ready))));
        }
        // Bounded write-behind: whatever still exceeds the backlog cap is
        // this request's debt — it flushes on the foreground path, inside
        // the ack, as a partial clustered flush.
        if let Some(bound) = ctx.cfg.max_image_backlog {
            let overflow = ctx.images.drain_overflow(bound);
            if !overflow.is_empty() {
                if let Some(out) = ctx.surrendered.as_deref_mut() {
                    out.extend(overflow.iter().map(|p| p.lb));
                }
                chain.push(par(ImageQueue::flush_plans(&ops, overflow)));
            }
        }
        Ok(seq(chain))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::shape;
    use raidx_core::{Arch, Raid0};

    const SCHEMES: [WriteScheme; 4] = [
        WriteScheme::None,
        WriteScheme::ForegroundMirror,
        WriteScheme::BackgroundMirror,
        WriteScheme::Parity,
    ];

    #[test]
    fn dispatch_matches_scheme() {
        for scheme in SCHEMES {
            assert_eq!(driver_for(scheme.clone()).scheme(), scheme);
        }
    }

    /// A refused write is a no-op under every scheme: whichever block of
    /// the range turns out unstorable, the degraded-write ledger, the
    /// image queue, the plane and what scrub sees are as before the call.
    #[test]
    fn a_refused_write_changes_nothing() {
        for scheme in SCHEMES {
            let arch = match scheme {
                WriteScheme::ForegroundMirror => Arch::Raid10,
                WriteScheme::Parity => Arch::Raid5,
                WriteScheme::None | WriteScheme::BackgroundMirror => Arch::RaidX,
            };
            let (_engine, mut sys) = shape(4, 1, 4 << 20, arch);
            if scheme == WriteScheme::None {
                // No `Arch` stripes without redundancy; the layout does.
                sys.layout = Box::new(Raid0::new(4, sys.cluster.cfg.blocks_per_disk()));
            }
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
