//! Array maintenance: redundancy scrub and the rebuild entry point.
//!
//! Both walk the written region of the array from outside the request
//! pipeline — scrub audits the functional plane's redundancy relations,
//! rebuild restores every copy a replaced disk held through the shared
//! executor in [`crate::restore`]. The cheap transient path lives in
//! [`crate::resync`]: the paper's Section 6 distinction, where a
//! transient failure recovers from local state in seconds while a
//! permanent one pays a full rebuild.

use std::sync::Arc;

use cluster::{xor_of, Block};
use sim_core::Plan;

use crate::error::IoError;
use crate::restore::RestoreOutcome;
use crate::system::IoSystem;

impl IoSystem {
    /// Scrub: audit that every written block's redundancy is consistent
    /// on the functional plane — mirror images byte-identical to their
    /// data, parity blocks equal to the XOR of their stripe. Returns the
    /// number of redundancy relations audited; any inconsistency is an
    /// error naming the offending block. Copies on failed or offline
    /// disks are skipped, as are copies *parked* by degraded writes —
    /// those are known-stale until resync, not corruption. (The real CDD
    /// would run this in idle time; here it is the test suite's
    /// strongest invariant check.)
    pub fn scrub(&mut self) -> Result<u64, IoError> {
        let mut audited = 0u64;
        let width = self.layout.stripe_width() as u64;
        // Slot view of the media faults; also covers a migrating slot
        // whose vacated home is unreadable (those copies are known-good
        // via redundancy but not auditable in place until the rebalance
        // drains).
        let storage = self.placer.slot_read_faults(&self.storage_faults());
        let parked = self.parked.clone();
        // The parked ledger is keyed by physical disk; a slot-space copy
        // checks the entry of its *current* home (where resync restores).
        let is_parked = |sys: &Self, slot: usize, lb: u64| {
            parked.get(&sys.placer.phys(slot)).is_some_and(|s| s.contains(&lb))
        };
        for lb in 0..self.high_water {
            let d = self.layout.locate_data(lb);
            if storage.contains(d.disk) || is_parked(self, d.disk, lb) {
                continue;
            }
            let dh = self.placer.read_home(d);
            let data = self.plane.get(dh.disk, dh.block)?;
            // Mirror images must match exactly.
            for img in self.layout.locate_images(lb) {
                if storage.contains(img.disk) || is_parked(self, img.disk, lb) {
                    continue;
                }
                let ih = self.placer.read_home(img);
                let copy = self.plane.get(ih.disk, ih.block)?;
                if !Arc::ptr_eq(&copy, &data) && copy != data {
                    return Err(IoError::DataLoss { lb });
                }
                audited += 1;
            }
            // Parity must equal the XOR of the whole stripe (checked once
            // per stripe, at its first member).
            if let Some(p) = self.layout.locate_parity(lb) {
                let (s, pos) = self.layout.stripe_of(lb);
                if pos == 0 && !storage.contains(p.disk) {
                    let mut members: Vec<Block> = Vec::new();
                    let mut complete = true;
                    for member in self.layout.stripe_blocks(s) {
                        let a = self.layout.locate_data(member);
                        if storage.contains(a.disk)
                            || is_parked(self, a.disk, member)
                            || is_parked(self, p.disk, member)
                        {
                            complete = false;
                            break;
                        }
                        let ah = self.placer.read_home(a);
                        members.push(self.plane.get(ah.disk, ah.block)?);
                    }
                    if complete {
                        let ph = self.placer.read_home(p);
                        let parity = self.plane.get(ph.disk, ph.block)?;
                        if parity != xor_of(&members) {
                            return Err(IoError::DataLoss { lb: s * width });
                        }
                        audited += 1;
                    }
                }
            }
        }
        Ok(audited)
    }

    /// Replace `disk` with a blank spare and restore every block it held
    /// (primaries, images and parity), driven from node `client`.
    /// Returns the timing plan and the number of blocks accounted for
    /// (written + verified-present).
    pub fn rebuild_disk(&mut self, client: usize, disk: usize) -> Result<(Plan, usize), IoError> {
        let outcome = self.rebuild_disk_resumable(client, disk, None)?;
        debug_assert!(outcome.finished);
        Ok((outcome.plan, outcome.restored + outcome.skipped))
    }

    /// Rebuild with an optional step budget, safe to re-run after a
    /// power failure mid-rebuild.
    ///
    /// The target plane is wiped only when the media is actually failed;
    /// on a restart (target already replaced, partially restored) the
    /// surviving restored blocks are detected and *skipped* by
    /// `IoSystem::restore`. The disk rejoins the array — and its
    /// parked-block ledger clears — only when the final step completes.
    pub fn rebuild_disk_resumable(
        &mut self,
        client: usize,
        disk: usize,
        step_limit: Option<usize>,
    ) -> Result<RestoreOutcome, IoError> {
        assert!(self.faults.contains(disk), "rebuilding a healthy disk");
        // Rebuild planning runs in slot space; `disk` is the physical
        // target, which must be serving a slot (Active) to be rebuilt.
        #[expect(
            clippy::expect_used,
            reason = "operator-error invariant — callers rebuild active disks only"
        )]
        let slot = self.placer.map().slot_of(disk).expect("rebuilding a disk that serves no slot");
        let (steps, lost) = self.plan_slot(slot, |_| true);
        if let Some(l) = lost.first() {
            return Err(IoError::DataLoss { lb: l.lbs(self.layout.as_ref())[0] });
        }
        if self.plane.is_failed(disk) {
            self.plane.replace(disk);
        }
        let outcome = self.restore(client, &steps, step_limit)?;
        if outcome.finished {
            self.faults.remove(disk);
            self.parked.remove(&disk);
        }
        Ok(outcome)
    }
}
