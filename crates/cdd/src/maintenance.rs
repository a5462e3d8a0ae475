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

use crate::error::IoError;
use crate::restore::RestoreOutcome;
use crate::system::IoSystem;

impl IoSystem {
    /// Scrub: audit that every written block's redundancy is consistent
    /// on the functional plane — mirror images byte-identical to their
    /// data, parity blocks equal to the XOR of their stripe. Returns the
    /// number of redundancy relations audited; any inconsistency is an
    /// error naming the offending block. Only live copies are audited
    /// (`IoSystem::untrusted`): one on a failed or offline disk, or
    /// *parked* by a degraded write, is known-stale until resync, not
    /// corruption. (The real CDD
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
        for lb in 0..self.high_water {
            let untrusted = self.untrusted(&storage, lb);
            let d = self.layout.locate_data(lb);
            if untrusted.contains(d.disk) {
                continue;
            }
            let dh = self.placer.read_home(d);
            let data = self.plane.get(dh.disk, dh.block)?;
            // Mirror images must match exactly.
            for img in self.layout.locate_images(lb) {
                if untrusted.contains(img.disk) {
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
            // per stripe, at its first member, when the parity and every
            // member are live).
            if let Some(p) = self.layout.locate_parity(lb) {
                let (s, pos) = self.layout.stripe_of(lb);
                if pos == 0 && !untrusted.contains(p.disk) {
                    let mut members: Vec<Block> = Vec::new();
                    let mut complete = true;
                    for member in self.layout.stripe_blocks(s) {
                        let a = self.layout.locate_data(member);
                        if untrusted.contains(a.disk) {
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

    /// Replace `disk` with a blank spare and restore the first `budget`
    /// (all when `None`) of the blocks it held — primaries, images and
    /// parity — driven from node `client`; safe to re-run after a power
    /// failure mid-rebuild. The plane is wiped only when the media is
    /// actually failed, so a restart *skips* what it already restored.
    /// The disk rejoins the array only when the final step completes. A
    /// copy with no live source is lost as by every repair
    /// (`IoSystem::repair`): it stays parked, and reads `DataLoss` until
    /// it is written again.
    pub fn rebuild_disk(
        &mut self,
        client: usize,
        disk: usize,
        budget: Option<usize>,
    ) -> Result<RestoreOutcome, IoError> {
        assert!(self.faults.contains(disk), "rebuilding a healthy disk");
        // Rebuild planning runs in slot space; `disk` is the physical
        // target, which must be serving a slot (Active) to be rebuilt.
        #[expect(
            clippy::expect_used,
            reason = "operator-error invariant — callers rebuild active disks only"
        )]
        let slot = self.placer.slot_of(disk).expect("rebuilding a disk that serves no slot");
        let repair = self.plan_slot(slot, |_| true);
        if self.plane.is_failed(disk) {
            self.plane.replace(disk);
        }
        let outcome = self.repair(client, repair, budget)?;
        if outcome.finished {
            self.faults.remove(disk);
        }
        Ok(outcome)
    }
}
