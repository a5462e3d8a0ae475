//! Transient recovery: resyncing the blocks parked by degraded writes.
//!
//! The paper's Section 6 distinction, cheap side: a disk that was only
//! *transiently* unavailable (offline, or behind a healed partition)
//! kept its contents, so recovery restores just the copies degraded
//! writes skipped — recorded per physical disk in the parked ledger —
//! from surviving replicas, instead of paying a full rebuild.

use std::collections::BTreeSet;

use sim_core::Plan;

use crate::error::IoError;
use crate::system::IoSystem;

impl IoSystem {
    /// Bring a transiently-offline disk back: its contents survived, so
    /// recovery only resyncs the blocks degraded writes parked while it
    /// was away — the paper's cheap transient path, in contrast to the
    /// full [`IoSystem::rebuild_disk`] a permanent failure pays.
    pub fn recover_disk_transient(
        &mut self,
        client: usize,
        disk: usize,
    ) -> Result<(Plan, usize), IoError> {
        assert!(self.offline.contains(disk), "disk is not transiently offline");
        self.plane.set_offline(disk, false);
        self.offline.remove(disk);
        self.resync_parked(client, disk)
    }

    /// Restore every copy parked against online `disk` from surviving
    /// replicas (after a transient outage or a healed partition).
    /// Returns the timing plan and the number of blocks restored.
    ///
    /// A parked block leaves the ledger only once its copies on `disk`
    /// are restored: if a second failure took a copy's last source, the
    /// rest are still restored, the unrestorable blocks stay parked and
    /// the call returns [`IoError::DataLoss`] — rebuild the source, then
    /// resync again.
    pub fn resync_parked(&mut self, client: usize, disk: usize) -> Result<(Plan, usize), IoError> {
        assert!(
            !self.faults.contains(disk) && !self.offline.contains(disk),
            "resync target must be online"
        );
        let parked = match self.parked.get(&disk) {
            Some(p) if !p.is_empty() => p.clone(),
            _ => return Ok((Plan::Noop, 0)),
        };
        // The ledger is keyed by physical disk; the copies to restore are
        // the ones whose *slot* this disk currently serves.
        #[expect(
            clippy::expect_used,
            reason = "operator-error invariant — parked ledgers only exist for active disks"
        )]
        let slot = self.placer.slot_of(disk).expect("resyncing a disk that serves no slot");
        let layout = self.layout.as_ref();
        let (steps, lost) =
            self.plan_slot(slot, |s| s.lbs(layout).iter().any(|lb| parked.contains(lb)));
        let stale: BTreeSet<u64> =
            lost.iter().flat_map(|l| l.lbs(layout)).filter(|lb| parked.contains(lb)).collect();

        let outcome = self.restore(client, &steps, None)?;
        for s in &steps {
            self.placer.clear_pending(slot, s.dst.block);
        }
        match stale.first().copied() {
            None => {
                self.parked.remove(&disk);
                Ok((outcome.plan, outcome.restored))
            }
            Some(lb) => {
                self.parked.insert(disk, stale);
                Err(IoError::DataLoss { lb })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::testkit::shape;
    use crate::IoError;
    use raidx_core::Arch;

    /// A transient outage keeps the disk's contents: recovery resyncs
    /// only the blocks that went stale (parked) while it was offline.
    #[test]
    fn transient_recovery_resyncs_only_parked_blocks() {
        let (mut engine, mut sys) = shape(4, 1, 8 << 20, Arch::RaidX);
        let bs = sys.block_size() as usize;
        let nblocks = 24u64;
        let before: Vec<u8> = vec![0x42; nblocks as usize * bs];
        sys.write(0, 0, &before).expect("healthy seed");
        sys.fail_disk_transient(1);

        // Degraded overwrite of a prefix: copies on disk 1 get parked.
        let after: Vec<u8> = vec![0x91; 8 * bs];
        sys.write(0, 0, &after).expect("degraded write");
        let parked = sys.parked_blocks(1);
        assert!(parked > 0, "degraded writes must park the offline copies");

        // Reads already see the new bytes via the surviving copies.
        let (got, _) = sys.read(2, 0, 8).expect("degraded read");
        assert_eq!(got, after);

        let (plan, resynced) = sys.recover_disk_transient(0, 1).expect("recovery");
        assert_eq!(resynced, parked, "resync must cover exactly the parked blocks");
        assert_eq!(sys.parked_blocks(1), 0);
        assert!(sys.offline_disks().is_empty());
        engine.spawn_job("resync", plan);
        engine.run().expect("resync timing");

        let (got, _) = sys.read(2, 0, nblocks).expect("post-recovery read");
        assert_eq!(&got[..8 * bs], &after[..]);
        assert_eq!(&got[8 * bs..], &before[8 * bs..]);
        assert!(sys.scrub().expect("scrub") > 0);
    }

    /// Regression: a second failure during recovery must not cost the
    /// ledger. Resync restores what still has a source, keeps exactly the
    /// unrestorable blocks parked and reports the loss; once the partner
    /// is rebuilt a second resync finishes the job.
    #[test]
    fn resync_keeps_unrestored_blocks_parked_on_error() {
        let (_engine, mut sys) = shape(4, 1, 8 << 20, Arch::RaidX);
        let bs = sys.block_size() as usize;
        sys.write(0, 0, &vec![0x42; 24 * bs]).expect("healthy seed");
        let _ = sys.flush_images();
        sys.fail_disk_transient(1);
        sys.write(0, 0, &vec![0x91; 16 * bs]).expect("degraded write");
        let _ = sys.flush_images();
        // The partner of *some* parked blocks dies for good: a parked
        // block whose only other copy lived on disk 2 has no source left.
        sys.fail_disk(2);
        let parked = sys.parked[&1].clone();
        let sourceless = |lb: &u64| sys.copy_addrs(*lb).iter().all(|a| a.disk == 1 || a.disk == 2);
        let unrestorable = parked.iter().filter(|lb| sourceless(lb)).count();
        assert!(0 < unrestorable && unrestorable < parked.len(), "want a mixed ledger");

        let err = sys.recover_disk_transient(0, 1).expect_err("a source is gone");
        assert!(matches!(err, IoError::DataLoss { .. }), "{err}");
        assert!(sys.offline_disks().is_empty(), "the disk itself is back");
        assert_eq!(sys.parked_blocks(1), unrestorable, "only unrestored blocks stay parked");

        sys.rebuild_disk(0, 2).expect("rebuild the partner");
        sys.resync_parked(0, 1).expect("second resync has every source again");
        assert_eq!(sys.parked_total(), 0);
        assert!(sys.scrub().expect("scrub") > 0);
    }
}
