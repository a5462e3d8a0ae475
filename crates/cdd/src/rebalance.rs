//! Incremental rebalancing: draining an epoch transition's pending set.
//!
//! [`crate::membership`] flips placement instantly; this module moves the
//! bytes afterwards, in bounded crash-idempotent steps through the shared
//! executor in [`crate::restore`] — a verbatim move from the vacated disk
//! when its media survives, the rebuild walk filtered to the pending
//! blocks when not. Reads keep resolving still-pending blocks against the
//! old home throughout, so the array serves every request mid-migration
//! with zero failed ops.

use std::collections::BTreeSet;

use raidx_core::BlockAddr;

use crate::error::IoError;
use crate::restore::{Repair, RestoreOutcome, RestoreStep};
use crate::system::IoSystem;

impl IoSystem {
    /// Drain up to `step_limit` pending blocks of the in-flight migration
    /// (all of them when `None`), driven from node `client`. Interrupted
    /// at any point it re-runs idempotently (`IoSystem::restore`
    /// compares before it writes). A copy no live source can re-create
    /// is lost as by every repair (`IoSystem::repair`), so the migration
    /// still closes. Returns a finished no-op outcome when none is in
    /// flight.
    pub fn rebalance(
        &mut self,
        client: usize,
        step_limit: Option<usize>,
    ) -> Result<RestoreOutcome, IoError> {
        let Some(m) = self.placer.migration().cloned() else {
            return Ok(RestoreOutcome::NONE);
        };
        let old_ok =
            !m.old_dead && !self.plane.is_failed(m.old_phys) && !self.plane.is_offline(m.old_phys);
        self.with_grant(|sys| {
            let repair = if old_ok {
                let moves = m.pending.iter().map(|&b| RestoreStep {
                    inputs: vec![BlockAddr::new(m.old_phys, b)],
                    dst: BlockAddr::new(m.new_phys, b),
                    lbs: Vec::new(),
                });
                Repair { slot: m.slot, steps: moves.collect(), lost: Vec::new() }
            } else {
                sys.plan_slot(m.slot, |s| m.pending.contains(&s.target.block))
            };
            // A pending block that is no copy location of any written
            // block (the layout walk is the authority) has nothing to move.
            let steps = repair.steps.iter().map(|s| s.dst.block);
            let known: BTreeSet<u64> =
                steps.chain(repair.lost.iter().map(|l| l.target.block)).collect();
            for &b in m.pending.difference(&known) {
                sys.placer.clear_pending(m.slot, b);
            }
            sys.repair(client, repair, step_limit)
        })
    }
}

#[cfg(test)]
mod tests {
    use crate::testkit::shape;
    use raidx_core::Arch;

    /// Removing a healthy disk keeps every byte readable before, during
    /// and after the incremental rebalance; the vacated disk's content
    /// lands verbatim on the promoted spare.
    #[test]
    fn remove_healthy_disk_migrates_without_losing_a_byte() {
        let (mut engine, mut sys) = shape(4, 1, 8 << 20, Arch::RaidX);
        let bs = sys.block_size() as usize;
        let nblocks = 32u64;
        let data: Vec<u8> =
            (0..nblocks as usize * bs).map(|i| ((i * 11 + 5) % 251) as u8 + 1).collect();
        sys.write(0, 0, &data).expect("seed");
        let _ = sys.flush_images();

        let spare = sys.add_disk(&mut engine).expect("add spare");
        assert_eq!(sys.epoch(), 1);
        let promoted = sys.remove_disk(1).expect("remove disk 1");
        assert_eq!(promoted, spare);
        assert_eq!(sys.epoch(), 2);
        assert!(sys.migration_pending() > 0, "vacated disk had content to move");

        // Mid-migration: reads resolve pending blocks to the old home.
        let (got, _) = sys.read(2, 0, nblocks).expect("read during migration");
        assert_eq!(got, data, "bytes must survive the transition untouched");

        // Drain in small steps; every step is bounded and idempotent.
        let mut total_moved = 0;
        loop {
            let out = sys.rebalance(0, Some(5)).expect("rebalance step");
            assert_eq!(out.lost, None);
            total_moved += out.restored;
            engine.spawn_job("rebalance", out.plan);
            engine.run().expect("rebalance timing");
            if out.finished {
                break;
            }
        }
        assert_eq!(sys.migration_pending(), 0);
        assert!(total_moved > 0, "migration must actually move blocks");

        let (got, _) = sys.read(3, 0, nblocks).expect("post-migration read");
        assert_eq!(got, data);
        assert!(sys.scrub().expect("scrub") > 0, "redundancy must hold on the new home");
    }

    /// Removing a *failed* disk reconstructs its pending blocks from
    /// redundancy onto the spare — the migration path subsumes rebuild.
    #[test]
    fn remove_failed_disk_reconstructs_onto_the_spare() {
        let (mut engine, mut sys) = shape(4, 1, 8 << 20, Arch::RaidX);
        let bs = sys.block_size() as usize;
        let nblocks = 24u64;
        let data: Vec<u8> =
            (0..nblocks as usize * bs).map(|i| ((i * 13 + 7) % 249) as u8 + 1).collect();
        sys.write(0, 0, &data).expect("seed");
        let _ = sys.flush_images();

        sys.fail_disk(2);
        sys.add_disk(&mut engine).expect("add spare");
        sys.remove_disk(2).expect("retire the failed disk");
        assert!(!sys.faults().contains(2), "retired disk leaves the fault set");

        // Degraded but correct reads while the reconstruction drains.
        let (got, _) = sys.read(1, 0, nblocks).expect("read during reconstruction");
        assert_eq!(got, data);

        let out = sys.rebalance(0, None).expect("full reconstruction");
        assert!(out.finished && out.lost.is_none());
        engine.spawn_job("reconstruct", out.plan);
        engine.run().expect("reconstruct timing");

        let (got, _) = sys.read(3, 0, nblocks).expect("post-reconstruction read");
        assert_eq!(got, data);
        assert!(sys.scrub().expect("scrub") > 0);
    }

    /// A write to a still-pending block mid-migration lands on the new
    /// home and supersedes that block's move (budgeted resume itself is
    /// covered by the table-driven test in `crate::restore`).
    #[test]
    fn write_during_migration_supersedes_the_move() {
        let (mut engine, mut sys) = shape(4, 1, 8 << 20, Arch::RaidX);
        let bs = sys.block_size() as usize;
        let nblocks = 32u64;
        let data: Vec<u8> = (0..nblocks as usize * bs).map(|i| (i % 254) as u8 + 1).collect();
        sys.write(0, 0, &data).expect("seed");
        let _ = sys.flush_images();

        sys.add_disk(&mut engine).expect("add spare");
        sys.remove_disk(1).expect("remove");
        let pending = sys.migration_pending();
        let a = sys.rebalance(0, Some(3)).expect("partial rebalance");
        assert!(!a.finished && a.lost.is_none());
        let lb = (0..nblocks)
            .rev()
            .find(|&lb| sys.layout().locate_data(lb).disk == 1)
            .expect("a primary on the migrating slot");
        let fresh = vec![0xA5u8; bs];
        sys.write(0, lb, &fresh).expect("write during migration");
        assert!(sys.migration_pending() < pending - 3, "the write must clear its pending entry");

        let b = sys.rebalance(0, None).expect("resumed rebalance");
        assert!(b.finished && b.lost.is_none());
        assert!(a.restored + a.skipped + b.restored + b.skipped < pending);
        let (got, _) = sys.read(2, lb, 1).expect("superseded block read");
        assert_eq!(got, fresh, "in-migration write must win");
        assert!(sys.scrub().expect("scrub") > 0);
    }
}
