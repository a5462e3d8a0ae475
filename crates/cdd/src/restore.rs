//! The one restore path: how a lost or moved copy is re-created.
//!
//! XOR is associative, so a straight copy, a RAID-5 reconstruction, a
//! parity recompute and a verbatim move from a still-readable old home are
//! the same piece of data: a `RestoreStep` whose `inputs` XOR to the
//! bytes `dst` must hold (one input is a copy). Rebuild
//! ([`crate::maintenance`]), resync ([`crate::resync`]) and rebalance
//! ([`crate::rebalance`]) only choose the steps — all three take "what
//! lives on this slot" from [`plan_rebuild`] through `IoSystem::plan_slot`,
//! and the order they list steps and inputs in is the order the timing
//! plan issues them — and end in `IoSystem::repair`, the one epilogue:
//! it runs the steps through `IoSystem::restore`, the only executor, and
//! is the only writer of a repair's ledger entry.

use std::collections::BTreeSet;
use std::sync::Arc;

use cluster::{xor_of, Block};
use raidx_core::fault::{plan_rebuild, RebuildStep};
use raidx_core::BlockAddr;
use sim_core::plan::{par, seq};
use sim_core::Plan;

use crate::error::IoError;
use crate::system::IoSystem;

/// One re-created copy, in physical space.
#[derive(Debug, Clone)]
pub(crate) struct RestoreStep {
    /// Blocks whose XOR is the content, in read order.
    pub inputs: Vec<BlockAddr>,
    /// Where the content belongs.
    pub dst: BlockAddr,
    /// The logical blocks the content is a function of
    /// ([`RebuildStep::lbs`]); none for a verbatim move.
    pub lbs: Vec<u64>,
}

/// What one repair restores onto the slot's current home, the target.
pub(crate) struct Repair {
    /// The slot the target serves.
    pub slot: usize,
    /// The copies to re-create, in issue order.
    pub steps: Vec<RestoreStep>,
    /// The copies no live source can re-create.
    pub lost: Vec<RebuildStep>,
}

/// Outcome of one (possibly partial) rebuild, resync or rebalance.
#[derive(Debug)]
pub struct RestoreOutcome {
    /// Timing plan of the attempt's actual I/O — a loss included.
    pub plan: Plan,
    /// Blocks written by this attempt.
    pub restored: usize,
    /// Blocks found already correct on the target: a resumed attempt
    /// re-verifies instead of rewriting, so `restored` summed across a
    /// crash/restart sequence never counts a block twice.
    pub skipped: usize,
    /// Whether nothing is left to do; only then does a rebuilt disk leave
    /// the fault set, or a migration close.
    pub finished: bool,
    /// The first block whose copy on the target no live source could
    /// re-create — the block `IoError::DataLoss` names on a read. Set by
    /// a finished walk only; its copy stays parked against the target.
    pub lost: Option<u64>,
}

impl RestoreOutcome {
    /// Nothing to repair: no I/O, nothing lost, finished.
    pub(crate) const NONE: RestoreOutcome =
        RestoreOutcome { plan: Plan::Noop, restored: 0, skipped: 0, finished: true, lost: None };
}

impl IoSystem {
    /// Every copy `slot` holds that `keep` selects, from the layout walk
    /// of the written region: the restorable ones as physical steps
    /// (sources are live copies off the slot itself — media faults and
    /// parked copies avoided, `IoSystem::untrusted` — resolved through
    /// the placer; the destination is the slot's current home), and the
    /// ones no live source can re-create.
    pub(crate) fn plan_slot(&self, slot: usize, keep: impl Fn(&RebuildStep) -> bool) -> Repair {
        let mut avoid = self.placer.slot_read_faults(&self.storage_faults());
        avoid.insert(slot);
        let layout = self.layout.as_ref();
        let (lost, ok): (Vec<_>, Vec<_>) =
            plan_rebuild(layout, slot, |lb| self.untrusted(&avoid, lb), self.high_water)
                .into_iter()
                .filter(keep)
                .partition(|s| s.inputs.is_empty());
        let home = self.placer.phys(slot);
        let steps = ok
            .iter()
            .map(|s| RestoreStep {
                inputs: s.inputs.iter().map(|a| self.placer.read_home(*a)).collect(),
                dst: BlockAddr::new(home, s.target.block),
                lbs: s.lbs(layout),
            })
            .collect();
        Repair { slot, steps, lost }
    }

    /// The one way a repair ends. Runs the first `budget` steps (all
    /// when `None`) through [`IoSystem::restore`] and drops each one
    /// completed from the migration's pending set. Once the walk is
    /// finished it sets the target's ledger entry: what was parked there,
    /// minus the blocks the walk restored or verified, plus the blocks of
    /// the copies no live source can re-create — which leave the pending
    /// set too, so a migration closes whatever it lost. The outcome names
    /// the first lost block and keeps the plan of every copy restored;
    /// `Err` is a data-plane error.
    pub(crate) fn repair(
        &mut self,
        client: usize,
        Repair { slot, steps, lost }: Repair,
        budget: Option<usize>,
    ) -> Result<RestoreOutcome, IoError> {
        let mut outcome = self.restore(client, &steps, budget)?;
        for s in &steps[..outcome.restored + outcome.skipped] {
            self.placer.clear_pending(slot, s.dst.block);
        }
        if outcome.finished {
            let disk = self.placer.phys(slot);
            let mut parked = self.parked.remove(&disk).unwrap_or_default();
            for lb in steps.iter().flat_map(|s| &s.lbs) {
                parked.remove(lb);
            }
            let layout = self.layout.as_ref();
            let stale: BTreeSet<u64> = lost.iter().flat_map(|l| l.lbs(layout)).collect();
            outcome.lost = stale.first().copied();
            parked.extend(stale);
            if !parked.is_empty() {
                self.parked.insert(disk, parked);
            }
            for l in &lost {
                self.placer.clear_pending(slot, l.target.block);
            }
        }
        Ok(outcome)
    }

    /// Execute the first `budget` of `steps` (all when `None`), driven
    /// from node `client`: XOR the inputs, byte-compare against `dst` and
    /// write only on difference — so re-running any prefix after a crash
    /// is idempotent — charging `read → write`, or `par(reads) → xor →
    /// write` for several inputs, per block actually written.
    fn restore(
        &mut self,
        client: usize,
        steps: &[RestoreStep],
        budget: Option<usize>,
    ) -> Result<RestoreOutcome, IoError> {
        let todo = &steps[..budget.map_or(steps.len(), |b| b.min(steps.len()))];
        let bs = self.block_size();
        let mut plans = Vec::new();
        for RestoreStep { inputs, dst, .. } in todo {
            debug_assert!(!inputs.is_empty(), "restore step without a source");
            let sources: Vec<Block> =
                inputs.iter().map(|a| self.plane.get(a.disk, a.block)).collect::<Result<_, _>>()?;
            // A copy shares its source's buffer; only an XOR makes bytes.
            let bytes = match &sources[..] {
                [source] => source.clone(),
                many => xor_of(many),
            };
            let current = self.plane.get(dst.disk, dst.block)?;
            if Arc::ptr_eq(&current, &bytes) || current == bytes {
                continue; // verified in place: no I/O to charge
            }
            self.plane.put(dst.disk, dst.block, bytes)?;
            let ops = self.ops();
            let write = ops.write_run(client, dst.disk, dst.block, 1, false);
            let mut reads: Vec<Plan> =
                inputs.iter().map(|a| ops.read_run(client, a.disk, a.block, 1)).collect();
            plans.push(if reads.len() == 1 {
                seq(vec![reads.remove(0), write])
            } else {
                let xor = ops.xor(client, (reads.len() as u64 + 1) * bs);
                seq(vec![par(reads), xor, write])
            });
        }
        let restored = plans.len();
        // Pace in batches: a real rebuilder bounds outstanding I/O rather
        // than flooding every queue (and the foreground load) at once.
        let batched: Vec<Plan> = plans.chunks(32).map(|c| par(c.to_vec())).collect();
        Ok(RestoreOutcome {
            plan: if batched.is_empty() { Plan::Noop } else { seq(batched) },
            restored,
            skipped: todo.len() - restored,
            finished: todo.len() == steps.len(),
            lost: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::shape;
    use raidx_core::Arch;

    /// The three callers of the executor.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Via {
        Rebuild,
        Resync,
        Rebalance,
    }

    /// One attempt at restoring disk 1's copies (resync takes no budget).
    fn attempt(sys: &mut IoSystem, via: Via, budget: Option<usize>) -> RestoreOutcome {
        let outcome = match via {
            Via::Rebuild => sys.rebuild_disk(0, 1, budget),
            Via::Rebalance => sys.rebalance(0, budget),
            Via::Resync => sys.resync_parked(0, 1),
        };
        let outcome = outcome.unwrap_or_else(|e| panic!("{via:?}: {e}"));
        assert_eq!(outcome.lost, None, "{via:?}: nothing is lost with one disk out");
        outcome
    }

    /// Every restore flavour, on every redundant architecture, survives
    /// an interruption and a full re-run: a block is written once, then
    /// only verified — the re-run restores nothing, charges no I/O and
    /// leaves the array clean.
    #[test]
    fn every_restore_is_idempotent_on_every_architecture() {
        for via in [Via::Rebuild, Via::Resync, Via::Rebalance] {
            for arch in [Arch::Raid5, Arch::Raid10, Arch::RaidX] {
                let tag = format!("{via:?}/{arch:?}");
                let (mut engine, mut sys) = shape(4, 1, 8 << 20, arch);
                let bs = sys.block_size() as usize;
                let nblocks = 32usize;
                let mut data: Vec<u8> =
                    (0..nblocks * bs).map(|i| ((i / bs * 31 + i * 7) % 251) as u8 + 1).collect();
                sys.write(0, 0, &data).expect("seed");
                let _ = sys.flush_images();
                match via {
                    Via::Rebuild => sys.fail_disk(1),
                    Via::Rebalance => {
                        sys.add_disk(&mut engine).expect("add spare");
                        sys.remove_disk(1).expect("retire disk 1");
                    }
                    Via::Resync => {
                        sys.fail_disk_transient(1);
                        data[..12 * bs].fill(0x91);
                        sys.write(0, 0, &data[..12 * bs]).expect("degraded overwrite");
                        let _ = sys.flush_images();
                        sys.plane.set_offline(1, false);
                        sys.offline.remove(1);
                    }
                }
                let ledger = sys.parked.clone();

                // Interrupted after three steps, then run to completion.
                let a = attempt(&mut sys, via, Some(3));
                let b = attempt(&mut sys, via, None);
                assert!(b.finished, "{tag}");
                assert!(a.restored > 0, "{tag}: nothing to restore makes the test vacuous");
                match via {
                    Via::Rebuild => {
                        assert_eq!((a.restored, a.skipped, a.finished), (3, 0, false), "{tag}");
                        assert_eq!(b.skipped, 3, "{tag}: restart must only verify past progress");
                        assert!(!sys.faults().contains(1), "{tag}");
                    }
                    Via::Rebalance => {
                        assert_eq!((a.restored + a.skipped, a.finished), (3, false), "{tag}");
                        assert_eq!(sys.migration_pending(), 0, "{tag}");
                    }
                    Via::Resync => assert_eq!(sys.parked_blocks(1), 0, "{tag}"),
                }
                for plan in [a.plan, b.plan] {
                    engine.spawn_job("restore", plan);
                    engine.run().expect("restore timing");
                }
                let (got, _) = sys.read(2, 0, nblocks as u64).expect("read back");
                assert_eq!(got, data, "{tag}");
                assert!(sys.scrub().unwrap_or_else(|e| panic!("{tag} scrub: {e}")) > 0);
                // A mirror's restored copy *is* its source's buffer: every
                // home of a block, disk 1's included, holds one handle.
                for lb in (0..nblocks as u64).filter(|_| arch != Arch::Raid5) {
                    let mut copies = Vec::new();
                    for a in sys.copy_addrs(lb) {
                        let h = sys.placer.read_home(a);
                        copies.push(sys.plane.get(h.disk, h.block).expect("healthy home"));
                    }
                    let shared = copies.windows(2).all(|w| Arc::ptr_eq(&w[0], &w[1]));
                    assert!(copies.len() > 1 && shared, "{tag}: block {lb} was restored by copy");
                }

                // Re-arm the ledger over the restored bytes (a crash that
                // lost only the bookkeeping) and run again. A closed
                // migration has no ledger left to re-arm: its re-run is
                // the no-op itself.
                match via {
                    Via::Rebuild => {
                        sys.faults.insert(1);
                    }
                    Via::Resync => sys.parked = ledger,
                    Via::Rebalance => {}
                }
                let c = attempt(&mut sys, via, None);
                assert_eq!(c.restored, 0, "{tag}: re-run rewrote restored blocks");
                assert!(matches!(c.plan, Plan::Noop), "{tag}: re-run charged I/O");
                assert!(c.finished, "{tag}");
                if via == Via::Rebuild {
                    assert_eq!(c.skipped, a.restored + b.restored, "{tag}: re-run must verify all");
                }
                assert!(sys.scrub().unwrap_or_else(|e| panic!("{tag} re-run scrub: {e}")) > 0);
            }
        }
    }
}
