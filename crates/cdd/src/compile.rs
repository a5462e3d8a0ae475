//! Scenario compilation for the `raidx-model` protocol checker: each
//! scripted [`ProtoOp`] breaks into atomic scheduler-visible
//! [`MicroStep`]s (acquire the lock group, write/read one block,
//! release; bump the epoch, migrate the pending block) so the explorer
//! in [`crate::proto`] can preempt between any two. Seeded [`Defect`]s
//! are planted here, at compilation time, by distorting the step
//! sequence.

use crate::scenarios::{Defect, ProtoOp, Scenario};

/// One atomic scheduler-visible action of a client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum MicroStep {
    Acquire {
        start: u64,
        len: u64,
    },
    Write {
        lb: u64,
        val: u64,
    },
    Read {
        lb: u64,
    },
    /// Lock-free cached read of one block: hit serves the client's
    /// cached value, miss reads the store and fills the cache — one
    /// atomic action, like the real cache's fill under the driver.
    CacheRead {
        lb: u64,
    },
    /// Coherent store write: update the block *and* drop every client's
    /// cached copy of it in one atomic action — the write grant carries
    /// the invalidation, and the implementation performs both under the
    /// same grant with no read able to interleave. Splitting them would
    /// itself be the bug: any window between the store update and the
    /// purge lets one reader observe the new value while another still
    /// hits its stale copy. [`Defect::SkipInvalidate`] plants exactly
    /// that bug by compiling a plain `Write` instead.
    WriteInv {
        lb: u64,
        val: u64,
    },
    Release,
    /// Epoch transition: placement flips, the migrating block goes pending.
    Bump,
    /// Migration copy old home → new home. The faithful protocol
    /// re-validates the pending flag (a new-epoch write already moved the
    /// block); the seeded defect copies unconditionally.
    Migrate {
        revalidate: bool,
    },
}

/// A scripted operation compiled to micro-steps.
#[derive(Debug, Clone)]
pub(crate) struct CompiledOp {
    pub(crate) op: ProtoOp,
    pub(crate) steps: Vec<MicroStep>,
}

/// Whether any client of the scenario scripts a lock-free cached read —
/// the trigger for emitting writer-side invalidation micro-steps.
fn has_cached_reader(sc: &Scenario) -> bool {
    sc.scripts.iter().flatten().any(|op| matches!(op, ProtoOp::CachedReadGroup { .. }))
}

pub(crate) fn compile_op(op: &ProtoOp, sc: &Scenario, client: usize) -> CompiledOp {
    let defect = sc.defect;
    let mut steps = Vec::new();
    match *op {
        ProtoOp::WriteGroup { start, len, val } => {
            #[expect(clippy::wildcard_enum_match_arm, reason = "other defects acquire atomically")]
            match defect {
                Defect::SplitAcquire if len > 1 => {
                    // Non-atomic per-block acquisition; odd clients in
                    // descending order — the classic ABBA shape.
                    let blocks: Vec<u64> = (start..start + len).collect();
                    let order: Vec<u64> = if client.is_multiple_of(2) {
                        blocks
                    } else {
                        blocks.into_iter().rev().collect()
                    };
                    for lb in order {
                        steps.push(MicroStep::Acquire { start: lb, len: 1 });
                    }
                }
                _ => steps.push(MicroStep::Acquire { start, len }),
            }
            // Invalidations ride the write grant — but only in scenarios
            // that actually script cached readers, so scenarios without a
            // cache keep their exact historical step sequences (and the
            // perf gate's exploration work counters).
            let coherent = has_cached_reader(sc) && defect != Defect::SkipInvalidate;
            let write_step = |lb: u64| {
                if coherent {
                    MicroStep::WriteInv { lb, val }
                } else {
                    MicroStep::Write { lb, val }
                }
            };
            if defect == Defect::EarlyRelease && len > 1 {
                steps.push(write_step(start));
                steps.push(MicroStep::Release);
                for lb in start + 1..start + len {
                    steps.push(write_step(lb));
                }
            } else {
                for lb in start..start + len {
                    steps.push(write_step(lb));
                }
                steps.push(MicroStep::Release);
            }
        }
        ProtoOp::CachedReadGroup { start, len } => {
            // Lock-free by design: coherence is the writers' problem.
            for lb in start..start + len {
                steps.push(MicroStep::CacheRead { lb });
            }
        }
        ProtoOp::ReadGroup { start, len } => {
            let locked = defect != Defect::UnlockedRead;
            if locked {
                steps.push(MicroStep::Acquire { start, len });
            }
            for lb in start..start + len {
                steps.push(MicroStep::Read { lb });
            }
            if locked {
                steps.push(MicroStep::Release);
            }
        }
        ProtoOp::Reconfig => {
            // The meta lock is a reserved range past the data blocks —
            // the model analogue of `membership::EPOCH_META_LB`.
            steps.push(MicroStep::Acquire { start: sc.blocks, len: 1 });
            steps.push(MicroStep::Bump);
            steps.push(MicroStep::Release);
            let mig = sc.mig.unwrap_or(0);
            if defect == Defect::UnsyncedReconfig {
                steps.push(MicroStep::Migrate { revalidate: false });
            } else {
                steps.push(MicroStep::Acquire { start: mig, len: 1 });
                steps.push(MicroStep::Migrate { revalidate: true });
                steps.push(MicroStep::Release);
            }
        }
    }
    CompiledOp { op: op.clone(), steps }
}
