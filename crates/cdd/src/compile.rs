//! Scenario compilation for the `raidx-model` protocol checker: each
//! scripted [`ProtoOp`] breaks into atomic scheduler-visible
//! [`MicroStep`]s (acquire the lock group, write/read one block,
//! release; bump the epoch, migrate the pending block) so the explorer
//! in [`crate::proto`] can preempt between any two. Each micro-step is
//! one call sequence of the real lock table, placer or cache. Seeded
//! [`Defect`]s that change the step sequence are planted here, at
//! compilation time; the rest are planted where the step runs.

use crate::scenarios::{Defect, ProtoOp, Scenario};

/// One atomic scheduler-visible action of a client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum MicroStep {
    Acquire {
        start: u64,
        len: u64,
    },
    /// Store write through the placer's write home, plus the cache
    /// invalidation its grant carries, in one action: the implementation
    /// performs both under the same grant with no read able to
    /// interleave.
    Write {
        lb: u64,
        val: u64,
    },
    Read {
        lb: u64,
    },
    /// Lock-free cached read of one block: hit serves the client's
    /// cached copy, miss reads the read home and fills the cache — one
    /// atomic action, like `IoSystem::read_admitted`'s fill.
    CacheRead {
        lb: u64,
    },
    Release,
    /// Epoch transition of block `lb`'s slot: placement flips, the block
    /// goes pending.
    Bump {
        lb: u64,
    },
    /// Migration copy old home → new home of block `lb`. The faithful
    /// protocol re-validates that the block is still pending (a new-epoch
    /// write already moved it); the seeded defect copies unconditionally.
    Migrate {
        lb: u64,
        revalidate: bool,
    },
}

/// A scripted operation compiled to micro-steps.
#[derive(Debug, Clone)]
pub(crate) struct CompiledOp {
    pub(crate) op: ProtoOp,
    pub(crate) steps: Vec<MicroStep>,
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
            if defect == Defect::EarlyRelease && len > 1 {
                steps.push(MicroStep::Write { lb: start, val });
                steps.push(MicroStep::Release);
                for lb in start + 1..start + len {
                    steps.push(MicroStep::Write { lb, val });
                }
            } else {
                for lb in start..start + len {
                    steps.push(MicroStep::Write { lb, val });
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
        ProtoOp::Reconfig { lb } => {
            // The meta lock is a reserved range past the data blocks —
            // the model analogue of `membership::EPOCH_META_LB`.
            steps.push(MicroStep::Acquire { start: sc.blocks, len: 1 });
            steps.push(MicroStep::Bump { lb });
            steps.push(MicroStep::Release);
            if defect == Defect::UnsyncedReconfig {
                steps.push(MicroStep::Migrate { lb, revalidate: false });
            } else {
                steps.push(MicroStep::Acquire { start: lb, len: 1 });
                steps.push(MicroStep::Migrate { lb, revalidate: true });
                steps.push(MicroStep::Release);
            }
        }
    }
    CompiledOp { op: op.clone(), steps }
}
