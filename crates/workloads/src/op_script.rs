//! Scripted ops checked against a shadow model — the workload half of
//! fault injection.
//!
//! [`run_op`] issues one [`ScriptOp`] and runs the engine until it is
//! done, for a caller that decides its fault steps as the run goes — the
//! model test in `raidx-verify`, which fires `cdd::FaultInjector` events
//! between ops.
//!
//! Alongside the array, the caller's [`ScriptOutcome`] keeps a **shadow
//! model**: the bytes of every write that *succeeded* (failed ops drop
//! out of the model exactly as they dropped out of the array). Every
//! successful read is compared against it, so a read of bytes no
//! successful write left is counted, never missed.

use std::collections::BTreeMap;

use cdd::{IoError, IoSystem};
use sim_core::Engine;

/// One scripted logical operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScriptOp {
    /// Write `blocks` blocks at `lb`, filled from `tag`.
    Write {
        /// Issuing node.
        client: usize,
        /// First logical block.
        lb: u64,
        /// Run length in blocks.
        blocks: u64,
        /// Fill seed: block `lb+i` is filled with `tag ⊕ (lb+i)` bytes.
        tag: u8,
    },
    /// Read `blocks` blocks at `lb`.
    Read {
        /// Issuing node.
        client: usize,
        /// First logical block.
        lb: u64,
        /// Run length in blocks.
        blocks: u64,
    },
}

/// The fill byte for logical block `lb` written under `tag`.
fn fill_byte(tag: u8, lb: u64) -> u8 {
    tag ^ (lb as u8)
}

/// `ops` with every read issued twice back to back, so the second one
/// finds the range resident in the issuing client's block cache
/// (capacity permitting): a random script alone practically never
/// re-reads a range from the same client before a write invalidates it.
pub fn with_rereads(ops: Vec<ScriptOp>) -> Vec<ScriptOp> {
    let twice = |op: ScriptOp| {
        let again = matches!(op, ScriptOp::Read { .. }).then_some(op);
        std::iter::once(op).chain(again)
    };
    ops.into_iter().flat_map(twice).collect()
}

/// What a script run observed.
#[derive(Debug, Default)]
pub struct ScriptOutcome {
    /// Shadow model: fill byte of each logical block a *successful*
    /// write covered.
    pub model: BTreeMap<u64, u8>,
    /// Ops that completed.
    pub completed: usize,
    /// Ops that surfaced an [`IoError`] (dropped from the model).
    pub failed: usize,
    /// Successful reads whose bytes differed from the model. A read
    /// trusts only live copies (never one a degraded write skipped), so
    /// a cut-off client whose live copies are all unreachable gets
    /// [`IoError::Unreachable`] rather than its stale local copy: any
    /// count here is a fault.
    pub stale_reads: usize,
}

/// Issue `op`, number `i` of a script, run the engine until it is done
/// and fold what it observed into `out`: the shadow model takes a write
/// only if it succeeded, and a read is compared against it. Returns the
/// op's error, if it failed (already counted in `out.failed`).
pub fn run_op(
    engine: &mut Engine,
    sys: &mut IoSystem,
    i: usize,
    op: ScriptOp,
    out: &mut ScriptOutcome,
) -> Result<(), IoError> {
    let bs = sys.block_size() as usize;
    let result = match op {
        ScriptOp::Write { client, lb, blocks, tag } => {
            let mut data = vec![0u8; blocks as usize * bs];
            for b in 0..blocks {
                let off = b as usize * bs;
                data[off..off + bs].fill(fill_byte(tag, lb + b));
            }
            sys.write(client, lb, &data).map(|plan| {
                engine.spawn_job(format!("op{i}/write"), plan);
                for b in 0..blocks {
                    out.model.insert(lb + b, fill_byte(tag, lb + b));
                }
            })
        }
        ScriptOp::Read { client, lb, blocks } => {
            sys.read(client, lb, blocks).map(|(data, plan)| {
                engine.spawn_job(format!("op{i}/read"), plan);
                for b in 0..blocks {
                    let want = out.model.get(&(lb + b)).copied().unwrap_or(0);
                    let off = b as usize * bs;
                    if data[off..off + bs].iter().any(|&x| x != want) {
                        out.stale_reads += 1;
                        break;
                    }
                }
            })
        }
    };
    match result {
        Ok(()) => out.completed += 1,
        Err(_) => out.failed += 1,
    }
    engine.run().expect("script op deadlocked");
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use raidx_core::Arch;

    #[test]
    fn fault_free_script_matches_model() {
        let (mut engine, mut sys) = cdd::testkit::shape(4, 2, 4 << 20, Arch::RaidX);
        let mut out = ScriptOutcome::default();
        let script = [
            ScriptOp::Write { client: 0, lb: 2, blocks: 3, tag: 1 },
            ScriptOp::Write { client: 1, lb: 3, blocks: 2, tag: 7 },
            ScriptOp::Read { client: 2, lb: 0, blocks: 6 },
        ];
        for (i, op) in with_rereads(script.to_vec()).into_iter().enumerate() {
            run_op(&mut engine, &mut sys, i, op, &mut out).expect("fault-free op");
        }
        assert_eq!((out.completed, out.failed, out.stale_reads), (4, 0, 0));
        let model: Vec<(u64, u8)> = out.model.into_iter().collect();
        assert_eq!(model, vec![(2, 1 ^ 2), (3, 7 ^ 3), (4, 7 ^ 4)]);
    }
}
