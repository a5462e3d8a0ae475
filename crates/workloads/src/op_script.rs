//! Scripted op sequences with op-indexed fault triggers — the workload
//! half of fault injection.
//!
//! A script is a flat, pre-generated list of [`ScriptOp`]s (so the
//! sequence is independent of what faults do to it); [`run_script`]
//! executes it one op per engine cycle, announcing each op's index to an
//! optional [`cdd::FaultInjector`] before issuing it — the hook the
//! `fault-sweep` verify pass and the recovery property tests use to fire
//! a fault at a precise position in the workload.
//!
//! Alongside the array, the runner maintains a **shadow model**: the
//! bytes of every write that *succeeded* (failed ops drop out of the
//! model exactly as they dropped out of the array). After recovery, a
//! full read of the written region must be byte-identical to the model —
//! the zero-lost-blocks criterion.

use std::collections::BTreeMap;

use cdd::{FaultInjector, IoError, IoSystem};
use sim_core::check::Gen;
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

/// Draw a script of `nops` ops over `region_blocks` logical blocks from
/// `clients` issuing nodes (writes twice as likely as reads, runs of
/// 1–4 blocks). Same generator state ⇒ same script.
pub fn gen_script(g: &mut Gen, clients: usize, region_blocks: u64, nops: usize) -> Vec<ScriptOp> {
    assert!(clients > 0 && region_blocks >= 4, "degenerate script shape");
    (0..nops)
        .map(|_| {
            let client = g.usize_in(0..clients);
            let lb = g.u64_in(0..region_blocks - 3);
            let blocks = g.u64_in(1..5).min(region_blocks - lb);
            if g.weighted(&[2, 1]) == 0 {
                ScriptOp::Write { client, lb, blocks, tag: g.u8() | 1 }
            } else {
                ScriptOp::Read { client, lb, blocks }
            }
        })
        .collect()
}

/// `ops` with every read issued twice back to back, so the second one
/// finds the range resident in the issuing client's block cache
/// (capacity permitting). The script shape of the cache-facing verify
/// cells: a [`gen_script`] script alone practically never re-reads a
/// range from the same client before a write invalidates it.
pub fn with_rereads(ops: Vec<ScriptOp>) -> Vec<ScriptOp> {
    let twice = |op: ScriptOp| {
        let again = matches!(op, ScriptOp::Read { .. }).then_some(op);
        std::iter::once(op).chain(again)
    };
    ops.into_iter().flat_map(twice).collect()
}

/// What a script run observed.
#[derive(Debug)]
pub struct ScriptOutcome {
    /// Shadow model: fill byte of each logical block a *successful*
    /// write covered.
    pub model: BTreeMap<u64, u8>,
    /// Ops that completed.
    pub completed: usize,
    /// Ops that surfaced an [`IoError`] (dropped from the model).
    pub failed: usize,
    /// Successful reads whose bytes differed from the model — possible
    /// only inside a partition window (a cut-off node serving its own
    /// stale local copy before resync), never after recovery.
    pub stale_reads: usize,
}

/// Execute `ops` one engine cycle at a time. Before each op its index
/// is announced to `injector` (if any) and due timed faults fire; after
/// the whole script, remaining timed faults are drained with the engine
/// driven past their deadlines. Ops that fail
/// (`DataLoss`/`Unreachable`/…) are *counted*, not propagated: a faulted
/// run keeps going, exactly like a retrying client application.
pub fn run_script(
    engine: &mut Engine,
    sys: &mut IoSystem,
    ops: &[ScriptOp],
    mut injector: Option<&mut FaultInjector>,
) -> Result<ScriptOutcome, IoError> {
    let bs = sys.block_size() as usize;
    let mut out = ScriptOutcome { model: BTreeMap::new(), completed: 0, failed: 0, stale_reads: 0 };
    for (i, op) in ops.iter().enumerate() {
        if let Some(inj) = injector.as_deref_mut() {
            inj.hit_op(i as u64, engine, sys)?;
            inj.poll(engine, sys)?;
        }
        match *op {
            ScriptOp::Write { client, lb, blocks, tag } => {
                let mut data = vec![0u8; blocks as usize * bs];
                for b in 0..blocks {
                    let off = b as usize * bs;
                    data[off..off + bs].fill(fill_byte(tag, lb + b));
                }
                match sys.write(client, lb, &data) {
                    Ok(plan) => {
                        engine.spawn_job(format!("op{i}/write"), plan);
                        for b in 0..blocks {
                            out.model.insert(lb + b, fill_byte(tag, lb + b));
                        }
                        out.completed += 1;
                    }
                    Err(_) => out.failed += 1,
                }
            }
            ScriptOp::Read { client, lb, blocks } => match sys.read(client, lb, blocks) {
                Ok((data, plan)) => {
                    engine.spawn_job(format!("op{i}/read"), plan);
                    for b in 0..blocks {
                        let want = out.model.get(&(lb + b)).copied().unwrap_or(0);
                        let off = b as usize * bs;
                        if data[off..off + bs].iter().any(|&x| x != want) {
                            out.stale_reads += 1;
                            break;
                        }
                    }
                    out.completed += 1;
                }
                Err(_) => out.failed += 1,
            },
        }
        engine.run().expect("script op deadlocked");
    }
    if let Some(inj) = injector {
        inj.drain_timed(engine, sys)?;
        engine.run().expect("fault drain deadlocked");
    }
    Ok(out)
}

/// Read the whole written region back (as `client`) and compare it
/// byte-for-byte against the shadow model. Returns the first divergent
/// logical block, or `Err(IoError)` if the read itself fails.
pub fn check_against_model(
    sys: &mut IoSystem,
    client: usize,
    model: &BTreeMap<u64, u8>,
) -> Result<Result<(), u64>, IoError> {
    let Some(&last) = model.keys().next_back() else {
        return Ok(Ok(()));
    };
    let bs = sys.block_size() as usize;
    let (data, _plan) = sys.read(client, 0, last + 1)?;
    for lb in 0..=last {
        let want = model.get(&lb).copied().unwrap_or(0);
        let off = lb as usize * bs;
        if data[off..off + bs].iter().any(|&x| x != want) {
            return Ok(Err(lb));
        }
    }
    Ok(Ok(()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use raidx_core::Arch;

    #[test]
    fn same_gen_state_same_script() {
        let a = gen_script(&mut Gen::new(7), 4, 64, 40);
        let b = gen_script(&mut Gen::new(7), 4, 64, 40);
        assert_eq!(a, b);
        assert!(a.iter().any(|o| matches!(o, ScriptOp::Write { .. })));
    }

    #[test]
    fn fault_free_script_matches_model() {
        let (mut engine, mut sys) = cdd::testkit::shape(4, 2, 4 << 20, Arch::RaidX);
        let ops = gen_script(&mut Gen::new(11), 4, 64, 50);
        let out = run_script(&mut engine, &mut sys, &ops, None).expect("clean run");
        assert_eq!(out.failed, 0);
        assert_eq!(out.stale_reads, 0);
        assert_eq!(
            check_against_model(&mut sys, 0, &out.model).expect("readback"),
            Ok(()),
            "fault-free run must match its model exactly"
        );
    }
}
