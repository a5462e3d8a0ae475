//! The RAID-5 parity scheme driver, split out of the crate's `scheme`
//! module.
//!
//! Full stripes compute parity client-side and stream `n` writes;
//! partial stripes pay the four-operation read-modify-write (the
//! small-write problem); degraded stripes fall back to bare-data or
//! reconstruct-write paths, parking whatever copy could not be written.

use cluster::{xor_of, Block};
use raidx_core::BlockAddr;
use sim_core::plan::{par, seq};
use sim_core::Plan;

use crate::error::IoError;
use crate::runs::merge_runs;
use crate::scheme::{runs_to_writes, SchemeDriver, WriteCtx};

/// RAID-5 parity writes: full-stripe streaming or the four-op
/// read-modify-write, with degraded reconstruct-write paths.
pub struct ParityDriver;

impl SchemeDriver for ParityDriver {
    fn write(
        &self,
        ctx: &mut WriteCtx<'_>,
        client: usize,
        lb0: u64,
        nblocks: u64,
        data: &[u8],
    ) -> Result<Plan, IoError> {
        let bs = ctx.block_size();
        let width = ctx.layout.stripe_width() as u64;
        let range = lb0..lb0 + nblocks;
        let full_stripe = |members: &[u64]| {
            members.len() == width as usize && members.iter().all(|m| range.contains(m))
        };
        // Validate the whole range before touching anything. A block whose
        // data disk is gone lives on through parity alone, so it is
        // unstorable if the parity disk is gone too, or — in a partial
        // stripe, where that parity is rebuilt from the siblings on disk —
        // if any sibling is unreadable.
        for lb in range.clone() {
            if !ctx.faults.contains(ctx.layout.locate_data(lb).disk) {
                continue;
            }
            #[expect(clippy::expect_used, reason = "parity drivers only run on parity layouts")]
            let p = ctx.layout.locate_parity(lb).expect("parity layout");
            let members = ctx.layout.stripe_blocks(lb / width);
            let lost_sibling = || {
                let mut sibs = members.iter().filter(|&&m| m != lb);
                sibs.any(|&m| ctx.faults.contains(ctx.layout.locate_data(m).disk))
            };
            if ctx.faults.contains(p.disk) || (!full_stripe(&members) && lost_sibling()) {
                return Err(IoError::DataLoss { lb });
            }
        }

        let mut full_data = Vec::new(); // data placements of full stripes
        let mut parity_writes = Vec::new(); // (stripe, parity addr)
        let mut rmw_plans = Vec::new();
        // Degraded reconstruct-writes: (lost block, surviving sibling
        // addrs to read, parity addr to write).
        let mut reconstruct_writes: Vec<(u64, Vec<BlockAddr>, BlockAddr)> = Vec::new();
        // Degraded data-only writes (parity disk dead).
        let mut bare_data = Vec::new();
        let mut xor_bytes = 0u64;

        let s_first = lb0 / width;
        let s_last = (lb0 + nblocks - 1) / width;
        for s in s_first..=s_last {
            let members = ctx.layout.stripe_blocks(s);
            if full_stripe(&members) {
                // Full-stripe write: parity from the new data alone. A
                // dead data disk's block is represented by parity only;
                // a dead parity disk simply goes unmaintained.
                let parity = xor_of(members.iter().map(|&m| ctx.slice(data, lb0, m)));
                for &m in &members {
                    let a = ctx.layout.locate_data(m);
                    if !ctx.faults.contains(a.disk) {
                        ctx.put_block(a, ctx.slice(data, lb0, m).into())?;
                        full_data.push((m, a));
                    } else {
                        ctx.park(a.disk, m);
                    }
                }
                #[expect(clippy::expect_used, reason = "parity drivers only run on parity layouts")]
                let p = ctx.layout.locate_parity(members[0]).expect("parity");
                if !ctx.faults.contains(p.disk) {
                    ctx.put_block(p, parity)?;
                    parity_writes.push((s, p));
                } else {
                    ctx.park(p.disk, members[0]);
                }
                xor_bytes += width * bs as u64;
            } else {
                // Partial stripe: per touched block.
                for &m in &members {
                    if !range.contains(&m) {
                        continue;
                    }
                    let a = ctx.layout.locate_data(m);
                    #[expect(
                        clippy::expect_used,
                        reason = "parity drivers only run on parity layouts"
                    )]
                    let p = ctx.layout.locate_parity(m).expect("parity");
                    let d_ok = !ctx.faults.contains(a.disk);
                    let p_ok = !ctx.faults.contains(p.disk);
                    let newd = ctx.slice(data, lb0, m);
                    match (d_ok, p_ok) {
                        (true, true) => {
                            // Healthy read-modify-write.
                            let old = ctx.get_block(a)?;
                            let old_parity = ctx.get_block(p)?;
                            ctx.put_block(a, newd.into())?;
                            ctx.put_block(p, xor_of([&old_parity[..], &old[..], newd]))?;
                            rmw_plans.push((m, a, p));
                        }
                        (true, false) => {
                            // Parity disk dead: data write only; park the
                            // stale parity for recomputation on recovery.
                            ctx.put_block(a, newd.into())?;
                            ctx.park(p.disk, m);
                            bare_data.push((m, a));
                        }
                        (false, true) => {
                            // Reconstruct-write: the new block exists only
                            // through parity = new XOR surviving siblings.
                            ctx.park(a.disk, m);
                            let mut sibs = Vec::new();
                            let mut sib_blocks: Vec<Block> = Vec::new();
                            for sib in ctx.layout.stripe_blocks(s) {
                                if sib == m {
                                    continue;
                                }
                                let sa = ctx.layout.locate_data(sib);
                                sib_blocks.push(ctx.get_block(sa)?);
                                sibs.push(sa);
                            }
                            let parity = xor_of(
                                std::iter::once(newd).chain(sib_blocks.iter().map(|b| &b[..])),
                            );
                            ctx.put_block(p, parity)?;
                            reconstruct_writes.push((m, sibs, p));
                        }
                        (false, false) => unreachable!("checked above"),
                    }
                }
            }
        }

        let ops = ctx.ops();
        let mut branches = Vec::new();
        if !full_data.is_empty() {
            let data_plans = runs_to_writes(&ops, ctx.placer, client, &merge_runs(full_data), true);
            let parity_plans: Vec<Plan> = parity_writes
                .iter()
                .map(|&(_, p)| ops.write_run(client, ctx.phys(p.disk), p.block, 1, true))
                .collect();
            branches.push(seq(vec![
                ops.xor(client, xor_bytes),
                par(data_plans.into_iter().chain(parity_plans).collect()),
            ]));
        }
        for (_, a, p) in &rmw_plans {
            // The four-op small-write cycle: two reads, XOR, two writes.
            let (pa, pp) = (ctx.phys(a.disk), ctx.phys(p.disk));
            branches.push(seq(vec![
                par(vec![
                    ops.read_run(client, pa, a.block, 1),
                    ops.read_run(client, pp, p.block, 1),
                ]),
                ops.xor(client, 3 * bs as u64),
                par(vec![
                    ops.write_run(client, pa, a.block, 1, true),
                    ops.write_run(client, pp, p.block, 1, true),
                ]),
            ]));
        }
        for run in merge_runs(bare_data) {
            branches.push(ops.write_run(client, ctx.phys(run.disk), run.start, run.len(), true));
        }
        for (_, sibs, p) in &reconstruct_writes {
            // Degraded write: read every surviving sibling, XOR with the
            // new data, write the parity block.
            let reads: Vec<Plan> =
                sibs.iter().map(|a| ops.read_run(client, ctx.phys(a.disk), a.block, 1)).collect();
            branches.push(seq(vec![
                par(reads),
                ops.xor(client, width * bs as u64),
                ops.write_run(client, ctx.phys(p.disk), p.block, 1, true),
            ]));
        }
        Ok(par(branches))
    }
}
