//! Reconfiguration under load: epoch transitions (disk add / remove /
//! replace) interleaved with foreground reads and writes.
//!
//! The property at stake is the tentpole guarantee of the epoch-versioned
//! cluster map: *any* interleaving of client I/O with an in-flight
//! incremental rebalance returns exactly the bytes the op model predicts,
//! with zero failed operations — placement flips instantly at the
//! transition, the bytes drain later, and reads of still-pending blocks
//! are served from the old home.

use raidx_core::Arch;
use sim_core::check::{run_cases, Gen};

#[derive(Debug, Clone)]
enum Op {
    Write {
        pos: u64,
        nblocks: u64,
        tag: u8,
    },
    Read {
        pos: u64,
        nblocks: u64,
    },
    /// Drain a few pending blocks of the in-flight migration.
    Drain {
        steps: usize,
    },
}

fn draw_op(g: &mut Gen) -> Op {
    match g.weighted(&[3, 4, 3]) {
        0 => Op::Write { pos: g.u64_in(0..10_000), nblocks: g.u64_in(1..6), tag: g.u8() },
        1 => Op::Read { pos: g.u64_in(0..10_000), nblocks: g.u64_in(1..6) },
        _ => Op::Drain { steps: g.usize_in(1..7) },
    }
}

/// Satellite property: reads interleaved arbitrarily with an in-flight
/// rebalance agree byte-for-byte with the trivial op model, on both the
/// healthy-removal (copy) and failed-removal (reconstruct) paths.
fn reconfig_agrees_with_model(name: &str, fail_before_remove: bool) {
    run_cases(name, 16, |g| {
        let (mut engine, mut sys) = cdd::testkit::shape(4, 1, 8 << 20, Arch::RaidX);
        let bs = sys.block_size() as usize;
        let span = 64u64; // working set; small enough to read back whole
        let mut model = vec![0u8; span as usize];

        let write =
            |sys: &mut cdd::IoSystem, model: &mut Vec<u8>, pos: u64, nblocks: u64, tag: u8| {
                let lb0 = pos % (span - nblocks);
                let data: Vec<u8> = (0..nblocks as usize)
                    .flat_map(|i| vec![tag.wrapping_add(i as u8); bs])
                    .collect();
                sys.write(0, lb0, &data).expect("write under reconfiguration");
                for i in 0..nblocks {
                    model[(lb0 + i) as usize] = tag.wrapping_add(i as u8);
                }
            };

        // Seed so the vacated disk actually holds content.
        for lb in 0..span / 2 {
            write(&mut sys, &mut model, lb, 1, (lb % 200) as u8 + 1);
        }
        let _ = sys.flush_images();

        // The transition: retire a mid-roster disk onto a hot-added spare.
        let victim = g.usize_in(1..sys.layout().ndisks());
        if fail_before_remove {
            sys.fail_disk(victim);
        }
        sys.add_disk(&mut engine, 0).expect("add spare");
        sys.remove_disk(0, victim).expect("remove disk");

        for op in g.vec_of(1..30, draw_op) {
            match op {
                Op::Write { pos, nblocks, tag } => write(&mut sys, &mut model, pos, nblocks, tag),
                Op::Read { pos, nblocks } => {
                    let lb0 = pos % (span - nblocks);
                    let (got, _) = sys.read(1, lb0, nblocks).expect("read mid-rebalance");
                    for i in 0..nblocks as usize {
                        let want = model[lb0 as usize + i];
                        assert!(
                            got[i * bs..(i + 1) * bs].iter().all(|&b| b == want),
                            "block {} diverged from the model mid-rebalance",
                            lb0 + i as u64
                        );
                    }
                }
                Op::Drain { steps } => {
                    let out = sys.rebalance(0, Some(steps)).expect("rebalance step");
                    engine.spawn_job("drain", out.plan);
                    engine.run().expect("drain timing");
                }
            }
        }
        // Finish the migration and check the whole working set + scrub.
        let out = sys.rebalance(0, None).expect("final rebalance");
        assert!(out.finished);
        assert_eq!(sys.migration_pending(), 0);
        let (got, _) = sys.read(2, 0, span).expect("post-migration sweep");
        for (lb, &want) in model.iter().enumerate() {
            assert!(
                got[lb * bs..(lb + 1) * bs].iter().all(|&b| b == want),
                "block {lb} diverged from the model after the rebalance drained"
            );
        }
        sys.scrub().expect("redundancy must hold after migration");
        // Every transition above ran under client 0's meta grant and
        // released it: another client's transition is not refused.
        let grants = sys.lock_grants();
        sys.add_disk(&mut engine, 1).expect("add/remove/rebalance leaked the meta grant");
        assert_eq!(sys.lock_grants(), grants + 1);
    });
}

#[test]
fn reads_during_rebalance_agree_with_model() {
    reconfig_agrees_with_model("reads_during_rebalance_agree_with_model", false);
}

#[test]
fn reads_during_reconstruction_agree_with_model() {
    reconfig_agrees_with_model("reads_during_reconstruction_agree_with_model", true);
}
