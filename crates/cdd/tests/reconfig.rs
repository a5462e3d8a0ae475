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

/// Assert that the call between two [`cdd::IoSystem::lock_grants`]
/// readings took exactly `taken` grants.
fn assert_grants(sys: &cdd::IoSystem, before: u64, taken: u64, what: &str) {
    assert_eq!(sys.lock_grants() - before, taken, "{what} must take exactly {taken} grant(s)");
}

/// Satellite property: reads interleaved arbitrarily with an in-flight
/// rebalance agree byte-for-byte with the trivial op model, on both the
/// healthy-removal (copy) and failed-removal (reconstruct) paths. Every
/// write, `add_disk`, `remove_disk` and rebalance step of a migration in
/// flight takes exactly one lock-group grant; a rebalance with none in
/// flight takes none.
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
                let before = sys.lock_grants();
                sys.write(0, lb0, &data).expect("write under reconfiguration");
                assert_grants(sys, before, 1, "a write");
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
        let before = sys.lock_grants();
        sys.add_disk(&mut engine).expect("add spare");
        assert_grants(&sys, before, 1, "add_disk");
        sys.remove_disk(victim).expect("remove disk");
        assert_grants(&sys, before + 1, 1, "remove_disk");
        let rebalance = |sys: &mut cdd::IoSystem, steps| {
            // A write may have closed the migration since the last step.
            let in_flight = sys.migration_pending() > 0;
            let before = sys.lock_grants();
            let out = sys.rebalance(0, steps).expect("rebalance step");
            assert_eq!(out.lost, None, "one disk out loses nothing");
            assert_grants(sys, before, u64::from(in_flight), "a rebalance step");
            out
        };

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
                    let out = rebalance(&mut sys, Some(steps));
                    engine.spawn_job("drain", out.plan);
                    engine.run().expect("drain timing");
                }
            }
        }
        // Finish the migration and check the whole working set + scrub.
        let out = rebalance(&mut sys, None);
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
        // Every transition above released its grant: another one is not
        // refused.
        sys.add_disk(&mut engine).expect("add/remove/rebalance leaked its grant");
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

/// Retiring a failed or offline disk that degraded writes parked copies
/// against: those copies must be reconstructed onto the spare with the
/// rest of the disk, not left as ledger entries nothing resyncs.
#[test]
fn retiring_a_dead_disk_restores_its_parked_copies() {
    for arch in Arch::ALL {
        for offline in [false, true] {
            let case = format!("{arch:?} offline={offline}");
            let (mut engine, mut sys) = cdd::testkit::shape(4, 1, 8 << 20, arch);
            let bs = sys.block_size() as usize;
            let (old, new) = (vec![0x42u8; 24 * bs], vec![0x91u8; 8 * bs]);
            sys.write(0, 0, &old).expect("seed");
            let _ = sys.flush_images();
            if offline {
                sys.fail_disk_transient(1);
            } else {
                sys.fail_disk(1);
            }
            sys.write(0, 0, &new).expect("degraded overwrite");
            assert!(sys.parked_blocks(1) > 0, "{case}: the overwrite parked no copy");

            sys.add_disk(&mut engine).expect("add spare");
            sys.remove_disk(1).expect("retire the dead disk");
            let out = sys.rebalance(0, None).expect("rebalance");
            assert!(out.finished && out.lost.is_none(), "{case}");
            engine.spawn_job("rebalance", out.plan);
            engine.run().expect("rebalance timing");

            let (got, _) = sys.read(2, 0, 24).expect("read back");
            for lb in 0..24 {
                let want = if lb < 8 { 0x91 } else { 0x42 };
                assert!(
                    got[lb * bs..(lb + 1) * bs].iter().all(|&b| b == want),
                    "{case}: block {lb} read back stale"
                );
            }
            assert_eq!(sys.parked_total(), 0, "{case}: copies left parked after the migration");
            sys.scrub().unwrap_or_else(|e| panic!("{case}: scrub: {e}"));
        }
    }
}

/// Retiring a failed disk whose partner failed too loses the blocks that
/// lived on just those two — and the migration still closes, so the next
/// transition does not find it draining. The lost blocks read `DataLoss`
/// until they are written again; every other block reads its bytes.
#[test]
fn a_rebalance_that_loses_blocks_closes_its_migration() {
    let (mut engine, mut sys) = cdd::testkit::shape(4, 1, 8 << 20, Arch::RaidX);
    let bs = sys.block_size() as usize;
    let mut want: Vec<u8> = (1..=24).collect();
    let data: Vec<u8> = want.iter().flat_map(|&b| vec![b; bs]).collect();
    sys.write(0, 0, &data).expect("seed");
    let _ = sys.flush_images();
    // Blocks with every copy on disk 1 or disk 2.
    let layout = sys.layout();
    let on_1_and_2 = |lb: &u64| {
        let mut disks = layout.locate_images(*lb).into_iter().map(|a| a.disk);
        let d = layout.locate_data(*lb).disk;
        (d == 1 || d == 2) && disks.all(|g| g == 1 || g == 2)
    };
    let lost: Vec<u64> = (0..24).filter(on_1_and_2).collect();
    assert_eq!(lost.first(), Some(&5), "want a loss at block 5, as the layout puts it");
    let read_all = |sys: &mut cdd::IoSystem, want: &[u8], lost: &[u64], when: &str| {
        for lb in 0..24u64 {
            match sys.read(3, lb, 1) {
                Ok((got, _)) => {
                    assert!(!lost.contains(&lb), "{when}: lost block {lb} read {:#04x}", got[0]);
                    assert!(got.iter().all(|&b| b == want[lb as usize]), "{when}: block {lb}");
                }
                Err(cdd::IoError::DataLoss { lb: at }) => {
                    assert!(at == lb && lost.contains(&lb), "{when}: block {lb} reads DataLoss");
                }
                Err(e) => panic!("{when}: block {lb}: {e}"),
            }
        }
    };
    let settle = |engine: &mut sim_core::Engine, out: cdd::RestoreOutcome| {
        engine.spawn_job("repair", out.plan);
        engine.run().expect("repair timing");
    };

    sys.fail_disk(1);
    sys.fail_disk(2);
    sys.add_disk(&mut engine).expect("add spare");
    sys.remove_disk(1).expect("retire disk 1");
    let out = sys.rebalance(0, None).expect("rebalance");
    assert_eq!((out.lost, out.finished), (Some(5), true));
    assert!(out.restored > 0, "the copies with a source are restored");
    assert_eq!(sys.migration_pending(), 0, "the lost copies leave the pending set");
    settle(&mut engine, out);
    read_all(&mut sys, &want, &lost, "after the rebalance");

    let out = sys.rebuild_disk(0, 2, None).expect("rebuild disk 2");
    assert_eq!(out.lost, Some(5), "disk 2's copies of the lost blocks have no source");
    settle(&mut engine, out);
    let out = sys.rebalance(0, None).expect("rebalance with none in flight");
    assert!(out.finished && out.lost.is_none() && out.restored == 0);
    read_all(&mut sys, &want, &lost, "after the rebuild");

    // The next transition finds no migration in flight.
    sys.add_disk(&mut engine).expect("add a second spare");
    sys.remove_disk(3).expect("retire disk 3");
    let out = sys.rebalance(0, None).expect("drain the second migration");
    assert!(out.finished && out.lost.is_none(), "disk 3's copies all have a source");
    assert_eq!(sys.migration_pending(), 0);
    settle(&mut engine, out);
    read_all(&mut sys, &want, &lost, "after the second migration");

    for &lb in &lost {
        sys.write(1, lb, &vec![0x5A; bs]).expect("rewrite a lost block");
        want[lb as usize] = 0x5A;
    }
    assert_eq!(sys.parked_total(), 0, "rewriting every lost block empties the ledger");
    read_all(&mut sys, &want, &[], "rewritten");
    sys.scrub().expect("scrub");
}

/// A migration whose pending blocks are all overwritten closes with its
/// last one: the next retirement finds none in flight, although no
/// rebalance ran.
#[test]
fn overwriting_every_pending_block_closes_the_migration() {
    let (mut engine, mut sys) = cdd::testkit::shape(4, 1, 8 << 20, Arch::RaidX);
    let bs = sys.block_size() as usize;
    sys.write(0, 0, &vec![0x42; 8 * bs]).expect("seed");
    sys.add_disk(&mut engine).expect("add spare");
    sys.remove_disk(1).expect("retire disk 1");
    assert_eq!(sys.migration_pending(), 4);
    sys.write(0, 0, &vec![0x91; 8 * bs]).expect("overwrite");
    assert_eq!(sys.migration_pending(), 0);

    sys.add_disk(&mut engine).expect("add a second spare");
    sys.remove_disk(2).expect("retire disk 2 with no migration in flight");
    let out = sys.rebalance(0, None).expect("drain the second migration");
    assert!(out.finished && out.lost.is_none());
    engine.spawn_job("rebalance", out.plan);
    engine.run().expect("rebalance timing");
    let (got, _) = sys.read(3, 0, 8).expect("read back");
    assert!(got.iter().all(|&b| b == 0x91), "a block read back stale");
    sys.scrub().expect("scrub");
}

/// An image still buffered when its slot is retired flushes to the
/// slot's new home: the queue holds slot addresses, which the flush maps
/// through the current binding.
#[test]
fn a_buffered_image_flushes_to_its_slots_new_home() {
    let (mut engine, mut sys) = cdd::testkit::shape(4, 1, 8 << 20, Arch::RaidX);
    let bs = sys.block_size() as usize;
    assert_eq!(sys.layout().locate_images(1)[0].disk, 3);
    sys.write(0, 1, &vec![0x91; bs]).expect("write");
    assert_eq!(sys.pending_image_blocks(), 1, "the image must still be buffered");
    let spare = sys.add_disk(&mut engine).expect("add spare");
    sys.remove_disk(3).expect("retire the image disk");
    let busy = |engine: &sim_core::Engine, sys: &cdd::IoSystem, g: usize| {
        engine.resource_stats(sys.cluster().disks[g].res).busy
    };
    let (old, new) = (busy(&engine, &sys, 3), busy(&engine, &sys, spare));
    let flush = sys.flush_images();
    engine.spawn_job("flush", flush);
    engine.run().expect("flush timing");
    assert_eq!(busy(&engine, &sys, 3), old, "the flush wrote to the retired disk");
    assert!(busy(&engine, &sys, spare) > new, "the flush missed the new home");
}
