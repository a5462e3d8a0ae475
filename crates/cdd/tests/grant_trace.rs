//! The trace stream is the lock record. Every grant `IoSystem` takes —
//! a data write's block range and the membership operations' reserved
//! meta range alike — appears on the one `Tracer` stream as an
//! `Acquire`/`Release` pair on the grant's protocol tick, with a data
//! write's `Write` between them; `cdd::testkit::grants_of` checks exactly
//! these pairs.

use cdd::testkit::{grants_of, shape, Grants};
use cdd::{IoError, IoSystem};
use raidx_core::Arch;
use sim_core::trace::{AccessKind, EventLog, TraceEvent};
use sim_core::{Engine, Plan};

fn run(engine: &mut Engine, plan: Plan) {
    engine.spawn_job("op", plan);
    engine.run().expect("no barriers, no deadlock");
}

fn write(engine: &mut Engine, sys: &mut IoSystem, client: usize, lb: u64, nblocks: usize) {
    let data = vec![lb as u8 + 1; nblocks * sys.block_size() as usize];
    let plan = sys.write(client, lb, &data).expect("fault-free write");
    run(engine, plan);
}

#[test]
fn every_grant_is_one_acquire_release_pair_on_the_shared_stream() {
    for arch in Arch::ALL {
        let (mut engine, mut sys) = shape(4, 1, 8 << 20, arch);
        let log = EventLog::new();
        engine.set_tracer(Box::new(log.clone()));
        sys.set_tracer(Box::new(log.clone()));

        // Two clients overlap on blocks 2..4: a release → acquire edge.
        write(&mut engine, &mut sys, 0, 0, 4);
        write(&mut engine, &mut sys, 1, 2, 4);
        sys.add_disk(&mut engine, 0).expect("add spare");
        write(&mut engine, &mut sys, 2, 8, 2);
        sys.remove_disk(0, 1).expect("retire disk 1");
        let (mut writes, mut meta_ops) = (3, 2);
        assert!(sys.migration_pending() > 0, "{arch:?}: nothing to rebalance");
        while sys.migration_pending() > 0 {
            let step = sys.rebalance(0, Some(2)).expect("rebalance step");
            meta_ops += 1;
            run(&mut engine, step.plan);
            write(&mut engine, &mut sys, 3, 16 + writes, 1);
            writes += 1;
        }
        let (_, plan) = sys.read(1, 0, 24).expect("read back");
        run(&mut engine, plan);

        let grants = grants_of(&log.events(), sys.capacity_blocks())
            .unwrap_or_else(|e| panic!("{arch:?}: {e}"));
        let expected = Grants { pairs: sys.lock_grants(), meta_pairs: meta_ops, writes };
        assert_eq!(grants, expected, "{arch:?}");
        assert_eq!(grants.pairs, writes + meta_ops, "{arch:?}: a grant nobody asked for");
    }
}

/// A write that fails under its grant still releases it: the `Release`
/// is emitted and the live-grant guard is cleared, so the next write
/// takes its own grant. The failed write's pair holds no `Write`.
#[test]
fn a_failed_write_releases_its_grant() {
    for arch in [Arch::RaidX, Arch::Raid10, Arch::Raid5] {
        let (mut engine, mut sys) = shape(4, 1, 8 << 20, arch);
        let log = EventLog::new();
        sys.set_tracer(Box::new(log.clone()));
        write(&mut engine, &mut sys, 0, 0, 1);

        // Every disk holding a copy of block 0, or its parity, fails.
        let homes = |sys: &IoSystem, lb: u64| {
            let l = sys.layout();
            let mut disks = vec![l.locate_data(lb).disk];
            disks.extend(
                l.locate_images(lb).iter().chain(l.locate_parity(lb).iter()).map(|a| a.disk),
            );
            disks
        };
        let failed = homes(&sys, 0);
        for &disk in &failed {
            sys.fail_disk(disk);
        }
        let block = vec![9; sys.block_size() as usize];
        match sys.write(0, 0, &block) {
            Err(IoError::DataLoss { lb: 0 }) => {}
            other => panic!("{arch:?}: expected DataLoss, got {other:?}"),
        }
        let elsewhere = (1..sys.capacity_blocks())
            .find(|&lb| homes(&sys, lb).iter().all(|d| !failed.contains(d)))
            .expect("a block on surviving disks");
        write(&mut engine, &mut sys, 1, elsewhere, 1);

        let events = log.events();
        let grants =
            grants_of(&events, sys.capacity_blocks()).unwrap_or_else(|e| panic!("{arch:?}: {e}"));
        assert_eq!(grants, Grants { pairs: 3, meta_pairs: 0, writes: 2 }, "{arch:?}");
        assert_eq!(grants.pairs, sys.lock_grants(), "{arch:?}");
        let kinds: Vec<AccessKind> = events
            .iter()
            .filter_map(|te| {
                let TraceEvent::Access { kind, .. } = te.event else { return None };
                Some(kind)
            })
            .collect();
        use AccessKind::{Acquire, Release, Write};
        let expected = [Acquire, Write, Release, Acquire, Release, Acquire, Write, Release];
        assert_eq!(kinds, expected, "{arch:?}: the failed write's pair holds a `Write`");
    }
}
