//! The trace stream is the lock record. Every grant `IoSystem` takes —
//! a data write's block range and the membership operations' reserved
//! meta range alike — appears on the one `Tracer` stream as an
//! `Acquire`/`Release` pair on the grant's protocol tick, with a data
//! write's `Write` between them; `cdd::testkit::grants_of` checks exactly
//! these pairs.

use cdd::testkit::{grants_of, shape, Grants};
use cdd::IoSystem;
use raidx_core::Arch;
use sim_core::trace::EventLog;
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
