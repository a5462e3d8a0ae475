//! The trace stream is the lock record. Every grant `IoSystem` takes —
//! a data write's block range and the membership operations' reserved
//! meta range alike — appears on the one `Tracer` stream as an
//! `Acquire`/`Release` pair on the op's protocol tick, with the op's own
//! accesses between them; `sim_core::hb` checks write coverage against
//! exactly these pairs.

use cdd::testkit::shape;
use cdd::IoSystem;
use raidx_core::Arch;
use sim_core::hb;
use sim_core::trace::{AccessKind, EventLog, TimedEvent, TraceEvent};
use sim_core::{Engine, Plan, SimTime};

fn run(engine: &mut Engine, plan: Plan) {
    engine.spawn_job("op", plan);
    engine.run().expect("no barriers, no deadlock");
}

fn write(engine: &mut Engine, sys: &mut IoSystem, client: usize, lb: u64, nblocks: usize) {
    let data = vec![lb as u8 + 1; nblocks * sys.block_size() as usize];
    let plan = sys.write(client, lb, &data).expect("fault-free write");
    run(engine, plan);
}

/// What the `Access` events of a stream add up to.
#[derive(Debug, Default, PartialEq, Eq)]
struct Grants {
    /// `Acquire`/`Release` pairs.
    pairs: u64,
    /// Pairs over cells past the array's capacity: the epoch meta range.
    meta_pairs: u64,
    /// SIOS `Write` accesses, each inside its writer's pair.
    writes: u64,
}

/// Walk the stream's `Access` events, asserting the pairing contract.
fn grants_of(events: &[TimedEvent], capacity: u64) -> Grants {
    let mut out = Grants::default();
    // The live grant: (tick, actor, first cell, cells).
    let mut live: Option<(SimTime, u32, u64, u64)> = None;
    for te in events {
        let TraceEvent::Access { task, cell, len, kind } = te.event else { continue };
        match kind {
            AccessKind::Acquire => {
                assert_eq!(live, None, "a grant taken under a live grant");
                live = Some((te.at, task, cell, len));
            }
            AccessKind::Release => {
                assert_eq!(live, Some((te.at, task, cell, len)), "release without its acquire");
                live = None;
                out.pairs += 1;
                out.meta_pairs += u64::from(hb::cell_index(cell) >= capacity);
            }
            AccessKind::Write if hb::cell_ns(cell) == hb::SIOS_NS => {
                let (at, actor, first, cells) = live.expect("SIOS write outside any grant");
                assert_eq!((te.at, task), (at, actor), "write off its grant's tick or actor");
                assert!(first <= cell && cell + len <= first + cells, "write outside its grant");
                out.writes += 1;
            }
            // Image surrenders and lock-free reads carry no grant.
            AccessKind::Write | AccessKind::Read => {}
        }
    }
    assert_eq!(live, None, "a grant outlived the stream");
    out
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

        let events = log.events();
        let grants = grants_of(&events, sys.capacity_blocks());
        let expected = Grants { pairs: sys.lock_grants(), meta_pairs: meta_ops, writes };
        assert_eq!(grants, expected, "{arch:?}");
        assert_eq!(grants.pairs, writes + meta_ops, "{arch:?}: a grant nobody asked for");

        let analysis = hb::analyze(&events);
        assert!(analysis.clean(), "{arch:?}: {:?}", analysis.violations);
        assert!(analysis.accesses > 0 && analysis.sync_edges > 0, "{arch:?}: {analysis:?}");
    }
}
