//! The lock round of a write is a constant of (client, cluster): built on
//! the client's first write, shared by every later one, and event for
//! event the round a write would build for itself.

use std::sync::Arc;

use cdd::{testkit, CddConfig, IoSystem, OpBuilder};
use raidx_core::Arch;
use sim_core::plan::{par, seq};
use sim_core::trace::{EventLog, TimedEvent};
use sim_core::{Engine, Plan};

fn one_block_write(sys: &mut IoSystem, client: usize, lb: u64) -> Plan {
    let data = vec![client as u8 + 1; sys.block_size() as usize];
    sys.write(client, lb, &data).expect("healthy write")
}

/// The write plan's lock round — the `Par` whose branches are all
/// `Shared` chains — if it has one. Nothing else in `cdd` emits `Shared`.
fn round_mut(write: &mut Plan) -> Option<&mut Vec<Plan>> {
    let Plan::Seq(chain) = write else { panic!("a write plan is a chain, got {write:?}") };
    chain.iter_mut().find_map(|step| match step {
        Plan::Par(v) if v.iter().all(|p| matches!(p, Plan::Shared(_))) => Some(v),
        _ => None,
    })
}

fn chains(mut write: Plan) -> Vec<Arc<[Plan]>> {
    let round = round_mut(&mut write).expect("the write carries a lock round");
    round
        .iter()
        .map(|p| match p {
            Plan::Shared(steps) => steps.clone(),
            other => panic!("not a shared chain: {other:?}"),
        })
        .collect()
}

#[test]
fn a_clients_writes_share_one_lock_round() {
    let (_e, mut sys) = testkit::shape(16, 1, 16 << 20, Arch::RaidX);
    let first = chains(one_block_write(&mut sys, 3, 0));
    let second = chains(one_block_write(&mut sys, 3, 40));
    let other = chains(one_block_write(&mut sys, 4, 80));
    assert_eq!((first.len(), second.len(), other.len()), (15, 15, 15));
    for (a, b) in first.iter().zip(&second) {
        assert!(Arc::ptr_eq(a, b), "one client, two copies of a chain");
        // Grant then ack, five leaves each.
        assert_eq!(a.len(), 10);
        assert!(a.iter().all(|p| matches!(p, Plan::Use { .. } | Plan::Delay(_))), "{a:?}");
    }
    for a in &first {
        assert!(other.iter().all(|b| !Arc::ptr_eq(a, b)), "two clients, one chain");
    }
}

/// The round as every write used to build it for itself: per peer a
/// chain of two messages, each message a chain of its stages.
fn reference_round(ops: &OpBuilder<'_>, client: usize) -> Plan {
    par((0..ops.cluster.cfg.nodes)
        .filter(|&n| n != client)
        .map(|n| {
            seq(vec![
                ops.msg(client, n, ops.cfg.control_bytes),
                ops.msg(n, client, ops.cfg.ack_bytes),
            ])
        })
        .collect())
}

/// Three clients each write twice (concurrent jobs, so the rounds contend
/// for ports and CPUs); returns the engine trace. With `reference` every
/// write's shared round is swapped for one built by `reference_round`.
fn traced_writes(
    shape: (usize, usize),
    arch: Arch,
    cfg: &CddConfig,
    reference: bool,
) -> Vec<TimedEvent> {
    let (mut e, mut sys): (Engine, IoSystem) =
        testkit::shape_with(shape.0, shape.1, 16 << 20, arch, cfg.clone());
    let log = EventLog::new();
    e.set_tracer(Box::new(log.clone()));
    for i in 0..6 {
        let client = i % 3;
        let mut write = one_block_write(&mut sys, client, 7 * i as u64);
        let round = round_mut(&mut write);
        assert_eq!(round.is_some(), cfg.lock_broadcast, "lock_broadcast is the only switch");
        if let (true, Some(round)) = (reference, round) {
            let Plan::Par(owned) =
                reference_round(&OpBuilder { cluster: &sys.cluster, cfg }, client)
            else {
                unreachable!("reference_round builds a Par")
            };
            *round = owned;
        }
        e.validate(&write).expect("a Strict-valid plan");
        e.spawn_job(format!("w{i}"), write);
    }
    e.run().expect("no barriers, no deadlock");
    log.events()
}

#[test]
fn the_shared_round_runs_event_for_event_like_a_per_write_round() {
    for shape in [(4, 3), (16, 1)] {
        for arch in [Arch::Raid10, Arch::RaidX] {
            let mut events = Vec::new();
            for lock_broadcast in [true, false] {
                let cfg = CddConfig { lock_broadcast, ..CddConfig::default() };
                let shared = traced_writes(shape, arch, &cfg, false);
                let owned = traced_writes(shape, arch, &cfg, true);
                assert!(shared == owned, "{shape:?} {arch:?} lock_broadcast={lock_broadcast}");
                events.push(shared.len());
            }
            // Ten served stages per peer and write, where there is a round.
            let peers = shape.0 - 1;
            assert!(events[0] >= events[1] + 6 * peers * 10, "{shape:?} {arch:?}: {events:?}");
        }
    }
}

/// Nodes of `plan` that this plan owns: everything but the contents of
/// `Shared` chains.
fn owned_nodes(plan: &Plan) -> usize {
    1 + match plan {
        Plan::Seq(v) | Plan::Par(v) => v.iter().map(owned_nodes).sum(),
        Plan::Background(p) => owned_nodes(p),
        Plan::Shared(_) | Plan::Noop | Plan::Delay(_) | Plan::Use { .. } | Plan::Barrier(_) => 0,
    }
}

#[test]
fn a_small_write_plan_owns_one_handle_per_peer_not_one_round() {
    // A round built per write is 12 nodes per peer (1,524 at 128 nodes);
    // the rest of a one-block write is a few dozen whatever the size.
    for nodes in [16, 128] {
        for arch in [Arch::Raid5, Arch::Raid10, Arch::RaidX] {
            let (_e, mut sys) = testkit::shape(nodes, 1, 16 << 20, arch);
            one_block_write(&mut sys, 1, 0);
            let write = one_block_write(&mut sys, 1, 1);
            let owned = owned_nodes(&write);
            assert!(owned <= nodes + 64, "{nodes} nodes, {arch:?}: write owns {owned} plan nodes");
            assert!(write.leaf_count() > 8 * (nodes - 1), "the round is missing from the plan");
        }
    }
}

#[test]
fn a_single_node_array_has_no_lock_round() {
    // No peer, no broadcast: an empty `Par` would fail `Engine::validate`.
    for arch in [Arch::Raid5, Arch::Chained, Arch::Raid10] {
        let (mut e, mut sys) = testkit::shape(1, 4, 4 << 20, arch);
        let mut write = one_block_write(&mut sys, 0, 0);
        e.validate(&write).unwrap_or_else(|errs| panic!("{arch:?}: {errs:?}"));
        assert!(round_mut(&mut write).is_none());
        e.spawn_job("w", write);
        e.run().expect("the write completes");
    }
}
